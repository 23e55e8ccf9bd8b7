//! Minimal hand-rolled argument parser: `--flag`, `--key value` and
//! positionals, with typed accessors and unknown-flag detection.

use std::collections::BTreeMap;

/// Parsed command line: positionals plus `--key [value]` options.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
    consumed: std::cell::RefCell<Vec<String>>,
}

impl Args {
    /// Splits `argv` into positionals and options. A token starting with
    /// `--` consumes the next token as its value unless that token is itself
    /// an option or missing (then it is a boolean flag). A repeated option
    /// keeps its last value.
    pub fn parse(argv: &[String]) -> Args {
        let mut a = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let tok = &argv[i];
            if let Some(key) = tok.strip_prefix("--") {
                let takes_value = i + 1 < argv.len() && !argv[i + 1].starts_with("--");
                if takes_value {
                    a.options.insert(key.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    a.options.insert(key.to_string(), String::new());
                    i += 1;
                }
            } else {
                a.positional.push(tok.clone());
                i += 1;
            }
        }
        a
    }

    /// Positional arguments in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// String option (last occurrence wins).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.consumed.borrow_mut().push(key.to_string());
        self.options
            .get(key)
            .map(String::as_str)
            .filter(|s| !s.is_empty())
    }

    /// Boolean flag presence.
    pub fn flag(&self, key: &str) -> bool {
        self.consumed.borrow_mut().push(key.to_string());
        self.options.contains_key(key)
    }

    /// Typed option with a default.
    pub fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {s:?}")),
        }
    }

    /// Required typed option.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let s = self
            .get(key)
            .ok_or_else(|| format!("missing required option --{key}"))?;
        s.parse()
            .map_err(|_| format!("invalid value for --{key}: {s:?}"))
    }

    /// Errors on any option that no accessor asked about (typo protection).
    pub fn reject_unknown(&self) -> Result<(), String> {
        let seen = self.consumed.borrow();
        for key in self.options.keys() {
            if !seen.iter().any(|s| s == key) {
                return Err(format!("unknown option --{key}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_positionals_and_options() {
        let a = args(&["enumerate", "--k", "2", "--count-only", "--q", "12"]);
        assert_eq!(a.positional(), &["enumerate"]);
        assert_eq!(a.get("k"), Some("2"));
        assert!(a.flag("count-only"));
        assert_eq!(a.require::<usize>("q").unwrap(), 12);
    }

    #[test]
    fn typed_defaults_and_errors() {
        let a = args(&["--threads", "abc"]);
        assert!(a.get_parse::<usize>("threads", 1).is_err());
        let a = args(&[]);
        assert_eq!(a.get_parse::<usize>("threads", 4).unwrap(), 4);
        assert!(a.require::<usize>("k").is_err());
    }

    #[test]
    fn unknown_options_detected() {
        let a = args(&["--k", "2", "--bogus", "1"]);
        let _ = a.get("k");
        assert!(a.reject_unknown().is_err());
        let _ = a.get("bogus");
        assert!(a.reject_unknown().is_ok());
    }
}
