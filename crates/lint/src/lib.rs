#![deny(missing_docs)]
//! Workspace invariant linter for the k-plex repo.
//!
//! `kplex-lint` is a deliberately small, std-only static analyzer: a
//! line/token scanner, not a parser. The build environment has no registry
//! access, so `syn`/rustc-plugin approaches are off the table; instead the
//! scanner strips comments, strings, and char literals from each line
//! (tracking multi-line block comments and string literals across lines),
//! tags lines that fall inside `#[cfg(test)]` modules, and runs word-level
//! rules over what remains. That is enough to enforce the handful of
//! repo-wide invariants that rustc and clippy cannot see:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `raw-sync` | no raw `std::sync` `Mutex`/`RwLock`/`Condvar` in `crates/service` or `crates/parallel` outside `service/src/sync.rs` — every lock goes through the ranked [`OrderedMutex`] wrappers so the debug-build deadlock detector sees it |
//! | `ordering-comment` | every `Ordering::Relaxed` / `Ordering::SeqCst` site carries an `// ordering:` justification (same line or the comment block directly above) |
//! | `protocol-exhaustive` | every `Request::` variant appears in `render_request`, in `parse_request`, and in the proptest strategy, so a new verb cannot ship without wire coverage |
//! | `journal-exhaustive` | every journal `Record` variant appears in `parse_record` and in `replay`, so a new record tag cannot ship without crash-recovery handling |
//! | `core-hygiene` | no `println!`/`eprintln!`/`dbg!`/`todo!`/`unimplemented!` in the enumeration kernel or the seed loop and `prepare` that drive it (`driver.rs`, `enumerate.rs`), and every `Instant::now` there carries a `// timing:` justification |
//! | `unwrap-allowlist` | non-test `.unwrap()` in `crates/service/src` only at explicitly allowlisted sites — everything else uses the [`OrderedMutex`] poisoning policy or propagates errors |
//! | `store-abstraction` | no literal `CsrGraph` in non-test code of `crates/core/src` — the enumeration kernel speaks the `GraphStore` trait, so every backend (CSR, compressed, mmap) stays first-class |
//! | `tenant-scoped` | in `crates/service/src/server.rs`, the shared jobs map is only locked inside the principal-scoped accessors (`job_for`/`jobs_for`), their documented runner-side escape hatch (`job_unscoped`), or at sites carrying a `// tenant:` justification — so a new handler cannot quietly serve one tenant's jobs to another |
//! | `engine-no-sleep` | no `thread::sleep` in non-test code of `crates/parallel/src` or of the seed loop every engine worker runs (`crates/core/src/driver.rs`) — the engine idles workers by park/unpark with an explicit wakeup protocol, and a sleep call quietly reintroduces the timed-polling latency (and the lost-wakeup masking) the scheduler rewrite removed |
//!
//! Run it with `cargo run -p kplex-lint` (CI's `analyze` job does); it
//! exits non-zero on any finding. The rules are exercised by fixture
//! tests below — a good and a bad snippet per rule — so a scanner
//! regression fails the suite, not just the tree scan.
//!
//! [`OrderedMutex`]: ../kplex_service/sync/struct.OrderedMutex.html

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// One rule violation at a specific source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Path of the offending file, relative to the workspace root when
    /// produced by [`run_workspace`].
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Short rule name (`raw-sync`, `ordering-comment`, ...).
    pub rule: &'static str,
    /// Human-readable explanation of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Rule name: raw `std::sync` primitives outside the sync module.
pub const RULE_RAW_SYNC: &str = "raw-sync";
/// Rule name: unjustified `Ordering::Relaxed` / `Ordering::SeqCst`.
pub const RULE_ORDERING: &str = "ordering-comment";
/// Rule name: `Request` variant missing from render/parse/proptest.
pub const RULE_PROTOCOL: &str = "protocol-exhaustive";
/// Rule name: journal `Record` variant missing from parse/replay.
pub const RULE_JOURNAL: &str = "journal-exhaustive";
/// Rule name: debug macros or unjustified clock reads in the kernel.
pub const RULE_HYGIENE: &str = "core-hygiene";
/// Rule name: non-allowlisted `.unwrap()` in `crates/service/src`.
pub const RULE_UNWRAP: &str = "unwrap-allowlist";
/// Rule name: literal `CsrGraph` in non-test enumeration-kernel code.
pub const RULE_STORE: &str = "store-abstraction";
/// Rule name: jobs-map lock outside the principal-scoped accessors.
pub const RULE_TENANT: &str = "tenant-scoped";
/// Rule name: `thread::sleep` in non-test parallel-engine code.
pub const RULE_ENGINE_SLEEP: &str = "engine-no-sleep";

/// One scanned source line, split into its code and comment halves.
#[derive(Clone, Debug)]
pub struct Line {
    /// The line exactly as it appears in the file.
    pub raw: String,
    /// The line with comments, string contents, and char literals stripped
    /// (string literals collapse to `""`). Word-level rules run over this.
    pub code: String,
    /// The comment text of the line (line comments and any block-comment
    /// content), without the `//` / `/*` markers.
    pub comment: String,
    /// True when the line falls inside a `#[cfg(test)]` module.
    pub in_test: bool,
}

impl Line {
    /// True when the line is comment-only: no code, some comment text.
    fn is_pure_comment(&self) -> bool {
        self.code.trim().is_empty() && !self.comment.trim().is_empty()
    }
}

/// A scanned source file: path plus per-line code/comment split.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Path the file was scanned under (workspace-relative in practice).
    pub path: String,
    /// The scanned lines, in file order.
    pub lines: Vec<Line>,
}

/// Scanner state that survives across lines.
enum Mode {
    /// Ordinary code.
    Code,
    /// Inside a (possibly nested) block comment; the payload is the depth.
    Block(usize),
    /// Inside a normal string literal (they can span lines).
    Str,
    /// Inside a raw string literal with this many `#`s in its delimiter.
    RawStr(usize),
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Scans `text` into per-line code/comment halves and tags `#[cfg(test)]`
/// module bodies. This is the only place that understands Rust lexical
/// structure; the rules operate on the result.
pub fn parse_source(path: &str, text: &str) -> SourceFile {
    let mut lines = Vec::new();
    let mut mode = Mode::Code;
    for raw in text.lines() {
        let chars: Vec<char> = raw.chars().collect();
        let mut code = String::new();
        let mut comment = String::new();
        let mut i = 0;
        while i < chars.len() {
            match mode {
                Mode::Block(depth) => {
                    if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        mode = if depth == 1 {
                            Mode::Code
                        } else {
                            Mode::Block(depth - 1)
                        };
                        i += 2;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        mode = Mode::Block(depth + 1);
                        i += 2;
                    } else {
                        comment.push(chars[i]);
                        i += 1;
                    }
                }
                Mode::Str => match chars[i] {
                    '\\' => i += 2,
                    '"' => {
                        code.push('"');
                        mode = Mode::Code;
                        i += 1;
                    }
                    _ => i += 1,
                },
                Mode::RawStr(h) => {
                    if chars[i] == '"' && (0..h).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
                        code.push('"');
                        mode = Mode::Code;
                        i += 1 + h;
                    } else {
                        i += 1;
                    }
                }
                Mode::Code => {
                    let c = chars[i];
                    let prev_ident = code.chars().last().is_some_and(is_ident_char);
                    if c == '/' && chars.get(i + 1) == Some(&'/') {
                        comment.extend(&chars[i + 2..]);
                        break;
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        mode = Mode::Block(1);
                        code.push(' ');
                        i += 2;
                    } else if c == '"' {
                        code.push('"');
                        mode = Mode::Str;
                        i += 1;
                    } else if (c == 'r' || c == 'b') && !prev_ident {
                        // Raw / byte string prefixes: r"", r#""#, b"", br#""#.
                        let mut j = i;
                        if chars[j] == 'b' {
                            j += 1;
                        }
                        if chars.get(j) == Some(&'r') {
                            let mut h = 0;
                            while chars.get(j + 1 + h) == Some(&'#') {
                                h += 1;
                            }
                            if chars.get(j + 1 + h) == Some(&'"') {
                                code.push('"');
                                mode = Mode::RawStr(h);
                                i = j + 2 + h;
                                continue;
                            }
                        } else if c == 'b' && chars.get(j) == Some(&'"') {
                            code.push('"');
                            mode = Mode::Str;
                            i = j + 1;
                            continue;
                        }
                        code.push(c);
                        i += 1;
                    } else if c == '\'' && !prev_ident {
                        // Char literal vs lifetime. `prev_ident` guards
                        // against postfix positions (none exist for `'`),
                        // and keeps `Guard<'a>` working: after `<` the
                        // lookahead below classifies `'a` as a lifetime.
                        if chars.get(i + 1) == Some(&'\\') {
                            // Escaped char literal: skip the escape payload.
                            let mut j = i + 2;
                            if chars.get(j) == Some(&'u') && chars.get(j + 1) == Some(&'{') {
                                while j < chars.len() && chars[j] != '}' {
                                    j += 1;
                                }
                            }
                            j += 1;
                            if chars.get(j) == Some(&'\'') {
                                j += 1;
                            }
                            code.push(' ');
                            i = j;
                        } else if chars.get(i + 2) == Some(&'\'') {
                            // One-char literal, e.g. '"' or '{'.
                            code.push(' ');
                            i += 3;
                        } else {
                            // Lifetime: keep it (it is not ident-adjacent
                            // in a way any rule cares about).
                            code.push('\'');
                            i += 1;
                        }
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
            }
        }
        lines.push(Line {
            raw: raw.to_string(),
            code,
            comment,
            in_test: false,
        });
    }

    // Second pass: tag `#[cfg(test)] mod ... { ... }` bodies by brace depth.
    let mut depth: i64 = 0;
    let mut armed = false; // saw #[cfg(test)], waiting for the item
    let mut pending_mod = false; // saw `mod`, waiting for its `{`
    let mut test_depth: Option<i64> = None;
    for line in &mut lines {
        let starts_in_test = test_depth.is_some();
        if test_depth.is_none() {
            let trimmed = line.code.trim();
            if trimmed.contains("#[cfg(test)]") {
                armed = true;
            }
            if armed && contains_word(&line.code, "mod") {
                pending_mod = true;
                armed = false;
            } else if armed
                && !trimmed.is_empty()
                && !trimmed.starts_with("#[")
                && !trimmed.contains("#[cfg(test)]")
            {
                // cfg(test) on a non-module item (a lone fn, an import):
                // out of scope for module tagging.
                armed = false;
            }
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending_mod {
                        test_depth = Some(depth);
                        pending_mod = false;
                    }
                }
                '}' => {
                    if test_depth == Some(depth) {
                        test_depth = None;
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        line.in_test = starts_in_test || test_depth.is_some();
    }

    SourceFile {
        path: path.to_string(),
        lines,
    }
}

/// True when `needle` occurs in `haystack` delimited by non-identifier
/// characters on both sides (so `OrderedMutex` does not match `Mutex`).
pub fn contains_word(haystack: &str, needle: &str) -> bool {
    let h: &[u8] = haystack.as_bytes();
    let n = needle.len();
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle) {
        let at = from + pos;
        let left_ok = at == 0 || !is_ident_char(h[at - 1] as char);
        let right_ok = at + n >= h.len() || !is_ident_char(h[at + n] as char);
        if left_ok && right_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

/// True when line `idx` carries a `tag` justification: either in its own
/// comment, or anywhere in the contiguous block of comment-only lines
/// directly above it.
fn has_annotation(file: &SourceFile, idx: usize, tag: &str) -> bool {
    if file.lines[idx].comment.contains(tag) {
        return true;
    }
    let mut j = idx;
    while j > 0 && file.lines[j - 1].is_pure_comment() {
        j -= 1;
        if file.lines[j].comment.contains(tag) {
            return true;
        }
    }
    false
}

/// `raw-sync`: flags raw `std::sync` lock/condvar types. Applies to test
/// code too — test deadlocks hang CI just as hard — and to every file it
/// is pointed at (the workspace wiring exempts `service/src/sync.rs`,
/// which wraps the raw types by design).
pub fn check_raw_sync(file: &SourceFile) -> Vec<Finding> {
    const BANNED: &[&str] = &["Mutex", "MutexGuard", "RwLock", "Condvar"];
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        for word in BANNED {
            if contains_word(&line.code, word) {
                out.push(Finding {
                    file: file.path.clone(),
                    line: idx + 1,
                    rule: RULE_RAW_SYNC,
                    message: format!(
                        "raw `{word}` outside the sync module; use the ranked \
                         wrappers in kplex_service::sync so the deadlock \
                         detector sees this lock"
                    ),
                });
            }
        }
    }
    out
}

/// `ordering-comment`: every `Ordering::Relaxed` / `Ordering::SeqCst` site
/// needs an `// ordering:` justification on the line or in the comment
/// block directly above. Acquire/Release/AcqRel sites are self-describing
/// (they name the synchronization they provide) and are exempt. Applies to
/// test code too: test atomics still encode assumptions worth stating.
pub fn check_ordering_comments(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let relaxed = line.code.contains("Ordering::Relaxed");
        let seqcst = line.code.contains("Ordering::SeqCst");
        if (relaxed || seqcst) && !has_annotation(file, idx, "ordering:") {
            let which = if relaxed { "Relaxed" } else { "SeqCst" };
            out.push(Finding {
                file: file.path.clone(),
                line: idx + 1,
                rule: RULE_ORDERING,
                message: format!(
                    "`Ordering::{which}` without an `// ordering:` \
                     justification on this line or directly above"
                ),
            });
        }
    }
    out
}

/// Extracts the variant names of `enum name` from a scanned file: the
/// leading upper-case identifier of each line at the enum's first brace
/// depth. Struct-variant bodies and nested braces are skipped by depth.
pub fn enum_variants(file: &SourceFile, name: &str) -> Vec<String> {
    let mut start = None;
    for (idx, line) in file.lines.iter().enumerate() {
        if contains_word(&line.code, "enum") && contains_word(&line.code, name) {
            start = Some(idx);
            break;
        }
    }
    let Some(start) = start else {
        return Vec::new();
    };

    let mut variants = Vec::new();
    let mut depth = 0i64;
    let mut parens = 0i64; // keeps `Submit(JobId, SubmitArgs)` payloads out
    let mut entered = false;
    let mut expect_variant = false;
    for line in &file.lines[start..] {
        let mut chars = line.code.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '{' => {
                    depth += 1;
                    if depth == 1 {
                        entered = true;
                        expect_variant = true;
                    }
                }
                '}' => {
                    depth -= 1;
                    if entered && depth == 0 {
                        return variants;
                    }
                }
                '(' => parens += 1,
                ')' => parens -= 1,
                ',' if depth == 1 && parens == 0 => expect_variant = true,
                c if expect_variant && depth == 1 && parens == 0 && c.is_ascii_alphabetic() => {
                    let mut ident = String::new();
                    ident.push(c);
                    while let Some(&n) = chars.peek() {
                        if is_ident_char(n) {
                            ident.push(n);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    if ident.chars().next().is_some_and(|f| f.is_ascii_uppercase()) {
                        variants.push(ident);
                    }
                    expect_variant = false;
                }
                _ => {}
            }
        }
    }
    variants
}

/// Returns the concatenated code of `fn name`'s body (from its opening
/// brace through the matching close), or `None` when the fn is absent.
pub fn fn_body(file: &SourceFile, name: &str) -> Option<String> {
    let mut start = None;
    for (idx, line) in file.lines.iter().enumerate() {
        if contains_word(&line.code, "fn") && contains_word(&line.code, name) {
            start = Some(idx);
            break;
        }
    }
    let start = start?;
    let mut body = String::new();
    let mut depth = 0i64;
    let mut entered = false;
    for line in &file.lines[start..] {
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    entered = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
            if entered {
                body.push(c);
            }
            if entered && depth == 0 {
                return Some(body);
            }
        }
        body.push('\n');
    }
    None
}

/// The inclusive line-index span of `fn name` (signature through matching
/// close brace), or `None` when the fn is absent. Brace counting over the
/// stripped code, like [`fn_body`].
pub fn fn_line_span(file: &SourceFile, name: &str) -> Option<(usize, usize)> {
    let start = file
        .lines
        .iter()
        .position(|l| contains_word(&l.code, "fn") && contains_word(&l.code, name))?;
    let mut depth = 0i64;
    let mut entered = false;
    for (idx, line) in file.lines.iter().enumerate().skip(start) {
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    entered = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
            if entered && depth == 0 {
                return Some((start, idx));
            }
        }
    }
    None
}

/// `tenant-scoped`: every non-test lock of the shared jobs map in the
/// server (`…jobs.lock(…)`, including the line-wrapped `jobs\n.lock()`
/// shape) must either live inside the principal-scoped accessors
/// (`job_for`, `jobs_for`) or their documented runner-side escape hatch
/// (`job_unscoped`), or carry a `// tenant:` justification on the line or
/// the comment block directly above — so a new handler cannot quietly
/// read one tenant's jobs on behalf of another.
pub fn check_tenant_scoped(file: &SourceFile) -> Vec<Finding> {
    let spans: Vec<(usize, usize)> = ["job_for", "jobs_for", "job_unscoped"]
        .iter()
        .filter_map(|name| fn_line_span(file, name))
        .collect();
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || !line.code.contains(".lock(") {
            continue;
        }
        let names_jobs = contains_word(&line.code, "jobs")
            || (idx > 0
                && file.lines[idx - 1].code.trim_end().ends_with("jobs")
                && line.code.trim_start().starts_with(".lock("));
        if !names_jobs {
            continue;
        }
        if spans.iter().any(|&(a, b)| a <= idx && idx <= b) {
            continue;
        }
        if has_annotation(file, idx, "tenant:") {
            continue;
        }
        out.push(Finding {
            file: file.path.clone(),
            line: idx + 1,
            rule: RULE_TENANT,
            message: "jobs-map lock outside the principal-scoped accessors; \
                      use `job_for`/`jobs_for`, or justify the unscoped read \
                      with a `// tenant:` comment"
                .to_string(),
        });
    }
    out
}

/// Exhaustiveness core shared by the protocol and journal rules: every
/// `enum_name::variant` must appear (word-delimited) in `haystack`.
fn check_coverage(
    rule: &'static str,
    file: &str,
    enum_name: &str,
    variants: &[String],
    haystack: &str,
    context: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for v in variants {
        let qualified = format!("{enum_name}::{v}");
        if !contains_word(haystack, &qualified) {
            out.push(Finding {
                file: file.to_string(),
                line: 1,
                rule,
                message: format!("`{qualified}` is not covered by {context}"),
            });
        }
    }
    out
}

/// `core-hygiene`: the enumeration kernel must not print, panic via
/// `todo!`-style placeholders, or read the clock without a `// timing:`
/// justification. Skips `#[cfg(test)]` module bodies.
pub fn check_core_hygiene(file: &SourceFile) -> Vec<Finding> {
    const BANNED: &[&str] = &["println!", "eprintln!", "dbg!", "todo!", "unimplemented!"];
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for mac in BANNED {
            let bare = &mac[..mac.len() - 1];
            if contains_word(&line.code, bare) && line.code.contains(mac) {
                out.push(Finding {
                    file: file.path.clone(),
                    line: idx + 1,
                    rule: RULE_HYGIENE,
                    message: format!("`{mac}` in kernel code"),
                });
            }
        }
        if line.code.contains("Instant::now") && !has_annotation(file, idx, "timing:") {
            out.push(Finding {
                file: file.path.clone(),
                line: idx + 1,
                rule: RULE_HYGIENE,
                message: "`Instant::now` in kernel code without a `// timing:` \
                          justification (clock reads in the hot path must be \
                          deliberate and strided)"
                    .to_string(),
            });
        }
    }
    out
}

/// `store-abstraction`: non-test code in `crates/core/src` must not name
/// `CsrGraph` — the kernel is generic over [`GraphStore`], and a concrete
/// CSR type sneaking back in would silently demote the compressed and mmap
/// backends to second-class citizens. Tests may build `CsrGraph` fixtures.
///
/// [`GraphStore`]: ../kplex_graph/trait.GraphStore.html
pub fn check_store_abstraction(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || !contains_word(&line.code, "CsrGraph") {
            continue;
        }
        out.push(Finding {
            file: file.path.clone(),
            line: idx + 1,
            rule: RULE_STORE,
            message: "literal `CsrGraph` in kernel code; take a \
                      `G: GraphStore + ?Sized` generic (or `&dyn GraphStore`) \
                      so every storage backend stays usable"
                .to_string(),
        });
    }
    out
}

/// `engine-no-sleep`: non-test code in `crates/parallel/src` and in the
/// seed loop the engine's workers run (`crates/core/src/driver.rs`) must
/// not call `thread::sleep` (or any `sleep`-named function). The scheduler
/// idles workers via park/unpark with an explicit push→wake protocol and a
/// pending==0 termination handshake; a sleep call is timed polling sneaking
/// back in — it re-adds a sleep-period latency cliff to wakeup and
/// cancellation, and worse, it *masks* lost-wakeup bugs by bounding how
/// long one can hang. Tests may sleep to pace sinks and provoke races.
pub fn check_engine_no_sleep(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || !contains_word(&line.code, "sleep") {
            continue;
        }
        out.push(Finding {
            file: file.path.clone(),
            line: idx + 1,
            rule: RULE_ENGINE_SLEEP,
            message: "`sleep` in engine code; idle workers must park on the \
                      scheduler's Parker (woken by push/termination), never \
                      poll on a timer"
                .to_string(),
        });
    }
    out
}

/// One allowlisted `.unwrap()` site for [`check_unwraps`].
#[derive(Clone, Copy, Debug)]
pub struct AllowedUnwrap {
    /// Path suffix the exemption applies to, e.g. `service/src/server.rs`.
    pub path_suffix: &'static str,
    /// A substring the offending line must contain.
    pub needle: &'static str,
    /// Why the unwrap is fine — shown nowhere, but reviewed here.
    pub reason: &'static str,
}

/// The workspace's unwrap allowlist. Empty today: every lock unwrap was
/// absorbed by [`OrderedMutex`]'s single poisoning policy and the rest of
/// `crates/service/src` propagates errors. Add entries (with reasons)
/// instead of sprinkling bare unwraps.
///
/// [`OrderedMutex`]: ../kplex_service/sync/struct.OrderedMutex.html
pub const UNWRAP_ALLOWLIST: &[AllowedUnwrap] = &[];

/// `unwrap-allowlist`: non-test `.unwrap()` only at allowlisted sites.
pub fn check_unwraps(file: &SourceFile, allowlist: &[AllowedUnwrap]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || !line.code.contains(".unwrap()") {
            continue;
        }
        let allowed = allowlist
            .iter()
            .any(|a| file.path.ends_with(a.path_suffix) && line.code.contains(a.needle));
        if !allowed {
            out.push(Finding {
                file: file.path.clone(),
                line: idx + 1,
                rule: RULE_UNWRAP,
                message: "`.unwrap()` outside the allowlist; propagate the \
                          error or add an allowlist entry with a reason"
                    .to_string(),
            });
        }
    }
    out
}

/// The enumeration-kernel files `core-hygiene` applies to, with the seed
/// loop that `enumerate` and every engine worker run (`driver.rs`) and the
/// `prepare` they start from (`enumerate.rs`). `branch_ref.rs` is the
/// retired reference implementation and is exempt; `stats.rs` and
/// `verify.rs` are reporting/QA surfaces where printing is legitimate.
const KERNEL_FILES: &[&str] = &[
    "branch.rs",
    "bounds.rs",
    "pairs.rs",
    "plex.rs",
    "seed.rs",
    "subtask.rs",
    "reduce.rs",
    "sink.rs",
    "driver.rs",
    "enumerate.rs",
];

/// `core-hygiene` over the [`KERNEL_FILES`] present under `root`.
fn check_kernel_files(root: &Path) -> io::Result<Vec<Finding>> {
    let mut out = Vec::new();
    for name in KERNEL_FILES {
        let rel = format!("crates/core/src/{name}");
        if root.join(&rel).is_file() {
            out.extend(check_core_hygiene(&scan(root, &rel)?));
        }
    }
    Ok(out)
}

fn scan(root: &Path, rel: &str) -> io::Result<SourceFile> {
    let text = fs::read_to_string(root.join(rel))?;
    Ok(parse_source(rel, &text))
}

/// Collects every `.rs` file under `dir` (recursively), as paths relative
/// to `root`, sorted for deterministic output.
fn rust_files_under(root: &Path, dir: &str) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.join(dir)];
    while let Some(d) = stack.pop() {
        if !d.is_dir() {
            continue;
        }
        for entry in fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs every rule over the workspace rooted at `root` and returns all
/// findings (empty = clean). The file sets are:
///
/// - `raw-sync`: all of `crates/service` and `crates/parallel` except
///   `crates/service/src/sync.rs` (which wraps the raw types by design);
/// - `ordering-comment`: every first-party crate under `crates/`
///   (`shims/` is vendored stand-in code and exempt);
/// - `core-hygiene`: the kernel files in `crates/core/src`;
/// - `store-abstraction`: every file under `crates/core/src`;
/// - `unwrap-allowlist`: `crates/service/src`;
/// - the exhaustiveness rules: the protocol, journal, and proptest files;
/// - `tenant-scoped`: `crates/service/src/server.rs`;
/// - `engine-no-sleep`: `crates/parallel/src` and `crates/core/src/driver.rs`.
pub fn run_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();

    // raw-sync + ordering + unwrap over the service/parallel trees.
    for dir in ["crates/service", "crates/parallel"] {
        for rel in rust_files_under(root, dir)? {
            let file = scan(root, &rel)?;
            if !rel.ends_with("service/src/sync.rs") {
                findings.extend(check_raw_sync(&file));
            }
            findings.extend(check_ordering_comments(&file));
            if rel.starts_with("crates/service/src") {
                findings.extend(check_unwraps(&file, UNWRAP_ALLOWLIST));
            }
            if rel.starts_with("crates/parallel/src") {
                findings.extend(check_engine_no_sleep(&file));
            }
        }
    }

    // engine-no-sleep over the seed loop every engine worker runs.
    let driver = scan(root, "crates/core/src/driver.rs")?;
    findings.extend(check_engine_no_sleep(&driver));

    // ordering over the remaining first-party crates.
    for dir in [
        "crates/bench",
        "crates/cli",
        "crates/core",
        "crates/datasets",
        "crates/graph",
        "src",
    ] {
        for rel in rust_files_under(root, dir)? {
            let file = scan(root, &rel)?;
            findings.extend(check_ordering_comments(&file));
        }
    }

    // core-hygiene over the kernel files.
    findings.extend(check_kernel_files(root)?);

    // store-abstraction over every core source file.
    for rel in rust_files_under(root, "crates/core/src")? {
        findings.extend(check_store_abstraction(&scan(root, &rel)?));
    }

    // Protocol exhaustiveness: every Request variant renders, parses, and
    // is generated by the proptest strategy.
    let protocol = scan(root, "crates/service/src/protocol.rs")?;
    let variants = enum_variants(&protocol, "Request");
    if variants.is_empty() {
        findings.push(Finding {
            file: protocol.path.clone(),
            line: 1,
            rule: RULE_PROTOCOL,
            message: "could not locate `enum Request`".to_string(),
        });
    }
    for (fn_name, context) in [
        ("render_request", "`render_request` (wire encoding)"),
        ("parse_request", "`parse_request` (wire decoding)"),
    ] {
        match fn_body(&protocol, fn_name) {
            Some(body) => findings.extend(check_coverage(
                RULE_PROTOCOL,
                &protocol.path,
                "Request",
                &variants,
                &body,
                context,
            )),
            None => findings.push(Finding {
                file: protocol.path.clone(),
                line: 1,
                rule: RULE_PROTOCOL,
                message: format!("could not locate `fn {fn_name}`"),
            }),
        }
    }
    let props = scan(root, "crates/service/tests/protocol_props.rs")?;
    let props_code: String = props
        .lines
        .iter()
        .map(|l| l.code.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    findings.extend(check_coverage(
        RULE_PROTOCOL,
        &props.path,
        "Request",
        &variants,
        &props_code,
        "the proptest strategy in tests/protocol_props.rs",
    ));

    // Journal exhaustiveness: every Record variant parses and replays.
    let journal = scan(root, "crates/service/src/journal.rs")?;
    let records = enum_variants(&journal, "Record");
    if records.is_empty() {
        findings.push(Finding {
            file: journal.path.clone(),
            line: 1,
            rule: RULE_JOURNAL,
            message: "could not locate `enum Record`".to_string(),
        });
    }
    for (fn_name, context) in [
        ("parse_record", "`parse_record` (journal decoding)"),
        ("replay", "`replay` (crash recovery)"),
    ] {
        match fn_body(&journal, fn_name) {
            Some(body) => findings.extend(check_coverage(
                RULE_JOURNAL,
                &journal.path,
                "Record",
                &records,
                &body,
                context,
            )),
            None => findings.push(Finding {
                file: journal.path.clone(),
                line: 1,
                rule: RULE_JOURNAL,
                message: format!("could not locate `fn {fn_name}`"),
            }),
        }
    }

    // Tenant scoping: server request handlers read the jobs map only
    // through the principal-scoped accessors (or at sites carrying a
    // reviewed `// tenant:` justification).
    let server = scan(root, "crates/service/src/server.rs")?;
    findings.extend(check_tenant_scoped(&server));

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(text: &str) -> SourceFile {
        parse_source("crates/service/src/fixture.rs", text)
    }

    // --- scanner ---

    #[test]
    fn comments_and_strings_are_stripped_from_code() {
        let f = file("let x = \"Mutex inside a string\"; // Mutex in a comment\n");
        assert!(!contains_word(&f.lines[0].code, "Mutex"));
        assert!(f.lines[0].comment.contains("Mutex in a comment"));
    }

    #[test]
    fn block_comments_span_lines() {
        let f = file("/* Mutex\n   still Mutex */ let y = 1;\n");
        assert!(!contains_word(&f.lines[0].code, "Mutex"));
        assert!(!contains_word(&f.lines[1].code, "Mutex"));
        assert!(f.lines[1].code.contains("let y = 1;"));
    }

    #[test]
    fn char_literal_quote_does_not_derail_string_state() {
        // A '"' char literal must not open a string.
        let f = file("if c == '\"' { self.code.push(Mutex_MARKER); }\n");
        assert!(f.lines[0].code.contains("Mutex_MARKER"));
        assert!(!contains_word(&f.lines[0].code, "Mutex"));
    }

    #[test]
    fn raw_strings_are_stripped() {
        let f = file("let s = r#\"Mutex \"quoted\" inside\"#; let t = Mutex::new(());\n");
        let hits = check_raw_sync(&f);
        assert_eq!(hits.len(), 1, "only the real Mutex: {hits:?}");
    }

    #[test]
    fn lifetimes_do_not_confuse_the_scanner() {
        let f = file("fn get<'a>(&'a self) -> Guard<'a, T> { Mutex::guard(self) }\n");
        assert_eq!(check_raw_sync(&f).len(), 1);
    }

    #[test]
    fn cfg_test_modules_are_tagged() {
        let src = "\
fn prod() { work(); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { probe(); }
}
fn prod2() {}
";
        let f = file(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[4].in_test, "fn t body is in the test mod");
        assert!(!f.lines[6].in_test, "code after the mod is production");
    }

    // --- raw-sync ---

    #[test]
    fn raw_sync_flags_std_primitives() {
        let f = file("use std::sync::{Condvar, Mutex};\nstatic L: RwLock<u32> = RwLock::new(0);\n");
        let hits = check_raw_sync(&f);
        assert!(hits.iter().any(|h| h.message.contains("`Mutex`")));
        assert!(hits.iter().any(|h| h.message.contains("`Condvar`")));
        assert!(hits.iter().any(|h| h.message.contains("`RwLock`")));
    }

    #[test]
    fn raw_sync_accepts_the_ordered_wrappers() {
        let f = file(
            "use kplex_service::sync::{OrderedCondvar, OrderedMutex, Rank};\n\
             static L: OrderedMutex<u32> = OrderedMutex::new(Rank::CacheInner, \"l\", 0);\n",
        );
        assert!(check_raw_sync(&f).is_empty());
    }

    // --- ordering-comment ---

    #[test]
    fn ordering_without_justification_is_flagged() {
        let f = file("let n = count.load(Ordering::Relaxed);\n");
        let hits = check_ordering_comments(&f);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("Relaxed"));
    }

    #[test]
    fn ordering_with_same_line_comment_passes() {
        let f = file("let n = count.load(Ordering::SeqCst); // ordering: test counter.\n");
        assert!(check_ordering_comments(&f).is_empty());
    }

    #[test]
    fn ordering_with_preceding_comment_block_passes() {
        let f = file(
            "// ordering: monotone counter, read only as a gauge;\n\
             // nothing is published through it.\n\
             let n = count.fetch_add(1, Ordering::Relaxed);\n",
        );
        assert!(check_ordering_comments(&f).is_empty());
    }

    #[test]
    fn acquire_release_sites_are_exempt() {
        let f = file("flag.store(true, Ordering::Release);\nflag.load(Ordering::Acquire);\n");
        assert!(check_ordering_comments(&f).is_empty());
    }

    #[test]
    fn unrelated_comment_above_does_not_satisfy_the_rule() {
        let f = file("// bump the counter\nlet n = count.fetch_add(1, Ordering::Relaxed);\n");
        assert_eq!(check_ordering_comments(&f).len(), 1);
    }

    // --- exhaustiveness ---

    const FIXTURE_ENUM: &str = "\
/// Doc.
pub enum Request {
    /// Doc.
    Ping,
    /// Doc.
    Submit(Box<SubmitArgs>),
    /// Doc.
    Stream(JobId, u64),
}
";

    #[test]
    fn enum_variants_are_extracted() {
        let f = file(FIXTURE_ENUM);
        assert_eq!(enum_variants(&f, "Request"), ["Ping", "Submit", "Stream"]);
    }

    #[test]
    fn uppercase_tuple_payloads_are_not_variants() {
        let f = file("enum Record {\n    Submit(JobId, SubmitArgs),\n    End(JobId),\n}\n");
        assert_eq!(enum_variants(&f, "Record"), ["Submit", "End"]);
    }

    #[test]
    fn missing_variant_in_fn_body_is_flagged() {
        let src = format!(
            "{FIXTURE_ENUM}\nfn render(r: &Request) -> String {{\n    match r {{\n        \
             Request::Ping => ping(),\n        Request::Submit(a) => submit(a),\n        \
             _ => other(),\n    }}\n}}\n"
        );
        let f = file(&src);
        let variants = enum_variants(&f, "Request");
        let body = fn_body(&f, "render").unwrap();
        let hits = check_coverage(
            RULE_PROTOCOL,
            &f.path,
            "Request",
            &variants,
            &body,
            "render",
        );
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("Request::Stream"));
    }

    #[test]
    fn full_coverage_passes() {
        let src = format!(
            "{FIXTURE_ENUM}\nfn render(r: &Request) -> String {{\n    match r {{\n        \
             Request::Ping => ping(),\n        Request::Submit(a) => submit(a),\n        \
             Request::Stream(id, s) => stream(id, s),\n    }}\n}}\n"
        );
        let f = file(&src);
        let variants = enum_variants(&f, "Request");
        let body = fn_body(&f, "render").unwrap();
        assert!(check_coverage(
            RULE_PROTOCOL,
            &f.path,
            "Request",
            &variants,
            &body,
            "render"
        )
        .is_empty());
    }

    // --- core-hygiene ---

    #[test]
    fn println_in_kernel_code_is_flagged() {
        let f = file("fn expand() {\n    println!(\"debug {x}\");\n}\n");
        let hits = check_core_hygiene(&f);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("println!"));
    }

    #[test]
    fn println_in_test_mod_or_string_is_fine() {
        let f = file(
            "fn expand() { let msg = \"println! is banned\"; }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { println!(\"ok in tests\"); }\n}\n",
        );
        assert!(check_core_hygiene(&f).is_empty());
    }

    #[test]
    fn clock_read_needs_a_timing_justification() {
        let bad = file("let t = Instant::now();\n");
        assert_eq!(check_core_hygiene(&bad).len(), 1);
        let good = file("// timing: one syscall per STOP_STRIDE nodes.\nlet t = Instant::now();\n");
        assert!(check_core_hygiene(&good).is_empty());
    }

    #[test]
    fn the_seed_loop_and_prepare_are_kernel_files() {
        let root = std::env::temp_dir().join(format!("kplex-lint-kernel-{}", std::process::id()));
        let src = root.join("crates/core/src");
        fs::create_dir_all(&src).unwrap();
        for name in ["driver.rs", "enumerate.rs"] {
            fs::write(src.join(name), "fn pull() {\n    eprintln!(\"seed\");\n}\n").unwrap();
        }
        let hits = check_kernel_files(&root);
        fs::remove_dir_all(&root).unwrap();
        let files: Vec<String> = hits.unwrap().into_iter().map(|h| h.file).collect();
        assert_eq!(
            files,
            ["crates/core/src/driver.rs", "crates/core/src/enumerate.rs"]
        );
    }

    #[test]
    fn eprintln_does_not_double_count_as_println() {
        let f = file("fn expand() { eprintln!(\"x\"); }\n");
        let hits = check_core_hygiene(&f);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("eprintln!"));
    }

    // --- unwrap-allowlist ---

    #[test]
    fn non_test_unwrap_is_flagged_with_empty_allowlist() {
        let f = file("let v = parse().unwrap();\n");
        assert_eq!(check_unwraps(&f, &[]).len(), 1);
    }

    #[test]
    fn allowlisted_unwrap_passes() {
        let f = file("let v = parse().unwrap();\n");
        let allow = [AllowedUnwrap {
            path_suffix: "fixture.rs",
            needle: "parse().unwrap()",
            reason: "fixture",
        }];
        assert!(check_unwraps(&f, &allow).is_empty());
    }

    #[test]
    fn unwrap_in_test_mod_is_fine() {
        let f = file("#[cfg(test)]\nmod tests {\n    fn t() { x().unwrap(); }\n}\n");
        assert!(check_unwraps(&f, &[]).is_empty());
    }

    // --- engine-no-sleep ---

    #[test]
    fn sleep_in_engine_code_is_flagged() {
        let f = file("fn idle() { std::thread::sleep(IDLE_SLEEP); }\n");
        let hits = check_engine_no_sleep(&f);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RULE_ENGINE_SLEEP);
        assert!(hits[0].message.contains("park"));
    }

    #[test]
    fn park_and_sleep_named_items_pass_engine_rule() {
        // Parking is the sanctioned idle path; a `sleep`-containing
        // identifier (word boundaries) and comment/string mentions are not
        // calls; tests may pace with real sleeps.
        let f = file(
            "fn idle(p: &Parker) { p.park(); }\n\
             const IDLE_SLEEP: u32 = 50; // thread::sleep was removed\n\
             fn label() -> &'static str { \"sleep\" }\n\
             #[cfg(test)]\nmod tests {\n    fn pace() { std::thread::sleep(D); }\n}\n",
        );
        assert!(check_engine_no_sleep(&f).is_empty());
    }

    // --- store-abstraction ---

    #[test]
    fn csr_graph_in_kernel_code_is_flagged() {
        let f = file("fn expand(g: &CsrGraph) {\n    let n = g.num_vertices();\n}\n");
        let hits = check_store_abstraction(&f);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RULE_STORE);
        assert!(hits[0].message.contains("GraphStore"));
    }

    #[test]
    fn csr_graph_in_tests_comments_or_strings_is_fine() {
        let f = file(
            "// A CsrGraph mention in a comment is fine.\n\
             fn expand<G: GraphStore + ?Sized>(g: &G) { let m = \"CsrGraph\"; }\n\
             #[cfg(test)]\nmod tests {\n    use kplex_graph::CsrGraph;\n}\n",
        );
        assert!(check_store_abstraction(&f).is_empty());
    }

    #[test]
    fn csr_graph_as_identifier_prefix_is_not_a_word_match() {
        let f = file("struct CsrGraphStats;\n");
        assert!(check_store_abstraction(&f).is_empty());
    }

    // --- tenant-scoped ---

    #[test]
    fn unscoped_jobs_lock_in_a_handler_is_flagged() {
        let f = file(
            "fn handler(state: &SharedState) {\n    \
                 let jobs = state.jobs.lock().len();\n\
             }\n",
        );
        let hits = check_tenant_scoped(&f);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, RULE_TENANT);
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn line_wrapped_jobs_lock_is_still_flagged() {
        // `state.jobs` and `.lock()` on separate lines must not dodge the
        // rule — rustfmt wraps long chains exactly like this.
        let f = file(
            "fn handler(state: &SharedState) {\n    \
                 let j = state.jobs\n        \
                     .lock()\n        \
                     .get(&id);\n\
             }\n",
        );
        let hits = check_tenant_scoped(&f);
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn scoped_accessors_annotations_and_tests_pass() {
        let src = "\
fn job_for(&self, id: JobId, auth: Option<&Principal>) {
    self.jobs.lock().get(&id)
}
fn jobs_for(&self, auth: Option<&Principal>) {
    self.jobs
        .lock()
        .values()
}
fn job_unscoped(&self, id: JobId) {
    // tenant: runner-internal dispatch path.
    self.jobs.lock().get(&id)
}
fn stats(state: &SharedState) {
    // tenant: aggregate counters only, no per-job data.
    let n = state.jobs.lock().len();
    let depth = state.queue.lock().depth();
}
#[cfg(test)]
mod tests {
    fn t(state: &SharedState) { state.jobs.lock().clear(); }
}
";
        let hits = check_tenant_scoped(&file(src));
        assert!(hits.is_empty(), "{hits:?}");
    }
}
