//! The principal store: authentication tokens, per-tenant quotas and
//! fair-share weights.
//!
//! A **principal** is a tenant identity: jobs are attributed to it, quotas
//! are enforced against it, and the fair-share scheduler weighs its
//! sub-queue by it. Principals are provisioned in a passwd-style text file
//! (`kplexd --principals` / `kplexr --principals`), one per line,
//! colon-separated:
//!
//! ```text
//! # token:name:weight:max-queued:max-running:flags
//! s3cr3t-alice:alice:4:16:2:-
//! s3cr3t-flood:batch:1:64:8:-
//! s3cr3t-root:root:1:0:0:admin
//! ```
//!
//! * `token` — the secret a client presents via `AUTH <token>`. Tokens are
//!   never echoed back on any reply line (see
//!   [`crate::protocol::redact_secrets`]).
//! * `name` — the principal's public name; appears in `STATS`, journal
//!   attribution records and proxied job tags.
//! * `weight` — deficit-round-robin share (≥ 1): a weight-4 tenant gets 4
//!   dispatches per scheduler rotation for every 1 a weight-1 tenant gets.
//! * `max-queued` / `max-running` — admission quotas; `0` means unlimited.
//! * `flags` — `admin` or `-`. The admin principal sees every tenant's jobs
//!   and may tag submissions with another principal's name (that is how the
//!   router proxies jobs on a tenant's behalf).
//!
//! Tokens and names are restricted to `[A-Za-z0-9_.-]` so they are
//! wire-safe as `key=value` tokens and — crucially — can never contain the
//! `*` characters redaction substitutes, which makes token scrubbing
//! splice-proof (see [`crate::protocol::redact_secrets`]).
//!
//! Without `--principals` a server runs exactly as before: one anonymous
//! queue, no `AUTH`, no scoping — the store being absent is the
//! compatibility switch.

use std::collections::BTreeMap;

/// One provisioned tenant identity (see the module docs for the file
/// format that defines these fields).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Principal {
    /// Public tenant name (wire-safe; appears in `STATS` and journal
    /// attribution — never the token).
    pub name: String,
    /// Deficit-round-robin weight (≥ 1).
    pub weight: u64,
    /// Max jobs waiting in this tenant's sub-queue (0 = unlimited).
    pub max_queued: usize,
    /// Max jobs of this tenant running at once (0 = unlimited).
    pub max_running: usize,
    /// Admin principals see every tenant's jobs and may submit on another
    /// principal's behalf (the router's proxy path).
    pub admin: bool,
}

/// Token → principal lookup table, parsed from a `--principals` file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrincipalStore {
    by_token: BTreeMap<String, Principal>,
}

/// `true` iff every char is in the wire-safe principal charset
/// `[A-Za-z0-9_.-]` (and the string is non-empty).
fn wire_safe(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl PrincipalStore {
    /// Parses the passwd-style principals text. Blank lines and `#`
    /// comments are skipped; any malformed line fails the whole load loudly
    /// (a half-provisioned tenant set is worse than no server).
    pub fn parse(text: &str) -> Result<PrincipalStore, String> {
        let mut by_token = BTreeMap::new();
        let mut names = BTreeMap::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at = |msg: String| format!("principals line {}: {msg}", lineno + 1);
            let fields: Vec<&str> = line.split(':').collect();
            let [token, name, weight, max_queued, max_running, flags] = fields[..] else {
                return Err(at(format!(
                    "expected 6 colon-separated fields \
                     (token:name:weight:max-queued:max-running:flags), got {}",
                    fields.len()
                )));
            };
            if !wire_safe(token) {
                return Err(at("token must be non-empty [A-Za-z0-9_.-]".into()));
            }
            if !wire_safe(name) {
                return Err(at(format!(
                    "name {name:?} must be non-empty [A-Za-z0-9_.-]"
                )));
            }
            let weight: u64 = weight
                .parse()
                .ok()
                .filter(|&w| w >= 1)
                .ok_or_else(|| at(format!("weight {weight:?} must be an integer >= 1")))?;
            let max_queued: usize = max_queued
                .parse()
                .map_err(|_| at(format!("max-queued {max_queued:?} must be an integer")))?;
            let max_running: usize = max_running
                .parse()
                .map_err(|_| at(format!("max-running {max_running:?} must be an integer")))?;
            let admin = match flags {
                "admin" => true,
                "-" => false,
                other => return Err(at(format!("flags {other:?} must be `admin` or `-`"))),
            };
            if names.insert(name.to_string(), ()).is_some() {
                return Err(at(format!("duplicate principal name {name:?}")));
            }
            let principal = Principal {
                name: name.to_string(),
                weight,
                max_queued,
                max_running,
                admin,
            };
            if by_token.insert(token.to_string(), principal).is_some() {
                return Err(at("duplicate token".into()));
            }
        }
        Ok(PrincipalStore { by_token })
    }

    /// Loads and parses a principals file.
    pub fn load(path: &std::path::Path) -> Result<PrincipalStore, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading principals {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Token → principal (the `AUTH` verb). `None` means unknown token —
    /// callers must not echo the token back in the error.
    pub fn authenticate(&self, token: &str) -> Option<&Principal> {
        self.by_token.get(token)
    }

    /// Principal by public name (quota/weight lookups for tagged jobs).
    pub fn by_name(&self, name: &str) -> Option<&Principal> {
        self.by_token.values().find(|p| p.name == name)
    }

    /// Every registered secret token — the redaction list for
    /// [`crate::protocol::redact_secrets`].
    pub fn tokens(&self) -> Vec<String> {
        self.by_token.keys().cloned().collect()
    }

    /// The token of the first admin principal (token order), if any. The
    /// router uses it to authenticate its proxied connections to backends.
    pub fn admin_token(&self) -> Option<&str> {
        self.by_token
            .iter()
            .find(|(_, p)| p.admin)
            .map(|(t, _)| t.as_str())
    }

    /// All principals, ordered by name (deterministic `STATS` rendering).
    pub fn principals(&self) -> Vec<&Principal> {
        let mut v: Vec<&Principal> = self.by_token.values().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Number of provisioned principals.
    pub fn len(&self) -> usize {
        self.by_token.len()
    }

    /// `true` when no principal is provisioned.
    pub fn is_empty(&self) -> bool {
        self.by_token.is_empty()
    }
}

// --- tenancy rules -----------------------------------------------------------
//
// One copy of each rule, shared by the server and the router so an edge
// decision and a backend decision can never disagree.

/// May a connection authenticated as `viewer` observe a job owned by
/// `owner`? `None` means tenancy is disabled — on a tenancy-enabled tier
/// the auth gate keeps unauthenticated connections away from job verbs —
/// so every job is visible; an admin sees every job; anyone else only
/// their own.
pub(crate) fn may_see(viewer: Option<&Principal>, owner: Option<&str>) -> bool {
    match viewer {
        None => true,
        Some(p) => p.admin || owner == Some(p.name.as_str()),
    }
}

/// Resolves the principal a submission runs **as**: the authenticated one
/// (`me`), unless an admin tags another principal's name (`tag`, the
/// router's proxy path). `Ok(None)` is the anonymous, tenancy-disabled
/// tier.
pub(crate) fn effective_principal(
    store: Option<&PrincipalStore>,
    me: Option<&Principal>,
    tag: Option<&str>,
) -> Result<Option<Principal>, String> {
    let Some(store) = store else {
        if tag.is_some() {
            return Err("principal= requires --principals".into());
        }
        return Ok(None);
    };
    let Some(me) = me else {
        // Unreachable past the connection's auth gate; kept as defense.
        return Err("authentication required (AUTH <token>)".into());
    };
    match tag {
        None => Ok(Some(me.clone())),
        Some(name) if name == me.name => Ok(Some(me.clone())),
        Some(_) if !me.admin => {
            Err("only an admin principal may submit on another principal's behalf".into())
        }
        Some(name) => store
            .by_name(name)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("unknown principal {name:?}")),
    }
}

// --- byte accounting ---------------------------------------------------------

/// The accounted byte cost of one streamed result of `vertices` members:
/// 4 bytes per vertex id (`u32`), computed with saturating arithmetic —
/// a tenant's cumulative counter must never wrap, whatever job sequence it
/// accumulates (pinned by a property test).
pub fn plex_bytes(vertices: usize) -> u64 {
    (vertices as u64).saturating_mul(4)
}

/// Saturating accumulate for cumulative per-tenant byte counters:
/// monotone non-decreasing, caps at `u64::MAX` instead of wrapping.
pub fn add_bytes(total: u64, delta: u64) -> u64 {
    total.saturating_add(delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# comment line

tok-alice:alice:4:16:2:-
tok-batch:batch:1:64:8:-
tok-root:root:1:0:0:admin
";

    #[test]
    fn parses_the_sample_file() {
        let store = PrincipalStore::parse(SAMPLE).unwrap();
        assert_eq!(store.len(), 3);
        let alice = store.authenticate("tok-alice").unwrap();
        assert_eq!(alice.name, "alice");
        assert_eq!(alice.weight, 4);
        assert_eq!(alice.max_queued, 16);
        assert_eq!(alice.max_running, 2);
        assert!(!alice.admin);
        assert!(store.authenticate("tok-root").unwrap().admin);
        assert!(store.authenticate("nope").is_none());
        assert_eq!(store.by_name("batch").unwrap().max_running, 8);
        assert_eq!(store.admin_token(), Some("tok-root"));
        let names: Vec<&str> = store.principals().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["alice", "batch", "root"]);
        let mut tokens = store.tokens();
        tokens.sort();
        assert_eq!(tokens, ["tok-alice", "tok-batch", "tok-root"]);
    }

    #[test]
    fn malformed_lines_fail_loudly() {
        for bad in [
            "tok:name:1:0:0",                 // 5 fields
            "tok:name:1:0:0:-:extra",         // 7 fields
            ":name:1:0:0:-",                  // empty token
            "tok::1:0:0:-",                   // empty name
            "tok:na me:1:0:0:-",              // whitespace in name
            "tok:name:0:0:0:-",               // weight 0
            "tok:name:x:0:0:-",               // bad weight
            "tok:name:1:x:0:-",               // bad max-queued
            "tok:name:1:0:x:-",               // bad max-running
            "tok:name:1:0:0:superuser",       // bad flags
            "tok=1:name:1:0:0:-",             // `=` breaks key=value framing
            "a:x:1:0:0:-\na:y:1:0:0:-",       // duplicate token
            "a:same:1:0:0:-\nb:same:1:0:0:-", // duplicate name
        ] {
            assert!(
                PrincipalStore::parse(bad).is_err(),
                "{bad:?} must not parse"
            );
        }
        assert!(PrincipalStore::parse("# only comments\n")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn effective_principal_covers_every_branch() {
        let store = PrincipalStore::parse(SAMPLE).unwrap();
        let alice = store.authenticate("tok-alice").unwrap();
        let root = store.authenticate("tok-root").unwrap();
        let resolve = |me, tag| effective_principal(Some(&store), me, tag);
        // No store: anonymous, and a tag has nothing to resolve against.
        assert_eq!(effective_principal(None, None, None), Ok(None));
        assert_eq!(
            effective_principal(None, None, Some("alice")),
            Err("principal= requires --principals".to_string())
        );
        // Untagged or self-tagged: the authenticated principal itself.
        assert_eq!(resolve(Some(alice), None), Ok(Some(alice.clone())));
        assert_eq!(resolve(Some(alice), Some("alice")), Ok(Some(alice.clone())));
        // A non-admin may not act for anyone else.
        assert!(resolve(Some(alice), Some("batch"))
            .unwrap_err()
            .contains("only an admin"));
        // An admin may act for a known principal, not an unknown one.
        assert_eq!(
            resolve(Some(root), Some("batch")),
            Ok(store.by_name("batch").cloned())
        );
        assert!(resolve(Some(root), Some("mallory"))
            .unwrap_err()
            .contains("unknown principal"));
        // Never reached past the auth gate, but still refused.
        assert!(resolve(None, None).is_err());
    }

    #[test]
    fn byte_accounting_saturates() {
        assert_eq!(plex_bytes(3), 12);
        assert_eq!(plex_bytes(usize::MAX), u64::MAX);
        assert_eq!(add_bytes(10, 6), 16);
        assert_eq!(add_bytes(u64::MAX - 1, 6), u64::MAX);
        assert_eq!(add_bytes(u64::MAX, u64::MAX), u64::MAX);
    }
}
