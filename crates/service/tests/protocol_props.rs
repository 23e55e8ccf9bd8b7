//! Property-based round-trip tests for the wire protocol: every request
//! frame survives `parse(render(x)) == x` (including `AUTH` and
//! tenant-tagged submissions), NDJSON result lines survive their own round
//! trip — also through the buffer-reusing `write_plex_line` and
//! `parse_plex_line_into` — arbitrary malformed input produces protocol
//! errors — never panics
//! — and the tenancy layer's two safety properties hold: per-tenant byte
//! accounting saturates instead of overflowing, and no reply line ever
//! echoes a registered token.

use kplex_service::auth::{add_bytes, plex_bytes};
use kplex_service::protocol::{
    parse_plex_line, parse_plex_line_into, parse_request, parse_response_fields, redact_secrets,
    render_plex_line, render_request, sanitize_value, sanitize_value_redacted, write_plex_line,
    Request, SubmitArgs,
};
use proptest::prelude::*;

// --- generators --------------------------------------------------------------

/// Wire-safe identifier: non-empty, no whitespace, no `=` (a value token).
fn arb_ident() -> impl Strategy<Value = String> {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-./:";
    proptest::collection::vec(0..CHARS.len(), 1..12)
        .prop_map(|ixs| ixs.into_iter().map(|i| CHARS[i] as char).collect())
}

/// A u64 that is `u64::MAX` often enough for the widest rendering to be
/// exercised in every run.
fn arb_wide_u64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(u64::MAX), Just(0u64), any::<u64>()]
}

/// A plex whose vertex ids include `u32::MAX` often, and which is empty
/// often.
fn arb_plex() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(prop_oneof![Just(u32::MAX), any::<u32>()], 0..24)
}

fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (1u64..1_000_000).prop_map(Some),]
}

fn arb_submit() -> impl Strategy<Value = SubmitArgs> {
    (
        (any::<bool>(), arb_ident(), 1usize..6, 1usize..40),
        (arb_opt_u64(), arb_opt_u64(), arb_opt_u64(), arb_opt_u64()),
        (
            prop_oneof![Just(None), (1usize..64).prop_map(Some)],
            prop_oneof![Just(None), arb_ident().prop_map(Some)],
            prop_oneof![Just(None), arb_ident().prop_map(Some)],
            prop_oneof![Just(None), arb_ident().prop_map(Some)],
        ),
    )
        .prop_map(
            |(
                (use_dataset, source, k, q),
                (limit, timeout_ms, throttle_us, tau_us),
                (threads, algo, store, principal),
            )| {
                SubmitArgs {
                    dataset: use_dataset.then(|| source.clone()),
                    path: (!use_dataset).then(|| source.clone()),
                    k,
                    q,
                    threads,
                    algo,
                    limit,
                    timeout_ms,
                    throttle_us,
                    tau_us,
                    store,
                    principal,
                }
            },
        )
}

/// Every request variant the protocol can express.
fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        Just(Request::List),
        Just(Request::Stats),
        Just(Request::Nodes),
        Just(Request::Rebalance),
        Just(Request::Quit),
        any::<u64>().prop_map(Request::Status),
        (any::<u64>(), any::<u64>()).prop_map(|(id, from)| Request::Stream(id, from)),
        any::<u64>().prop_map(Request::Cancel),
        arb_ident().prop_map(Request::AddNode),
        arb_ident().prop_map(Request::DropNode),
        arb_secret().prop_map(Request::Auth),
        arb_submit().prop_map(|a| Request::Submit(Box::new(a))),
    ]
}

/// An authentication token drawn from the principal-file charset
/// `[A-Za-z0-9_.-]` (what `kplex_service::auth` accepts).
fn arb_secret() -> impl Strategy<Value = String> {
    const CHARS: &[u8] = b"ABCXYZabcxyz012789_.-";
    proptest::collection::vec(0..CHARS.len(), 4..20)
        .prop_map(|ixs| ixs.into_iter().map(|i| CHARS[i] as char).collect())
}

// --- round trips -------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_render_parse_roundtrip(req in arb_request()) {
        let line = render_request(&req);
        let reparsed = parse_request(&line);
        prop_assert_eq!(reparsed, Ok(req), "line was {:?}", line);
    }

    /// The round trip, plus the buffer-reusing forms: `write_plex_line`
    /// into a non-empty buffer appends exactly `render_plex_line`'s bytes,
    /// and `parse_plex_line_into` over a dirty buffer equals
    /// `parse_plex_line`.
    #[test]
    fn plex_line_roundtrip(id in arb_wide_u64(), seq in arb_wide_u64(), plex in arb_plex(),
                           dirt in proptest::collection::vec(any::<u32>(), 0..8)) {
        let line = render_plex_line(id, seq, &plex);
        let mut out = b"prefix\n".to_vec();
        write_plex_line(&mut out, id, seq, &plex);
        prop_assert_eq!(&out[..7], b"prefix\n");
        prop_assert_eq!(&out[7..], line.as_bytes());
        let mut into = dirt;
        let parsed = parse_plex_line_into(&line, &mut into).map(|(i, s)| (i, s, into.clone()));
        prop_assert_eq!(&parsed, &parse_plex_line(&line));
        prop_assert_eq!(parsed, Ok((id, seq, plex)));
    }

    #[test]
    fn response_fields_roundtrip(kv in proptest::collection::vec((arb_key(), arb_ident()), 0..8)) {
        // Last occurrence wins for duplicate keys, like a BTreeMap insert.
        let mut line = String::from("OK");
        for (k, v) in &kv {
            line.push_str(&format!(" {k}={v}"));
        }
        let parsed = parse_response_fields(&line).expect("well-formed fields");
        for (k, v) in &kv {
            let last = kv.iter().rev().find(|(k2, _)| k2 == k).map(|(_, v2)| v2);
            prop_assert_eq!(parsed.get(k.as_str()), last, "key {:?} value {:?}", k, v);
        }
    }

    /// Arbitrary junk must never panic the parser — only `Err` (or, by
    /// coincidence, parse as a valid frame).
    #[test]
    fn malformed_requests_never_panic(tokens in proptest::collection::vec(arb_token(), 0..6)) {
        let line = tokens.join(" ");
        let _ = parse_request(&line);
        let mut into = vec![7, 7, 7];
        let parsed = parse_plex_line_into(&line, &mut into).map(|(i, s)| (i, s, into));
        prop_assert_eq!(parsed, parse_plex_line(&line));
        let _ = parse_response_fields(&line);
    }

    /// A `STATUS` line carrying an **arbitrary** error string — tabs,
    /// newlines, NULs, anything a failing loader or OS error may produce —
    /// must re-parse into exactly its intended fields once the value went
    /// through [`sanitize_value`]. This is the wire-injection guard: an
    /// unsanitized space would split the value into bogus extra tokens, a
    /// newline would fabricate a whole frame.
    #[test]
    fn status_lines_with_arbitrary_errors_reparse(id in any::<u64>(), err in arb_raw_string()) {
        let line = format!(
            "OK id={id} state=failed source=jazz k=2 q=9 results=0 error={}",
            sanitize_value(&err)
        );
        prop_assert!(!line.contains('\n'), "sanitized line must stay one frame");
        let fields = parse_response_fields(&line);
        prop_assert!(fields.is_ok(), "line {:?} failed to re-parse: {:?}", line, fields);
        let fields = fields.unwrap();
        prop_assert_eq!(fields.len(), 7, "extra/missing fields in {:?}", line);
        prop_assert_eq!(fields.get("id"), Some(&id.to_string()));
        prop_assert_eq!(fields.get("state").map(String::as_str), Some("failed"));
        let sanitized = fields.get("error").expect("error field survives");
        prop_assert!(
            !sanitized.chars().any(|c| c.is_whitespace() || c.is_control()),
            "unsanitized char leaked into {:?}", sanitized
        );
    }

    /// Per-tenant result-byte accounting uses saturating arithmetic end to
    /// end: across an arbitrary job sequence — any plex sizes, any starting
    /// counter, including adversarial `usize::MAX` results — the running
    /// total never panics, never wraps, and never regresses (a wrapped
    /// counter would both corrupt quota enforcement and journal a `TENANT`
    /// total that replay's max-wins merge could pin forever).
    #[test]
    fn quota_byte_accounting_saturates(
        start in any::<u64>(),
        sizes in proptest::collection::vec(0usize..usize::MAX, 0..64),
    ) {
        let mut total = start;
        for vertices in sizes {
            let next = add_bytes(total, plex_bytes(vertices));
            prop_assert!(next >= total, "byte counter regressed: {total} -> {next}");
            total = next;
        }
        // The ceiling is absorbing, not wrapping.
        prop_assert_eq!(add_bytes(u64::MAX, plex_bytes(usize::MAX)), u64::MAX);
        prop_assert_eq!(add_bytes(u64::MAX, 1), u64::MAX);
    }

    /// No reply line ever contains a registered token. A value embedding a
    /// leaked token — surrounded by arbitrary junk, including whitespace
    /// and control characters — goes through the `sanitize_value_redacted`
    /// layer, the assembled line through the per-connection `redact_secrets`
    /// chokepoint, and afterwards no registered token may appear anywhere,
    /// even when tokens are substrings of each other.
    #[test]
    fn reply_lines_never_echo_registered_tokens(
        secrets in proptest::collection::vec(arb_secret(), 1..4),
        prefix in arb_raw_string(),
        suffix in arb_raw_string(),
        pick in 0usize..16,
    ) {
        let leaked = format!("{prefix}{}{suffix}", secrets[pick % secrets.len()]);
        // Value layer: what STATUS error= fields go through.
        let value = sanitize_value_redacted(&leaked, &secrets);
        for secret in &secrets {
            prop_assert!(
                !value.contains(secret.as_str()),
                "token {:?} survived sanitize_value_redacted: {:?}", secret, value
            );
        }
        // Line layer: the per-connection reply chokepoint.
        let line = redact_secrets(
            &format!("OK id=7 state=failed error={value}"),
            &secrets,
        );
        for secret in &secrets {
            prop_assert!(
                !line.contains(secret.as_str()),
                "token {:?} leaked into reply line {:?}", secret, line
            );
        }
    }
}

/// Keys must not contain `=` (values may not either in this grammar).
fn arb_key() -> impl Strategy<Value = String> {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz-";
    proptest::collection::vec(0..CHARS.len(), 1..10)
        .prop_map(|ixs| ixs.into_iter().map(|i| CHARS[i] as char).collect())
}

/// Fully unconstrained string: every Latin-1 code point, so tabs, spaces,
/// newlines, NULs and `=` all appear — the raw material a failing loader
/// or OS error may hand to `status_line`.
fn arb_raw_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..256, 0..24)
        .prop_map(|bytes| bytes.into_iter().map(|b| b as u8 as char).collect())
}

/// Unconstrained token soup for the never-panic property: includes `=`,
/// quotes, braces, digits, and empty-ish separators.
fn arb_token() -> impl Strategy<Value = String> {
    const CHARS: &[u8] = b"abczABCZ0189=\"{}[]:,.-_/\\";
    proptest::collection::vec(0..CHARS.len(), 0..10)
        .prop_map(|ixs| ixs.into_iter().map(|i| CHARS[i] as char).collect())
}

// --- targeted malformed frames ----------------------------------------------

#[test]
fn malformed_frames_error_cleanly() {
    for line in [
        "",
        "   ",
        "SUBMIT",
        "SUBMIT k=2 q=9",                      // no source
        "SUBMIT dataset=jazz path=x k=2 q=9",  // both sources
        "SUBMIT dataset=jazz k=2",             // no q
        "SUBMIT dataset=jazz k=two q=9",       // bad number
        "SUBMIT dataset=jazz k=2 q=9 bogus=1", // unknown key
        "SUBMIT dataset= k=2 q=9",             // empty value
        "SUBMIT dataset",                      // bare token
        "STATUS",
        "STATUS 1 2",
        "STATUS -3",
        "STREAM eleven",
        "CANCEL 18446744073709551616", // u64 overflow
        "ADDNODE",
        "ADDNODE a b",
        "DROPNODE",
        "NOPE 1",
        "\u{0} SUBMIT",
    ] {
        let parsed = parse_request(line);
        assert!(parsed.is_err(), "{line:?} parsed as {parsed:?}");
    }
    for line in [
        "not json",
        "{}",
        "{\"id\":1}",
        "{\"id\":1,\"seq\":2}",
        "{\"id\":x,\"seq\":0,\"plex\":[]}",
        "{\"id\":1,\"seq\":0,\"plex\":[1,}",
        "{\"id\":1,\"seq\":0,\"plex\":[1],\"extra\":2}",
    ] {
        assert!(parse_plex_line(line).is_err(), "{line:?} must not parse");
    }
}
