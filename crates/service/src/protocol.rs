//! The wire protocol: line-delimited requests and responses.
//!
//! Every request is one UTF-8 line; simple verbs get one response line
//! (`OK …` / `ERR …`), `LIST` and `STREAM` produce multiple lines terminated
//! by an `END …` line. Streamed results are NDJSON objects, one per line.
//! The full reference lives in `crates/service/PROTOCOL.md`.
//!
//! Parsing and rendering are pure functions here so both the server and the
//! [`crate::client::Client`] (and their tests) share one implementation.

use std::collections::BTreeMap;

/// A job identifier, assigned by the server at submission (starting at 1).
pub type JobId = u64;

/// Parameters of a `SUBMIT` request, before server-side validation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SubmitArgs {
    /// Built-in dataset name (`dataset=`); exclusive with `path`.
    pub dataset: Option<String>,
    /// Server-local edge-list file (`path=`); exclusive with `dataset`.
    pub path: Option<String>,
    /// Plex slack k.
    pub k: usize,
    /// Minimum plex size q.
    pub q: usize,
    /// Engine worker threads for this job (server default when absent).
    pub threads: Option<usize>,
    /// Algorithm preset name (default `ours`).
    pub algo: Option<String>,
    /// Result cap: enumeration stops once this many plexes are buffered.
    pub limit: Option<u64>,
    /// Job wall-clock timeout in milliseconds (0/absent = none).
    pub timeout_ms: Option<u64>,
    /// Pacing: sleep this long before each reported result (testing/ops).
    pub throttle_us: Option<u64>,
    /// Straggler-splitting timeout τ_time in microseconds.
    pub tau_us: Option<u64>,
    /// Storage backend for the job's graph (`store=`): `csr`, `compressed`
    /// or `mmap` (server default when absent). Free-form on the wire; the
    /// server validates it against the known backends at submission.
    pub store: Option<String>,
    /// Tenant attribution tag (`principal=`): the *name* (never the token)
    /// of the principal the job belongs to. Clients normally omit it — an
    /// authenticated connection's submissions are tagged server-side — but
    /// an **admin** principal (the `kplexr` router proxying on a tenant's
    /// behalf) may tag explicitly. A non-admin connection tagging a
    /// principal other than its own is rejected at submission. Because the
    /// tag rides in the `SUBMIT` wire line, journal `SUBMIT` records carry
    /// attribution for free and replay restores per-tenant ownership.
    pub principal: Option<String>,
}

impl SubmitArgs {
    /// A submission for a built-in dataset.
    pub fn dataset(name: &str, k: usize, q: usize) -> Self {
        Self {
            dataset: Some(name.to_string()),
            k,
            q,
            ..Self::default()
        }
    }

    /// Renders the `SUBMIT` request line.
    pub fn to_line(&self) -> String {
        let mut line = String::from("SUBMIT");
        let mut push = |key: &str, val: String| {
            line.push(' ');
            line.push_str(key);
            line.push('=');
            line.push_str(&val);
        };
        if let Some(d) = &self.dataset {
            push("dataset", d.clone());
        }
        if let Some(p) = &self.path {
            push("path", p.clone());
        }
        push("k", self.k.to_string());
        push("q", self.q.to_string());
        if let Some(t) = self.threads {
            push("threads", t.to_string());
        }
        if let Some(a) = &self.algo {
            push("algo", a.clone());
        }
        if let Some(l) = self.limit {
            push("limit", l.to_string());
        }
        if let Some(t) = self.timeout_ms {
            push("timeout-ms", t.to_string());
        }
        if let Some(t) = self.throttle_us {
            push("throttle-us", t.to_string());
        }
        if let Some(t) = self.tau_us {
            push("tau-us", t.to_string());
        }
        if let Some(s) = &self.store {
            push("store", s.clone());
        }
        if let Some(p) = &self.principal {
            push("principal", p.clone());
        }
        line
    }
}

/// A parsed client request.
///
/// The `AddNode`/`DropNode`/`Nodes` verbs administer the `kplexr` shard
/// router's backend registry; a plain `kplexd` rejects them with an error
/// (it has no registry), but they parse everywhere so one grammar serves
/// both binaries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Authenticate this connection as a tenant: `AUTH <token>`. The token
    /// maps to a principal via the server's `--principals` store; the reply
    /// names the principal but **never echoes the token**. Servers without
    /// a principal store reject the verb (authentication disabled).
    Auth(String),
    /// Submit a new enumeration job.
    Submit(Box<SubmitArgs>),
    /// One-line state of a job.
    Status(JobId),
    /// Stream a job's results starting at the given sequence number (0 =
    /// from the beginning), then its terminal state. The wire form is
    /// `STREAM <id>` or `STREAM <id> FROM <seq>`; a resuming client passes
    /// the first sequence number it has *not* yet consumed.
    Stream(JobId, u64),
    /// Cooperatively cancel a job.
    Cancel(JobId),
    /// One line per job.
    List,
    /// Server counters (jobs, cache hits/misses, queue depth).
    Stats,
    /// Router admin: register a backend `host:port` (or revive a dropped one).
    AddNode(String),
    /// Router admin: remove a backend from the routing set.
    DropNode(String),
    /// Router: one line per registered backend.
    Nodes,
    /// Router admin: recompute rendezvous placement for every queued job
    /// and migrate the ones whose owner changed (done automatically on
    /// `ADDNODE` and probe-driven rejoin; this triggers it by hand).
    Rebalance,
    /// Close the connection.
    Quit,
}

/// Renders any request back to its one-line wire form; the inverse of
/// [`parse_request`] (`parse_request(&render_request(r)) == Ok(r)` for every
/// representable request — the property the protocol tests pin down).
pub fn render_request(req: &Request) -> String {
    match req {
        Request::Ping => "PING".to_string(),
        Request::Auth(token) => format!("AUTH {token}"),
        Request::Submit(args) => args.to_line(),
        Request::Status(id) => format!("STATUS {id}"),
        Request::Stream(id, 0) => format!("STREAM {id}"),
        Request::Stream(id, from) => format!("STREAM {id} FROM {from}"),
        Request::Cancel(id) => format!("CANCEL {id}"),
        Request::List => "LIST".to_string(),
        Request::Stats => "STATS".to_string(),
        Request::AddNode(addr) => format!("ADDNODE {addr}"),
        Request::DropNode(addr) => format!("DROPNODE {addr}"),
        Request::Nodes => "NODES".to_string(),
        Request::Rebalance => "REBALANCE".to_string(),
        Request::Quit => "QUIT".to_string(),
    }
}

/// Splits `key=value` tokens into a map; returns an error for a bare token.
fn parse_kv<'a>(tokens: impl Iterator<Item = &'a str>) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    for tok in tokens {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got {tok:?}"))?;
        if v.is_empty() {
            return Err(format!("empty value for {k:?}"));
        }
        map.insert(k.to_string(), v.to_string());
    }
    Ok(map)
}

fn take_parse<T: std::str::FromStr>(
    map: &mut BTreeMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    match map.remove(key) {
        None => Ok(None),
        Some(s) => s
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid value for {key}: {s:?}")),
    }
}

fn parse_id(rest: &[&str], verb: &str) -> Result<JobId, String> {
    match rest {
        [id] => id.parse().map_err(|_| format!("invalid job id {id:?}")),
        _ => Err(format!("usage: {verb} <job-id>")),
    }
}

/// `STREAM <id>` or `STREAM <id> FROM <seq>` (the keyword is
/// case-insensitive like the verb; a bare `STREAM <id>` means seq 0).
fn parse_stream(rest: &[&str]) -> Result<(JobId, u64), String> {
    let id = |s: &str| -> Result<JobId, String> {
        s.parse().map_err(|_| format!("invalid job id {s:?}"))
    };
    match rest {
        [i] => Ok((id(i)?, 0)),
        [i, kw, seq] if kw.eq_ignore_ascii_case("FROM") => {
            let from = seq
                .parse()
                .map_err(|_| format!("invalid FROM seq {seq:?}"))?;
            Ok((id(i)?, from))
        }
        _ => Err("usage: STREAM <job-id> [FROM <seq>]".to_string()),
    }
}

fn parse_addr(rest: &[&str], verb: &str) -> Result<String, String> {
    match rest {
        [addr] => Ok(addr.to_string()),
        _ => Err(format!("usage: {verb} <host:port>")),
    }
}

/// `AUTH <token>` — exactly one token argument. The error message never
/// echoes what was (or was not) supplied: a mistyped token pasted with a
/// stray space must not leak its fragments into the reply.
fn parse_auth(rest: &[&str]) -> Result<String, String> {
    match rest {
        [token] => Ok(token.to_string()),
        _ => Err("usage: AUTH <token>".to_string()),
    }
}

/// Parses one request line. Verbs are case-insensitive; arguments are not.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut tokens = line.split_whitespace();
    let verb = tokens.next().ok_or("empty request")?;
    let rest: Vec<&str> = tokens.collect();
    match verb.to_ascii_uppercase().as_str() {
        "PING" => Ok(Request::Ping),
        "LIST" => Ok(Request::List),
        "STATS" => Ok(Request::Stats),
        "QUIT" => Ok(Request::Quit),
        "NODES" => Ok(Request::Nodes),
        "REBALANCE" => Ok(Request::Rebalance),
        "STATUS" => Ok(Request::Status(parse_id(&rest, "STATUS")?)),
        "STREAM" => {
            let (id, from) = parse_stream(&rest)?;
            Ok(Request::Stream(id, from))
        }
        "CANCEL" => Ok(Request::Cancel(parse_id(&rest, "CANCEL")?)),
        "AUTH" => Ok(Request::Auth(parse_auth(&rest)?)),
        "ADDNODE" => Ok(Request::AddNode(parse_addr(&rest, "ADDNODE")?)),
        "DROPNODE" => Ok(Request::DropNode(parse_addr(&rest, "DROPNODE")?)),
        "SUBMIT" => {
            let mut kv = parse_kv(rest.into_iter())?;
            let args = SubmitArgs {
                dataset: kv.remove("dataset"),
                path: kv.remove("path"),
                k: take_parse(&mut kv, "k")?.ok_or("SUBMIT requires k=")?,
                q: take_parse(&mut kv, "q")?.ok_or("SUBMIT requires q=")?,
                threads: take_parse(&mut kv, "threads")?,
                algo: kv.remove("algo"),
                limit: take_parse(&mut kv, "limit")?,
                timeout_ms: take_parse(&mut kv, "timeout-ms")?,
                throttle_us: take_parse(&mut kv, "throttle-us")?,
                tau_us: take_parse(&mut kv, "tau-us")?,
                store: kv.remove("store"),
                principal: kv.remove("principal"),
            };
            if let Some(unknown) = kv.keys().next() {
                return Err(format!("unknown SUBMIT key {unknown:?}"));
            }
            match (&args.dataset, &args.path) {
                (Some(_), None) | (None, Some(_)) => {}
                _ => return Err("SUBMIT requires exactly one of dataset= or path=".into()),
            }
            Ok(Request::Submit(Box::new(args)))
        }
        other => Err(format!("unknown verb {other:?}")),
    }
}

/// Parses the `key=value` fields of a response line after its leading word
/// (`OK`, `JOB`, `END`). Used by the client and the tests.
pub fn parse_response_fields(line: &str) -> Result<BTreeMap<String, String>, String> {
    parse_kv(line.split_whitespace().skip(1))
}

/// Makes an arbitrary string (typically an error message built from an
/// `io::Error`) safe to embed as a `key=value` token of a one-line reply:
/// every whitespace or control character — not just spaces; a newline or
/// tab would corrupt the line protocol mid-reply — becomes `_`, and the
/// empty string becomes `"_"` (the grammar rejects empty values).
pub fn sanitize_value(s: &str) -> String {
    if s.is_empty() {
        return "_".to_string();
    }
    s.chars()
        .map(|c| {
            if c.is_whitespace() || c.is_control() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

/// Replaces every occurrence of every registered secret token in `s` with
/// `****`. This is the token-scrubbing half of the sanitize layer: any
/// value that could embed client-supplied text (an error message quoting a
/// path, a failed loader's output) goes through it before hitting a reply
/// line, so an authentication token can never be echoed back — not in
/// `STATUS` error fields, not in `STATS`, not in journal records.
///
/// Splice-proof by construction: secrets are drawn from the principal-file
/// charset `[A-Za-z0-9_.-]` (see [`crate::auth`]), which excludes `*`, so
/// a replacement can never manufacture a new occurrence of any secret —
/// every secret occurrence in the output lies entirely within a preserved
/// fragment of the input, and processing secrets longest-first guarantees
/// each such fragment gets its own pass.
pub fn redact_secrets(s: &str, secrets: &[String]) -> String {
    let mut ordered: Vec<&String> = secrets.iter().filter(|t| !t.is_empty()).collect();
    ordered.sort_by_key(|t| std::cmp::Reverse(t.len()));
    let mut out = s.to_string();
    for secret in ordered {
        out = out.replace(secret.as_str(), "****");
    }
    out
}

/// [`sanitize_value`] followed by [`redact_secrets`]: the composition every
/// reply-embedded free-form value on an authenticated server goes through.
///
/// The order is load-bearing. Sanitizing maps whitespace and control
/// characters to `_`, and `_` is *inside* the token charset — so redacting
/// first would let sanitation manufacture a token occurrence afterwards
/// (input `a b` becoming secret `a_b`). Sanitizing first cannot destroy a
/// real occurrence (token characters are never whitespace or control), and
/// redacting last catches both real and manufactured ones.
pub fn sanitize_value_redacted(s: &str, secrets: &[String]) -> String {
    redact_secrets(&sanitize_value(s), secrets)
}

/// Writes `line` and its newline with one `write_all`: an unbuffered
/// socket then sends the reply as one segment, not the line and a lone
/// `\n` after it.
pub(crate) fn write_line<W: std::io::Write>(out: &mut W, line: &str) -> std::io::Result<()> {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    out.write_all(framed.as_bytes())
}

/// Renders one streamed result as an NDJSON line:
/// `{"id":3,"seq":0,"plex":[1,2,3]}`.
pub fn render_plex_line(id: JobId, seq: u64, plex: &[u32]) -> String {
    let mut out = Vec::new();
    write_plex_line(&mut out, id, seq, plex);
    String::from_utf8(out).expect("a rendered plex line is ASCII")
}

/// Appends the [`render_plex_line`] form of one result to `out`, without a
/// newline. The stream paths reuse one buffer for every line, so rendering
/// a result allocates nothing once the buffer has grown to a line's length.
pub fn write_plex_line(out: &mut Vec<u8>, id: JobId, seq: u64, plex: &[u32]) {
    out.extend_from_slice(b"{\"id\":");
    push_decimal(out, id);
    out.extend_from_slice(b",\"seq\":");
    push_decimal(out, seq);
    out.extend_from_slice(b",\"plex\":[");
    for (i, &v) in plex.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_decimal(out, u64::from(v));
    }
    out.extend_from_slice(b"]}");
}

/// Appends the decimal digits of `v`.
fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    // u64::MAX has 20 digits.
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Parses a streamed NDJSON result line back into `(id, seq, plex)`.
///
/// This is the one result-line grammar, which the router and the client
/// both apply: exactly what [`render_plex_line`] produces,
/// `{"id":D,"seq":D,"plex":[D(,D)*]}` or `[]` for the array, with no
/// whitespace and no line ending, where each `D` is a canonical decimal
/// (no sign, padding or leading zero) that fits its field: `u64` for the
/// id and the seq, `u32` for a vertex id. Any other line is an error.
pub fn parse_plex_line(line: &str) -> Result<(JobId, u64, Vec<u32>), String> {
    let mut plex = Vec::new();
    let (id, seq) = parse_plex_line_into(line, &mut plex)?;
    Ok((id, seq, plex))
}

/// [`parse_plex_line`] into a caller's buffer: returns `(id, seq)` and
/// replaces the contents of `plex` with the line's vertex ids. A stream
/// reader reuses one buffer for every line instead of allocating one per
/// result. On error `plex` holds no meaningful content.
pub fn parse_plex_line_into(line: &str, plex: &mut Vec<u32>) -> Result<(JobId, u64), String> {
    plex.clear();
    let (id, seq, _) = scan_plex_line(line.as_bytes(), |v| plex.push(v))?;
    Ok((id, seq))
}

/// Appends `line`, a result line of some job, to `out` as the same result
/// of job `id`, and returns its seq. Only the id is rewritten; every byte
/// after it is copied as it is, once [`scan_plex_line`] has accepted the
/// whole line. The output is exactly `render_plex_line(id, seq, plex)`.
pub(crate) fn splice_plex_line(out: &mut Vec<u8>, id: JobId, line: &[u8]) -> Result<u64, String> {
    let (_, seq, tail) = scan_plex_line(line, |_| ())?;
    out.extend_from_slice(b"{\"id\":");
    push_decimal(out, id);
    out.extend_from_slice(&line[tail..]);
    Ok(seq)
}

/// The byte scanner behind every result-line reader: checks `line`,
/// without its newline, against the grammar [`parse_plex_line`] states,
/// hands each vertex id to `vertex` in order, and returns
/// `(id, seq, tail)` with `line[tail..]` the part after the id.
///
/// A line it accepts holds nothing but the fixed key text, digits, commas
/// and brackets, so a forwarded result line cannot carry anything a reply
/// would have to redact.
pub(crate) fn scan_plex_line(
    line: &[u8],
    mut vertex: impl FnMut(u32),
) -> Result<(JobId, u64, usize), String> {
    let mut at = 0;
    literal(line, &mut at, b"{\"id\":")?;
    let id = decimal(line, &mut at, "bad id")?;
    let tail = at;
    literal(line, &mut at, b",\"seq\":")?;
    let seq = decimal(line, &mut at, "bad seq")?;
    literal(line, &mut at, b",\"plex\":[")?;
    if line.get(at) != Some(&b']') {
        loop {
            let v = decimal(line, &mut at, "bad plex element")?;
            vertex(u32::try_from(v).map_err(|_| "bad plex element")?);
            if line.get(at) != Some(&b',') {
                break;
            }
            at += 1;
        }
    }
    literal(line, &mut at, b"]}")?;
    if at != line.len() {
        return Err("trailing bytes after a result line".into());
    }
    Ok((id, seq, tail))
}

/// Moves `at` past `text`, which must come next in `line`.
fn literal(line: &[u8], at: &mut usize, text: &[u8]) -> Result<(), String> {
    if line[*at..].starts_with(text) {
        *at += text.len();
        Ok(())
    } else {
        Err("not a result line".into())
    }
}

/// Reads the canonical decimal that comes next in `line` — `0`, or a
/// nonzero digit and more digits — and moves `at` past it. `what` is the
/// error when there is none or it does not fit a `u64`.
fn decimal(line: &[u8], at: &mut usize, what: &str) -> Result<u64, String> {
    let start = *at;
    let mut value = 0u64;
    while let Some(&d) = line.get(*at).filter(|d| d.is_ascii_digit()) {
        value = value
            .checked_mul(10)
            .and_then(|v| v.checked_add(u64::from(d - b'0')))
            .ok_or(what)?;
        *at += 1;
    }
    match *at - start {
        0 => Err(what.into()),
        n if n > 1 && line[start] == b'0' => Err(what.into()),
        _ => Ok(value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn submit_roundtrip() {
        let mut args = SubmitArgs::dataset("jazz", 2, 9);
        args.threads = Some(4);
        args.limit = Some(1000);
        args.throttle_us = Some(250);
        args.store = Some("mmap".into());
        args.principal = Some("alice".into());
        let line = args.to_line();
        match parse_request(&line).unwrap() {
            Request::Submit(parsed) => assert_eq!(*parsed, args),
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn submit_validation_errors() {
        assert!(parse_request("SUBMIT k=2 q=9").is_err()); // no source
        assert!(parse_request("SUBMIT dataset=jazz path=x k=2 q=9").is_err()); // both
        assert!(parse_request("SUBMIT dataset=jazz q=9").is_err()); // no k
        assert!(parse_request("SUBMIT dataset=jazz k=abc q=9").is_err());
        assert!(parse_request("SUBMIT dataset=jazz k=2 q=9 wat=1").is_err());
    }

    #[test]
    fn simple_verbs_parse() {
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("quit").unwrap(), Request::Quit);
        assert_eq!(parse_request("STATUS 7").unwrap(), Request::Status(7));
        assert_eq!(parse_request("CANCEL 3").unwrap(), Request::Cancel(3));
        assert_eq!(parse_request("STREAM 1").unwrap(), Request::Stream(1, 0));
        assert!(parse_request("STATUS").is_err());
        assert!(parse_request("STATUS x").is_err());
        assert!(parse_request("FROBNICATE").is_err());
        assert!(parse_request("").is_err());
    }

    #[test]
    fn stream_from_parses_and_renders() {
        assert_eq!(
            parse_request("STREAM 3 FROM 17").unwrap(),
            Request::Stream(3, 17)
        );
        assert_eq!(
            parse_request("stream 3 from 17").unwrap(),
            Request::Stream(3, 17)
        );
        assert_eq!(render_request(&Request::Stream(3, 0)), "STREAM 3");
        assert_eq!(render_request(&Request::Stream(3, 17)), "STREAM 3 FROM 17");
        for req in [Request::Stream(9, 0), Request::Stream(9, u64::MAX)] {
            assert_eq!(parse_request(&render_request(&req)).unwrap(), req);
        }
        assert!(parse_request("STREAM 3 FROM").is_err());
        assert!(parse_request("STREAM 3 FROM x").is_err());
        assert!(parse_request("STREAM 3 UNTIL 9").is_err());
        assert!(parse_request("STREAM 3 FROM 1 2").is_err());
    }

    #[test]
    fn sanitize_value_strips_all_whitespace_and_controls() {
        assert_eq!(sanitize_value("plain"), "plain");
        assert_eq!(sanitize_value("two words"), "two_words");
        assert_eq!(sanitize_value("a\nb\tc\rd"), "a_b_c_d");
        assert_eq!(sanitize_value("\u{0}\u{1b}"), "__");
        assert_eq!(sanitize_value(""), "_");
        // The sanitized value must survive a reply-line round trip.
        let line = format!("OK error={}", sanitize_value("no such\nfile or directory"));
        let fields = parse_response_fields(&line).unwrap();
        assert_eq!(fields["error"], "no_such_file_or_directory");
    }

    #[test]
    fn router_verbs_parse_and_render() {
        assert_eq!(parse_request("NODES").unwrap(), Request::Nodes);
        assert_eq!(
            parse_request("ADDNODE 127.0.0.1:7712").unwrap(),
            Request::AddNode("127.0.0.1:7712".into())
        );
        assert_eq!(
            parse_request("dropnode 127.0.0.1:7712").unwrap(),
            Request::DropNode("127.0.0.1:7712".into())
        );
        assert!(parse_request("ADDNODE").is_err());
        assert!(parse_request("ADDNODE a b").is_err());
        assert_eq!(parse_request("REBALANCE").unwrap(), Request::Rebalance);
        for req in [
            Request::Nodes,
            Request::AddNode("h:1".into()),
            Request::DropNode("h:2".into()),
            Request::Rebalance,
            Request::Stats,
        ] {
            assert_eq!(parse_request(&render_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn auth_parses_and_renders() {
        assert_eq!(
            parse_request("AUTH s3cr3t").unwrap(),
            Request::Auth("s3cr3t".into())
        );
        assert_eq!(
            parse_request("auth s3cr3t").unwrap(),
            Request::Auth("s3cr3t".into())
        );
        assert_eq!(render_request(&Request::Auth("t0k".into())), "AUTH t0k");
        assert_eq!(
            parse_request(&render_request(&Request::Auth("t0k".into()))).unwrap(),
            Request::Auth("t0k".into())
        );
        // Arity errors are a fixed string — no echo of token fragments.
        for bad in ["AUTH", "AUTH sec ret"] {
            assert_eq!(parse_request(bad).unwrap_err(), "usage: AUTH <token>");
        }
    }

    #[test]
    fn redaction_scrubs_every_token_occurrence() {
        let secrets = vec!["tok-alice".to_string(), "ab".to_string()];
        assert_eq!(
            redact_secrets("loading /tmp/tok-alice/g.edges: denied", &secrets),
            "loading /tmp/****/g.edges: denied"
        );
        // Overlapping/substring secrets: longest replaced first, shorter
        // ones still caught in the remaining fragments.
        assert_eq!(redact_secrets("ab tok-aliceab", &secrets), "**** ********");
        // Replacement text can never recreate a secret (charset excludes *).
        let secrets = vec!["a".to_string()];
        assert!(!redact_secrets("aaaa", &secrets).contains('a'));
        // Empty secrets are ignored rather than exploding the string.
        assert_eq!(redact_secrets("x", &[String::new()]), "x");
        assert_eq!(
            sanitize_value_redacted("bad token tok-x here", &["tok-x".to_string()]),
            "bad_token_****_here"
        );
    }

    #[test]
    fn plex_line_roundtrip() {
        let line = render_plex_line(3, 17, &[4, 8, 15]);
        assert_eq!(line, "{\"id\":3,\"seq\":17,\"plex\":[4,8,15]}");
        assert_eq!(parse_plex_line(&line).unwrap(), (3, 17, vec![4, 8, 15]));
        let empty = render_plex_line(1, 0, &[]);
        assert_eq!(parse_plex_line(&empty).unwrap(), (1, 0, vec![]));
        assert!(parse_plex_line("not json").is_err());
        let extremes = render_plex_line(u64::MAX, u64::MAX, &[0, u32::MAX]);
        assert_eq!(
            extremes,
            "{\"id\":18446744073709551615,\"seq\":18446744073709551615,\
             \"plex\":[0,4294967295]}"
        );
    }

    #[test]
    fn result_lines_outside_the_grammar_are_rejected() {
        let ok = "{\"id\":3,\"seq\":17,\"plex\":[4,8,15]}";
        assert_eq!(parse_plex_line(ok).unwrap(), (3, 17, vec![4, 8, 15]));
        for line in [
            "{\"id\":03,\"seq\":17,\"plex\":[4,8,15]}", // leading zero
            "{\"id\":3,\"seq\":17,\"plex\":[4,08,15]}", // leading zero
            "{\"id\":+3,\"seq\":17,\"plex\":[4,8,15]}", // sign
            "{\"id\":3,\"seq\":17,\"plex\":[4, 8,15]}", // padded element
            "{\"id\":3,\"seq\":17,\"plex\":[4,8,15] }", // padding
            " {\"id\":3,\"seq\":17,\"plex\":[4,8,15]}", // padding
            "{\"id\":3,\"seq\":17,\"plex\":[4,8,15]}\r", // carriage return
            "{\"id\":3,\"seq\":17,\"plex\":[4,8,15]}\n", // newline
            "{\"seq\":17,\"id\":3,\"plex\":[4,8,15]}",  // reordered keys
            "{\"id\":3,\"seq\":17,\"plex\":[4,,15]}",   // empty element
            "{\"id\":3,\"seq\":17,\"plex\":[4,8,]}",    // trailing comma
            "{\"id\":3,\"seq\":17,\"plex\":[,]}",       // lone comma
            "{\"id\":3,\"seq\":17,\"plex\":[4,8,15]",   // unterminated
            "{\"id\":3,\"seq\":17,\"plex\":[4,8,15]}}", // trailing byte
            "{\"id\":3,\"seq\":17,\"plex\":[-4]}",      // negative
            "{\"id\":3,\"seq\":17,\"plex\":[4294967296]}", // u32 overflow
            "{\"id\":18446744073709551616,\"seq\":0,\"plex\":[]}", // u64 overflow
            "{\"id\":3,\"seq\":,\"plex\":[4]}",         // missing seq
            "{\"id\":3,\"seq\":17,\"plex\":[4],\"x\":1}", // extra key
        ] {
            assert!(parse_plex_line(line).is_err(), "{line:?} must not parse");
            let mut out = b"kept".to_vec();
            assert!(splice_plex_line(&mut out, 9, line.as_bytes()).is_err());
            assert_eq!(out, b"kept", "a rejected line must not be spliced");
        }
    }

    /// A rendered line, possibly edited: up to three single-byte inserts,
    /// deletions or replacements drawn from the bytes that matter to the
    /// grammar (and a few that never may appear in it).
    fn arb_line() -> impl Strategy<Value = Vec<u8>> {
        const BYTES: &[u8] = b"0123456789,[]{}:\"idseqplx +-\r\n\t\xff";
        let plex = proptest::collection::vec(prop_oneof![Just(u32::MAX), any::<u32>()], 0..8);
        let edit = (0usize..64, 0u8..3, 0usize..BYTES.len());
        (
            prop_oneof![Just(u64::MAX), any::<u64>(), 0u64..20],
            any::<u64>(),
            plex,
            proptest::collection::vec(edit, 0..4),
        )
            .prop_map(|(id, seq, plex, edits)| {
                let mut line = render_plex_line(id, seq, &plex).into_bytes();
                for (at, kind, b) in edits {
                    let at = at % (line.len() + 1);
                    match kind {
                        0 => line.insert(at, BYTES[b]),
                        1 if at < line.len() => {
                            line.remove(at);
                        }
                        _ if at < line.len() => line[at] = BYTES[b],
                        _ => {}
                    }
                }
                line
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The router's splice of a backend line is the line the router
        /// would have rendered itself.
        #[test]
        fn splice_equals_render(rid in any::<u64>(), id in any::<u64>(), seq in any::<u64>(),
                                plex in proptest::collection::vec(any::<u32>(), 0..24)) {
            let mut out = b"prefix\n".to_vec();
            let line = render_plex_line(id, seq, &plex);
            prop_assert_eq!(splice_plex_line(&mut out, rid, line.as_bytes()), Ok(seq));
            prop_assert_eq!(&out[..7], b"prefix\n");
            let rendered = render_plex_line(rid, seq, &plex);
            prop_assert_eq!(&out[7..], rendered.as_bytes());
        }

        /// The router and the client accept exactly the same lines, never
        /// panic on any, and agree on what an accepted line says.
        #[test]
        fn router_and_client_accept_the_same_lines(line in arb_line(), rid in 0u64..1000) {
            let mut spliced = Vec::new();
            let routed = splice_plex_line(&mut spliced, rid, &line);
            let parsed = std::str::from_utf8(&line).map_err(|e| e.to_string()).and_then(parse_plex_line);
            prop_assert_eq!(routed.is_ok(), parsed.is_ok(), "line {:?}", String::from_utf8_lossy(&line));
            if let (Ok(seq), Ok((_, parsed_seq, plex))) = (routed, parsed) {
                prop_assert_eq!(seq, parsed_seq);
                prop_assert_eq!(spliced, render_plex_line(rid, seq, &plex).into_bytes());
            }
        }
    }

    #[test]
    fn response_fields_parse() {
        let kv = parse_response_fields("OK id=3 state=queued").unwrap();
        assert_eq!(kv["id"], "3");
        assert_eq!(kv["state"], "queued");
    }
}
