//! A small blocking client for the `kplexd` wire protocol.
//!
//! Used by `kplex submit` and the integration tests. One connection handles
//! one request at a time (the protocol is strictly request → response);
//! cancelling a job that is being streamed on this connection therefore
//! needs a second connection.

use crate::protocol::{self, JobId, SubmitArgs};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server answered `ERR …`.
    Remote(String),
    /// The server answered something the client cannot parse.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Remote(msg) => write!(f, "server error: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The last line read, as bytes; reused so reading a reply or a
    /// streamed result allocates nothing once it has grown to a line's
    /// length.
    line: Vec<u8>,
}

impl Client {
    /// Connects to a running `kplexd`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream, None)
    }

    /// Connects with a bounded connect timeout and, optionally, a read
    /// timeout on every reply. The router uses this for backend calls so a
    /// wedged (not crashed) backend cannot stall proxied requests forever:
    /// a timeout surfaces as an I/O error, which the caller treats as a
    /// transport failure. Leave `read` as `None` for `STREAM` — a live
    /// stream is legitimately silent while the job computes.
    pub fn connect_timeout<A: ToSocketAddrs>(
        addr: A,
        connect: std::time::Duration,
        read: Option<std::time::Duration>,
    ) -> Result<Client, ClientError> {
        let sockaddr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Protocol("address resolved to nothing".into()))?;
        let stream = TcpStream::connect_timeout(&sockaddr, connect)?;
        Client::from_stream(stream, read)
    }

    fn from_stream(
        stream: TcpStream,
        read: Option<std::time::Duration>,
    ) -> Result<Client, ClientError> {
        stream.set_nodelay(true).ok();
        if read.is_some() {
            stream.set_read_timeout(read)?;
        }
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            line: Vec::new(),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), ClientError> {
        Ok(protocol::write_line(&mut self.writer, line)?)
    }

    /// Reads the next line into the reused buffer, newline included.
    fn read_bytes(&mut self) -> Result<(), ClientError> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Err(ClientError::Protocol("server closed the connection".into()));
        }
        Ok(())
    }

    /// Reads the next line and returns it as text without its line ending.
    fn read_line(&mut self) -> Result<&str, ClientError> {
        self.read_bytes()?;
        text(&self.line)
    }

    /// One simple request: sends `line`, expects a single `OK …` line and
    /// returns its fields.
    fn request(&mut self, line: &str) -> Result<BTreeMap<String, String>, ClientError> {
        self.send(line)?;
        let resp = self.read_line()?;
        if let Some(msg) = resp.strip_prefix("ERR ") {
            return Err(ClientError::Remote(msg.to_string()));
        }
        if !resp.starts_with("OK") {
            return Err(ClientError::Protocol(format!("unexpected reply {resp:?}")));
        }
        protocol::parse_response_fields(resp).map_err(ClientError::Protocol)
    }

    /// Authenticates this connection as the principal owning `token`
    /// (`AUTH <token>`). Returns the reply fields (`principal=`, `weight=`,
    /// `admin=`) — the server never echoes the token itself. Required
    /// before any other verb on a server started with `--principals`.
    pub fn auth(&mut self, token: &str) -> Result<BTreeMap<String, String>, ClientError> {
        if token.is_empty() || token.chars().any(char::is_whitespace) {
            // A whitespace-bearing token would be framed as extra wire
            // tokens; reject it client-side without putting it on the wire.
            return Err(ClientError::Protocol(
                "token is empty or contains whitespace".into(),
            ));
        }
        self.request(&protocol::render_request(&protocol::Request::Auth(
            token.to_string(),
        )))
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send("PING")?;
        match self.read_line()? {
            "OK pong" => Ok(()),
            other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Submits a job, returning the full `OK` reply fields. Against a
    /// `kplexr` router the reply carries a `backend=` field naming the
    /// rendezvous-chosen backend alongside `id=` and `state=`.
    pub fn submit_fields(
        &mut self,
        args: &SubmitArgs,
    ) -> Result<BTreeMap<String, String>, ClientError> {
        // The wire format is whitespace-delimited tokens: a value with
        // spaces would be malformed, or silently inject extra keys.
        for value in [&args.dataset, &args.path, &args.algo]
            .into_iter()
            .flatten()
        {
            if value.chars().any(char::is_whitespace) {
                return Err(ClientError::Protocol(format!(
                    "{value:?} contains whitespace, which the wire protocol cannot carry"
                )));
            }
        }
        self.request(&args.to_line())
    }

    /// Submits a job, returning its id.
    pub fn submit(&mut self, args: &SubmitArgs) -> Result<JobId, ClientError> {
        let fields = self.submit_fields(args)?;
        fields
            .get("id")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ClientError::Protocol("SUBMIT reply without id".into()))
    }

    /// One `STATUS` line as a field map.
    pub fn status(&mut self, id: JobId) -> Result<BTreeMap<String, String>, ClientError> {
        self.request(&format!("STATUS {id}"))
    }

    /// Requests cancellation; returns the state after the request.
    pub fn cancel(&mut self, id: JobId) -> Result<String, ClientError> {
        let fields = self.request(&format!("CANCEL {id}"))?;
        fields
            .get("state")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("CANCEL reply without state".into()))
    }

    /// Server counters.
    pub fn stats(&mut self) -> Result<BTreeMap<String, String>, ClientError> {
        self.request("STATS")
    }

    /// Router admin: registers (or revives) a backend.
    pub fn add_node(&mut self, addr: &str) -> Result<(), ClientError> {
        self.request(&format!("ADDNODE {addr}")).map(|_| ())
    }

    /// Router admin: removes a backend from the routing set.
    pub fn drop_node(&mut self, addr: &str) -> Result<(), ClientError> {
        self.request(&format!("DROPNODE {addr}")).map(|_| ())
    }

    /// Router backend registry, one field map per `NODE` line.
    pub fn nodes(&mut self) -> Result<Vec<BTreeMap<String, String>>, ClientError> {
        self.multiline("NODES")
    }

    /// Router admin: recompute rendezvous placement for queued jobs and
    /// migrate the ones whose owner changed. Returns how many moved.
    pub fn rebalance(&mut self) -> Result<u64, ClientError> {
        let fields = self.request("REBALANCE")?;
        fields
            .get("rebalanced")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ClientError::Protocol("REBALANCE reply without rebalanced".into()))
    }

    /// One multi-line request: sends `verb`, collects the fields of each
    /// line until the terminating `END` (shared by `LIST` and `NODES`).
    fn multiline(&mut self, verb: &str) -> Result<Vec<BTreeMap<String, String>>, ClientError> {
        self.send(verb)?;
        let mut rows = Vec::new();
        loop {
            let line = self.read_line()?;
            if let Some(msg) = line.strip_prefix("ERR ") {
                return Err(ClientError::Remote(msg.to_string()));
            }
            if line.starts_with("END") {
                return Ok(rows);
            }
            rows.push(protocol::parse_response_fields(line).map_err(ClientError::Protocol)?);
        }
    }

    /// All jobs, one field map per `JOB` line.
    pub fn list(&mut self) -> Result<Vec<BTreeMap<String, String>>, ClientError> {
        self.multiline("LIST")
    }

    /// Streams a job from the beginning: `on_plex(seq, plex)` per result,
    /// then returns the `END` line's fields (`state=`, `results=`). `plex`
    /// is a buffer reused for every result, so the stream allocates nothing
    /// per result; a caller that keeps a plex copies it (`plex.to_vec()`).
    /// It is mutable so a caller may sort or otherwise reuse it in place.
    pub fn stream(
        &mut self,
        id: JobId,
        mut on_plex: impl FnMut(u64, &mut [u32]),
    ) -> Result<BTreeMap<String, String>, ClientError> {
        self.stream_while(id, |seq, plex| {
            on_plex(seq, plex);
            true
        })
        .map(|end| end.expect("an unaborted stream always ends with END"))
    }

    /// Resumes a stream at `from` (`STREAM <id> FROM <seq>`): delivers only
    /// results with `seq >= from`, then the `END` fields. A client whose
    /// connection died mid-stream passes the first seq it has not consumed
    /// and receives exactly the missing suffix — nothing is re-delivered.
    /// `plex` is reused as in [`Client::stream`].
    pub fn stream_from(
        &mut self,
        id: JobId,
        from: u64,
        mut on_plex: impl FnMut(u64, &mut [u32]),
    ) -> Result<BTreeMap<String, String>, ClientError> {
        self.stream_while_from(id, from, |seq, plex| {
            on_plex(seq, plex);
            true
        })
        .map(|end| end.expect("an unaborted stream always ends with END"))
    }

    /// Like [`Client::stream`], but `on_plex` returning `false` abandons the
    /// stream immediately with `Ok(None)` — the caller should then drop this
    /// client, which closes the connection and lets the server stop
    /// producing.
    pub fn stream_while(
        &mut self,
        id: JobId,
        on_plex: impl FnMut(u64, &mut [u32]) -> bool,
    ) -> Result<Option<BTreeMap<String, String>>, ClientError> {
        self.stream_while_from(id, 0, on_plex)
    }

    /// [`Client::stream_while`] with a resume offset. Every result line is
    /// checked by the one result-line grammar the router also uses
    /// ([`protocol::parse_plex_line`]); a line that fails it is a
    /// [`ClientError::Protocol`].
    pub fn stream_while_from(
        &mut self,
        id: JobId,
        from: u64,
        mut on_plex: impl FnMut(u64, &mut [u32]) -> bool,
    ) -> Result<Option<BTreeMap<String, String>>, ClientError> {
        let mut plex = Vec::new();
        self.stream_lines_from(id, from, |line, _| {
            plex.clear();
            let (_, seq, _) = protocol::scan_plex_line(line, |v| plex.push(v))?;
            Ok(on_plex(seq, &mut plex))
        })
    }

    /// The primitive under every streaming entry point; the router's
    /// splice uses it directly. Sends `STREAM <id> FROM <from>`, reads the
    /// reply line by line as bytes, and hands each result line, without
    /// its newline, to `on_line(line, more)`; `more` is true when further
    /// input has already arrived, so a forwarder that batches its writes
    /// flushes exactly when it is false. `on_line` returns whether to go
    /// on — `false` abandons the stream with `Ok(None)` — or, for a line it
    /// rejects, the message of the resulting [`ClientError::Protocol`].
    pub(crate) fn stream_lines_from(
        &mut self,
        id: JobId,
        from: u64,
        mut on_line: impl FnMut(&[u8], bool) -> Result<bool, String>,
    ) -> Result<Option<BTreeMap<String, String>>, ClientError> {
        self.send(&protocol::render_request(&protocol::Request::Stream(
            id, from,
        )))?;
        loop {
            self.read_bytes()?;
            let line = self.line.strip_suffix(b"\n").unwrap_or(&self.line);
            if line.first() != Some(&b'{') {
                let reply = text(line)?;
                if let Some(msg) = reply.strip_prefix("ERR ") {
                    return Err(ClientError::Remote(msg.to_string()));
                }
                if reply.starts_with("END") {
                    return protocol::parse_response_fields(reply)
                        .map(Some)
                        .map_err(ClientError::Protocol);
                }
            }
            let more = !self.reader.buffer().is_empty();
            match on_line(line, more) {
                Ok(true) => {}
                Ok(false) => return Ok(None),
                Err(msg) => return Err(ClientError::Protocol(msg)),
            }
        }
    }
}

/// A reply line as text, without its line ending.
fn text(line: &[u8]) -> Result<&str, ClientError> {
    std::str::from_utf8(line)
        .map(str::trim_end)
        .map_err(|_| ClientError::Protocol("reply line is not UTF-8".into()))
}
