//! A deliberately small HTTP/1.1 subset over [`std::net::TcpStream`]:
//! one request per connection, `Content-Length` bodies only (no chunked
//! encoding, no keep-alive, no TLS). Exactly what the resilience layer
//! needs and nothing the vendored-dependency policy would forbid.
//!
//! Both ends of the fleet's wire live here: one request reader
//! ([`read_request`]) and [`Response`] for the server side, and one client
//! call, [`exchange`], for every outgoing hop.
//!
//! Limits are enforced while reading: oversized headers or bodies fail
//! fast with a typed error the server maps to `431`/`413`, so a
//! misbehaving client cannot balloon server memory before admission
//! control even sees the request. A [`Reply`] must be whole — complete
//! head, parseable status line, at least `content-length` body bytes —
//! so a connection torn anywhere is a transport error, never a relayed
//! or parsed success. Neither side allocates from a claimed length.
//!
//! The accept side lives here too: `AcceptLoop` is the one blocking
//! accept loop every listener in the crate runs on.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use serde_json::{json, Value};

use crate::peers::PeerTimeouts;

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// The one accept loop behind the server, the router and the chaos
/// proxy. Its thread blocks in `accept`, so a connection is handed on the
/// moment it arrives (no polling interval), and each connection goes to
/// the handler on the loop thread — handlers spawn their own threads, and
/// the chaos proxy relies on accept order. [`AcceptLoop::stop`] sets the
/// stop flag, then wakes the blocked `accept` by connecting to the
/// listener; the loop sees the flag and exits without handing that
/// connection on.
pub(crate) struct AcceptLoop {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl AcceptLoop {
    /// Spawns a thread named `name` serving `listener` until stopped.
    pub(crate) fn spawn(
        listener: TcpListener,
        name: &str,
        mut on_conn: impl FnMut(TcpStream) + Send + 'static,
    ) -> std::io::Result<AcceptLoop> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || loop {
                let conn = listener.accept();
                if stopped.load(Ordering::SeqCst) {
                    return;
                }
                match conn {
                    Ok((stream, _)) => on_conn(stream),
                    // Out of descriptors and the like: back off, don't spin.
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            })?;
        Ok(AcceptLoop {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The listener's bound address.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the loop and joins its thread. Idempotent. One wake
    /// connection is enough even when the loop is not yet back inside
    /// `accept`: it waits in the backlog. Should every wake fail to
    /// connect, the thread is left detached rather than joined forever.
    pub(crate) fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let Some(thread) = self.thread.take() else {
            return;
        };
        // An unspecified bind address (`0.0.0.0`, `[::]`) is not a
        // portable connect target; its loopback twin reaches the same
        // listener.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let woken =
            (0..5).any(|_| TcpStream::connect_timeout(&wake, Duration::from_millis(200)).is_ok());
        if woken || thread.is_finished() {
            let _ = thread.join();
        }
    }
}

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target (query string is kept as-is).
    pub path: String,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Request line or headers malformed.
    Malformed(String),
    /// Head exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// Body exceeded the server's configured cap.
    BodyTooLarge,
    /// Socket error or timeout mid-request.
    Io(std::io::Error),
    /// Peer closed the connection before a full request arrived.
    Disconnected,
    /// Peer closed the connection mid-body: the head promised more bytes
    /// than ever arrived. Distinct from [`HttpError::Malformed`] so
    /// breakers classify a client abort (their fault, connection gone)
    /// separately from malformed input (answerable with a 400).
    Truncated,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::HeadTooLarge => write!(f, "request head too large"),
            HttpError::BodyTooLarge => write!(f, "request body too large"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Disconnected => write!(f, "client disconnected"),
            HttpError::Truncated => write!(f, "connection closed mid-body"),
        }
    }
}

/// Reads one request from `stream`, enforcing `max_body` and a
/// `read_timeout` that bounds how long a slow client can hold the
/// connection open mid-head (slowloris protection — the timeout applies
/// per read syscall, the head size cap bounds the total).
pub fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
    read_timeout: Duration,
) -> Result<Request, HttpError> {
    stream
        .set_read_timeout(Some(read_timeout))
        .map_err(HttpError::Io)?;
    parse_request(stream, max_body)
}

/// The server side's request reader: [`read_request`], answering the
/// requests it refuses itself — `431` for an oversized head, `413` for an
/// oversized body, `400` for anything malformed or too slow. A client
/// that vanished before or mid-request gets no reply; there is nobody
/// left to read it. `None` means the connection is finished.
pub(crate) fn receive(
    stream: &mut TcpStream,
    max_body: usize,
    read_timeout: Duration,
) -> Option<Request> {
    let err = match read_request(stream, max_body, read_timeout) {
        Ok(req) => return Some(req),
        Err(HttpError::Disconnected | HttpError::Truncated) => return None,
        Err(err) => err,
    };
    let status = match err {
        HttpError::HeadTooLarge => 431,
        HttpError::BodyTooLarge => 413,
        _ => 400,
    };
    let _ = Response::json(status, &json!({ "error": err.to_string() })).write_to(stream);
    None
}

/// [`read_request`] over any byte source; its end reads as a hang-up.
fn parse_request(src: &mut impl Read, max_body: usize) -> Result<Request, HttpError> {
    // Accumulate until the blank line terminating the head.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        match src.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    return Err(HttpError::Disconnected);
                }
                return Err(HttpError::Malformed("eof inside request head".into()));
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(HttpError::Io(e)),
        }
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("non-utf8 request head".into()))?;
    let (request_line, headers) = parse_head(head).map_err(HttpError::Malformed)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?
        .to_string();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported version {version:?}")));
    }

    let content_length = content_length(&headers)
        .map_err(HttpError::Malformed)?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge);
    }

    // The head read may have pulled in the start of the body.
    let mut body = buf.split_off(head_end + 4);
    if body.len() > content_length {
        return Err(HttpError::Malformed("body longer than content-length".into()));
    }
    while body.len() < content_length {
        match src.read(&mut chunk) {
            Ok(0) => return Err(HttpError::Truncated),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(HttpError::Io(e)),
        }
        if body.len() > content_length {
            return Err(HttpError::Malformed("body longer than content-length".into()));
        }
    }

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

type Headers = Vec<(String, String)>;

/// Splits a head into its first line and its headers (names lowercased,
/// values trimmed) — the same rules for requests and replies.
fn parse_head(head: &str) -> Result<(&str, Headers), String> {
    let mut lines = head.split("\r\n");
    let first = lines.next().unwrap_or("");
    let mut headers = Vec::new();
    for line in lines.filter(|line| !line.is_empty()) {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header line {line:?}"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((first, headers))
}

fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, String> {
    find_header(headers, "content-length")
        .map(|v| v.parse().map_err(|_| format!("bad content-length {v:?}")))
        .transpose()
}

fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// A response ready to serialise. Always `Connection: close`.
#[derive(Debug)]
pub struct Response {
    /// Status code (e.g. 200, 429).
    pub status: u16,
    /// Extra headers beyond the computed `Content-Type`/`Content-Length`.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    content_type: &'static str,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, value: &Value) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: serde_json::to_string(value)
                .expect("Value serialization is infallible")
                .into_bytes(),
            content_type: "application/json",
        }
    }

    /// A raw JSON response from already-serialised text (used by
    /// `/metrics`, whose schema-v1 serialiser lives in `ofd-obs`).
    pub fn json_text(status: u16, text: String) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: text.into_bytes(),
            content_type: "application/json",
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: String) -> Response {
        self.headers.push((name.to_string(), value));
        self
    }

    /// Serialises the response onto `stream`. Errors are returned, not
    /// panicked on — the peer may be gone already.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A whole reply, as [`exchange`] read it. The raw bytes are kept, so the
/// router can relay a worker's answer verbatim.
#[derive(Debug)]
pub struct Reply {
    /// Status code from the status line.
    pub status: u16,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    raw: Vec<u8>,
    body_start: usize,
}

impl Reply {
    /// Checks and splits a reply read to EOF. A reply torn inside its head
    /// or short of its `content-length` is `UnexpectedEof`; a bad status
    /// line, header or length is `InvalidData`.
    pub fn parse(raw: Vec<u8>) -> io::Result<Reply> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let head_end = find_head_end(&raw).ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "reply torn inside its head")
        })?;
        let head = std::str::from_utf8(&raw[..head_end])
            .map_err(|_| invalid("non-utf8 reply head".into()))?;
        let (status_line, headers) = parse_head(head).map_err(invalid)?;
        let status = status_line
            .strip_prefix("HTTP/1.")
            .and_then(|rest| rest.split_whitespace().nth(1)?.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {status_line:?}")))?;
        let body_start = head_end + 4;
        if let Some(expected) = content_length(&headers).map_err(invalid)? {
            let got = raw.len() - body_start;
            if got < expected {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("short reply: {got} of {expected} body bytes"),
                ));
            }
        }
        Ok(Reply {
            status,
            headers,
            raw,
            body_start,
        })
    }

    /// The reply exactly as it came off the wire, head included.
    pub fn raw(&self) -> &[u8] {
        &self.raw
    }

    /// The body bytes.
    pub fn body(&self) -> &[u8] {
        &self.raw[self.body_start..]
    }

    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// The body as JSON; `Null` when it is empty or not JSON, so "answered
    /// garbage" reads the same as "answered nothing".
    pub fn json(&self) -> Value {
        std::str::from_utf8(self.body())
            .ok()
            .and_then(|text| serde_json::from_str(text).ok())
            .unwrap_or(Value::Null)
    }
}

/// The fleet's one client call, over one fresh TCP connection: connect
/// within `timeouts.connect`, send `method path` with the caller's
/// `headers` and `body`, and read the whole reply, with `timeouts.read`
/// bounding every read and write. The write side stays open until the
/// reply is in: a half-close reads as a hang-up to the worker's
/// disconnect watcher, which would cancel the very job being waited for.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    timeouts: &PeerTimeouts,
) -> io::Result<Reply> {
    let mut stream = TcpStream::connect_timeout(&addr, timeouts.connect)?;
    stream.set_read_timeout(Some(timeouts.read))?;
    stream.set_write_timeout(Some(timeouts.read))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n", body.len());
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("connection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    Reply::parse(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::TcpListener;

    fn roundtrip(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&raw).expect("write");
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let req = read_request(&mut conn, 1024 * 1024, Duration::from_secs(5));
        writer.join().expect("writer");
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req = roundtrip(b"POST /v1/discover HTTP/1.1\r\ncontent-length: 5\r\nx-a: b\r\n\r\nhello")
            .expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/discover");
        assert_eq!(req.header("x-a"), Some("b"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_get_without_body() {
        let req = roundtrip(b"GET /healthz HTTP/1.1\r\n\r\n").expect("parse");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_body_before_reading_it() {
        let err = roundtrip(b"POST /v1/clean HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n")
            .expect_err("too large");
        assert!(matches!(err, HttpError::BodyTooLarge));
    }

    #[test]
    fn rejects_malformed_request_line() {
        let err = roundtrip(b"NONSENSE\r\n\r\n").expect_err("malformed");
        assert!(matches!(err, HttpError::Malformed(_)));
    }

    #[test]
    fn empty_connection_is_a_disconnect() {
        let err = roundtrip(b"").expect_err("disconnect");
        assert!(matches!(err, HttpError::Disconnected));
    }

    #[test]
    fn eof_mid_body_is_truncated_not_malformed() {
        // The head promises 100 bytes; the client sends 5 and hangs up.
        let err = roundtrip(b"POST /v1/clean HTTP/1.1\r\ncontent-length: 100\r\n\r\nhello")
            .expect_err("truncated");
        assert!(matches!(err, HttpError::Truncated), "got {err:?}");
    }

    #[test]
    fn replies_parse_status_headers_and_body() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\nx-a: b\r\n\r\n{}";
        let reply = Reply::parse(raw.to_vec()).expect("whole reply");
        assert_eq!(reply.status, 503);
        assert_eq!(reply.header("x-a"), Some("b"));
        assert_eq!(reply.body(), b"{}");
        assert_eq!(reply.raw(), raw);
        assert_eq!(reply.json(), json!({}));
        let reply = Reply::parse(b"HTTP/1.1 200 OK\r\n\r\nok\n".to_vec()).expect("no length");
        assert_eq!(reply.body(), b"ok\n", "without content-length, EOF ends the body");
        assert_eq!(reply.json(), Value::Null, "non-JSON reads as Null");
        let err = Reply::parse(b"garbage\r\n\r\n".to_vec()).expect_err("no status line");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A scripted server: reads one request, writes `reply` and closes.
    fn scripted(reply: &'static [u8]) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let _ = read_request(&mut conn, 1024, Duration::from_secs(5));
            conn.write_all(reply).expect("reply");
        });
        (addr, server)
    }

    #[test]
    fn torn_replies_are_transport_errors_not_parsed_successes() {
        // Torn mid-body: the head advertises 100 bytes, 5 arrive.
        let (addr, server) =
            scripted(b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\nconnection: close\r\n\r\ntorn!");
        let err = exchange(addr, "GET", "/healthz", &[], b"", &PeerTimeouts::default())
            .expect_err("short body must not parse");
        server.join().expect("server thread");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("short reply"), "got: {err}");
        // Torn inside the head: the status line is whole, the head is not.
        let (addr, server) = scripted(b"HTTP/1.1 200 OK\r\ncontent-length: 50\r\ncontent-ty");
        let err = exchange(addr, "GET", "/healthz", &[], b"", &PeerTimeouts::default())
            .expect_err("torn head must not parse");
        server.join().expect("server thread");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    // ------------------------------------------------------------ fuzzing

    const VALID_REQUEST: &[u8] =
        b"POST /v1/validate HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: 15\r\n\r\n{\"csv\":\"A\\n1\"}";
    const VALID_REPLY: &[u8] =
        b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 11\r\nconnection: close\r\n\r\n{\"ok\":true}";

    /// `base` with up to four byte flips, inserts and cuts, picked by `ops`.
    fn mutate(base: &[u8], ops: &[(u8, usize, u8)]) -> Vec<u8> {
        let mut out = base.to_vec();
        for &(op, at, byte) in ops {
            let at = at % (out.len() + 1);
            match op % 3 {
                0 if at < out.len() => out[at] ^= byte | 1,
                1 => out.insert(at, byte),
                _ => out.truncate(at),
            }
        }
        out
    }

    fn bytes() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(0u8..=255, 0..300)
    }

    fn mutations() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
        prop::collection::vec((0u8..3, 0usize..512, 0u8..=255), 1..5)
    }

    /// The typed outcome of reading `raw` from a source that then ends,
    /// with a small cap so oversize paths are reached too.
    fn read_all(raw: &[u8]) -> Result<Request, HttpError> {
        parse_request(&mut &raw[..], 64)
    }

    #[test]
    fn request_reader_is_total_on_arbitrary_and_mutated_bytes() {
        proptest!(ProptestConfig::with_cases(256), |(raw in bytes(), ops in mutations())| {
            // Every outcome is `Ok` or a typed error; none panics, and a
            // source that ends always ends the read.
            let _ = read_all(&raw);
            let mutated = mutate(VALID_REQUEST, &ops);
            if let Ok(req) = read_all(&mutated) {
                prop_assert!(req.body.len() <= 64);
            }
        });
    }

    #[test]
    fn a_body_shorter_than_its_claimed_length_is_truncated() {
        proptest!(ProptestConfig::with_cases(128), |(claimed in 1usize..64, sent in 0usize..64)| {
            let sent = sent % claimed;
            let mut raw = format!("POST /x HTTP/1.1\r\ncontent-length: {claimed}\r\n\r\n").into_bytes();
            raw.extend(vec![b'x'; sent]);
            prop_assert!(matches!(read_all(&raw), Err(HttpError::Truncated)));
        });
    }

    #[test]
    fn request_reader_never_hangs_once_the_writer_closes() {
        // The socket path itself, on fewer cases: the writer closes after
        // its bytes, so every read ends in a typed outcome well inside the
        // per-read deadline.
        proptest!(ProptestConfig::with_cases(24), |(raw in bytes(), ops in mutations())| {
            for raw in [raw.clone(), mutate(VALID_REQUEST, &ops)] {
                let started = std::time::Instant::now();
                let _ = roundtrip(&raw);
                prop_assert!(started.elapsed() < Duration::from_secs(4));
            }
        });
    }

    #[test]
    fn reply_parser_is_total_on_arbitrary_and_mutated_bytes() {
        proptest!(ProptestConfig::with_cases(256), |(raw in bytes(), ops in mutations())| {
            let _ = Reply::parse(raw);
            if let Ok(reply) = Reply::parse(mutate(VALID_REPLY, &ops)) {
                let _ = reply.json();
            }
        });
    }

    #[test]
    fn every_strict_prefix_of_a_reply_with_a_length_is_an_error() {
        assert!(Reply::parse(VALID_REPLY.to_vec()).is_ok());
        for cut in 0..VALID_REPLY.len() {
            assert!(
                Reply::parse(VALID_REPLY[..cut].to_vec()).is_err(),
                "prefix of {cut} bytes parsed"
            );
        }
        proptest!(ProptestConfig::with_cases(64), |(body in "[ -~]{0,40}", cut in 0usize..200)| {
            let raw = format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{body}", body.len());
            let cut = cut % raw.len();
            prop_assert!(Reply::parse(raw.as_bytes()[..cut].to_vec()).is_err());
        });
    }
}
