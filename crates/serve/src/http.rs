//! A deliberately small HTTP/1.1 subset over [`std::net::TcpStream`]:
//! one request per connection, `Content-Length` bodies only (no chunked
//! encoding, no keep-alive, no TLS). Exactly what the resilience layer
//! needs and nothing the vendored-dependency policy would forbid.
//!
//! Limits are enforced while reading: oversized headers or bodies fail
//! fast with a typed error the server maps to `431`/`413`, so a
//! misbehaving client cannot balloon server memory before admission
//! control even sees the request.
//!
//! The accept side lives here too: `AcceptLoop` is the one blocking
//! accept loop every listener in the crate runs on.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use serde_json::Value;

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
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
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
        match stream.read(&mut chunk) {
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
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
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

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))
        })
        .transpose()?
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
        match stream.read(&mut chunk) {
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

#[cfg(test)]
mod tests {
    use super::*;
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
}
