//! Hand-rolled HTTP/1.1 on `std::net` — no tokio, no hyper.
//!
//! One accept thread polls a non-blocking listener (25 ms cadence, so a
//! shutdown flag is observed promptly) and feeds accepted connections
//! to a small pool of worker threads over an `mpsc` channel. Each
//! connection carries exactly one request (`Connection: close`), which
//! keeps the parser trivial and is plenty for a job-submission API.
//!
//! Hard limits protect the daemon from hostile or broken clients:
//! headers ≤ 16 KiB, body ≤ 2 MiB, 10 s socket timeouts. Anything that
//! violates the grammar or the limits gets a `400` and a closed socket.
//! Query strings are split on `&`/`=` without percent-decoding: every
//! identifier this API routes on (job ids, state names) is plain ASCII.

use crate::json::JsonValue;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest accepted header block, bytes.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Largest accepted request body, bytes.
pub const MAX_BODY_BYTES: usize = 2 * 1024 * 1024;
/// Hard ceiling on reading one full request (header block + body). A
/// per-read socket timeout alone cannot bound a client that trickles
/// one byte at a time — every successful read would reset the clock and
/// pin a worker thread indefinitely.
pub const MAX_REQUEST_SECS: u64 = 10;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the target, query stripped.
    pub path: String,
    /// Query pairs in order of appearance (no percent-decoding).
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let needle = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == needle)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, if it decodes.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// A response under construction.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers (`Content-Type`, `Content-Length`, and
    /// `Connection: close` are added automatically).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    content_type: &'static str,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, value: &JsonValue) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: value.to_json().into_bytes(),
            content_type: "application/json",
        }
    }

    /// A JSON error body: `{"error": "<message>"}`.
    pub fn error(status: u16, message: &str) -> Self {
        Self::json(
            status,
            &crate::json::obj(vec![("error", crate::json::s(message))]),
        )
    }

    /// A response whose body is already-serialized JSON text (stored
    /// documents are served verbatim, byte-for-byte as written).
    pub fn raw_json(status: u16, body: &str) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            content_type: "application/json",
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: &str) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// Attach a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            Self::reason(self.status),
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

/// The request handler shared by all workers.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// A running server: accept thread + worker pool.
pub struct HttpServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Start serving on `listener` with `n_workers` handler threads.
    pub fn start(listener: TcpListener, handler: Handler, n_workers: usize) -> io::Result<Self> {
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::new();
        for _ in 0..n_workers.max(1) {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            workers.push(std::thread::spawn(move || loop {
                // hold the lock only for the recv itself: this mutex exists
                // solely to share the single consumer end among workers, and
                // an idle worker *must* park inside recv while holding it
                let next = {
                    let Ok(guard) = rx.lock() else { return };
                    // lint: allow(lock_hold) — blocking in recv under this lock is the design; no other code path takes `rx`
                    guard.recv()
                };
                match next {
                    Ok(stream) => handle_connection(stream, &handler),
                    Err(_) => return, // channel closed: accept thread is gone
                }
            }));
        }

        let shutdown_seen = Arc::clone(&shutdown);
        let accept = std::thread::spawn(move || {
            loop {
                // ord: Acquire — pairs with the Release store in `shutdown`
                if shutdown_seen.load(Ordering::Acquire) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(_) => {
                        // transient accept failure; back off briefly
                        std::thread::sleep(Duration::from_millis(25));
                    }
                }
            }
            // dropping `tx` here closes the channel and drains the pool
        });

        Ok(Self {
            local_addr,
            shutdown,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, finish in-flight requests, join every thread.
    pub fn shutdown(&mut self) {
        // ord: Release — pairs with the accept loop's Acquire load
        self.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(mut stream: TcpStream, handler: &Handler) {
    let deadline = Instant::now() + Duration::from_secs(MAX_REQUEST_SECS);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let response = match read_request(&mut stream, deadline) {
        Ok(request) => handler(&request),
        Err(message) => Response::error(400, &message),
    };
    let _ = response.write_to(&mut stream);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// One bounded read against the request deadline: the socket timeout is
/// re-armed with the *remaining* budget before every read, so the total
/// time a request may occupy a worker is capped regardless of how the
/// client paces its bytes. `what` names the phase for the error message.
fn read_chunk(
    stream: &mut TcpStream,
    deadline: Instant,
    chunk: &mut [u8],
    what: &str,
) -> Result<usize, String> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(format!(
            "request {what} not complete within {MAX_REQUEST_SECS} s"
        ));
    }
    if stream.set_read_timeout(Some(remaining)).is_err() {
        return Err("cannot arm the read deadline".to_string());
    }
    match stream.read(chunk) {
        Ok(0) => Err(format!("connection closed mid-{what}")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "request {what} not complete within {MAX_REQUEST_SECS} s"
        )),
    }
}

/// Read and parse one request. Errors are client-facing messages (the
/// caller answers `400`, never a panic path).
fn read_request(stream: &mut TcpStream, deadline: Instant) -> Result<Request, String> {
    // accumulate until the blank line ending the header block
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err("header block exceeds the limit".to_string());
        }
        let mut chunk = [0u8; 4096];
        let n = read_chunk(stream, deadline, &mut chunk, "header")?;
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| "headers are not valid UTF-8".to_string())?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split(' ');
    let method = parts.next().ok_or("missing method")?.to_ascii_uppercase();
    let target = parts.next().ok_or("missing request target")?;
    let version = parts.next().ok_or("missing HTTP version")?;
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(format!("unsupported version `{version}`"));
    }

    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query: Vec<(String, String)> = query_text
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed header line `{line}`"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length: usize = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v
            .parse()
            .map_err(|_| "invalid content-length".to_string())?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err("body exceeds the limit".to_string());
    }

    // loop the read to the declared Content-Length under the same
    // deadline: a short read is more bytes pending, not a complete
    // request, and a truncated body is a client error, not a panic
    let mut body: Vec<u8> = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        let n = read_chunk(stream, deadline, &mut chunk, "body").map_err(|e| {
            format!(
                "{e} (got {} of {content_length} declared body bytes)",
                body.len().min(content_length)
            )
        })?;
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    Ok(Request {
        method,
        path: path.to_string(),
        query,
        headers,
        body,
    })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

// ---------------------------------------------------------------------
// the client side: router → worker, `rpaclient`, the test suites

/// A parsed reply: status code, lowercased header names, body.
#[derive(Debug)]
pub struct Reply {
    /// The status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, verbatim.
    pub body: String,
}

impl Reply {
    /// A header value, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One bounded HTTP exchange with the server at `addr` (`ip:port`). The
/// timeout covers connect, send, and the full read, so a wedged peer
/// cannot pin the caller.
pub fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<Reply, String> {
    let socket: SocketAddr = addr
        .parse()
        .map_err(|_| format!("`{addr}` is not an ip:port address"))?;
    let mut stream = TcpStream::connect_timeout(&socket, timeout)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    let payload = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{payload}",
        payload.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send to {addr} failed: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("receive from {addr} failed: {e}"))?;
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("malformed response from {addr}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    let headers = head
        .lines()
        .skip(1) // the status line
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect();
    Ok(Reply {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn start_echo() -> HttpServer {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handler: Handler = Arc::new(|req: &Request| {
            let doc = json::obj(vec![
                ("method", json::s(&req.method)),
                ("path", json::s(&req.path)),
                (
                    "q",
                    json::JsonValue::Arr(
                        req.query
                            .iter()
                            .map(|(k, v)| json::s(&format!("{k}={v}")))
                            .collect(),
                    ),
                ),
                ("body", json::s(req.body_str().unwrap_or(""))),
            ]);
            Response::json(200, &doc)
        });
        HttpServer::start(listener, handler, 2).unwrap()
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn parses_method_path_query_and_body() {
        let mut server = start_echo();
        let reply = roundtrip(
            server.local_addr(),
            "POST /v1/jobs?x=1&flag HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello",
        );
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        let body = reply.split("\r\n\r\n").nth(1).unwrap();
        let doc = json::parse(body).unwrap();
        assert_eq!(doc.get("method").unwrap().as_str(), Some("POST"));
        assert_eq!(doc.get("path").unwrap().as_str(), Some("/v1/jobs"));
        assert_eq!(doc.get("body").unwrap().as_str(), Some("hello"));
        let q = doc.get("q").unwrap().as_arr().unwrap();
        assert_eq!(q[0].as_str(), Some("x=1"));
        assert_eq!(q[1].as_str(), Some("flag="));
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_400() {
        let mut server = start_echo();
        let reply = roundtrip(server.local_addr(), "NONSENSE\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        server.shutdown();
    }

    #[test]
    fn oversized_body_is_rejected() {
        let mut server = start_echo();
        let raw = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let reply = roundtrip(server.local_addr(), &raw);
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        server.shutdown();
    }

    #[test]
    fn truncated_body_gets_400_not_a_short_request() {
        let mut server = start_echo();
        // declare 10 body bytes, deliver 3, then close the write side:
        // the server must answer 400, never hand the handler a body
        // shorter than the declared length
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(reply.contains("3 of 10"), "{reply}");
        server.shutdown();
    }

    #[test]
    fn trickled_request_hits_the_deadline() {
        // drive read_request directly with a short deadline: a client
        // that sends a partial header and then stalls must be cut off
        // when the budget expires, not held for a fresh timeout per read
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"GET / HT").unwrap();
            std::thread::sleep(Duration::from_millis(600));
            drop(stream);
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let deadline = Instant::now() + Duration::from_millis(150);
        let err = read_request(&mut server_side, deadline).unwrap_err();
        assert!(err.contains("not complete within"), "{err}");
        client.join().unwrap();
    }

    #[test]
    fn shutdown_joins_cleanly_and_stops_accepting() {
        let mut server = start_echo();
        let addr = server.local_addr();
        server.shutdown();
        // connections after shutdown either fail or never get a reply
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let _ = stream.write_all(b"GET / HTTP/1.1\r\n\r\n");
            stream
                .set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            let mut out = String::new();
            assert!(stream.read_to_string(&mut out).is_err() || out.is_empty());
        }
    }
}
