//! Hand-rolled HTTP/1.1 on `std::net` — no tokio, no hyper.
//!
//! A small pool of handler threads shares one listener; each blocks in
//! `accept()` and handles the connection it got, so a busy pool pushes
//! back through the kernel's listen backlog. [`HttpServer::shutdown`]
//! raises a flag and wakes each blocked thread with one loop-back
//! connection. Each connection carries exactly one request
//! (`Connection: close`), which keeps the parser trivial and is plenty
//! for a job-submission API.
//!
//! Hard limits protect the daemon from hostile or broken clients:
//! headers ≤ 16 KiB, body ≤ 2 MiB, 10 s socket timeouts. Anything that
//! violates the grammar or the limits gets a `400` and a closed socket.
//! Query strings are split on `&`/`=` without percent-decoding: every
//! identifier this API routes on (job ids, state names) is plain ASCII.

use crate::json::JsonValue;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
    fn new(status: u16, body: Vec<u8>, content_type: &'static str) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body,
            content_type,
        }
    }

    /// A JSON response.
    pub fn json(status: u16, value: &JsonValue) -> Self {
        Self::new(status, value.to_json().into_bytes(), "application/json")
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
        Self::new(status, body.as_bytes().to_vec(), "application/json")
    }

    /// A plain-text response.
    pub fn text(status: u16, body: &str) -> Self {
        Self::new(
            status,
            body.as_bytes().to_vec(),
            "text/plain; charset=utf-8",
        )
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

    /// Head and body leave in one `write`: two would put the body
    /// segment behind the peer's delayed ACK of the head.
    fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            Self::reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        let mut reply = head.into_bytes();
        reply.extend_from_slice(&self.body);
        stream.write_all(&reply)
    }
}

/// The request handler shared by all workers.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// A running server: a pool of threads, each blocked in `accept()`.
pub struct HttpServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Start serving on `listener` with `n_workers` handler threads.
    pub fn start(listener: TcpListener, handler: Handler, n_workers: usize) -> io::Result<Self> {
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        // the threads own the listener: the port closes when the last exits
        let listener = Arc::new(listener);
        let workers = (0..n_workers.max(1))
            .map(|_| {
                let listener = Arc::clone(&listener);
                let shutdown = Arc::clone(&shutdown);
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || loop {
                    let accepted = listener.accept();
                    // ord: Acquire — pairs with the Release store in `shutdown`;
                    // checked after every return so a wake connection (or a
                    // client racing the shutdown) is dropped unhandled
                    if shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    match accepted {
                        Ok((stream, _peer)) => handle_connection(stream, &handler),
                        // EMFILE, ECONNABORTED: no request waits on this back-off
                        Err(_) => std::thread::sleep(Duration::from_millis(25)),
                    }
                })
            })
            .collect();
        Ok(Self {
            local_addr,
            shutdown,
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, finish in-flight requests, join every thread.
    pub fn shutdown(&mut self) {
        // ord: Release — pairs with the handler threads' Acquire load
        self.shutdown.store(true, Ordering::Release);
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // one connection per thread: each `accept()` returns once more and
        // sees the flag. A failed connect found the backlog full (every
        // thread has a connection to wake it) or the listener gone.
        for _ in &self.workers {
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
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
    let _ = stream.set_nodelay(true);
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
    let overdue = || format!("request {what} not complete within {MAX_REQUEST_SECS} s");
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(overdue());
    }
    if stream.set_read_timeout(Some(remaining)).is_err() {
        return Err("cannot arm the read deadline".to_string());
    }
    match stream.read(chunk) {
        Ok(0) => Err(format!("connection closed mid-{what}")),
        Ok(n) => Ok(n),
        Err(_) => Err(overdue()),
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

    let headers = header_pairs(lines)?;

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

/// `name: value` lines as pairs, names lowercased.
fn header_pairs<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Vec<(String, String)>, String> {
    lines
        .filter(|line| !line.is_empty())
        .map(|line| {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| format!("malformed header line `{line}`"))?;
            Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect()
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
    // skip(1): the status line
    let headers = header_pairs(head.lines().skip(1))
        .map_err(|e| format!("malformed response from {addr}: {e}"))?;
    Ok(Reply {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// A two-thread server on `bind` around `handler`.
    fn serve(
        bind: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> HttpServer {
        HttpServer::start(TcpListener::bind(bind).unwrap(), Arc::new(handler), 2).unwrap()
    }

    /// A server that replies with the request's body.
    fn mirror(bind: &str) -> HttpServer {
        serve(bind, |req| Response::text(200, req.body_str().unwrap()))
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    fn post(addr: SocketAddr, body: Option<&str>) -> Reply {
        exchange(&addr.to_string(), "POST", "/", body, Duration::from_secs(5)).unwrap()
    }

    #[test]
    fn parses_method_path_query_and_body() {
        let server = serve("127.0.0.1:0", |req| {
            let body = req.body_str().unwrap();
            let seen = format!("{} {} {:?} {body}", req.method, req.path, req.query);
            Response::text(200, &seen)
        });
        let reply = roundtrip(
            server.local_addr(),
            "POST /v1/jobs?x=1&flag HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello",
        );
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        let seen = reply.split("\r\n\r\n").nth(1).unwrap();
        assert_eq!(seen, r#"POST /v1/jobs [("x", "1"), ("flag", "")] hello"#);
    }

    #[test]
    fn malformed_and_oversized_requests_get_400() {
        let server = mirror("127.0.0.1:0");
        let oversized = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        for raw in ["NONSENSE\r\n\r\n", &oversized] {
            let reply = roundtrip(server.local_addr(), raw);
            assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        }
    }

    #[test]
    fn truncated_body_gets_400_not_a_short_request() {
        let server = mirror("127.0.0.1:0");
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
    fn large_and_empty_bodies_arrive_byte_exact() {
        let server = mirror("127.0.0.1:0");
        let big = "x".repeat(64 * 1024);
        assert_eq!(post(server.local_addr(), Some(&big)).body, big);
        assert_eq!(post(server.local_addr(), None).body, "");
    }

    #[test]
    fn sequential_requests_wait_out_no_accept_tick() {
        let server = mirror("127.0.0.1:0");
        let started = Instant::now();
        for _ in 0..40 {
            assert_eq!(post(server.local_addr(), None).status, 200);
        }
        // a 25 ms accept poll made this at least a second
        assert!(started.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn idle_shutdown_is_prompt_and_closes_the_port() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let mut server = mirror(bind);
            let started = Instant::now();
            server.shutdown();
            assert!(started.elapsed() < Duration::from_secs(1), "{bind}");
            let refused = TcpStream::connect(("127.0.0.1", server.local_addr().port()));
            assert_eq!(
                refused.unwrap_err().kind(),
                io::ErrorKind::ConnectionRefused
            );
        }
    }

    #[test]
    fn shutdown_waits_for_the_requests_every_thread_is_handling() {
        let gate = Arc::new(Barrier::new(3));
        let in_handler = Arc::clone(&gate);
        let mut server = serve("127.0.0.1:0", move |_| {
            in_handler.wait(); // both threads are mid-request
            in_handler.wait(); // released
            Response::text(200, "done")
        });
        let addr = server.local_addr();
        let clients: Vec<_> = (0..2)
            .map(|_| std::thread::spawn(move || post(addr, None).body))
            .collect();
        gate.wait();
        let flag = Arc::clone(&server.shutdown);
        let stopper = std::thread::spawn(move || server.shutdown());
        // ord: Acquire — the handler threads' pairing; release the requests
        // only once the shutdown is under way
        while !flag.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        gate.wait();
        let released = Instant::now();
        stopper.join().unwrap();
        assert!(released.elapsed() < Duration::from_secs(1));
        for client in clients {
            assert_eq!(client.join().unwrap(), "done");
        }
    }
}
