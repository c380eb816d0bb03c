//! Minimal HTTP/1.1 client for the `/v1` API: one request per connection
//! (`connection: close`), which is how `rpaclient` and the daemon's own
//! router talk to a worker.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// One exchange; the reply body is read to the end before returning, so a
/// latency measured around this call includes the whole transfer.
pub fn request(addr: &str, method: &str, path: &str, body: Option<&str>) -> Result<Reply, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(30))))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| e.to_string())?;
    let payload = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        payload.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(payload.as_bytes()))
        .map_err(|e| format!("{method} {path}: send failed: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("{method} {path}: receive failed: {e}"))?;
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("{method} {path}: malformed response `{raw:.60}`"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(Reply { status, body })
}
