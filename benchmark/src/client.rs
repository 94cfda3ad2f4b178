//! The load generator's HTTP/1.1 client: one keep-alive connection, one
//! request in flight, requests pre-encoded outside the timed loop. It is
//! the benchmark's own (not `restore_serve::HttpClient`) so that the
//! client's cost stays the same whatever later changes do to the
//! repository's client plane — that one is under test only where the
//! router uses it to forward.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Wire bytes of one request.
pub fn encode_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: restore\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Sends one pre-encoded request and reads the whole response:
    /// `(status, body)`. The body borrows the connection's buffer.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<(u16, &str)> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let head_end = loop {
            if let Some(at) = find(&self.buf, b"\r\n\r\n") {
                break at + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-utf8 head"))?;
        let status: u16 = head
            .get(9..12)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no content-length"))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = std::str::from_utf8(&self.buf[head_end..head_end + length])
            .map_err(|_| bad("non-utf8 body"))?;
        Ok((status, body))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// One request on a fresh connection (control-plane reads: `/metrics`).
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut conn = Conn::connect(addr)?;
    let (status, body) = conn.roundtrip(&encode_request("GET", path, ""))?;
    Ok((status, body.to_string()))
}
