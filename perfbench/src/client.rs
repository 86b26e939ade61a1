//! A minimal HTTP/1.1 keep-alive client: one blocking `TcpStream`, one
//! request in flight, responses framed by `Content-Length`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A response as the client saw it.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: String,
}

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Send one request (already serialized) and read its response.
    pub fn call(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.stream.write_all(request)?;
        self.read_reply()
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_reply(&mut self) -> std::io::Result<Reply> {
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let bad =
            || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response head");
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(bad)?;
        let mut len = 0usize;
        for line in head.lines().skip(1) {
            let Some((k, v)) = line.split_once(':') else {
                continue;
            };
            if k.eq_ignore_ascii_case("content-length") {
                len = v.trim().parse().map_err(|_| bad())?;
            }
        }
        let total = head_end + 4 + len;
        while self.buf.len() < total {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[head_end + 4..total]).into_owned();
        self.buf.drain(..total);
        Ok(Reply { status, body })
    }
}
