//! A minimal blocking HTTP/1.1 keep-alive client: one request at a time
//! on one connection, as a caller that waits for each answer would send
//! them. Reconnects when the server closes the connection.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    head: Vec<u8>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, stream: None, buf: Vec::with_capacity(1 << 16), head: Vec::new() }
    }

    fn connect(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(stream);
            self.buf.clear();
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Sends one request and reads its response. A request on a
    /// keep-alive connection the server already closed is retried once on
    /// a fresh connection.
    pub fn request(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<Response> {
        self.head.clear();
        write!(self.head, "{method} {target} HTTP/1.1\r\nHost: bench\r\n")?;
        if method == "POST" {
            write!(self.head, "Content-Length: {}\r\n", body.len())?;
        }
        self.head.extend_from_slice(b"\r\n");
        for attempt in 0..2 {
            let fresh = self.stream.is_none();
            let head = std::mem::take(&mut self.head);
            let sent = self.connect().and_then(|s| {
                s.write_all(&head)?;
                s.write_all(body)
            });
            self.head = head;
            let result = sent.and_then(|()| self.read_response());
            match result {
                Ok((response, close)) => {
                    if close {
                        self.stream = None;
                    }
                    return Ok(response);
                }
                Err(e) => {
                    self.stream = None;
                    if fresh || attempt == 1 {
                        return Err(e);
                    }
                }
            }
        }
        unreachable!("the second attempt returns")
    }

    fn fill(&mut self) -> io::Result<()> {
        let stream = self.stream.as_mut().expect("connected");
        let len = self.buf.len();
        self.buf.resize(len + (1 << 16), 0);
        let n = stream.read(&mut self.buf[len..])?;
        self.buf.truncate(len + n);
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        Ok(())
    }

    /// Reads one `Content-Length`-framed response (the benchmark's targets
    /// stay far below the server's streaming threshold, so none is
    /// chunked).
    fn read_response(&mut self) -> io::Result<(Response, bool)> {
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = None;
        let mut close = false;
        for line in head.split("\r\n").skip(1) {
            let Some((name, value)) = line.split_once(':') else { continue };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse::<usize>().map_err(|_| bad("bad content-length"))?);
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        self.buf.drain(..head_end);
        let length = length.ok_or_else(|| bad("no content-length"))?;
        while self.buf.len() < length {
            self.fill()?;
        }
        let body = self.buf.drain(..length).collect();
        Ok((Response { status, body }, close))
    }
}
