//! A keep-alive HTTP/1.1 client: one connection per load-generating
//! client, reused across requests, with chunked bodies decoded as they
//! arrive so the arrival of the first row can be timed.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The largest response body accepted: the sizes in a response come
/// from the program under test, so they are bounded before allocating.
const MAX_BODY: usize = 64 << 20;

/// A response: status, decoded body, and when its first byte arrived.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// The body (chunked encoding removed).
    pub body: Vec<u8>,
    /// When the first body byte arrived.
    pub first_byte: Option<Instant>,
}

/// One persistent connection to the server.
pub struct Conn {
    addr: String,
    io: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Conn {
    /// A connection to `addr`, opened on first use.
    pub fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            io: None,
        }
    }

    fn open(&mut self) -> io::Result<&mut (TcpStream, BufReader<TcpStream>)> {
        if self.io.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(120)))?;
            stream.set_nodelay(true)?;
            let reader = BufReader::new(stream.try_clone()?);
            self.io = Some((stream, reader));
        }
        Ok(self.io.as_mut().expect("just opened"))
    }

    /// Sends one request and reads the whole response. The connection
    /// is dropped (and reopened by the next request) after an error or
    /// when the server closes it.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let result = self.exchange(method, path, body);
        match &result {
            Ok((_, keep)) if *keep => {}
            _ => self.io = None,
        }
        result.map(|(r, _)| r)
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> io::Result<(Response, bool)> {
        let addr = self.addr.clone();
        let (stream, reader) = self.open()?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut request = head.into_bytes();
        request.extend_from_slice(body.as_bytes());
        stream.write_all(&request)?;

        let mut line = String::new();
        read_line(reader, &mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut length = None;
        let mut chunked = false;
        let mut keep = true;
        loop {
            read_line(reader, &mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(bad(format!("bad header {header:?}")));
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    length = Some(value.parse::<usize>().map_err(|e| bad(e.to_string()))?)
                }
                "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
                "connection" => keep = !value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let mut body = Vec::new();
        let mut first_byte = None;
        if chunked {
            loop {
                read_line(reader, &mut line)?;
                let size = usize::from_str_radix(line.trim(), 16)
                    .map_err(|e| bad(format!("chunk size {line:?}: {e}")))?;
                if size == 0 {
                    read_line(reader, &mut line)?; // the final CRLF
                    break;
                }
                let at = body.len();
                if at + size > MAX_BODY {
                    return Err(bad(format!("body over {MAX_BODY} bytes")));
                }
                body.resize(at + size, 0);
                reader.read_exact(&mut body[at..])?;
                first_byte.get_or_insert_with(Instant::now);
                read_line(reader, &mut line)?;
            }
        } else if let Some(n) = length {
            if n > MAX_BODY {
                return Err(bad(format!("content-length {n} over {MAX_BODY} bytes")));
            }
            body.resize(n, 0);
            reader.read_exact(&mut body)?;
            if n > 0 {
                first_byte = Some(Instant::now());
            }
        } else {
            reader.take(MAX_BODY as u64).read_to_end(&mut body)?;
            keep = false;
        }
        Ok((
            Response {
                status,
                body,
                first_byte,
            },
            keep,
        ))
    }
}

fn read_line(reader: &mut BufReader<TcpStream>, line: &mut String) -> io::Result<()> {
    line.clear();
    if reader.read_line(line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    Ok(())
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Pulls `"field":"value"` out of a flat JSON response.
pub fn str_field(body: &[u8], field: &str) -> Option<String> {
    let json = seg_serve::Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    json.get(field)?.as_str().map(str::to_string)
}

/// Whether a JSON response has `"field": true`.
pub fn bool_field(body: &[u8], field: &str) -> bool {
    std::str::from_utf8(body)
        .ok()
        .and_then(|t| seg_serve::Json::parse(t).ok())
        .is_some_and(|j| j.get(field) == Some(&seg_serve::Json::Bool(true)))
}
