//! The closed-loop wire client and the result digest replies are checked
//! against.

use std::hash::Hasher as _;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hashstash_server::protocol::{read_text, write_frame};
use hashstash_types::{Row, StableHasher};

/// Order-independent digest of a result: row count plus the wrapping sum of
/// each row's FNV-1a hash over the tab-separated text the server emits.
/// Equal digests mean equal multisets of rows (up to hash collisions);
/// reuse may legitimately change row order, never row content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

impl Digest {
    fn add_line(&mut self, line: &[u8]) {
        let mut h = StableHasher::new();
        h.write(line);
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h.finish());
    }

    /// Digest of in-process result rows, rendered the way
    /// `hashstash_server` renders them.
    pub fn of_rows(rows: &[Row]) -> Digest {
        let mut d = Digest::default();
        let mut line = String::new();
        for row in rows {
            line.clear();
            for (i, v) in row.values().iter().enumerate() {
                if i > 0 {
                    line.push('\t');
                }
                line.push_str(&v.to_string());
            }
            d.add_line(line.as_bytes());
        }
        d
    }
}

/// One `QUERY` reply as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub sent_at: Instant,
    /// `write_frame` of the request → whole reply frame read.
    pub round_trip: Duration,
    /// `None` for an `ERR` reply or a malformed header.
    pub digest: Option<Digest>,
    /// `reused=<k>` from the header.
    pub reused: u64,
    pub bytes: usize,
}

pub struct Client {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
}

impl Client {
    /// Connect and authenticate.
    pub fn connect(addr: SocketAddr, tenant: &str, token: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut c = Client {
            r: BufReader::new(stream.try_clone()?),
            w: BufWriter::new(stream),
        };
        let hello = c.send(&format!("HELLO {tenant} {token}"))?;
        if hello != format!("OK tenant={tenant}") {
            return Err(io::Error::other(format!("handshake refused: {hello}")));
        }
        Ok(c)
    }

    /// One request frame out, one reply frame in.
    pub fn send(&mut self, line: &str) -> io::Result<String> {
        write_frame(&mut self.w, line.as_bytes())?;
        read_text(&mut self.r)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
    }

    /// Send `QUERY <sql>`, time the round trip, digest the reply.
    pub fn query(&mut self, sql: &str) -> io::Result<Reply> {
        let request = format!("QUERY {sql}");
        let sent_at = Instant::now();
        let text = self.send(&request)?;
        let round_trip = sent_at.elapsed();
        let (header, body) = match text.split_once('\n') {
            Some((h, b)) => (h, Some(b)),
            None => (text.as_str(), None),
        };
        let field = |key: &str| -> Option<u64> {
            header
                .split_whitespace()
                .find_map(|w| w.strip_prefix(key))
                .and_then(|v| v.parse().ok())
        };
        let mut digest = None;
        if header.starts_with("OK ") {
            let mut d = Digest::default();
            if let Some(body) = body {
                body.split('\n').for_each(|l| d.add_line(l.as_bytes()));
            }
            // The header's row count must agree with the body.
            digest = (field("rows=") == Some(d.rows)).then_some(d);
        }
        Ok(Reply {
            sent_at,
            round_trip,
            digest,
            reused: field("reused=").unwrap_or(0),
            bytes: text.len(),
        })
    }

    pub fn quit(mut self) {
        let _ = self.send("QUIT");
    }
}
