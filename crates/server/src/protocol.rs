//! The wire protocol: length-prefixed UTF-8 frames over a byte stream.
//!
//! Each frame is a 4-byte big-endian length followed by that many bytes of
//! payload. Requests and responses are single frames; the first
//! whitespace-separated word of a request is the verb:
//!
//! | request                    | response                                  |
//! |----------------------------|-------------------------------------------|
//! | `HELLO <tenant> <token>`   | `OK tenant=<name>` or `ERR <why>`          |
//! | `QUERY <sql>`              | `OK rows=<n> wall_us=<µs> reused=<k>` then one tab-separated line per row |
//! | `STATS`                    | `OK` then one line per tenant (JSON object) |
//! | `PING`                     | `OK pong`                                  |
//! | `QUIT`                     | `OK bye`, then the server closes           |
//!
//! Errors never tear down the connection (except `QUIT` and I/O failures):
//! a client that sends a bad query gets an `ERR` frame — with the parser's
//! caret snippet inlined — and can try again. Frames above [`MAX_FRAME`]
//! are rejected to bound memory per connection, and a frame's buffer grows
//! with the payload bytes that actually arrive, never with the declared
//! length alone.
//!
//! # Rendering rules of a `QUERY` reply
//!
//! After the header line, each result row is one line: `\n`, then its
//! values separated by `\t` (no trailing newline after the last row). A
//! value renders exactly as the engine's `Value` `Display` does:
//!
//! | type  | rendering |
//! |-------|-----------|
//! | INT   | decimal, `-` for negatives (`-9223372036854775808` … `9223372036854775807`) |
//! | FLOAT | Rust's `f64` `Display`: shortest round-trip digits, never an exponent (`3`, `0.1`, `1000000000000000000000`, `0.0000001`), `-0`, `NaN`, `inf`, `-inf` |
//! | DATE  | `YYYY-MM-DD`, proleptic Gregorian; a year outside `0..=9999` keeps Rust's `{:04}` (`-001`, `12345`) |
//! | STR   | the string's bytes, unescaped |
//!
//! Strings are not escaped, so a value containing `\t` or `\n` is
//! ambiguous on the wire. Row order is the engine's result order.

use std::io::{self, Read, Write};

/// Upper bound on a single frame, requests and responses alike (16 MiB —
/// generous for result sets at bench scale, small enough to not matter).
pub const MAX_FRAME: usize = 16 << 20;

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. `Ok(None)` means the peer closed the stream cleanly
/// (EOF before any length byte); a mid-frame EOF is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < len.len() {
        match r.read(&mut len[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let n = u32::from_be_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {n} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    // The buffer grows with the bytes that actually arrive: a peer that
    // declares a large frame and stalls pins at most `READ_AHEAD` bytes.
    let mut buf = Vec::with_capacity(n.min(READ_AHEAD));
    r.by_ref().take(n as u64).read_to_end(&mut buf)?;
    if buf.len() < n {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "eof inside frame payload",
        ));
    }
    Ok(Some(buf))
}

/// Bytes of a frame's payload buffer reserved before any of it arrives.
const READ_AHEAD: usize = 64 << 10;

/// Convenience for text protocols: read a frame and decode as UTF-8.
pub fn read_text(r: &mut impl Read) -> io::Result<Option<String>> {
    match read_frame(r)? {
        None => Ok(None),
        Some(bytes) => String::from_utf8(bytes)
            .map(Some)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"HELLO t s").unwrap();
        write_frame(&mut buf, "höi".as_bytes()).unwrap();
        let mut c = Cursor::new(buf);
        assert_eq!(read_text(&mut c).unwrap().unwrap(), "HELLO t s");
        assert_eq!(read_text(&mut c).unwrap().unwrap(), "höi");
        assert!(read_text(&mut c).unwrap().is_none());
    }

    #[test]
    fn oversized_and_truncated_frames_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        assert!(read_frame(&mut Cursor::new(buf)).is_err());

        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"shor");
        assert!(read_frame(&mut Cursor::new(buf)).is_err());

        // EOF mid-header is an error too, not a clean close.
        assert!(read_frame(&mut Cursor::new(vec![0u8, 0])).is_err());
    }

    /// A header declaring the largest legal frame, then three payload bytes
    /// and EOF: an `UnexpectedEof` error, after a buffer sized by what
    /// arrived rather than by what was declared.
    #[test]
    fn declared_length_is_not_allocated_up_front() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32).to_be_bytes());
        buf.extend_from_slice(b"abc");
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // Frames larger than the read-ahead still arrive whole.
        let big = vec![7u8; READ_AHEAD * 3 + 5];
        let mut wire = Vec::new();
        write_frame(&mut wire, &big).unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut c = Cursor::new(wire);
        assert_eq!(read_frame(&mut c).unwrap().unwrap(), big);
        assert_eq!(read_frame(&mut c).unwrap().unwrap(), b"");
        assert!(read_frame(&mut c).unwrap().is_none());
    }
}
