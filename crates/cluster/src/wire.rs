//! Length-prefixed JSON framing over TCP.
//!
//! Every message is one JSON object preceded by a 4-byte big-endian
//! length. The payloads reuse the service wire vocabulary (`op` field,
//! checkpoint/stats/config serializers), so a frame body is exactly
//! what `treechase serve` would read from a line — framing exists only
//! because TCP is a byte stream and workers ship multi-kilobyte
//! checkpoints that must not shear.

use std::io::{ErrorKind, Read, Write as _};
use std::net::TcpStream;

// The frame ceiling is the service-wide request limit (a `serve` line
// obeys the same one), guarding both sides against a corrupt or hostile
// length header.
use treechase_service::{parse_json, Json, MAX_FRAME};

/// What one read attempt produced.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame.
    Frame(Json),
    /// The peer closed the connection cleanly (EOF before a header).
    Eof,
    /// The socket's read timeout expired before a header arrived; the
    /// connection is still healthy.
    Timeout,
}

/// Writes one framed message.
pub fn write_frame(stream: &mut TcpStream, msg: &Json) -> Result<(), String> {
    let body = msg.to_string();
    if body.len() > MAX_FRAME {
        return Err(format!("frame too large: {} bytes", body.len()));
    }
    let len = body.len() as u32;
    let mut buf = Vec::with_capacity(4 + body.len());
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(body.as_bytes());
    stream
        .write_all(&buf)
        .map_err(|e| format!("write frame: {e}"))
}

/// Reads one framed message.
///
/// A timeout (or EOF) is only tolerated *between* frames: once the
/// length header has landed, a short or torn payload is an error —
/// resynchronizing on a byte stream after half a frame is hopeless.
pub fn read_frame(stream: &mut TcpStream) -> Result<FrameRead, String> {
    let mut hdr = [0u8; 4];
    let mut got = 0;
    while got < hdr.len() {
        match stream.read(&mut hdr[got..]) {
            Ok(0) if got == 0 => return Ok(FrameRead::Eof),
            Ok(0) => return Err("connection closed mid-header".to_string()),
            Ok(n) => got += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if got == 0 {
                    return Ok(FrameRead::Timeout);
                }
                return Err("read timeout mid-header".to_string());
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read frame header: {e}")),
        }
    }
    let len = u32::from_be_bytes(hdr) as usize;
    if len > MAX_FRAME {
        return Err(format!("frame length {len} exceeds limit {MAX_FRAME}"));
    }
    let mut body = Vec::new();
    read_body(stream, len, &mut body)?;
    let text = String::from_utf8(body).map_err(|e| format!("frame not UTF-8: {e}"))?;
    let v = parse_json(&text)?;
    Ok(FrameRead::Frame(v))
}

/// Reads exactly `len` body bytes into `body`. The buffer grows with the
/// bytes that arrive, not with the claimed length, so a header claiming
/// up to [`MAX_FRAME`] costs memory only for what the peer really sends.
fn read_body(r: impl Read, len: usize, body: &mut Vec<u8>) -> Result<(), String> {
    r.take(len as u64)
        .read_to_end(body)
        .map_err(|e| format!("read frame body ({len} bytes): {e}"))?;
    if body.len() < len {
        return Err(format!(
            "read frame body ({len} bytes): connection closed after {}",
            body.len()
        ));
    }
    Ok(())
}

/// Sends `msg` and reads the single framed reply — the synchronous
/// request/response shape every cluster conversation uses.
pub fn roundtrip(stream: &mut TcpStream, msg: &Json) -> Result<Json, String> {
    write_frame(stream, msg)?;
    loop {
        match read_frame(stream)? {
            FrameRead::Frame(v) => return Ok(v),
            FrameRead::Timeout => {}
            FrameRead::Eof => return Err("connection closed awaiting reply".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    #[test]
    fn frames_roundtrip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            loop {
                match read_frame(&mut conn).unwrap() {
                    FrameRead::Frame(v) => write_frame(&mut conn, &v).unwrap(),
                    FrameRead::Eof => break,
                    FrameRead::Timeout => {}
                }
            }
        });
        let mut conn = TcpStream::connect(addr).unwrap();
        let msg = Json::obj([
            ("op", Json::str("hello")),
            ("payload", Json::Str("x".repeat(100_000))),
        ]);
        let back = roundtrip(&mut conn, &msg).unwrap();
        assert_eq!(back.to_string(), msg.to_string());
        drop(conn);
        echo.join().unwrap();
    }

    #[test]
    fn idle_timeout_is_not_an_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (mut conn, _) = listener.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        assert!(matches!(read_frame(&mut conn).unwrap(), FrameRead::Timeout));
    }

    #[test]
    fn deeply_nested_frame_is_an_error_not_a_stack_overflow() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut conn, _) = listener.accept().unwrap();
        let body = vec![b'['; 1 << 20];
        client
            .write_all(&(body.len() as u32).to_be_bytes())
            .unwrap();
        client.write_all(&body).unwrap();
        // Connection threads run on the default (small) thread stack.
        let err = std::thread::spawn(move || read_frame(&mut conn).unwrap_err())
            .join()
            .unwrap();
        assert!(err.ends_with("nesting too deep"), "{err}");
    }

    #[test]
    fn oversized_length_header_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut conn, _) = listener.accept().unwrap();
        client.write_all(&u32::MAX.to_be_bytes()).unwrap();
        assert!(read_frame(&mut conn).unwrap_err().contains("exceeds limit"));
    }

    #[test]
    fn short_body_under_a_large_claim_is_an_error_and_buffers_what_arrived() {
        // A header claiming MAX_FRAME, then 10 bytes and EOF.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut conn, _) = listener.accept().unwrap();
        client.write_all(&(MAX_FRAME as u32).to_be_bytes()).unwrap();
        client.write_all(&[b' '; 10]).unwrap();
        drop(client);
        let err = read_frame(&mut conn).unwrap_err();
        assert!(err.contains("connection closed after 10"), "{err}");

        let mut body = Vec::new();
        assert!(read_body(&[b' '; 10][..], MAX_FRAME, &mut body).is_err());
        assert_eq!(body.len(), 10);
        // At most one read chunk beyond the bytes received.
        assert!(body.capacity() <= 10 + 8 * 1024, "{}", body.capacity());
    }
}
