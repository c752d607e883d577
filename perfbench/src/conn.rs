//! A client connection that can wait for replies with a deadline, so
//! one thread can run an open loop: send when a request is due, read
//! replies in between.
//!
//! It speaks the server's own wire codec (`encode_request`,
//! `decode_response`).  When timing is on it records how long encoding
//! and decoding took per call — the proto layer's share of a request.

use hotspot_serve::proto::{decode_response, encode_request};
use hotspot_serve::{Request, Response, MAX_FRAME_LEN};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a blocking read waits before the run counts the server as
/// wedged.
const READ_LIMIT: Duration = Duration::from_secs(30);

/// Per-call proto timings, nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct ProtoTimes {
    pub encode_classify_ns: Vec<f64>,
    pub encode_scan_ns: Vec<f64>,
    pub decode_ns: Vec<f64>,
    /// Encoded size of the last scan request frame, bytes.
    pub scan_frame_bytes: usize,
}

/// One framed connection to the server.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// When the last bytes arrived: the receive time of any frame they
    /// completed.
    last_read: Instant,
    /// Proto timings, recorded only when `Some`.
    pub times: Option<ProtoTimes>,
}

/// The request id a reply answers (0 for replies without one).
pub fn reply_id(resp: &Response) -> u64 {
    match resp {
        Response::Classify { id, .. }
        | Response::Error { id, .. }
        | Response::ScanRegions { id, .. }
        | Response::Pong { id }
        | Response::SwapOk { id, .. }
        | Response::Stats { id, .. } => *id,
        Response::MetricsText(_) => 0,
    }
}

impl Conn {
    /// Connects; `timed` turns on proto timing.
    pub fn connect(addr: SocketAddr, timed: bool) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            last_read: Instant::now(),
            times: timed.then(ProtoTimes::default),
        })
    }

    /// A second handle on the same connection with its own receive
    /// buffer, so one thread can send while another reads.
    pub fn split(&self) -> io::Result<Conn> {
        Ok(Conn {
            stream: self.stream.try_clone()?,
            buf: Vec::with_capacity(1 << 16),
            last_read: Instant::now(),
            times: self.times.as_ref().map(|_| ProtoTimes::default()),
        })
    }

    /// Encodes and writes one request; returns the instant before
    /// encoding, where client-observed latency starts.
    pub fn send(&mut self, req: &Request) -> io::Result<Instant> {
        let start = Instant::now();
        let frame = encode_request(req);
        if let Some(t) = &mut self.times {
            let ns = start.elapsed().as_nanos() as f64;
            match req {
                Request::Scan { .. } => {
                    t.encode_scan_ns.push(ns);
                    t.scan_frame_bytes = frame.len();
                }
                _ => t.encode_classify_ns.push(ns),
            }
        }
        self.stream.write_all(&frame)?;
        Ok(start)
    }

    /// Reads the next reply, waiting until `until` (or the read limit
    /// when `None`).  Returns the reply and the instant its last byte
    /// was read, or `None` when `until` passed first.
    ///
    /// # Errors
    ///
    /// Transport failure, a closed connection, an oversized or
    /// undecodable frame, or no reply within the read limit.
    pub fn recv(&mut self, until: Option<Instant>) -> io::Result<Option<(Response, Instant)>> {
        let limit = until.unwrap_or_else(|| Instant::now() + READ_LIMIT);
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(payload) = self.take_frame()? {
                let start = Instant::now();
                let resp = decode_response(&payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.0))?;
                if let Some(t) = &mut self.times {
                    t.decode_ns.push(start.elapsed().as_nanos() as f64);
                }
                return Ok(Some((resp, self.last_read)));
            }
            let now = Instant::now();
            if now >= limit {
                return if until.is_some() {
                    Ok(None)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no reply within the read limit",
                    ))
                };
            }
            self.stream
                .set_read_timeout(Some((limit - now).max(Duration::from_micros(50))))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.last_read = Instant::now();
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Splits one complete frame payload off the receive buffer.
    fn take_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let Some(prefix) = self.buf.get(..4) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(prefix.try_into().expect("four bytes")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply frame of {len} bytes exceeds the limit"),
            ));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }
}
