//! The benchmark's own client side of the serve protocol, and the traced
//! chain serve → registry → engine for one request.

use crate::layers::{LayerAcc, Probe};
use crate::trace::{Link, Trace};
use fast_bcnn::serve::{FrameDecoder, ServeRequest, ServeResponse, DEFAULT_MAX_FRAME_BYTES};
use fast_bcnn::{BatchEngine, BatchRequest, ModelRegistry, RequestClass, RunControl};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One client connection: a socket plus its frame decoder.
pub struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Blocks until `stream` is readable or `wait` has passed. Socket read
/// timeouts are rounded to scheduler ticks (several ms), too coarse for
/// the open-loop schedule; `ppoll` sleeps on a high-resolution timer.
fn wait_readable(stream: &TcpStream, wait: Duration) {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: 1, // POLLIN
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: wait.as_secs() as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: one valid pollfd, a valid timespec and no signal mask; the
    // result only tells whether to read, and a failed or interrupted call
    // just means the caller reads (non-blocking) and re-checks the clock.
    unsafe {
        ppoll(&mut fd, 1, &timeout, std::ptr::null());
    }
}

impl Conn {
    /// Connects to a serve endpoint.
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(DEFAULT_MAX_FRAME_BYTES),
            buf: vec![0u8; 64 * 1024],
        })
    }

    /// Writes one pre-encoded frame, waiting up to 10 s for socket space.
    pub fn send(&mut self, frame: &[u8]) -> Result<(), String> {
        let give_up = Instant::now() + Duration::from_secs(10);
        let mut rest = frame;
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < give_up => {
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(())
    }

    fn decode_ready(&mut self, out: &mut Vec<ServeResponse>) -> Result<(), String> {
        while let Some(frame) = self.decoder.next_frame().map_err(|e| e.to_string())? {
            out.push(ServeResponse::decode(&frame).map_err(|e| e.to_string())?);
        }
        Ok(())
    }

    /// Waits up to `wait` for bytes and returns every response they
    /// complete, with the instant they were read.
    pub fn poll(&mut self, wait: Duration) -> Result<(Vec<ServeResponse>, Instant), String> {
        let until = Instant::now() + wait;
        let mut out = Vec::new();
        loop {
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => {
                    let at = Instant::now();
                    self.decoder.push(&self.buf[..n]);
                    self.decode_ready(&mut out)?;
                    if !out.is_empty() {
                        return Ok((out, at));
                    }
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
            let now = Instant::now();
            if now >= until {
                return Ok((out, now));
            }
            wait_readable(&self.stream, until - now);
        }
    }

    /// Sends one frame and waits (up to a minute) for its response.
    pub fn roundtrip(&mut self, frame: &[u8]) -> Result<ServeResponse, String> {
        self.send(frame)?;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err("no response within 60 s".to_string());
            }
            let (mut got, _) = self.poll(deadline - now)?;
            if let Some(resp) = got.pop() {
                return Ok(resp);
            }
        }
    }
}

/// Traces one request through every serving layer: the real roundtrip
/// over `conn` is the root; its replayed children are the codec calls and
/// the in-process `handle_classed` on the same registry, whose replayed
/// child is the traced engine request on `batch`.
#[allow(clippy::too_many_arguments)]
pub fn trace_chain(
    tr: &mut Trace,
    acc: &mut LayerAcc,
    probe: &Probe<'_>,
    batch: &BatchEngine,
    registry: &ModelRegistry,
    conn: &mut Conn,
    req: &BatchRequest,
    class: &RequestClass,
) -> Result<(), String> {
    let id = req.id;
    let frame = ServeRequest::from_input(id, class.name.clone(), &req.input)
        .encode(DEFAULT_MAX_FRAME_BYTES)
        .map_err(|e| e.to_string())?;
    let root = tr.begin("serve.roundtrip", id, None, Link::Nested);
    let resp = conn.roundtrip(&frame)?;
    tr.end(root);
    if !resp.ok || resp.expired {
        return Err(format!(
            "request {id} failed over the wire: {}",
            resp.reason
        ));
    }

    let codec = tr.begin("serve.codec", id, Some(root), Link::Replay);
    let encoded = tr
        .time(
            "serve.request_encode",
            id,
            Some(codec),
            Link::Nested,
            || {
                ServeRequest::from_input(id, class.name.clone(), &req.input)
                    .encode(DEFAULT_MAX_FRAME_BYTES)
            },
        )
        .map_err(|e| e.to_string())?;
    tr.time(
        "serve.request_decode",
        id,
        Some(codec),
        Link::Nested,
        || ServeRequest::decode(&encoded[4..]),
    )
    .map_err(|e| e.to_string())?;
    let resp_frame = tr
        .time(
            "serve.response_encode",
            id,
            Some(codec),
            Link::Nested,
            || resp.encode(DEFAULT_MAX_FRAME_BYTES),
        )
        .map_err(|e| e.to_string())?;
    tr.time(
        "serve.response_decode",
        id,
        Some(codec),
        Link::Nested,
        || ServeResponse::decode(&resp_frame[4..]),
    )
    .map_err(|e| e.to_string())?;
    tr.end(codec);

    let handle = tr.begin("registry.handle_classed", id, Some(root), Link::Replay);
    let routed = registry.handle_classed(req, Some(class));
    tr.end(handle);
    let served = routed
        .outcome
        .result()
        .as_ref()
        .map_err(|e| format!("request {id} failed in the registry: {e}"))?;
    let wire_mean: Vec<u32> = resp.mean_bits.clone();
    let local_mean: Vec<u32> = served.0.mean.iter().map(|v| v.to_bits()).collect();
    if wire_mean != local_mean {
        return Err(format!(
            "request {id}: the served mean differs from handle_classed's"
        ));
    }
    let ctl = RunControl {
        force_exact: routed.outcome.forced_exact,
        ..RunControl::none()
    };
    let engine = probe.trace_request(tr, acc, batch, req, &ctl, Some(handle))?;

    let span_ns = |i: usize| tr.spans[i].duration_ns() as f64;
    acc.push("serve.rtt_ns", span_ns(root));
    acc.push("serve.codec_ns", span_ns(codec));
    acc.push("serve.frame_bytes", (frame.len() + resp_frame.len()) as f64);
    acc.push("serve.overhead_ns", span_ns(root) - span_ns(handle));
    acc.push("registry.handle_ns", span_ns(handle));
    acc.push("registry.overhead_ns", span_ns(handle) - span_ns(engine));
    acc.push(
        "resilience.retry",
        f64::from(u8::from(routed.outcome.attempts > 1)),
    );
    acc.push(
        "resilience.forced_exact",
        f64::from(u8::from(routed.outcome.forced_exact)),
    );
    Ok(())
}
