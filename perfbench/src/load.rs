//! The open-loop HTTP/1.1 load generator.
//!
//! One thread drives every keep-alive connection: it writes each request
//! at its scheduled instant (pipelining behind any still unanswered) and
//! reads responses in between, so a slow server makes requests wait
//! instead of slowing the offered load. Latency is timed from the
//! scheduled send instant; how late the generator itself sent is recorded
//! separately.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a response body must equal.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Byte-compare against this body as it arrives.
    Exact(Arc<str>),
    /// Keep the body; it is checked after the timed window.
    Keep,
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Send instant, ns after the phase start.
    pub at_ns: u64,
    /// The framed request.
    pub wire: Arc<[u8]>,
    /// How to check the answer.
    pub expect: Expect,
}

/// The outcome of one request.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// HTTP status, or 0 when no response arrived (I/O error or timeout).
    pub status: u16,
    /// Response completion minus scheduled send instant, ns.
    pub latency_ns: u64,
    /// Actual send minus scheduled send instant, ns.
    pub late_ns: u64,
    /// Whether the body matched (always true for `Expect::Keep`).
    pub matched: bool,
    /// The body, when it was asked to be kept.
    pub body: Option<Vec<u8>>,
}

impl Outcome {
    /// A 200 whose bytes were right.
    pub fn ok(&self) -> bool {
        self.status == 200 && self.matched
    }
}

/// How long after its last send a connection waits for stragglers.
const DRAIN: Duration = Duration::from_secs(5);

/// One connection's progress through its schedule.
struct Conn<'a> {
    stream: TcpStream,
    arrivals: &'a [Arrival],
    out: Vec<Outcome>,
    /// Next arrival to send.
    next: usize,
    /// Next arrival whose response is due.
    answered: usize,
    /// Request bytes the socket has not accepted yet.
    pending: Vec<u8>,
    /// Response bytes not yet parsed.
    buf: Vec<u8>,
    /// Still exchanging (not finished, failed or given up).
    live: bool,
}

impl Conn<'_> {
    /// Queue every due request and push what the socket accepts.
    fn send(&mut self, now: u64) {
        while self.next < self.arrivals.len() && self.arrivals[self.next].at_ns <= now {
            self.pending
                .extend_from_slice(&self.arrivals[self.next].wire);
            self.out[self.next].late_ns = now - self.arrivals[self.next].at_ns;
            self.next += 1;
        }
        while self.live && !self.pending.is_empty() {
            match self.stream.write(&self.pending) {
                Ok(0) => self.live = false,
                Ok(n) => {
                    self.pending.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.live = false,
            }
        }
    }

    /// Read and check every response that has arrived.
    fn receive(&mut self, chunk: &mut [u8], now: impl Fn() -> u64) {
        while self.live {
            match self.stream.read(chunk) {
                Ok(0) => self.live = false,
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    let done = now();
                    let mut used = 0;
                    while let Some((status, body, len)) = parse_response(&self.buf[used..]) {
                        if self.answered >= self.next {
                            // A response nobody asked for: the stream is broken.
                            self.live = false;
                            break;
                        }
                        let i = self.answered;
                        let o = &mut self.out[i];
                        o.status = status;
                        o.latency_ns = done.saturating_sub(self.arrivals[i].at_ns);
                        let body = &self.buf[used + body.0..used + body.1];
                        match &self.arrivals[i].expect {
                            Expect::Exact(want) => o.matched = body == want.as_bytes(),
                            Expect::Keep => {
                                o.matched = true;
                                o.body = Some(body.to_vec());
                            }
                        }
                        used += len;
                        self.answered += 1;
                    }
                    self.buf.drain(..used);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.live = false,
            }
        }
        if self.answered == self.arrivals.len() {
            self.live = false;
        }
    }
}

/// Drive each schedule in `lanes` (sorted by `at_ns`) over its own fresh
/// connection to `addr`, all from this one thread, the schedules anchored
/// at `t0`. Returns one outcome per arrival, per lane.
pub fn drive(addr: SocketAddr, t0: Instant, lanes: &[&[Arrival]]) -> Vec<Vec<Outcome>> {
    fine_timer_slack();
    let ns = || Instant::now().saturating_duration_since(t0).as_nanos() as u64;
    let mut conns: Vec<Option<Conn>> = lanes
        .iter()
        .map(|arrivals| {
            let stream = TcpStream::connect(addr).ok()?;
            stream.set_nodelay(true).ok()?;
            stream.set_nonblocking(true).ok()?;
            Some(Conn {
                stream,
                arrivals,
                out: vec![Outcome::default(); arrivals.len()],
                next: 0,
                answered: 0,
                pending: Vec::new(),
                buf: Vec::with_capacity(1 << 20),
                live: !arrivals.is_empty(),
            })
        })
        .collect();
    let give_up = lanes
        .iter()
        .filter_map(|a| a.last())
        .map(|a| a.at_ns)
        .max()
        .unwrap_or(0)
        + DRAIN.as_nanos() as u64;
    let mut chunk = vec![0u8; 256 * 1024];
    loop {
        for c in conns.iter_mut().flatten().filter(|c| c.live) {
            c.send(ns());
            c.receive(&mut chunk, ns);
        }
        let now = ns();
        if now >= give_up || conns.iter().flatten().all(|c| !c.live) {
            break;
        }
        let until = conns
            .iter()
            .flatten()
            .filter(|c| c.live && c.next < c.arrivals.len())
            .map(|c| c.arrivals[c.next].at_ns)
            .min()
            .unwrap_or(give_up);
        let watched: Vec<(i32, bool)> = conns
            .iter()
            .flatten()
            .filter(|c| c.live)
            .map(|c| (c.stream.as_raw_fd(), !c.pending.is_empty()))
            .collect();
        wait(&watched, until.saturating_sub(now));
    }
    lanes
        .iter()
        .zip(conns)
        .map(|(arrivals, c)| c.map_or_else(|| vec![Outcome::default(); arrivals.len()], |c| c.out))
        .collect()
}

/// Block until a watched socket is readable (or writable, for the ones
/// flagged) or `timeout_ns` passes, with nanosecond resolution: socket
/// read timeouts are rounded to the kernel tick, far coarser than the
/// latencies measured here.
fn wait(watched: &[(i32, bool)], timeout_ns: u64) {
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
    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    let mut fds: Vec<PollFd> = watched
        .iter()
        .map(|&(fd, write)| PollFd {
            fd,
            events: POLLIN | if write { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `fds` and `ts` are live, properly laid out locals for the
    // duration of the call, the count is the length of `fds`, and a null
    // signal mask leaves the thread's mask unchanged.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// Parse one complete response off the front of `buf`: its status, the
/// body's byte range, and the total length. `None` until it is complete.
pub fn parse_response(buf: &[u8]) -> Option<(u16, (usize, usize), usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status: u16 = head.get(9..12)?.parse().ok()?;
    let mut len = 0usize;
    for line in head.split("\r\n").skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                len = v.trim().parse().ok()?;
            }
        }
    }
    let end = head_end + len;
    (buf.len() >= end).then_some((status, (head_end, end), end))
}

/// Send one request on a fresh connection and wait for its response.
pub fn request(addr: SocketAddr, raw: &[u8], timeout: Duration) -> Option<(u16, Vec<u8>)> {
    let mut s = TcpStream::connect_timeout(&addr, timeout).ok()?;
    s.set_read_timeout(Some(timeout)).ok()?;
    s.write_all(raw).ok()?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if let Some((status, (a, b), _)) = parse_response(&buf) {
            return Some((status, buf[a..b].to_vec()));
        }
        match s.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// Ask the kernel to wake this thread's timed waits within a microsecond
/// of their deadline instead of the default 50 µs slack, so the schedule
/// is kept to the precision the latencies are reported in. Best effort.
fn fine_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
        // changes this thread's timer slack; no memory is passed.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses() {
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhiHTTP/1.1 400 Bad Request\r\ncontent-length: 0\r\n\r\n";
        let (s, (a, b), n) = parse_response(two).unwrap();
        assert_eq!((s, &two[a..b]), (200, &b"hi"[..]));
        let (s, (a, b), m) = parse_response(&two[n..]).unwrap();
        assert_eq!((s, a, b, n + m), (400, m, m, two.len()));
        assert!(parse_response(&two[..n - 1]).is_none());
    }
}
