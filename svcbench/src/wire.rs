//! The wire side: an `algst serve` child process on loopback, and the
//! closed- and open-loop clients that drive it.
//!
//! Every response is matched to its request by id and its verdict
//! checked against the body's ground truth. A wrong verdict is counted
//! in [`Tally::wrong`] (the run then fails); error and throttle replies
//! and requests still unanswered when a phase ends count as failed.

use crate::workload::Streams;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Requests each closed-loop connection keeps in flight.
pub const DEPTH: usize = 64;

/// How long a phase may wait for its last responses.
const GRACE: Duration = Duration::from_secs(30);

/// Outcome counts of one phase (or a sum of phases).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub correct: u64,
    pub wrong: u64,
    /// `"op":"error"` replies other than throttles.
    pub errors: u64,
    /// Admission-control refusals (`"kind":"throttled"` or
    /// `"quota_exceeded"`).
    pub throttled: u64,
    /// Requests never answered (or answered with an unknown id).
    pub missing: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.correct += o.correct;
        self.wrong += o.wrong;
        self.errors += o.errors;
        self.throttled += o.throttled;
        self.missing += o.missing;
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.throttled + self.missing
    }
}

/// What a response line says, as far as the benchmark cares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reply {
    Verdict(bool),
    Throttled,
    Error,
    Other,
}

/// Reads the id and outcome of one response line. The server writes
/// fields in a fixed order (`{"id":N,"op":…`), so a scan suffices; a
/// line without an id yields `None`.
pub fn parse_reply(line: &[u8]) -> Option<(u64, Reply)> {
    let rest = line.strip_prefix(b"{\"id\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let id = std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()?;
    let rest = &rest[digits..];
    let reply = if rest.starts_with(b",\"op\":\"equiv\",\"verdict\":true") {
        Reply::Verdict(true)
    } else if rest.starts_with(b",\"op\":\"equiv\",\"verdict\":false") {
        Reply::Verdict(false)
    } else if rest.starts_with(b",\"op\":\"error\",\"kind\":") {
        Reply::Throttled
    } else if rest.starts_with(b",\"op\":\"error\"") {
        Reply::Error
    } else {
        Reply::Other
    };
    Some((id, reply))
}

/// Per-request bookkeeping of one connection's phase: ids run from
/// `first_id`, one slot per request.
struct Ledger<'a> {
    streams: &'a Streams,
    phase: &'a [u32],
    first_id: u64,
    answered: Vec<bool>,
    tally: Tally,
}

impl<'a> Ledger<'a> {
    fn new(streams: &'a Streams, phase: &'a [u32], first_id: u64) -> Ledger<'a> {
        Ledger {
            streams,
            phase,
            first_id,
            answered: vec![false; phase.len()],
            tally: Tally {
                attempted: phase.len() as u64,
                ..Tally::default()
            },
        }
    }

    /// Books one response line; returns the request's index when it
    /// answered a request of this phase for the first time.
    fn book(&mut self, line: &[u8]) -> Option<usize> {
        let (id, reply) = parse_reply(line)?;
        let i = usize::try_from(id.checked_sub(self.first_id)?).ok()?;
        if i >= self.phase.len() || self.answered[i] {
            return None;
        }
        self.answered[i] = true;
        let expected = self.streams.bodies[self.phase[i] as usize].expected;
        match reply {
            Reply::Verdict(v) if v == expected => self.tally.correct += 1,
            Reply::Verdict(_) => self.tally.wrong += 1,
            Reply::Throttled => self.tally.throttled += 1,
            Reply::Error | Reply::Other => self.tally.errors += 1,
        }
        Some(i)
    }

    fn finish(mut self) -> Tally {
        self.tally.missing = self.answered.iter().filter(|a| !**a).count() as u64;
        self.tally
    }
}

/// A client-side span of one wire request, recorded by traced
/// closed-loop phases: sent and answered, in ns since `origin`.
#[derive(Clone, Copy, Debug)]
pub struct WireSpan {
    pub lane: usize,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Result of one connection's closed-loop phase.
#[derive(Debug, Default)]
pub struct LaneRun {
    pub tally: Tally,
    pub spans: Vec<WireSpan>,
}

/// One connection's closed loop: keep [`DEPTH`] requests in flight
/// until every request of `phase` is answered (or `deadline` passes).
/// With `origin`, records one [`WireSpan`] per request.
pub fn closed_lane(
    conn: &TcpStream,
    lane: usize,
    streams: &Streams,
    phase: &[u32],
    first_id: u64,
    deadline: Instant,
    origin: Option<Instant>,
) -> io::Result<LaneRun> {
    let mut writer = conn;
    let mut reader = BufReader::with_capacity(64 * 1024, conn);
    conn.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut book = Ledger::new(streams, phase, first_id);
    let mut sent_at = vec![0u64; if origin.is_some() { phase.len() } else { 0 }];
    let mut spans = Vec::with_capacity(sent_at.len());
    let (mut sent, mut done) = (0usize, 0usize);
    let mut out = Vec::with_capacity(DEPTH * 256);
    let mut line = Vec::with_capacity(256);
    while done < phase.len() {
        if sent - done < DEPTH && sent < phase.len() {
            while sent - done < DEPTH && sent < phase.len() {
                streams.write_line(first_id + sent as u64, phase[sent], &mut out);
                if let Some(origin) = origin {
                    sent_at[sent] = origin.elapsed().as_nanos() as u64;
                }
                sent += 1;
            }
            writer.write_all(&out)?;
            out.clear();
        }
        // Book every response already buffered before topping up, so a
        // burst of replies costs one write.
        loop {
            // After a timeout `line` may hold the start of a reply;
            // `read_until` appends the rest, so clear only once booked.
            match reader.read_until(b'\n', &mut line) {
                Ok(0) => return Err(io::Error::new(ErrorKind::UnexpectedEof, "server hung up")),
                Ok(_) => {
                    let booked = book.book(&line);
                    line.clear();
                    if let Some(i) = booked {
                        done += 1;
                        if let Some(origin) = origin {
                            spans.push(WireSpan {
                                lane,
                                id: first_id + i as u64,
                                start_ns: sent_at[i],
                                end_ns: origin.elapsed().as_nanos() as u64,
                            });
                        }
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if Instant::now() >= deadline {
                        return Ok(LaneRun {
                            tally: book.finish(),
                            spans,
                        });
                    }
                    continue;
                }
                Err(e) => return Err(e),
            }
            if reader.buffer().is_empty() || done == phase.len() {
                break;
            }
        }
    }
    Ok(LaneRun {
        tally: book.finish(),
        spans,
    })
}

/// Runs `phases[lane]` on `conns[lane]` for every lane at once, one
/// thread per connection. Returns the wall time and per-lane results.
pub fn closed_loop(
    conns: &[TcpStream],
    streams: &Streams,
    phases: &[Vec<u32>],
    first_ids: &[u64],
    deadline: Instant,
    origin: Option<Instant>,
) -> io::Result<(Duration, Vec<LaneRun>)> {
    let start = Instant::now();
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(lane, conn)| {
                let phase = &phases[lane];
                let first = first_ids[lane];
                scope
                    .spawn(move || closed_lane(conn, lane, streams, phase, first, deadline, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop lane does not panic"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    Ok((start.elapsed(), runs))
}

/// Result of one connection's open-loop phase.
#[derive(Debug, Default)]
pub struct OpenLane {
    pub tally: Tally,
    /// Answered requests' index in the phase and latency from their
    /// due time, ns.
    pub latency_ns: Vec<(usize, u64)>,
    /// How late each request was written after its due time, ns.
    pub lag_ns: Vec<u64>,
    /// Requests sent but unanswered at the schedule's midpoint and when
    /// its last request was sent.
    pub backlog_mid: u64,
    pub backlog_end: u64,
}

/// One connection's open loop: request `k` is due at
/// `t0 + offset + k·interval` and is written as soon as the thread
/// sees it due, whatever is still outstanding. Responses are read as
/// they arrive (`ppoll` on the socket), so latency is timed from the
/// due time to the moment the reply was readable.
#[allow(clippy::too_many_arguments)]
pub fn open_lane(
    conn: &TcpStream,
    streams: &Streams,
    phase: &[u32],
    first_id: u64,
    t0: Instant,
    offset: Duration,
    interval: Duration,
    deadline: Instant,
) -> io::Result<OpenLane> {
    conn.set_nonblocking(true)?;
    let mut book = Ledger::new(streams, phase, first_id);
    let due = |k: usize| t0 + offset + interval.mul_f64(k as f64);
    let midpoint = due(phase.len() / 2);
    let mut res = OpenLane {
        latency_ns: Vec::with_capacity(phase.len()),
        lag_ns: Vec::with_capacity(phase.len()),
        ..OpenLane::default()
    };
    let (mut sent, mut done) = (0usize, 0usize);
    let mut mid_seen = false;
    let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut written = 0usize;
    let mut inbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let result = (|| -> io::Result<()> {
        while done < phase.len() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            while sent < phase.len() && due(sent) <= now {
                streams.write_line(first_id + sent as u64, phase[sent], &mut out);
                res.lag_ns
                    .push(now.saturating_duration_since(due(sent)).as_nanos() as u64);
                sent += 1;
                if sent == phase.len() {
                    res.backlog_end = (sent - done) as u64;
                }
            }
            if !mid_seen && now >= midpoint {
                mid_seen = true;
                res.backlog_mid = (sent - done) as u64;
            }
            while written < out.len() {
                match (&*conn).write(&out[written..]) {
                    Ok(n) => written += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            if written == out.len() {
                out.clear();
                written = 0;
            }
            let mut got_data = false;
            loop {
                match (&*conn).read(&mut chunk) {
                    Ok(0) => {
                        return Err(io::Error::new(ErrorKind::UnexpectedEof, "server hung up"))
                    }
                    Ok(n) => {
                        got_data = true;
                        inbuf.extend_from_slice(&chunk[..n]);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            if got_data {
                let at = Instant::now();
                let mut start = 0;
                while let Some(nl) = inbuf[start..].iter().position(|&b| b == b'\n') {
                    if let Some(i) = book.book(&inbuf[start..start + nl]) {
                        done += 1;
                        res.latency_ns
                            .push((i, at.saturating_duration_since(due(i)).as_nanos() as u64));
                    }
                    start += nl + 1;
                }
                inbuf.drain(..start);
                continue;
            }
            // Nothing to read: sleep until the next request is due or
            // the socket becomes readable (or writable, with bytes
            // still queued).
            let wake = if sent < phase.len() {
                due(sent).min(deadline)
            } else {
                deadline
            };
            let timeout = wake.saturating_duration_since(Instant::now());
            if !timeout.is_zero() || written < out.len() {
                crate::poll::wait(conn, written < out.len(), timeout)?;
            }
        }
        Ok(())
    })();
    conn.set_nonblocking(false)?;
    result?;
    res.tally = book.finish();
    Ok(res)
}

/// Runs the open loop on every connection at once: `rate` requests per
/// second in total, lanes offset evenly within one interval.
pub fn open_loop(
    conns: &[TcpStream],
    streams: &Streams,
    phases: &[Vec<u32>],
    first_ids: &[u64],
    rate: f64,
    run_deadline: Instant,
) -> io::Result<(Duration, Vec<OpenLane>)> {
    let lanes = conns.len();
    let interval = Duration::from_secs_f64(lanes as f64 / rate);
    let t0 = Instant::now() + Duration::from_millis(5);
    let longest = phases.iter().map(Vec::len).max().unwrap_or(0);
    let deadline = (t0 + interval.mul_f64(longest as f64) + GRACE).min(run_deadline);
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(lane, conn)| {
                let phase = &phases[lane];
                let first = first_ids[lane];
                let offset = interval.mul_f64(lane as f64 / lanes as f64);
                scope.spawn(move || {
                    open_lane(conn, streams, phase, first, t0, offset, interval, deadline)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop lane does not panic"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    Ok((t0.elapsed(), runs))
}

/// The `algst serve` child process and its connections.
pub struct Server {
    child: Child,
    pub conns: Vec<TcpStream>,
}

impl Server {
    /// Spawns `algst serve` on a free loopback port and opens `lanes`
    /// connections to it.
    pub fn start(
        algst: &Path,
        workers: usize,
        multi_tenant: bool,
        lanes: usize,
    ) -> io::Result<Server> {
        let mut last_err = None;
        for _ in 0..3 {
            // Ask the kernel for a free port, then hand it to the
            // server; retry on the rare race where another process
            // takes it in between.
            let port = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?
                .local_addr()?
                .port();
            let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, port));
            let mut cmd = Command::new(algst);
            cmd.args(["serve", "--listen", &addr.to_string()])
                .args(["--workers", &workers.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null());
            if multi_tenant {
                cmd.arg("--multi-tenant");
            }
            let mut child = cmd.spawn()?;
            match connect_all(&mut child, addr, lanes) {
                Ok(conns) => return Ok(Server { child, conns }),
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("three attempts made"))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends one admin request on the first connection and returns its
    /// response line (every other request must be answered already).
    pub fn admin(&mut self, line: &str) -> io::Result<String> {
        let conn = &self.conns[0];
        conn.set_read_timeout(Some(Duration::from_secs(30)))?;
        (&*conn).write_all(line.as_bytes())?;
        (&*conn).write_all(b"\n")?;
        let mut reader = BufReader::new(conn);
        let mut reply = String::new();
        reader.read_line(&mut reply)?;
        Ok(reply)
    }

    /// Sends `shutdown`, waits for the child to exit (killing it after
    /// ten seconds) and reports whether it exited cleanly.
    pub fn shutdown(mut self) -> io::Result<bool> {
        let _ = self.admin(r#"{"id":0,"op":"shutdown"}"#);
        self.conns.clear();
        let until = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Ok(status.success());
            }
            if Instant::now() >= until {
                let _ = self.child.kill();
                self.child.wait()?;
                return Ok(false);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached only when a run fails midway; `shutdown` waits on the
        // normal path. Never leave the child behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn connect_all(child: &mut Child, addr: SocketAddr, lanes: usize) -> io::Result<Vec<TcpStream>> {
    let until = Instant::now() + Duration::from_secs(10);
    let mut conns = Vec::with_capacity(lanes);
    while conns.len() < lanes {
        match TcpStream::connect(addr) {
            Ok(conn) => {
                conn.set_nodelay(true)?;
                conns.push(conn);
            }
            Err(e) => {
                if let Some(status) = child.try_wait()? {
                    return Err(io::Error::other(format!("algst serve exited: {status}")));
                }
                if Instant::now() >= until {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        }
    }
    Ok(conns)
}
