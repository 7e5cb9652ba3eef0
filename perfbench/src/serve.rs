//! The `serve_stream` workload: one `gpd serve --fsync group` process fed
//! by one generator process over two connections.
//!
//! The stream is the true-state stream of a seeded random computation,
//! the connections each own half the processes, and the conjunction
//! stays false for most of the stream while the monitor's queues do real
//! elimination. Three phases: an open loop at a fixed Poisson rate
//! (latency timed from each event's scheduled send), a closed loop with a
//! fixed in-flight window per connection (fixed-size batches), and
//! recovery (stop, restart on the same WAL, time to the first acked
//! `Hello`).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::time::{Duration, Instant};

use gpd::conjunctive::possibly_conjunctive;
use gpd::online::ConjunctiveMonitor;
use gpd_computation::{gen, BoolVariable, ProcessId, VectorClock};
use gpd_server::protocol::{parse_message, write_message, AckStatus, Message, ServerStats};
use gpd_server::{FsyncPolicy, Wal, WalConfig, WalRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::span::Tracer;
use crate::util::{self, median, quantile, sorted, SplitMix};
use crate::{Ctx, Outcome};

/// Processes in the monitored computation; each connection owns half.
const PROCESSES: usize = 16;
/// Offered load of the open loop, in events per second: a few percent of
/// the closed-loop ingest rate (~100–400k events/s on a 2-core host). At
/// ~60k events/s the generator, writing one frame per event, fell behind
/// its own schedule by more than the latency it measured.
const OFFERED_EPS: f64 = 5000.0;
/// Length of one round's open loop.
const OPEN_SECONDS: f64 = 1.0;
/// Closed-loop batches, each of `BATCH_EVENTS` events.
const BATCHES: usize = 5;
const BATCH_EVENTS: usize = 40000;
/// In-flight events per connection in the closed loop.
const WINDOW: usize = 256;
/// How close to a scheduled send the open loop stops sleeping.
const SPIN: Duration = Duration::from_micros(100);
/// Restarts timed in the recovery phase.
const RESTARTS: usize = 2;
/// `setup_s` is the median of at least this many set-ups, repeated until
/// they took `SETUP_TOTAL`.
const SETUP_REPS: usize = 5;
const SETUP_TOTAL: Duration = Duration::from_secs(2);
const TENANT: &str = "bench";

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits until one of `streams` is ready for `events` or `timeout`
/// passes, with nanosecond timeouts (socket timeouts round up to
/// scheduler ticks, far coarser than the open loop's inter-arrival gaps).
fn poll(streams: &[&TcpStream], events: i16, timeout: Duration) -> Result<(), String> {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` holds `fds.len()` initialised entries and `ts` is
    // live for the call; a null signal mask leaves the mask unchanged.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("ppoll: {e}"));
        }
    }
    Ok(())
}

/// One event of the stream: the process and its state's vector clock.
#[derive(Clone)]
struct Event {
    process: u32,
    clock: Vec<u32>,
}

/// The generated input: each process's initial truth, the stream the
/// run delivers, and its offline verdict.
struct Stream {
    initial: Vec<bool>,
    events: Vec<Event>,
    /// Offline `possibly_conjunctive` on the delivered true states: the
    /// frontier of the least witness cut.
    reference: Option<Vec<u32>>,
    /// Index of the event that completes the reference witness.
    witness_at: Option<usize>,
}

fn stream_len() -> usize {
    open_len() + closed_len()
}

fn open_len() -> usize {
    (OFFERED_EPS * OPEN_SECONDS) as usize
}

fn closed_len() -> usize {
    BATCHES * BATCH_EVENTS
}

/// All true states after the initial ones, in the canonical merge order
/// `gpd feed` uses (local index, then process): FIFO per process.
fn true_states(tracks: &[Vec<bool>]) -> Vec<(u32, usize)> {
    let mut order: Vec<(u32, usize)> = Vec::new();
    for (p, track) in tracks.iter().enumerate() {
        for (k, &t) in track.iter().enumerate().skip(1) {
            if t {
                order.push((k as u32, p));
            }
        }
    }
    order.sort_unstable();
    order
}

fn generate(seed: u64, len: usize) -> Result<Stream, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Processes are true in about half their states and process 1 may
    // lose most of its own below, so a quarter more states than `len`
    // needs leaves enough for every seed to deliver exactly `len` events.
    let per_process = len * 2 / PROCESSES * 5 / 4 + 64;
    let comp = gen::random_computation(
        &mut rng,
        PROCESSES,
        per_process,
        per_process * PROCESSES / 2,
    );
    let mut tracks: Vec<Vec<bool>> = (0..PROCESSES)
        .map(|p| {
            (0..=comp.events_on(p))
                .map(|k| k > 0 && rng.gen_bool(0.5))
                .collect()
        })
        .collect();
    // Keep only the true states of process 1 that are causally ordered
    // with every true state of process 0: no cut holds both, so the
    // conjunction stays false while the monitor keeps eliminating queue
    // heads against each other. Past ~95% of the delivered stream process
    // 1 gets its random states back, so a witness can only form there.
    let random_p1 = tracks[1].clone();
    let p0_true: Vec<u32> = (1..=comp.events_on(0) as u32)
        .filter(|&k| tracks[0][k as usize])
        .collect();
    for k1 in 1..=comp.events_on(1) as u32 {
        if !tracks[1][k1 as usize] {
            continue;
        }
        let e1 = comp.event_at(1, k1).expect("state within the computation");
        let seen_of_p0 = comp.clock(e1).as_slice()[0];
        // States of process 0 before `seen_of_p0` end before this one
        // starts. The first true state at or after it, and with it every
        // later one (clocks grow along p0), is ordered after this state
        // iff it already knows a later state of process 1.
        let ordered = match p0_true.get(p0_true.partition_point(|&k0| k0 < seen_of_p0)) {
            None => true,
            Some(&k0) => {
                let e0 = comp.event_at(0, k0).expect("state within the computation");
                comp.clock(e0).as_slice()[1] > k1
            }
        };
        tracks[1][k1 as usize] = ordered;
    }
    // Every state from `late` on sorts after the delivered stream's 95%
    // point, and the order before it does not change.
    let late = true_states(&tracks)
        .get(len * 19 / 20)
        .map_or(comp.events_on(1) + 1, |&(k, _)| k as usize + 1);
    tracks[1][late..].copy_from_slice(&random_p1[late..]);
    let order = true_states(&tracks);
    assert!(
        order.len() >= len,
        "the computation holds too few true states"
    );
    let delivered = &order[..len];
    let mut sent: Vec<Vec<bool>> = tracks
        .iter()
        .map(|t| {
            let mut only_initial = vec![false; t.len()];
            only_initial[0] = t[0];
            only_initial
        })
        .collect();
    let events = delivered
        .iter()
        .map(|&(k, p)| {
            sent[p][k as usize] = true;
            let e = comp.event_at(p, k).expect("state within the computation");
            Event {
                process: p as u32,
                clock: comp.clock(e).as_slice().to_vec(),
            }
        })
        .collect();
    let initial: Vec<bool> = tracks.iter().map(|t| t[0]).collect();
    let x = BoolVariable::new(&comp, sent);
    let all: Vec<ProcessId> = (0..PROCESSES).map(ProcessId::new).collect();
    let reference = possibly_conjunctive(&comp, &x, &all).map(|c| c.frontier().to_vec());
    // The stream position at which the witness is complete: the last of
    // its true states to be delivered.
    let witness_at = reference.as_ref().map(|f| {
        f.iter()
            .enumerate()
            .map(|(p, &k)| {
                delivered
                    .binary_search(&(k, p))
                    .expect("the witness holds delivered true states")
            })
            .max()
            .unwrap_or(0)
    });
    if witness_at.is_some_and(|at| at < len * 19 / 20) {
        return Err(format!(
            "the witness forms at event {} of {len}, before the stream's 95% point",
            witness_at.unwrap_or(0)
        ));
    }
    Ok(Stream {
        initial,
        events,
        reference,
        witness_at,
    })
}

/// A running `gpd serve` and the address it listens on.
struct Server {
    proc: util::Running,
    addr: String,
}

fn start_server(ctx: &Ctx, wal: &Path) -> Result<Server, String> {
    let args: Vec<String> = [
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--wal-dir",
        &wal.display().to_string(),
        "--fsync",
        "group",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut proc = util::spawn(&ctx.gpd, &args).map_err(|e| format!("spawn gpd serve: {e}"))?;
    let line = proc
        .read_line()
        .map_err(|e| format!("gpd serve did not start: {e}"))?;
    let addr = line
        .strip_prefix("listening on ")
        .ok_or_else(|| format!("unexpected gpd serve banner {line:?}"))?
        .to_string();
    Ok(Server { proc, addr })
}

/// A client connection with its receive buffer.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    fn send(&mut self, m: &Message) -> Result<(), String> {
        let mut frame = Vec::with_capacity(16 + 4 * PROCESSES);
        write_message(&mut frame, m).map_err(|e| e.to_string())?;
        self.write_all(&frame)
    }

    /// Writes `bytes` whole, waiting while the socket is full.
    fn write_all(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut at = 0;
        while at < bytes.len() {
            match self.stream.write(&bytes[at..]) {
                Ok(n) => at += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    poll(&[&self.stream], POLLOUT, Duration::from_secs(30))?;
                }
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(())
    }

    /// Reads whatever bytes have arrived, without waiting. A closed peer
    /// is an error only once its last complete message has been taken.
    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 1 << 15];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) if parse_message(&self.buf).is_ok_and(|m| m.is_some()) => return Ok(()),
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    /// The next complete message already received, if any.
    fn next(&mut self) -> Result<Option<Message>, String> {
        match parse_message(&self.buf).map_err(|e| e.to_string())? {
            Some((m, used)) => {
                self.buf.drain(..used);
                Ok(Some(m))
            }
            None => Ok(None),
        }
    }

    /// The next message, waiting up to 30 s for it.
    fn expect(&mut self) -> Result<Message, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(m) = self.next()? {
                return Ok(m);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err("server did not answer within 30 s".into());
            }
            poll(&[&self.stream], POLLIN, left)?;
            self.fill()?;
        }
    }

    fn hello(&mut self, initial: &[bool]) -> Result<Vec<Option<u32>>, String> {
        self.send(&Message::Hello {
            tenant: TENANT.into(),
            initial: initial.to_vec(),
        })?;
        match self.expect()? {
            Message::HelloAck { high_water } => Ok(high_water),
            other => Err(format!("expected HelloAck, got {other:?}")),
        }
    }
}

/// What the generator saw.
#[derive(Default)]
struct Side {
    /// Scheduled send → ack, in ms (open loop).
    latency_ms: Vec<f64>,
    /// Actual send − scheduled send, in ms (open loop).
    lag_ms: Vec<f64>,
    /// Time inside `write`, in µs, per open-loop event.
    send_us: Vec<f64>,
    /// Wall time of each closed-loop batch, in s.
    batch_s: Vec<f64>,
    not_accepted: u64,
    acked: u64,
}

impl Side {
    fn ack(&mut self, m: Message) -> Result<(u32, u32), String> {
        match m {
            Message::Ack {
                process,
                seq,
                status,
            } => {
                self.acked += 1;
                if status != AckStatus::Accepted {
                    self.not_accepted += 1;
                }
                Ok((process, seq))
            }
            other => Err(format!("expected an Ack, got {other:?}")),
        }
    }
}

/// The generator: one thread driving both connections. The open loop
/// sends each event at its scheduled time, whatever the acks are doing,
/// and reads acks while it waits; the closed loop keeps at most
/// `WINDOW` events in flight per connection, batch by batch.
fn drive(
    conns: &mut [Conn],
    stream: &Stream,
    open: &[Duration],
    closed: &[Vec<usize>],
    trace_batches: &[bool],
    mut tracer: Option<&mut Tracer>,
) -> Result<Side, String> {
    let events = &stream.events;
    let n_conns = conns.len();
    let owner = |i: usize| events[i].process as usize * n_conns / PROCESSES;
    let mut side = Side::default();
    let epoch = Instant::now();
    let mut pending: HashMap<(u32, u32), Duration> = HashMap::new();
    let mut next = 0;
    while next < open.len() || !pending.is_empty() {
        let now = epoch.elapsed();
        if next < open.len() && open[next] <= now {
            let e = &events[next];
            let t = Instant::now();
            conns[owner(next)].send(&Message::Event {
                process: e.process,
                clock: e.clock.clone(),
            })?;
            side.send_us.push(t.elapsed().as_secs_f64() * 1e6);
            side.lag_ms.push(util::ms(now - open[next]));
            pending.insert((e.process, e.clock[e.process as usize]), open[next]);
            next += 1;
            continue;
        }
        let wait = match open.get(next) {
            Some(&due) => due - now,
            None => Duration::from_secs(30),
        };
        // A timed sleep hands the next send to the VM's timer, which can
        // fire a millisecond late; within `SPIN` of the send the
        // generator reads its sockets without blocking instead.
        if wait > SPIN {
            poll(
                &conns.iter().map(|c| &c.stream).collect::<Vec<_>>(),
                POLLIN,
                wait - SPIN,
            )?;
        }
        for c in conns.iter_mut() {
            c.fill()?;
            let at = epoch.elapsed();
            while let Some(m) = c.next()? {
                let key = side.ack(m)?;
                let due = pending
                    .remove(&key)
                    .ok_or_else(|| format!("ack for unsent event {key:?}"))?;
                side.latency_ms.push(util::ms(at - due));
            }
        }
        if next >= open.len() && epoch.elapsed() > now + Duration::from_secs(30) {
            return Err("acks stopped arriving".into());
        }
    }
    let mut frames = Vec::with_capacity(WINDOW * (16 + 4 * PROCESSES));
    for (b, batch) in closed.iter().enumerate() {
        let traced = trace_batches.get(b).copied().unwrap_or(false);
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); conns.len()];
        for &i in batch {
            queues[owner(i)].push(i);
        }
        let mut sent = vec![0usize; conns.len()];
        let mut inflight = vec![0usize; conns.len()];
        let start = Instant::now();
        let mut last_ack = start;
        loop {
            // Every free slot of a connection's window is refilled with
            // one write, as a pipelining client does.
            for (c, conn) in conns.iter_mut().enumerate() {
                let first = sent[c];
                frames.clear();
                while sent[c] < queues[c].len() && inflight[c] < WINDOW {
                    let e = &events[queues[c][sent[c]]];
                    write_message(
                        &mut frames,
                        &Message::Event {
                            process: e.process,
                            clock: e.clock.clone(),
                        },
                    )
                    .map_err(|e| e.to_string())?;
                    sent[c] += 1;
                    inflight[c] += 1;
                }
                if frames.is_empty() {
                    continue;
                }
                let span = match (tracer.as_deref_mut(), traced) {
                    (Some(t), true) => Some(t.begin("client.send", queues[c][first] as u64)),
                    _ => None,
                };
                conn.write_all(&frames)?;
                if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
                    t.end(s);
                }
            }
            if inflight.iter().all(|&n| n == 0) {
                break;
            }
            poll(
                &conns.iter().map(|c| &c.stream).collect::<Vec<_>>(),
                POLLIN,
                Duration::from_secs(30),
            )?;
            let acked = side.acked;
            for (c, conn) in conns.iter_mut().enumerate() {
                conn.fill()?;
                while let Some(m) = conn.next()? {
                    side.ack(m)?;
                    inflight[c] -= 1;
                }
            }
            if side.acked > acked {
                last_ack = Instant::now();
            } else if last_ack.elapsed() > Duration::from_secs(30) {
                return Err("acks stopped arriving".into());
            }
        }
        side.batch_s.push(start.elapsed().as_secs_f64());
    }
    Ok(side)
}

/// The Poisson schedule from the seed: event `i` of the stream is due
/// at the `i`-th arrival.
fn schedule(seed: u64, count: usize) -> Vec<Duration> {
    let mut rng = SplitMix(seed ^ 0x0005_EED0_FA11);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            t += -rng.unit().ln() / OFFERED_EPS;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Everything one live session produced.
struct Session {
    side: Side,
    stats: ServerStats,
    queue_peak: u64,
    witness: Option<Vec<Vec<u32>>>,
    server: util::Finished,
}

fn witness_frontier(w: &Option<Vec<Vec<u32>>>) -> Option<Vec<u32>> {
    w.as_ref()
        .map(|clocks| clocks.iter().enumerate().map(|(p, c)| c[p]).collect())
}

fn feed(
    server: Server,
    stream: &Stream,
    seed: u64,
    trace_batches: &[bool],
    tracer: Option<&mut Tracer>,
) -> Result<Session, String> {
    let n_open = open_len().min(stream.events.len());
    let open = schedule(seed, n_open);
    let closed: Vec<Vec<usize>> = (n_open..stream.events.len())
        .collect::<Vec<_>>()
        .chunks(BATCH_EVENTS)
        .map(<[usize]>::to_vec)
        .collect();
    let mut conns = vec![Conn::open(&server.addr)?, Conn::open(&server.addr)?];
    for c in &mut conns {
        c.hello(&stream.initial)?;
    }
    let side = drive(&mut conns, stream, &open, &closed, trace_batches, tracer)?;
    let conn = &mut conns[0];
    conn.send(&Message::StatsQuery)?;
    let stats = match conn.expect()? {
        Message::Stats(s) => s,
        other => return Err(format!("expected Stats, got {other:?}")),
    };
    conn.send(&Message::TenantStatsQuery)?;
    let queue_peak = match conn.expect()? {
        Message::TenantStats { rows } => rows.iter().map(|r| r.queue_peak).max().unwrap_or(0),
        other => return Err(format!("expected TenantStats, got {other:?}")),
    };
    let witness = shutdown(conns, server.proc.pid())?;
    let server = server
        .proc
        .wait()
        .map_err(|e| format!("reap gpd serve: {e}"))?;
    Ok(Session {
        side,
        stats,
        queue_peak,
        witness,
        server,
    })
}

/// Closes every connection but the first, asks it for a draining
/// shutdown, and returns the final verdict.
fn shutdown(mut conns: Vec<Conn>, pid: u32) -> Result<Option<Vec<Vec<u32>>>, String> {
    let mut first = conns.remove(0);
    drop(conns);
    first.send(&Message::Shutdown {
        tenant: String::new(),
    })?;
    match first.expect()? {
        Message::ShutdownAck { witness } => Ok(witness),
        other => Err(format!(
            "gpd serve {pid}: expected ShutdownAck, got {other:?}"
        )),
    }
}

/// Restarts `gpd serve` on the run's WAL and times spawn → acked `Hello`.
/// Also checks nothing acked was lost and the verdict survived.
fn recover(
    ctx: &Ctx,
    wal: &Path,
    stream: &Stream,
    expect_high: &[Option<u32>],
) -> Result<(f64, Vec<String>), String> {
    let server = start_server(ctx, wal)?;
    let started = server.proc.started();
    let mut conn = Conn::open(&server.addr)?;
    let high = conn.hello(&stream.initial)?;
    let took = util::ms(started.elapsed());
    let mut problems = Vec::new();
    if high != expect_high {
        problems.push("recovered high-water marks differ from the acked stream".to_string());
    }
    let witness = shutdown(vec![conn], server.proc.pid())?;
    if witness_frontier(&witness) != stream.reference {
        problems.push("verdict after recovery differs from offline possibly_conjunctive".into());
    }
    let done = server
        .proc
        .wait()
        .map_err(|e| format!("reap gpd serve: {e}"))?;
    if done.code != Some(0) {
        problems.push(format!("gpd serve exited {:?}: {}", done.code, done.stderr));
    }
    Ok((took, problems))
}

/// What one round measured.
struct Round {
    /// Sorted open-loop ack latencies, in ms.
    latency: Vec<f64>,
    /// Sorted generator lags, in ms.
    lag: Vec<f64>,
    /// Restart → first acked `Hello`, in ms.
    recovery_ms: Vec<f64>,
    /// Whether the generator kept to its schedule (see `round`).
    valid: bool,
    session: Session,
}

/// One round: feed the whole stream to a fresh server, check what it
/// acked and decided, then time restarts on its WAL.
fn round(
    ctx: &Ctx,
    out: &mut Outcome,
    server: Server,
    stream: &Stream,
    wal: &Path,
    trace_batches: &[bool],
    tracer: Option<&mut Tracer>,
) -> Result<Round, String> {
    let session = feed(server, stream, ctx.seed, trace_batches, tracer)?;
    // Every event acked Accepted, the final verdict equal to the offline
    // one, a clean exit, and nothing acked lost across restarts.
    out.attempted += stream.events.len() as u64 + 2;
    let refused = session.side.not_accepted;
    out.failed += refused + (stream.events.len() as u64).saturating_sub(session.side.acked);
    if refused > 0 {
        eprintln!("FAIL {refused} events acked other than Accepted");
    }
    if witness_frontier(&session.witness) != stream.reference {
        out.failed += 1;
        eprintln!(
            "FAIL final verdict {:?} differs from offline possibly_conjunctive {:?}",
            witness_frontier(&session.witness),
            stream.reference
        );
    }
    if session.server.code != Some(0) {
        out.failed += 1;
        eprintln!(
            "FAIL gpd serve exited {:?}: {}",
            session.server.code, session.server.stderr
        );
    }
    let mut high = vec![None; PROCESSES];
    for e in &stream.events {
        high[e.process as usize] = Some(e.clock[e.process as usize]);
    }
    let mut recovery_ms = Vec::new();
    for _ in 0..RESTARTS {
        out.attempted += 1;
        let (ms, problems) = recover(ctx, wal, stream, &high)?;
        recovery_ms.push(ms);
        if !problems.is_empty() {
            out.failed += 1;
            for p in problems {
                eprintln!("FAIL {p}");
            }
        }
    }
    let latency = sorted(&session.side.latency_ms);
    let lag = sorted(&session.side.lag_ms);
    // A generator whose typical delay behind its schedule exceeds the
    // typical latency it measures was not offering the load it claims:
    // the round's latencies are set aside as invalid, not reported.
    let valid = quantile(&lag, 0.5) <= quantile(&latency, 0.5);
    if !valid {
        eprintln!(
            "generator lag p50 {:.3} ms exceeds ack p50 {:.3} ms: round's latencies marked invalid",
            quantile(&lag, 0.5),
            quantile(&latency, 0.5)
        );
    }
    Ok(Round {
        latency,
        lag,
        recovery_ms,
        valid,
        session,
    })
}

fn fresh_server(ctx: &Ctx, wal: &Path) -> Result<Server, String> {
    if wal.exists() {
        std::fs::remove_dir_all(wal).map_err(|e| format!("{}: {e}", wal.display()))?;
    }
    start_server(ctx, wal)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let wal = ctx.work.join("wal");
    let mut out = Outcome::default();
    // Set-up: generate the stream and the offline reference, and start a
    // server on an empty WAL.
    let (setups, (mut stream, mut server)) = util::repeat_setup(
        SETUP_REPS,
        SETUP_TOTAL,
        || Ok((generate(ctx.seed, stream_len())?, fresh_server(ctx, &wal)?)),
        |(_, server)| stop(server),
    )?;
    out.push_e2e("setup_s", median(&setups), "s", setups.len());
    out.note(match stream.witness_at {
        Some(at) => format!(
            "stream of {} events; the reference witness completes at event {at} ({:.1}%)",
            stream.events.len(),
            100.0 * at as f64 / stream.events.len() as f64
        ),
        None => format!(
            "stream of {} events; the conjunction never holds",
            stream.events.len()
        ),
    });
    if ctx.self_test {
        // A deliberately wrong reference verdict.
        stream.reference = match stream.reference {
            Some(_) => None,
            None => Some(vec![0; PROCESSES]),
        };
    }

    if ctx.trace {
        let mut tr = Tracer::new();
        // Every other closed-loop batch records a span per send.
        let trace_batches: Vec<bool> = (0..BATCHES).map(|b| b % 2 == 1).collect();
        let r = round(
            ctx,
            &mut out,
            server,
            &stream,
            &wal,
            &trace_batches,
            Some(&mut tr),
        )?;
        layers(ctx, &mut tr, &mut out, &stream, &r.session, &wal)?;
        let side = &r.session.side;
        let pick = |traced: bool| {
            side.batch_s
                .iter()
                .zip(&trace_batches)
                .filter(|(_, &t)| t == traced)
                .map(|(w, _)| *w)
                .collect::<Vec<_>>()
        };
        out.push_layer(
            "tracing.batch_overhead_s",
            median(&pick(true)) - median(&pick(false)),
            "s",
        );
        for (name, q) in [
            ("ack.p50_ms", 0.5),
            ("ack.p90_ms", 0.9),
            ("ack.p99_ms", 0.99),
        ] {
            out.push_layer(name, quantile(&r.latency, q), "ms");
        }
        out.push_layer("gen.lag_ms_p99", quantile(&r.lag, 0.99), "ms");
        out.push_layer("gen.invalid_rounds", f64::from(u8::from(!r.valid)), "count");
        out.push_layer("client.send_us", median(&side.send_us), "us");
        out.push_layer(
            "server.ingest_eps",
            closed_len() as f64 / side.batch_s.iter().sum::<f64>(),
            "1/s",
        );
        out.spans = Some(tr);
        return Ok(out);
    }

    // Rounds on the same stream, each on a fresh server and WAL, while
    // the run has time for another.
    let start = Instant::now();
    let budget = Duration::from_secs(ctx.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let t = Instant::now();
        let r = round(ctx, &mut out, server, &stream, &wal, &[], None)?;
        rounds.push(r);
        if start.elapsed() + t.elapsed() > budget {
            break;
        }
        server = fresh_server(ctx, &wal)?;
    }
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let recovery = sorted(
        &rounds
            .iter()
            .flat_map(|r| r.recovery_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    out.push_e2e(
        "batch_s",
        per_round(&|r| median(&r.session.side.batch_s)),
        "s",
        rounds.len() * BATCHES,
    );
    out.push_e2e("op_p50_ms", quantile(&recovery, 0.5), "ms", recovery.len());
    out.push_e2e("op_p90_ms", quantile(&recovery, 0.9), "ms", recovery.len());
    out.push_e2e(
        "peak_rss_mb",
        rounds
            .iter()
            .map(|r| r.session.server.max_rss_kb)
            .max()
            .unwrap_or(0) as f64
            / 1024.0,
        "MB",
        rounds.len(),
    );

    // The open loop's ack latencies, over the rounds whose generator kept
    // to its schedule (all rounds, flagged, when none did).
    let valid: Vec<&Round> = rounds.iter().filter(|r| r.valid).collect();
    let counted = if valid.is_empty() {
        rounds.iter().collect()
    } else {
        valid.clone()
    };
    let ack = |q: f64| {
        median(
            &counted
                .iter()
                .map(|r| quantile(&r.latency, q))
                .collect::<Vec<_>>(),
        )
    };
    out.note(format!(
        "open loop: {} events per round at {OFFERED_EPS} ev/s offered; ack p50 {:.4} p90 {:.4} p99 {:.4} ms over {} of {} rounds{}; generator lag p99 {:.4} ms",
        open_len(),
        ack(0.5),
        ack(0.9),
        ack(0.99),
        valid.len(),
        rounds.len(),
        if valid.is_empty() { " (INVALID: generator behind schedule in every round)" } else { "" },
        per_round(&|r| quantile(&r.lag, 0.99)),
    ));
    out.note(format!(
        "closed loop: {BATCHES} batches of {BATCH_EVENTS} events, window {WINDOW}/connection; ingest {:.1} ev/s; queue peak {}",
        per_round(&|r| closed_len() as f64 / r.session.side.batch_s.iter().sum::<f64>()),
        rounds[0].session.queue_peak,
    ));
    let per_round_batch: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.3}", median(&r.session.side.batch_s)))
        .collect();
    out.note(format!(
        "batch_s per round, in order: {} s",
        per_round_batch.join(" ")
    ));
    out.note(format!(
        "op_* on serve_stream: restart on the round's WAL → first acked Hello, {} restarts",
        recovery.len()
    ));
    Ok(out)
}

/// Stops an idle server.
fn stop(server: Server) -> Result<(), String> {
    let conn = Conn::open(&server.addr)?;
    shutdown(vec![conn], server.proc.pid())?;
    server
        .proc
        .wait()
        .map_err(|e| format!("reap gpd serve: {e}"))?;
    Ok(())
}

/// The per-layer numbers: replays of the run's own frames, stream and
/// WAL through the layers' public functions, plus the server's counters.
fn layers(
    ctx: &Ctx,
    tr: &mut Tracer,
    out: &mut Outcome,
    stream: &Stream,
    session: &Session,
    wal: &Path,
) -> Result<(), String> {
    let n = stream.events.len();
    // server::protocol: encode and decode every event frame of the run.
    let messages: Vec<Message> = stream
        .events
        .iter()
        .map(|e| Message::Event {
            process: e.process,
            clock: e.clock.clone(),
        })
        .collect();
    let mut wire = Vec::with_capacity(n * (8 + 4 * PROCESSES));
    let span = tr.begin("protocol.encode", 0);
    for m in &messages {
        write_message(&mut wire, m).map_err(|e| e.to_string())?;
    }
    tr.end(span);
    let span = tr.begin("protocol.decode", 0);
    let mut at = 0;
    let mut decoded = 0usize;
    while let Some((m, used)) = parse_message(&wire[at..]).map_err(|e| e.to_string())? {
        std::hint::black_box(m);
        at += used;
        decoded += 1;
    }
    tr.end(span);
    if decoded != n {
        return Err(format!("decoded {decoded} of {n} frames"));
    }
    out.push_layer(
        "protocol.encode_ns",
        tr.total_ms("protocol.encode") * 1e6 / n as f64,
        "ns",
    );
    out.push_layer(
        "protocol.decode_ns",
        tr.total_ms("protocol.decode") * 1e6 / n as f64,
        "ns",
    );

    // online: the monitor on the same stream.
    let mut monitor = ConjunctiveMonitor::with_initial(&stream.initial);
    let span = tr.begin("online.observe", 0);
    for e in &stream.events {
        monitor.observe(e.process as usize, VectorClock::from(e.clock.clone()));
    }
    tr.end(span);
    out.push_layer(
        "online.observe_ns",
        tr.total_ms("online.observe") * 1e6 / n as f64,
        "ns",
    );
    out.push_layer("online.queue_peak", session.queue_peak as f64, "count");

    // wal + vfs: append the stream to a scratch log, syncing once per
    // window-sized group, as group commit does per sweep.
    let scratch = ctx.work.join("wal-replay");
    let (mut log, _) = Wal::open(WalConfig::new(&scratch).with_fsync(FsyncPolicy::Group))
        .map_err(|e| format!("open scratch WAL: {e}"))?;
    log.append(&WalRecord::Init {
        initial: stream.initial.clone(),
    })
    .map_err(|e| e.to_string())?;
    let mut syncs = 0usize;
    for (i, e) in stream.events.iter().enumerate() {
        let span = tr.begin("wal.append", i as u64);
        log.append(&WalRecord::Event {
            process: e.process,
            clock: e.clock.clone(),
        })
        .map_err(|e| e.to_string())?;
        tr.end(span);
        if (i + 1) % (2 * WINDOW) == 0 {
            tr.time("wal.sync", i as u64, || log.sync())
                .map_err(|e| e.to_string())?;
            syncs += 1;
        }
    }
    drop(log);
    out.push_layer(
        "wal.append_us",
        tr.total_ms("wal.append") * 1e3 / n as f64,
        "us",
    );
    out.push_layer(
        "wal.sync_ms",
        tr.total_ms("wal.sync") / syncs.max(1) as f64,
        "ms",
    );
    out.push_layer(
        "wal.bytes_per_event",
        session.stats.wal_bytes as f64 / session.stats.events_logged.max(1) as f64,
        "B",
    );

    // Recovery: open a copy of the run's WAL.
    let copy = ctx.work.join("wal-copy");
    copy_dir(wal, &copy).map_err(|e| format!("copy WAL: {e}"))?;
    let tenant_dir = copy.join("tenants").join(TENANT);
    let span = tr.begin("recovery.open", 0);
    let (_, recovered) =
        Wal::open(WalConfig::new(&tenant_dir)).map_err(|e| format!("open WAL copy: {e}"))?;
    tr.end(span);
    out.push_layer("recovery.open_ms", tr.total_ms("recovery.open"), "ms");
    out.push_layer("recovery.records", recovered.records.len() as f64, "count");

    // server::server: CPU per accepted event and its refusal counters.
    out.push_layer(
        "server.cpu_us_per_event",
        session.server.cpu.as_secs_f64() * 1e6 / session.stats.observed.max(1) as f64,
        "us",
    );
    out.push_layer("server.rejected", session.stats.rejected as f64, "count");
    out.push_layer(
        "server.duplicates",
        session.stats.duplicates as f64,
        "count",
    );
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
