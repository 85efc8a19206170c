//! The daemon: acceptor, connection threads, the bounded admission
//! queue, resident crash-safe workers, and the respawn monitor.
//!
//! Thread anatomy:
//!
//! * **acceptor** — accepts connections until drain; each connection gets
//!   one thread that reads its request lines and answers what needs no
//!   worker (`busy`, `draining`, `parse`, `line_too_long`, `stats`,
//!   `shutdown`) itself.
//! * **workers** — pop jobs, execute under `catch_unwind`, write exactly
//!   one response per job. A panicking job (chaos kill or a genuine bug)
//!   still answers — `worker_killed` — and only then does the thread die.
//! * **monitor** — respawns dead workers while the server is live;
//!   accounts worker exits during drain and ends when the last one is
//!   gone.
//!
//! Every reply goes straight to the socket: whoever has it (a worker, the
//! connection thread, or drain rejecting the backlog) writes the whole
//! line under the connection's lock (`Conn`), so lines never
//! interleave and nothing queues behind the socket. A client that does
//! not take a line within [`WRITE_TIMEOUT`] is cut off.
//!
//! Backpressure is the client's problem by design: a full queue answers
//! `busy {retry_after_ms}` immediately and nothing server-side blocks or
//! buffers unboundedly.

use std::io::{BufRead, BufReader, ErrorKind, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use majc_obs::{Class, JobSpan};

use crate::chaos::{ChaosKill, ChaosPlan};
use crate::jobs::ExecCtx;
use crate::proto::{JobSpec, Request, Response, Status, Val};
use crate::queue::{BoundedQueue, PushErr};
use crate::telemetry::{spans_to_perfetto, Telemetry};

/// Cold-start backoff for a full queue: one millisecond per occupied
/// slot. A pure function of capacity, so two runs of the same load
/// against the same config see identical `busy` responses until the
/// first job retires (after which [`derive_retry_after_ms`] has a
/// measured drain rate to work from).
pub fn retry_after_ms(queue_capacity: usize) -> u64 {
    (queue_capacity as u64).max(1)
}

/// Backoff derived from the measured drain rate: estimated time for
/// `workers` to retire the current backlog (`depth` queued plus one in
/// service) at the mean observed service time, clamped to 1ms..10s.
/// Falls back to the cold-start [`retry_after_ms`] constant until at
/// least one job has retired.
pub fn derive_retry_after_ms(
    depth: usize,
    capacity: usize,
    drained_jobs: u64,
    service_us_total: u64,
    workers: usize,
) -> u64 {
    if drained_jobs == 0 {
        return retry_after_ms(capacity);
    }
    let mean_service_us = (service_us_total / drained_jobs).max(1);
    let backlog = depth as u64 + 1;
    let est_us = backlog.saturating_mul(mean_service_us) / (workers.max(1) as u64);
    est_us.div_ceil(1000).clamp(1, 10_000)
}

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    pub workers: usize,
    pub queue_depth: usize,
    pub chaos: Option<ChaosPlan>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { workers: 4, queue_depth: 64, chaos: None }
    }
}

/// Monotonic counters, exported by the `stats` request.
#[derive(Default)]
pub struct Counters {
    pub admitted: AtomicU64,
    pub ok: AtomicU64,
    pub failed: AtomicU64,
    pub rejected: AtomicU64,
    pub busy: AtomicU64,
    pub drain_rejected: AtomicU64,
    pub parse_errors: AtomicU64,
    pub panics: AtomicU64,
    pub respawns: AtomicU64,
    /// Responses whose client had already disconnected.
    pub abandoned: AtomicU64,
    /// Panics that were seeded chaos kills (subset of `panics`); after
    /// the monitor settles, `respawns` must equal this exactly.
    pub chaos_kills: AtomicU64,
    /// Worker threads ever started (initial pool + respawns); doubles
    /// as the respawn-generation allocator.
    pub workers_spawned: AtomicU64,
    /// `seq + 1` of the most recent chaos-killed job (0 = none yet).
    pub last_kill_seq: AtomicU64,
}

/// A plain snapshot of [`Counters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    pub admitted: u64,
    pub ok: u64,
    pub failed: u64,
    pub rejected: u64,
    pub busy: u64,
    pub drain_rejected: u64,
    pub parse_errors: u64,
    pub panics: u64,
    pub respawns: u64,
    pub abandoned: u64,
    pub chaos_kills: u64,
    pub workers_spawned: u64,
    /// `seq + 1` of the most recent chaos kill; 0 means none happened.
    pub last_kill_seq: u64,
}

impl Counters {
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            admitted: self.admitted.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            drain_rejected: self.drain_rejected.load(Ordering::Relaxed),
            parse_errors: self.parse_errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
            chaos_kills: self.chaos_kills.load(Ordering::Relaxed),
            workers_spawned: self.workers_spawned.load(Ordering::Relaxed),
            last_kill_seq: self.last_kill_seq.load(Ordering::Relaxed),
        }
    }
}

impl CounterSnapshot {
    /// Every counter as a `(name, value)` pair, in the order the `stats`
    /// verb and the load report's `server` object print them.
    pub fn fields(&self) -> [(&'static str, u64); 13] {
        [
            ("admitted", self.admitted),
            ("ok", self.ok),
            ("failed", self.failed),
            ("rejected", self.rejected),
            ("busy", self.busy),
            ("drain_rejected", self.drain_rejected),
            ("parse_errors", self.parse_errors),
            ("panics", self.panics),
            ("respawns", self.respawns),
            ("abandoned", self.abandoned),
            ("chaos_kills", self.chaos_kills),
            ("workers_spawned", self.workers_spawned),
            ("last_kill_seq", self.last_kill_seq),
        ]
    }

    /// Every admitted job must end in exactly one of the terminal
    /// buckets — the server-side half of the exactly-once invariant.
    pub fn terminal(&self) -> u64 {
        self.ok + self.failed + self.rejected + self.drain_rejected
    }
}

/// One queued unit of work, carrying the connection it answers on.
struct Job {
    id: String,
    spec: JobSpec,
    conn: Arc<Conn>,
    /// Telemetry timestamp at admission (µs since server epoch).
    accept_us: u64,
    /// Queue depth observed just before this job was pushed.
    depth_at_accept: u64,
}

enum WorkerEvent {
    /// Thread died after a panic; respawn unless draining.
    Died,
    /// Thread exited normally (queue closed).
    Exited,
}

struct Shared {
    cfg: ServeConfig,
    addr: SocketAddr,
    queue: BoundedQueue<Job>,
    ctx: ExecCtx,
    counters: Counters,
    draining: AtomicBool,
    /// Worker-side job sequence; feeds the chaos plan.
    job_seq: AtomicU64,
    events: mpsc::Sender<WorkerEvent>,
    obs: Telemetry,
}

impl Shared {
    /// Begin graceful drain exactly once: stop admitting, deterministically
    /// reject the backlog in admission order, wake the acceptor.
    fn drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        for job in self.queue.close() {
            self.counters.drain_rejected.fetch_add(1, Ordering::Relaxed);
            job.conn.reply(&Response::rejected(&job.id, "drained"), &self.counters);
        }
        // The acceptor blocks in accept(); a no-op connection unblocks it
        // so it can observe the flag and exit.
        let _ = TcpStream::connect(self.addr);
    }

    /// Backoff a `busy` answer declares right now, from the measured
    /// drain rate; also published as the `busy.retry_after_ms` gauge.
    fn derived_retry_after_ms(&self) -> u64 {
        let service = &self.obs.service_us;
        let ms = derive_retry_after_ms(
            self.queue.depth(),
            self.queue.capacity(),
            service.count(),
            service.sum(),
            self.cfg.workers,
        );
        self.obs.retry_after_ms.set(ms);
        ms
    }

    fn stats_response(&self, id: &str) -> Response {
        let counters = self.counters.snapshot().fields();
        let metrics = self.obs.snapshot();
        let mut payload = vec![
            ("workers".into(), Val::U64(self.cfg.workers as u64)),
            ("queue_capacity".into(), Val::U64(self.queue.capacity() as u64)),
            ("queue_depth".into(), Val::U64(self.queue.depth() as u64)),
        ];
        payload.extend(counters.map(|(name, n)| (name.to_string(), Val::U64(n))));
        payload.extend([
            ("retry_after_ms".into(), Val::U64(self.derived_retry_after_ms())),
            ("queue_highwater".into(), Val::U64(self.queue.highwater() as u64)),
            ("spans_recorded".into(), Val::U64(self.obs.spans.len() as u64)),
            ("spans_dropped".into(), Val::U64(self.obs.spans.dropped())),
            ("cache_hits".into(), Val::U64(self.ctx.cache_hits.load(Ordering::Relaxed))),
            ("checkpoints".into(), Val::U64(self.ctx.checkpoints.len() as u64)),
            // The full registry snapshot, det/wall-sectioned, as an
            // embedded JSON document.
            ("metrics".into(), Val::Str(metrics.to_json())),
        ]);
        Response::ok(id, payload)
    }
}

/// A running daemon.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    monitor: JoinHandle<()>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn counters(&self) -> CounterSnapshot {
        self.shared.counters.snapshot()
    }

    /// Full metrics snapshot (deterministic + wall sections).
    pub fn metrics(&self) -> majc_obs::Snapshot {
        self.shared.obs.snapshot()
    }

    /// The complete registry as JSON — what `--metrics-out` writes.
    pub fn metrics_json(&self) -> String {
        self.metrics().to_json()
    }

    /// Only the deterministic section — byte-identical for identical
    /// job streams, the `cmp`-gated artifact.
    pub fn det_metrics_json(&self) -> String {
        self.metrics().det_json()
    }

    /// Every job span recorded so far, sorted by execution seq.
    pub fn job_spans(&self) -> Vec<JobSpan> {
        self.shared.obs.spans.snapshot()
    }

    /// Job spans as JSON lines.
    pub fn job_spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.job_spans() {
            out.push_str(&s.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// Job spans as a Perfetto timeline (queue-wait + worker-service
    /// slices per job).
    pub fn job_spans_perfetto(&self) -> String {
        spans_to_perfetto(&self.job_spans())
    }

    /// Programmatic graceful shutdown (same path as the `shutdown`
    /// request — the portable stand-in for SIGTERM).
    pub fn drain(&self) {
        self.shared.drain();
    }

    /// Wait for drain to complete: every worker gone, acceptor closed.
    pub fn join(self) {
        let _ = self.acceptor.join();
        let _ = self.monitor.join();
    }

    /// Drain and wait.
    pub fn shutdown(self) {
        self.drain();
        self.join();
    }

    /// Wait for shutdown (a client's `shutdown` verb, the portable
    /// SIGTERM), then hand back the final metrics snapshot and job
    /// spans — the observability the handle can no longer serve once
    /// the daemon is gone.
    pub fn join_final(self) -> (majc_obs::Snapshot, Vec<JobSpan>) {
        let shared = Arc::clone(&self.shared);
        self.join();
        let spans = shared.obs.spans.snapshot();
        (shared.obs.snapshot(), spans)
    }
}

/// Suppress backtrace spam from intentional chaos kills; everything else
/// still reaches the previous hook. Installed once per process.
fn install_quiet_kill_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ChaosKill>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Bind and start the daemon on `127.0.0.1` (port 0 = ephemeral).
pub fn start(port: u16, cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    assert!(cfg.workers > 0, "a daemon with no workers serves nothing");
    if cfg.chaos.is_some() {
        install_quiet_kill_hook();
    }
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    let (events, event_rx) = mpsc::channel();
    let shared = Arc::new(Shared {
        cfg,
        addr,
        queue: BoundedQueue::new(cfg.queue_depth),
        ctx: ExecCtx::new(),
        counters: Counters::default(),
        draining: AtomicBool::new(false),
        job_seq: AtomicU64::new(0),
        events,
        obs: Telemetry::default(),
    });

    for _ in 0..cfg.workers {
        spawn_worker(&shared);
    }
    let monitor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || monitor_loop(&shared, &event_rx))
    };
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&shared, &listener))
    };
    Ok(ServerHandle { addr, shared, acceptor, monitor })
}

fn spawn_worker(shared: &Arc<Shared>) {
    // The fetch_add result is this worker's respawn generation: the
    // initial pool takes 0..workers, every respawn gets a fresh one.
    let generation = shared.counters.workers_spawned.fetch_add(1, Ordering::SeqCst);
    let shared = Arc::clone(shared);
    std::thread::spawn(move || worker_loop(&shared, generation));
}

/// Keep the worker pool at strength: respawn after panics until drain,
/// then count the pool down to zero.
fn monitor_loop(shared: &Arc<Shared>, events: &mpsc::Receiver<WorkerEvent>) {
    let mut alive = shared.cfg.workers;
    while alive > 0 {
        match events.recv() {
            Ok(WorkerEvent::Died) => {
                if shared.draining.load(Ordering::SeqCst) {
                    alive -= 1;
                } else {
                    shared.counters.respawns.fetch_add(1, Ordering::Relaxed);
                    spawn_worker(shared);
                }
            }
            Ok(WorkerEvent::Exited) => alive -= 1,
            // All senders gone can only happen once every worker exited.
            Err(_) => break,
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, generation: u64) {
    while let Some(job) = shared.queue.pop() {
        let start_us = shared.obs.now_us();
        let seq = shared.job_seq.fetch_add(1, Ordering::SeqCst);
        let decision = shared.cfg.chaos.map(|p| p.decide(seq));
        let fault_seed = decision.and_then(|d| d.fault_seed);
        let kill = decision.is_some_and(|d| d.kill);

        // The job body owns no locks, so a panic here cannot poison
        // anything; it is caught and answered like any other failure.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if kill {
                std::panic::panic_any(ChaosKill);
            }
            shared.ctx.execute(&job.spec, fault_seed)
        }));
        let (status, died) = match outcome {
            Ok(status) => (status, false),
            Err(payload) => {
                shared.counters.panics.fetch_add(1, Ordering::Relaxed);
                let detail = if payload.downcast_ref::<ChaosKill>().is_some() {
                    shared.counters.chaos_kills.fetch_add(1, Ordering::Relaxed);
                    shared.counters.last_kill_seq.store(seq + 1, Ordering::Relaxed);
                    "chaos kill: worker thread terminated mid-job".to_string()
                } else {
                    "job panicked; worker replaced".to_string()
                };
                (Status::Failed { kind: "worker_killed".into(), detail }, true)
            }
        };
        match &status {
            Status::Ok(_) => shared.counters.ok.fetch_add(1, Ordering::Relaxed),
            Status::Failed { .. } => shared.counters.failed.fetch_add(1, Ordering::Relaxed),
            Status::Rejected { .. } => shared.counters.rejected.fetch_add(1, Ordering::Relaxed),
            Status::Busy { .. } => unreachable!("workers never emit busy"),
        };
        let end_us = shared.obs.now_us();
        let outcome_name = match &status {
            _ if died => "killed",
            Status::Ok(_) => "ok",
            Status::Failed { .. } => "failed",
            Status::Rejected { .. } => "rejected",
            Status::Busy { .. } => "busy",
        };
        shared.obs.record_job(JobSpan {
            seq,
            id: job.id.clone(),
            kind: job.spec.kind().to_string(),
            worker_gen: generation,
            queue_depth_at_accept: job.depth_at_accept,
            accept_us: job.accept_us,
            start_us,
            end_us,
            outcome: outcome_name.to_string(),
            packets: status.field("packets").and_then(Val::as_u64).unwrap_or(0),
            cycles: status.field("cycles").and_then(Val::as_u64).unwrap_or(0),
            xlate_hit: status.field("xlate_hit").and_then(Val::as_bool),
            killed: died,
        });
        job.conn.reply(&Response { id: job.id, status }, &shared.counters);
        if died {
            let _ = shared.events.send(WorkerEvent::Died);
            return;
        }
    }
    let _ = shared.events.send(WorkerEvent::Exited);
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        std::thread::spawn(move || handle_conn(&shared, stream));
    }
}

/// How long one reply line may take to reach its client. A client that
/// has not taken a whole line by then is treated as gone: its connection
/// is cut, so a client that stops reading can hold a worker (or a drain)
/// for at most this long, once. Five seconds is far beyond any loopback
/// or LAN round trip, yet short enough that a stuck client cannot pin a
/// worker for long.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The write half of one client connection, shared by its connection
/// thread and every job it has in the queue; `None` once the client is
/// gone.
struct Conn(Mutex<Option<TcpStream>>);

impl Conn {
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<TcpStream>> {
        // Nothing panics while holding the lock, and the socket it guards
        // stays usable (or `None`) whatever a holder did.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn is_open(&self) -> bool {
        self.lock().is_some()
    }

    /// Write `resp` as one whole line within [`WRITE_TIMEOUT`]. If the
    /// write fails or runs out of time the client is gone: the socket is
    /// shut down and dropped, and this reply and every later one is
    /// counted `abandoned`.
    fn reply(&self, resp: &Response, counters: &Counters) {
        let mut line = resp.to_line();
        line.push('\n');
        let mut stream = self.lock();
        let Some(s) = stream.as_mut() else {
            counters.abandoned.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if write_by(s, line.as_bytes(), Instant::now() + WRITE_TIMEOUT).is_err() {
            let _ = s.shutdown(Shutdown::Both);
            *stream = None;
            counters.abandoned.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Write all of `buf` before `deadline`. The socket's write timeout is
/// reset to the time left before every `write`, so a client taking a few
/// bytes at a time cannot stretch one line past the deadline.
fn write_by(s: &mut TcpStream, mut buf: &[u8], deadline: Instant) -> std::io::Result<()> {
    while !buf.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        s.set_write_timeout(Some(left))?;
        match s.write(buf) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else { return };
    let conn = Arc::new(Conn(Mutex::new(Some(write_half))));
    let reply = |resp: &Response| conn.reply(resp, &shared.counters);

    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    // Once a reply fails, from this thread or a worker, the client is
    // gone and the lines it left buffered are not worth answering.
    while conn.is_open() {
        match read_line_capped(&mut reader, &mut buf) {
            ReadLine::End => break,
            ReadLine::TooLong => {
                shared.obs.registry.counter("conn.line_too_long", Class::Det).inc();
                let detail = format!("request lines are capped at {MAX_LINE_BYTES} bytes");
                reply(&Response::failed("", "line_too_long", detail));
                continue;
            }
            ReadLine::Line => {}
        }
        let Ok(line) = std::str::from_utf8(&buf) else { break };
        if line.trim().is_empty() {
            continue;
        }
        let req = match Request::parse_line(line) {
            Err(e) => {
                shared.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
                reply(&Response::failed("", "parse", e));
                continue;
            }
            Ok(req) => req,
        };
        match req {
            Request::Stats { id } => reply(&shared.stats_response(&id)),
            Request::Shutdown { id } => {
                reply(&Response::ok(&id, vec![("draining".into(), Val::Bool(true))]));
                shared.drain();
            }
            Request::Job { id, spec } => {
                let job = Job {
                    id,
                    spec,
                    conn: Arc::clone(&conn),
                    accept_us: shared.obs.now_us(),
                    depth_at_accept: shared.queue.depth() as u64,
                };
                match shared.queue.try_push(job) {
                    Ok(()) => {
                        shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
                        shared.obs.queue_highwater.raise(shared.queue.highwater() as u64);
                    }
                    Err(PushErr::Full(job)) => {
                        shared.counters.busy.fetch_add(1, Ordering::Relaxed);
                        reply(&Response {
                            id: job.id,
                            status: Status::Busy {
                                retry_after_ms: shared.derived_retry_after_ms(),
                            },
                        });
                    }
                    Err(PushErr::Closed(job)) => {
                        shared.counters.drain_rejected.fetch_add(1, Ordering::Relaxed);
                        reply(&Response::rejected(&job.id, "draining"));
                    }
                }
            }
        }
    }
}

/// Longest request line a connection reads, not counting its `\n`. A
/// longer line is answered `line_too_long` and skipped a bounded read at
/// a time, so one client cannot make the daemon hold an unbounded line.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What one bounded line read found.
enum ReadLine {
    /// `buf` holds the line, without its `\n` or `\r\n`.
    Line,
    /// The line was longer than [`MAX_LINE_BYTES`] and has been skipped.
    TooLong,
    /// End of input, or a read error.
    End,
}

/// Read the next request line into `buf`, holding at most
/// [`MAX_LINE_BYTES`] + 1 bytes of it. The last line may end without a
/// newline, as with [`BufRead::lines`].
fn read_line_capped(r: &mut impl BufRead, buf: &mut Vec<u8>) -> ReadLine {
    let mut read = |buf: &mut Vec<u8>| {
        buf.clear();
        r.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', buf).unwrap_or(0)
    };
    if read(buf) == 0 {
        return ReadLine::End;
    }
    if buf.last() != Some(&b'\n') && buf.len() > MAX_LINE_BYTES {
        // Skip through the newline, one bounded read at a time.
        while read(buf) > 0 && buf.last() != Some(&b'\n') {}
        return ReadLine::TooLong;
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    ReadLine::Line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_backoff_falls_back_until_a_job_retires() {
        assert_eq!(derive_retry_after_ms(8, 8, 0, 0, 4), retry_after_ms(8));
        assert_eq!(derive_retry_after_ms(0, 1, 0, 0, 1), retry_after_ms(1));
    }

    #[test]
    fn derived_backoff_scales_with_backlog_and_drain_rate() {
        // 10 jobs retired in 200ms total -> 20ms each; backlog of 3+1
        // across 2 workers -> 40ms.
        assert_eq!(derive_retry_after_ms(3, 8, 10, 200_000, 2), 40);
        // Twice the workers, half the wait.
        assert_eq!(derive_retry_after_ms(3, 8, 10, 200_000, 4), 20);
        // Faster service, shorter backoff.
        assert_eq!(derive_retry_after_ms(3, 8, 10, 20_000, 2), 4);
    }

    #[test]
    fn derived_backoff_is_clamped_to_sane_bounds() {
        // Sub-millisecond estimates still ask for at least 1ms.
        assert_eq!(derive_retry_after_ms(0, 8, 100, 100, 4), 1);
        // Pathological service times cap at 10s.
        assert_eq!(derive_retry_after_ms(64, 64, 1, u64::MAX / 128, 1), 10_000);
        // Zero workers is treated as one, not a divide-by-zero.
        assert_eq!(derive_retry_after_ms(1, 8, 2, 4_000, 0), 4);
    }
}
