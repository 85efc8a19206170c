//! End-to-end daemon tests over real sockets: every job kind, the
//! watchdog-backed deadline path, backpressure, graceful drain, and
//! checkpoint/resume digest equality — including resuming a func-engine
//! checkpoint on the cycle engine (both execute the same translated
//! micro-ops, so the architectural digest must agree).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::time::{Duration, Instant};

use majc_serve::{
    server, Client, Engine, JobSpec, Request, Response, ServeConfig, SimSpec, Status, Val,
};

fn start(workers: usize, queue_depth: usize) -> server::ServerHandle {
    server::start(0, ServeConfig { workers, queue_depth, chaos: None }).expect("bind localhost")
}

fn job(id: &str, spec: JobSpec) -> Request {
    Request::Job { id: id.into(), spec }
}

fn sim_kernel(name: &str, engine: Engine, budget: u64) -> JobSpec {
    JobSpec::Simulate(SimSpec {
        kernel: Some(name.into()),
        source: None,
        engine,
        budget,
        checkpoint: false,
        resume: None,
    })
}

fn ok_fields(resp: &Response) -> &[(String, Val)] {
    match &resp.status {
        Status::Ok(fields) => fields,
        other => panic!("expected ok, got {other:?} (id {})", resp.id),
    }
}

fn field_str<'a>(resp: &'a Response, name: &str) -> &'a str {
    resp.field(name).and_then(Val::as_str).unwrap_or_else(|| panic!("missing {name}: {resp:?}"))
}

/// A countdown nest: `outer * 30_000 * 2 + outer * 2 + 2` packets, no
/// memory traffic — slow enough to hold a worker busy in debug builds.
fn slow_source(outer: u32) -> String {
    format!(
        "setlo g2, {outer}\n\
         outer: setlo g1, 30000\n\
         inner: sub g1, g1, 1\n\
         br.gt.t g1, inner\n\
         sub g2, g2, 1\n\
         br.gt.t g2, outer\n\
         halt\n"
    )
}

/// `slow_source` outer count that holds a worker for about two seconds in
/// either build profile: far longer than the `stats` polls of
/// `wait_for_queue`, so the occupied worker cannot free up mid-test.
const OCCUPY_OUTER: u32 = if cfg!(debug_assertions) { 150 } else { 1000 };

/// Poll the `stats` verb on `probe` (a connection of its own) until the
/// server has admitted `admitted` jobs and its queue holds `depth` of
/// them. With every admitted job but `depth` popped, this is how a test
/// knows the worker took a job, instead of guessing with a sleep.
fn wait_for_queue(probe: &mut Client, admitted: u64, depth: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let r = probe.request(&Request::Stats { id: "probe".into() }).unwrap();
        let stat = |name| r.field(name).and_then(Val::as_u64).expect("stats field");
        let now = (stat("admitted"), stat("queue_depth"));
        if now == (admitted, depth) {
            return;
        }
        assert!(Instant::now() < deadline, "queue never reached {:?}: {now:?}", (admitted, depth));
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn slow_job(id: &str, outer: u32) -> Request {
    job(
        id,
        JobSpec::Simulate(SimSpec {
            kernel: None,
            source: Some(slow_source(outer)),
            engine: Engine::Func,
            budget: 1_000_000_000,
            checkpoint: false,
            resume: None,
        }),
    )
}

#[test]
fn every_job_kind_round_trips() {
    let handle = start(2, 16);
    let mut c = Client::connect(handle.addr()).unwrap();

    // Assemble: second submission of identical source hits the cache.
    let src = "setlo g1, 41\nadd g1, g1, 1\nhalt\n";
    let r = c.request(&job("a1", JobSpec::Assemble { source: src.into() })).unwrap();
    assert_eq!(r.id, "a1");
    assert_eq!(r.field("packets").and_then(Val::as_u64), Some(3));
    let r2 = c.request(&job("a2", JobSpec::Assemble { source: src.into() })).unwrap();
    assert_eq!(r2.field("cached"), Some(&Val::Bool(true)));

    // Assemble failure is structured, not fatal.
    let r = c.request(&job("a3", JobSpec::Assemble { source: "warp 9\n".into() })).unwrap();
    assert!(matches!(&r.status, Status::Failed { kind, .. } if kind == "asm"), "{r:?}");

    // Lint.
    let r = c.request(&job("l1", JobSpec::Lint { source: src.into(), strict: false })).unwrap();
    assert_eq!(r.field("clean"), Some(&Val::Bool(true)), "{r:?}");

    // Simulate a suite kernel on both engines; func digest is stable.
    let r = c.request(&job("s1", sim_kernel("fir", Engine::Func, 10_000_000))).unwrap();
    assert_eq!(r.field("halted"), Some(&Val::Bool(true)), "{r:?}");
    let d1 = field_str(&r, "digest").to_string();
    let r = c.request(&job("s2", sim_kernel("fir", Engine::Func, 10_000_000))).unwrap();
    assert_eq!(field_str(&r, "digest"), d1, "same kernel, same digest");
    let r = c.request(&job("s3", sim_kernel("biquad", Engine::Cycle, 50_000_000))).unwrap();
    assert!(r.field("cycles").and_then(Val::as_u64).unwrap() > 0, "{r:?}");

    // Unknown kernel: deterministic rejection.
    let r = c.request(&job("s4", sim_kernel("warp-core", Engine::Func, 1_000))).unwrap();
    assert!(matches!(&r.status, Status::Rejected { reason } if reason.contains("warp-core")));

    // Fuzz.
    let r = c.request(&job("f1", JobSpec::Fuzz { seed: 11, budget: 20_000 })).unwrap();
    assert_eq!(r.field("diverged"), Some(&Val::Bool(false)), "{r:?}");

    // Stats sees the traffic.
    let r = c.request(&Request::Stats { id: "st".into() }).unwrap();
    let admitted = r.field("admitted").and_then(Val::as_u64).unwrap();
    assert!(admitted >= 8, "stats counted {admitted} admissions");
    assert!(ok_fields(&r).iter().any(|(k, _)| k == "queue_capacity"));

    handle.shutdown();
}

#[test]
fn deadline_turns_runaway_programs_into_structured_hang() {
    let handle = start(1, 4);
    let mut c = Client::connect(handle.addr()).unwrap();
    let spin = "spin: setlo g1, 1\nbr.gt.t g1, spin\nhalt\n";
    for (id, engine, budget) in [("h1", Engine::Func, 5_000), ("h2", Engine::Cycle, 5_000)] {
        let r = c
            .request(&job(
                id,
                JobSpec::Simulate(SimSpec {
                    kernel: None,
                    source: Some(spin.into()),
                    engine,
                    budget,
                    checkpoint: false,
                    resume: None,
                }),
            ))
            .unwrap();
        match &r.status {
            Status::Failed { kind, detail } => {
                assert_eq!(kind, "hang", "{engine:?}: {detail}");
                assert!(detail.contains("0x"), "hang names the stuck pc: {detail}");
            }
            other => panic!("{engine:?}: expected hang, got {other:?}"),
        }
    }
    // The worker survived both hangs and still serves.
    let r = c.request(&job("after", sim_kernel("maxsearch", Engine::Func, 1_000_000))).unwrap();
    assert_eq!(r.field("halted"), Some(&Val::Bool(true)), "{r:?}");
    handle.shutdown();
}

#[test]
fn full_queue_answers_busy_with_declared_backoff() {
    let handle = start(1, 1);
    let mut c = Client::connect(handle.addr()).unwrap();
    let mut probe = Client::connect(handle.addr()).unwrap();

    // Occupy the single worker, then the single queue slot.
    c.send(&slow_job("occupy", OCCUPY_OUTER)).unwrap();
    wait_for_queue(&mut probe, 1, 0); // worker popped it
    c.send(&slow_job("queued", 1)).unwrap();
    wait_for_queue(&mut probe, 2, 1); // it sits in the queue
    c.send(&job("turned-away", JobSpec::Fuzz { seed: 1, budget: 100 })).unwrap();

    // The busy answer comes from the connection thread immediately; the
    // two slow jobs complete later. Collect all three by id.
    let mut statuses = std::collections::HashMap::new();
    for _ in 0..3 {
        let r = c.recv().unwrap();
        statuses.insert(r.id.clone(), r.status);
    }
    match &statuses["turned-away"] {
        Status::Busy { retry_after_ms } => {
            assert_eq!(*retry_after_ms, majc_serve::retry_after_ms(1), "declared backoff");
        }
        other => panic!("expected busy, got {other:?}"),
    }
    assert!(matches!(statuses["occupy"], Status::Ok(_)));
    assert!(matches!(statuses["queued"], Status::Ok(_)));

    // After the storm, a retry is admitted.
    let r = c.request(&job("retry", JobSpec::Fuzz { seed: 1, budget: 100 })).unwrap();
    assert!(matches!(r.status, Status::Ok(_)), "{r:?}");
    handle.shutdown();
}

#[test]
fn graceful_drain_finishes_inflight_and_rejects_backlog() {
    let handle = start(1, 4);
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();

    // One long job in flight, two queued behind it.
    a.send(&slow_job("inflight", OCCUPY_OUTER)).unwrap();
    wait_for_queue(&mut b, 1, 0);
    a.send(&slow_job("backlog-1", 1)).unwrap();
    a.send(&slow_job("backlog-2", 1)).unwrap();
    wait_for_queue(&mut b, 3, 2);

    // Shutdown arrives on a second connection (like an operator would).
    let r = b.request(&Request::Shutdown { id: "op".into() }).unwrap();
    assert!(matches!(r.status, Status::Ok(_)));

    let mut statuses = std::collections::HashMap::new();
    for _ in 0..3 {
        let r = a.recv().unwrap();
        statuses.insert(r.id.clone(), r.status);
    }
    assert!(
        matches!(statuses["inflight"], Status::Ok(_)),
        "in-flight work finishes: {:?}",
        statuses["inflight"]
    );
    for id in ["backlog-1", "backlog-2"] {
        assert!(
            matches!(&statuses[id], Status::Rejected { reason } if reason == "drained"),
            "{id}: {:?}",
            statuses[id]
        );
    }

    // Jobs submitted on a surviving connection during drain are refused.
    a.send(&job("late", JobSpec::Fuzz { seed: 2, budget: 100 })).unwrap();
    let r = a.recv().unwrap();
    assert!(matches!(&r.status, Status::Rejected { reason } if reason == "draining"), "{r:?}");

    let drained = handle.counters();
    assert_eq!(drained.drain_rejected, 3, "two backlog + one late");
    handle.join(); // terminates: workers exited, acceptor woken
}

#[test]
fn checkpoint_resume_replays_to_identical_digests() {
    let handle = start(2, 8);
    let mut c = Client::connect(handle.addr()).unwrap();
    let src = slow_source(2); // ~120k packets, no memory traffic

    // Uninterrupted reference digest.
    let whole = c
        .request(&job(
            "whole",
            JobSpec::Simulate(SimSpec {
                kernel: None,
                source: Some(src.clone()),
                engine: Engine::Func,
                budget: 100_000_000,
                checkpoint: false,
                resume: None,
            }),
        ))
        .unwrap();
    let want = field_str(&whole, "digest").to_string();

    // Phase 1: stop at a packet boundary mid-run and checkpoint.
    let phase1 = c
        .request(&job(
            "phase1",
            JobSpec::Simulate(SimSpec {
                kernel: None,
                source: Some(src.clone()),
                engine: Engine::Func,
                budget: 10_000,
                checkpoint: true,
                resume: None,
            }),
        ))
        .unwrap();
    assert_eq!(phase1.field("halted"), Some(&Val::Bool(false)), "{phase1:?}");
    let ckpt = field_str(&phase1, "checkpoint").to_string();

    // Phase 2, twice: resume must be deterministic and match the
    // uninterrupted digest.
    for id in ["resume-a", "resume-b"] {
        let r = c
            .request(&job(
                id,
                JobSpec::Simulate(SimSpec {
                    kernel: None,
                    source: Some(src.clone()),
                    engine: Engine::Func,
                    budget: 100_000_000,
                    checkpoint: false,
                    resume: Some(ckpt.clone()),
                }),
            ))
            .unwrap();
        assert_eq!(r.field("halted"), Some(&Val::Bool(true)), "{r:?}");
        assert_eq!(field_str(&r, "digest"), want, "{id}: split run diverged");
    }

    // Cross-engine: the cycle engine resumes the same checkpoint to the
    // same architectural digest (timing differs, architecture cannot).
    let r = c
        .request(&job(
            "resume-cycle",
            JobSpec::Simulate(SimSpec {
                kernel: None,
                source: Some(src.clone()),
                engine: Engine::Cycle,
                budget: 1_000_000_000,
                checkpoint: false,
                resume: Some(ckpt.clone()),
            }),
        ))
        .unwrap();
    assert_eq!(field_str(&r, "digest"), want, "cycle-engine resume diverged: {r:?}");

    // Unknown checkpoint ids are structured failures.
    let r = c
        .request(&job(
            "bad-resume",
            JobSpec::Simulate(SimSpec {
                kernel: None,
                source: Some(src),
                engine: Engine::Func,
                budget: 1_000,
                checkpoint: false,
                resume: Some("feedfacefeedface".into()),
            }),
        ))
        .unwrap();
    assert!(matches!(&r.status, Status::Failed { kind, .. } if kind == "bad_request"), "{r:?}");

    handle.shutdown();
}

#[test]
fn det_metrics_are_identical_for_identical_job_sequences() {
    // Two fresh servers running the same serial job sequence must produce
    // byte-identical deterministic metric sections — the contract that
    // lets CI cmp the det report. (The wall-clock section is free to
    // differ; det_metrics_json excludes it.)
    let run = || {
        let handle = start(1, 8);
        let mut c = Client::connect(handle.addr()).unwrap();
        for (id, kernel) in [("m1", "fir"), ("m2", "biquad"), ("m3", "fir")] {
            let r = c.request(&job(id, sim_kernel(kernel, Engine::Func, 10_000_000))).unwrap();
            assert!(matches!(r.status, Status::Ok(_)), "{r:?}");
        }
        let r = c.request(&job("m4", JobSpec::Fuzz { seed: 5, budget: 20_000 })).unwrap();
        assert!(matches!(r.status, Status::Ok(_)), "{r:?}");
        let det = handle.det_metrics_json();
        handle.shutdown();
        det
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "det metric sections diverged across identical runs");
    assert!(a.contains("\"jobs.total\":4"), "{a}");
    assert!(a.contains("\"jobs.kind.simulate\":3"), "{a}");
    assert!(a.contains("\"engine.packets.per_job\""), "{a}");
}

#[test]
fn stats_verb_carries_the_metrics_snapshot() {
    let handle = start(1, 4);
    let mut c = Client::connect(handle.addr()).unwrap();
    let r = c.request(&job("warm", sim_kernel("fir", Engine::Func, 10_000_000))).unwrap();
    assert!(matches!(r.status, Status::Ok(_)), "{r:?}");

    let metrics = c.stats_metrics_json().unwrap();
    assert!(metrics.contains("\"deterministic\""), "{metrics}");
    assert!(metrics.contains("\"nondeterministic\""), "{metrics}");
    assert!(metrics.contains("\"jobs.total\":1"), "{metrics}");

    // The plain stats verb also reports the derived backoff and queue
    // high-water mark alongside the legacy counters.
    let r = c.request(&Request::Stats { id: "st".into() }).unwrap();
    for field in ["retry_after_ms", "queue_highwater", "workers_spawned", "spans_recorded"] {
        assert!(ok_fields(&r).iter().any(|(k, _)| k == field), "missing {field}: {r:?}");
    }
    handle.shutdown();
}

#[test]
fn job_spans_cover_the_lifecycle_and_export_to_perfetto() {
    let handle = start(2, 8);
    let mut c = Client::connect(handle.addr()).unwrap();
    for (id, kernel) in [("sp1", "fir"), ("sp2", "biquad")] {
        let r = c.request(&job(id, sim_kernel(kernel, Engine::Func, 10_000_000))).unwrap();
        assert!(matches!(r.status, Status::Ok(_)), "{r:?}");
    }

    let spans = handle.job_spans();
    assert_eq!(spans.len(), 2, "one span per executed job");
    for s in &spans {
        assert!(s.accept_us <= s.start_us, "accepted before started: {s:?}");
        assert!(s.start_us <= s.end_us, "started before ended: {s:?}");
        assert_eq!(s.outcome, "ok", "{s:?}");
        assert!(s.packets > 0, "{s:?}");
        assert!(s.xlate_hit.is_some(), "func jobs report cache attribution: {s:?}");
    }

    let trace = handle.job_spans_perfetto();
    let events = majc_core::validate_perfetto(&trace).expect("span trace validates");
    assert!(events >= 4, "queue.wait + exec slices per job, got {events}");
    assert!(trace.contains("\"queue.wait\""), "admission stage visible");
    assert!(trace.contains("\"exec.simulate\""), "engine stage visible");

    let jsonl = handle.job_spans_jsonl();
    assert_eq!(jsonl.lines().count(), 2);
    assert!(jsonl.lines().all(|l| l.starts_with("{\"seq\":")), "{jsonl}");
    handle.shutdown();
}

#[test]
fn garbled_lines_get_structured_parse_failures() {
    let handle = start(1, 4);
    let mut c = Client::connect(handle.addr()).unwrap();
    c.send_raw(b"}}} not json at all\n").unwrap();
    let r = c.recv().unwrap();
    assert_eq!(r.id, "", "parse failures carry a null id");
    assert!(matches!(&r.status, Status::Failed { kind, .. } if kind == "parse"), "{r:?}");

    // Nesting far past the parser's depth cap is rejected as a parse
    // failure instead of overflowing the connection thread's stack.
    let mut deep = vec![b'['; 100_000];
    deep.push(b'\n');
    c.send_raw(&deep).unwrap();
    let r = c.recv().unwrap();
    assert!(matches!(&r.status, Status::Failed { kind, .. } if kind == "parse"), "{r:?}");

    // The connection survives garbage.
    let r = c.request(&job("after-garbage", JobSpec::Fuzz { seed: 3, budget: 100 })).unwrap();
    assert!(matches!(r.status, Status::Ok(_)), "{r:?}");
    assert_eq!(handle.counters().parse_errors, 2);
    handle.shutdown();
}

#[test]
fn an_overlong_line_is_answered_and_the_connection_keeps_serving() {
    let handle = start(1, 4);
    let mut c = Client::connect(handle.addr()).unwrap();
    // A job padded to exactly the cap is still served.
    let mut at_cap = job("at-cap", JobSpec::Fuzz { seed: 3, budget: 100 }).to_line().into_bytes();
    at_cap.resize(server::MAX_LINE_BYTES, b' ');
    at_cap.push(b'\n');
    c.send_raw(&at_cap).unwrap();
    let r = c.recv().unwrap();
    assert_eq!(r.id, "at-cap");
    assert!(matches!(r.status, Status::Ok(_)), "{r:?}");

    let mut huge = vec![b'x'; 2 << 20];
    huge.push(b'\n');
    c.send_raw(&huge).unwrap();
    let r = c.recv().unwrap();
    assert_eq!(r.id, "", "the line is never parsed, so it has no id");
    assert!(matches!(&r.status, Status::Failed { kind, .. } if kind == "line_too_long"), "{r:?}");

    let r = c.request(&job("after-huge", JobSpec::Fuzz { seed: 3, budget: 100 })).unwrap();
    assert_eq!(r.id, "after-huge");
    assert!(matches!(r.status, Status::Ok(_)), "{r:?}");
    assert_eq!(handle.counters().parse_errors, 0, "skipped, not parsed");
    let counted = handle.metrics().get("conn.line_too_long").and_then(|v| v.as_u64());
    assert_eq!(counted, Some(1));
    assert!(handle.det_metrics_json().contains("\"conn.line_too_long\":1"));

    // An overlong last line that ends at end of input, not at a newline.
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(&vec![b'y'; 3 * server::MAX_LINE_BYTES]).unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    BufReader::new(raw).read_line(&mut reply).unwrap();
    let r = Response::parse_line(&reply).unwrap();
    assert!(matches!(&r.status, Status::Failed { kind, .. } if kind == "line_too_long"), "{r:?}");
    handle.shutdown();
}

/// A client that closes with jobs in flight: every reply the writer
/// cannot deliver is counted `abandoned`, including the one whose write
/// failed and those queued behind it.
#[test]
fn replies_to_a_closed_connection_are_all_counted_abandoned() {
    let handle = start(1, 4);
    let mut c = Client::connect(handle.addr()).unwrap();
    let mut probe = Client::connect(handle.addr()).unwrap();

    c.send(&slow_job("inflight", OCCUPY_OUTER)).unwrap();
    wait_for_queue(&mut probe, 1, 0);
    c.send(&slow_job("queued-1", 1)).unwrap();
    c.send(&slow_job("queued-2", 1)).unwrap();
    wait_for_queue(&mut probe, 3, 2);
    drop(c);

    // The first reply after the close may still be written; the socket
    // fails on the next one, and that reply and the one after it are
    // dropped. Each is counted as its job finishes, so poll.
    let deadline = Instant::now() + Duration::from_secs(60);
    let settled = |n: server::CounterSnapshot| n.ok == 3 && n.abandoned >= 2;
    while !settled(handle.counters()) {
        assert!(Instant::now() < deadline, "replies not counted: {:?}", handle.counters());
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.drain();
    assert!(settled(handle.counters()), "{:?}", handle.counters());
    handle.join();
}

/// A client that sends requests and never reads a reply: once the socket
/// buffers are full, the daemon gives up on the reply it is writing
/// within its write deadline, counts it `abandoned`, and closes the
/// connection, while other clients are served and drain still completes.
#[test]
fn a_client_that_never_reads_is_cut_off_within_the_write_deadline() {
    let handle = start(1, 4);
    let mut hog = std::net::TcpStream::connect(handle.addr()).unwrap();
    hog.set_write_timeout(Some(Duration::from_millis(100))).unwrap();

    // Each `stats` reply is ~4 KiB. Send until the daemon stops reading
    // (our write blocks), it cuts us off, or far more replies than the
    // loopback buffers hold are owed.
    let batch: String =
        (0..256).map(|i| Request::Stats { id: format!("s{i}") }.to_line() + "\n").collect();
    let mut sent = 0;
    while sent < 20_000 && handle.counters().abandoned == 0 {
        if hog.write_all(batch.as_bytes()).is_err() {
            break;
        }
        sent += 256;
    }
    let stopped = Instant::now();

    // Another client is served while the hog's reply is stuck.
    let mut c = Client::connect(handle.addr()).unwrap();
    let r = c.request(&job("other", sim_kernel("fir", Engine::Func, 10_000_000))).unwrap();
    assert_eq!(r.field("halted"), Some(&Val::Bool(true)), "{r:?}");

    let deadline = stopped + server::WRITE_TIMEOUT + Duration::from_secs(5);
    while handle.counters().abandoned == 0 {
        assert!(
            Instant::now() < deadline,
            "never cut off after {sent} lines: {:?}",
            handle.counters()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The hog reads whatever replies made it into its buffers, then the
    // end of the stream: the daemon closed the connection.
    hog.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = vec![0u8; 1 << 16];
    loop {
        match hog.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                panic!("the daemon kept the connection open: {e}")
            }
            // A reset also ends the stream: the daemon closed with our
            // unread requests still in its buffer.
            Err(_) => break,
        }
    }
    handle.shutdown();
}

/// One connection with replies from several writers at once: two workers
/// answer jobs while the connection thread answers `stats` and garbage.
/// Every line must arrive whole, and every request answered exactly once.
#[test]
fn pipelined_replies_from_every_writer_arrive_whole() {
    let handle = start(2, 64);
    let mut c = Client::connect(handle.addr()).unwrap();
    let mut pipeline = Vec::new();
    for i in 0..64 {
        let spec = match i % 3 {
            0 => JobSpec::Fuzz { seed: i, budget: 2_000 },
            1 => sim_kernel("maxsearch", Engine::Func, 1_000_000),
            _ => JobSpec::Assemble { source: format!("setlo g1, {i}\nhalt\n") },
        };
        pipeline.extend(job(&format!("j{i}"), spec).to_line().into_bytes());
        pipeline.push(b'\n');
        if i % 4 == 0 {
            pipeline.extend(Request::Stats { id: format!("st{i}") }.to_line().into_bytes());
            pipeline.push(b'\n');
        }
        if i % 8 == 0 {
            pipeline.extend_from_slice(b"{\"id\": not json\n");
        }
    }
    c.send_raw(&pipeline).unwrap();

    let (jobs, stats, garbage) = (64, 16, 8);
    let mut seen: HashMap<String, u32> = HashMap::new();
    for _ in 0..jobs + stats + garbage {
        let r = c.recv().expect("every reply line parses");
        match &r.status {
            Status::Failed { kind, .. } if r.id.is_empty() => assert_eq!(kind, "parse"),
            Status::Ok(_) => {}
            other => panic!("{}: {other:?}", r.id),
        }
        *seen.entry(r.id).or_default() += 1;
    }
    assert_eq!(seen.remove(""), Some(garbage), "one parse failure per garbage line");
    assert_eq!(seen.len(), jobs as usize + stats as usize, "{seen:?}");
    assert!(seen.values().all(|&n| n == 1), "a request answered twice: {seen:?}");
    for i in 0..64 {
        assert!(seen.contains_key(&format!("j{i}")), "job j{i} never answered");
    }
    assert_eq!(handle.counters().abandoned, 0);
    handle.shutdown();
}
