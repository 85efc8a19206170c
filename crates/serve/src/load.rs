//! The chaos load harness: many concurrent clients, seeded job mixes,
//! client-side sabotage, and the exactly-once ledger.
//!
//! Each client thread drives its own connection with one pipelined job
//! outstanding, matching responses by id, so the harness can *prove*
//! delivery rather than assume ordering: a job is **lost** if its
//! response never arrives (bounded by a generous read timeout), and a
//! response is **duplicated** if its id was already answered. The soak
//! invariant — zero lost, zero duplicated — is checked per run and is
//! the deterministic portion of the load report; latency percentiles and
//! throughput ride in the full report only, since wall clock is not
//! reproducible.
//!
//! Client-side sabotage (all seeded): dropping a connection with a job
//! in flight (the server's response hits a dead socket and is counted
//! `abandoned` there, not lost here — the client chose to walk away),
//! and garbling lines (the server answers a structured parse failure
//! with a null id).

use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use majc_isa::SplitMix64;

use crate::client::Client;
use crate::proto::{Engine, JobSpec, Request, Response, SimSpec, Status, Val};
use crate::server::CounterSnapshot;

/// Load generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct LoadCfg {
    pub clients: usize,
    pub jobs_per_client: usize,
    pub seed: u64,
    /// Per-mille of jobs submitted and then deliberately abandoned by
    /// dropping the connection before reading the response.
    pub drop_per_mille: u16,
    /// Per-mille of jobs preceded by a garbled (non-JSON) line.
    pub garble_per_mille: u16,
    /// Busy rounds tolerated per job before giving up.
    pub max_busy_retries: u32,
    /// How long to wait for one response before declaring it lost.
    pub lost_timeout: Duration,
}

impl Default for LoadCfg {
    fn default() -> LoadCfg {
        LoadCfg {
            clients: 8,
            jobs_per_client: 50,
            seed: 1,
            drop_per_mille: 15,
            garble_per_mille: 15,
            max_busy_retries: 200,
            lost_timeout: Duration::from_secs(60),
        }
    }
}

/// Fast kernels the load mix simulates (all sub-megacycle in debug).
const LOAD_KERNELS: &[&str] = &["biquad", "fir", "maxsearch", "lms"];

/// The aggregated outcome of one load run.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    // Config echo.
    pub clients: u64,
    pub jobs_per_client: u64,
    pub seed: u64,
    // Client-side terminal tallies.
    pub ok: u64,
    pub failed: u64,
    pub rejected: u64,
    pub gave_up: u64,
    pub busy_rounds: u64,
    pub dropped_inflight: u64,
    pub garbled_sent: u64,
    pub garbled_acked: u64,
    // Exactly-once ledger.
    pub lost: u64,
    pub duplicated: u64,
    pub wrong_id: u64,
    // Wall-clock measures (full report only; not deterministic).
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    pub wall_ms: u64,
    pub jobs_per_sec: u64,
    /// Server counters observed after the run (before any drain).
    pub server: CounterSnapshot,
}

impl LoadReport {
    /// Every awaited job answered exactly once.
    pub fn exactly_once(&self) -> bool {
        self.lost == 0 && self.duplicated == 0 && self.wrong_id == 0
    }

    /// Jobs that reached a terminal answer the client observed.
    pub fn terminal(&self) -> u64 {
        self.ok + self.failed + self.rejected
    }

    /// The full report (includes non-deterministic latency/throughput).
    pub fn to_json(&self) -> String {
        let server: Vec<String> =
            self.server.fields().iter().map(|(name, n)| format!("\"{name}\":{n}")).collect();
        format!(
            "{{\"clients\":{},\"jobs_per_client\":{},\"seed\":{},\
             \"ok\":{},\"failed\":{},\"rejected\":{},\"gave_up\":{},\"busy_rounds\":{},\
             \"dropped_inflight\":{},\"garbled_sent\":{},\"garbled_acked\":{},\
             \"lost\":{},\"duplicated\":{},\"wrong_id\":{},\"exactly_once\":{},\
             \"p50_us\":{},\"p99_us\":{},\"max_us\":{},\"wall_ms\":{},\"jobs_per_sec\":{},\
             \"server\":{{{}}}}}",
            self.clients,
            self.jobs_per_client,
            self.seed,
            self.ok,
            self.failed,
            self.rejected,
            self.gave_up,
            self.busy_rounds,
            self.dropped_inflight,
            self.garbled_sent,
            self.garbled_acked,
            self.lost,
            self.duplicated,
            self.wrong_id,
            self.exactly_once(),
            self.p50_us,
            self.p99_us,
            self.max_us,
            self.wall_ms,
            self.jobs_per_sec,
            server.join(","),
        )
    }

    /// The deterministic portion: config echo plus the exactly-once
    /// ledger (all zeros whenever the invariant holds). CI runs the soak
    /// twice and byte-compares this.
    pub fn det_json(&self) -> String {
        format!(
            "{{\"clients\":{},\"jobs_per_client\":{},\"seed\":{},\
             \"lost\":{},\"duplicated\":{},\"wrong_id\":{},\"exactly_once\":{}}}",
            self.clients,
            self.jobs_per_client,
            self.seed,
            self.lost,
            self.duplicated,
            self.wrong_id,
            self.exactly_once(),
        )
    }
}

/// Per-client ledger, merged into the report at the end.
#[derive(Default)]
struct ClientTally {
    ok: u64,
    failed: u64,
    rejected: u64,
    gave_up: u64,
    busy_rounds: u64,
    dropped_inflight: u64,
    garbled_sent: u64,
    garbled_acked: u64,
    lost: u64,
    duplicated: u64,
    wrong_id: u64,
    latencies_us: Vec<u64>,
}

/// Wait for the response whose id is `want`, accounting strays. `Ok` is
/// the matched response; `Err` means lost (timeout or dead connection).
fn await_id(
    client: &mut Client,
    want: &str,
    seen: &mut HashSet<String>,
    tally: &mut ClientTally,
) -> Result<Response, ()> {
    loop {
        match client.recv() {
            Ok(resp) => {
                if resp.id == want {
                    return Ok(resp);
                }
                // A stray: a duplicate of an already-answered job, or an
                // id this client never submitted.
                if seen.contains(&resp.id) {
                    tally.duplicated += 1;
                } else {
                    tally.wrong_id += 1;
                }
            }
            Err(_) => {
                tally.lost += 1;
                return Err(());
            }
        }
    }
}

/// Pick the next job in the seeded mix.
fn pick_job(rng: &mut SplitMix64) -> JobSpec {
    let roll = rng.index(100);
    if roll < 25 {
        // A small pool of distinct sources exercises both cache hits and
        // misses on the digest-keyed program cache.
        let k = rng.index(400);
        JobSpec::Assemble { source: format!("setlo g1, {k}\nadd g2, g2, g1\nhalt\n") }
    } else if roll < 40 {
        let k = rng.index(400);
        JobSpec::Lint {
            source: format!("setlo g1, {k}\nadd g2, g2, g1\nhalt\n"),
            strict: rng.flip(),
        }
    } else if roll < 70 {
        JobSpec::Simulate(SimSpec {
            kernel: Some(rng.pick(LOAD_KERNELS).to_string()),
            source: None,
            engine: Engine::Func,
            budget: 5_000_000,
            checkpoint: false,
            resume: None,
        })
    } else if roll < 78 {
        JobSpec::Simulate(SimSpec {
            kernel: Some(rng.pick(LOAD_KERNELS).to_string()),
            source: None,
            engine: Engine::Cycle,
            budget: 20_000_000,
            checkpoint: false,
            resume: None,
        })
    } else if roll < 85 {
        // Unknown kernel: the deterministic rejection path.
        JobSpec::Simulate(SimSpec {
            kernel: Some("no-such-kernel".into()),
            source: None,
            engine: Engine::Func,
            budget: 1_000,
            checkpoint: false,
            resume: None,
        })
    } else {
        JobSpec::Fuzz { seed: rng.next_u64() >> 12, budget: 2_000 }
    }
}

fn client_loop(addr: SocketAddr, cfg: &LoadCfg, who: usize) -> ClientTally {
    let mut rng = SplitMix64::new(cfg.seed ^ (who as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut tally = ClientTally::default();
    let mut seen: HashSet<String> = HashSet::new();
    let mut client = match connect(addr, cfg) {
        Some(c) => c,
        None => return tally,
    };

    for j in 0..cfg.jobs_per_client {
        let id = format!("c{who}-{j}");
        let spec = pick_job(&mut rng);
        let garble = rng.index(1000) < cfg.garble_per_mille as usize;
        let drop_inflight = rng.index(1000) < cfg.drop_per_mille as usize;

        if garble {
            tally.garbled_sent += 1;
            if client.send_raw(b"{{{ this is not json\n").is_ok() {
                // The server answers a parse failure with a null id.
                if await_id(&mut client, "", &mut seen, &mut tally).is_ok() {
                    tally.garbled_acked += 1;
                } else {
                    match connect(addr, cfg) {
                        Some(c) => client = c,
                        None => return tally,
                    }
                }
            }
        }

        let req = Request::Job { id: id.clone(), spec };
        if drop_inflight {
            // Deliberate client crash: the job may run, its response hits
            // a dead socket. That is abandonment, not loss.
            let _ = client.send(&req);
            tally.dropped_inflight += 1;
            match connect(addr, cfg) {
                Some(c) => client = c,
                None => return tally,
            }
            continue;
        }

        let started = Instant::now();
        let mut busy_rounds = 0u32;
        let outcome = loop {
            if client.send(&req).is_err() {
                tally.lost += 1;
                break None;
            }
            match await_id(&mut client, &id, &mut seen, &mut tally) {
                Err(()) => break None,
                Ok(resp) => match resp.status {
                    Status::Busy { retry_after_ms } => {
                        if busy_rounds >= cfg.max_busy_retries {
                            tally.gave_up += 1;
                            break Some(());
                        }
                        busy_rounds += 1;
                        tally.busy_rounds += 1;
                        std::thread::sleep(Duration::from_millis(retry_after_ms));
                    }
                    Status::Ok(_) => {
                        tally.ok += 1;
                        tally.latencies_us.push(started.elapsed().as_micros() as u64);
                        break Some(());
                    }
                    Status::Failed { .. } => {
                        tally.failed += 1;
                        tally.latencies_us.push(started.elapsed().as_micros() as u64);
                        break Some(());
                    }
                    Status::Rejected { .. } => {
                        tally.rejected += 1;
                        break Some(());
                    }
                },
            }
        };
        seen.insert(id);
        if outcome.is_none() {
            // Connection is suspect after a loss; start fresh.
            match connect(addr, cfg) {
                Some(c) => client = c,
                None => return tally,
            }
        }
    }
    tally
}

fn connect(addr: SocketAddr, cfg: &LoadCfg) -> Option<Client> {
    let client = Client::connect(addr).ok()?;
    client.set_read_timeout(Some(cfg.lost_timeout)).ok()?;
    Some(client)
}

/// Run the full load against a server and aggregate the ledger. Queries
/// server counters (via a `stats` request) before returning; does not
/// shut the server down.
pub fn run_load(addr: SocketAddr, cfg: &LoadCfg) -> LoadReport {
    let started = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..cfg.clients).map(|who| scope.spawn(move || client_loop(addr, cfg, who))).collect();
        handles.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
    });
    let wall = started.elapsed();

    let mut report = LoadReport {
        clients: cfg.clients as u64,
        jobs_per_client: cfg.jobs_per_client as u64,
        seed: cfg.seed,
        wall_ms: wall.as_millis() as u64,
        ..LoadReport::default()
    };
    let mut lat: Vec<u64> = Vec::new();
    for t in tallies {
        report.ok += t.ok;
        report.failed += t.failed;
        report.rejected += t.rejected;
        report.gave_up += t.gave_up;
        report.busy_rounds += t.busy_rounds;
        report.dropped_inflight += t.dropped_inflight;
        report.garbled_sent += t.garbled_sent;
        report.garbled_acked += t.garbled_acked;
        report.lost += t.lost;
        report.duplicated += t.duplicated;
        report.wrong_id += t.wrong_id;
        lat.extend(t.latencies_us);
    }
    lat.sort_unstable();
    if !lat.is_empty() {
        report.p50_us = lat[lat.len() / 2];
        report.p99_us = lat[((lat.len() * 99) / 100).min(lat.len() - 1)];
        report.max_us = *lat.last().expect("non-empty");
    }
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        report.jobs_per_sec = (report.terminal() as f64 / secs) as u64;
    }
    if let Ok(mut c) = Client::connect(addr) {
        if let Ok(resp) = c.request(&Request::Stats { id: "load-stats".into() }) {
            let get = |name: &str| resp.field(name).and_then(Val::as_u64).unwrap_or(0);
            report.server = CounterSnapshot {
                admitted: get("admitted"),
                ok: get("ok"),
                failed: get("failed"),
                rejected: get("rejected"),
                busy: get("busy"),
                drain_rejected: get("drain_rejected"),
                parse_errors: get("parse_errors"),
                panics: get("panics"),
                respawns: get("respawns"),
                abandoned: get("abandoned"),
                chaos_kills: get("chaos_kills"),
                workers_spawned: get("workers_spawned"),
                last_kill_seq: get("last_kill_seq"),
            };
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_report_keeps_its_key_order() {
        let report = LoadReport {
            clients: 1,
            jobs_per_client: 2,
            seed: 3,
            ok: 4,
            failed: 5,
            rejected: 6,
            gave_up: 7,
            busy_rounds: 8,
            dropped_inflight: 9,
            garbled_sent: 10,
            garbled_acked: 11,
            p50_us: 15,
            p99_us: 16,
            max_us: 17,
            wall_ms: 18,
            jobs_per_sec: 19,
            server: CounterSnapshot {
                admitted: 20,
                ok: 21,
                failed: 22,
                rejected: 23,
                busy: 24,
                drain_rejected: 25,
                parse_errors: 26,
                panics: 27,
                respawns: 28,
                abandoned: 29,
                chaos_kills: 30,
                workers_spawned: 31,
                last_kill_seq: 32,
            },
            ..LoadReport::default()
        };
        assert_eq!(
            report.to_json(),
            "{\"clients\":1,\"jobs_per_client\":2,\"seed\":3,\"ok\":4,\"failed\":5,\
             \"rejected\":6,\"gave_up\":7,\"busy_rounds\":8,\"dropped_inflight\":9,\
             \"garbled_sent\":10,\"garbled_acked\":11,\"lost\":0,\"duplicated\":0,\
             \"wrong_id\":0,\"exactly_once\":true,\"p50_us\":15,\"p99_us\":16,\"max_us\":17,\
             \"wall_ms\":18,\"jobs_per_sec\":19,\"server\":{\"admitted\":20,\"ok\":21,\
             \"failed\":22,\"rejected\":23,\"busy\":24,\"drain_rejected\":25,\
             \"parse_errors\":26,\"panics\":27,\"respawns\":28,\"abandoned\":29,\
             \"chaos_kills\":30,\"workers_spawned\":31,\"last_kill_seq\":32}}"
        );
    }
}
