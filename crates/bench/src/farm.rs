//! Deterministic parallel simulation farm.
//!
//! The MAJC-5200 is a chip built for thread-level parallelism, yet the
//! reproduction used to verify it one scenario at a time. This module is
//! the in-tree answer: a work-stealing thread pool (std::thread + channels
//! only — the workspace has no external deps) that executes a batch of
//! independent simulation scenarios sharded by seed.
//!
//! Determinism is the contract. Each shard derives its own xorshift64*
//! stream from `(master_seed, shard_id)` via [`shard_seed`], borrows
//! `Arc`-shared read-only program images, and returns a [`ShardResult`].
//! Results are collected back into shard order before merging, so the
//! merged report is byte-identical whatever `--jobs` was — a property the
//! determinism gate ([`Farm::run_verified`]) and CI both enforce.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use majc_core::{
    json::quote, CycleSim, CycleStats, LocalMemSys, MemLevelStats, TimingConfig, TrapPolicy,
    XlateSim,
};
use majc_isa::{mix64, Instr, Packet, Program, XorShift64Star};
use majc_mem::{fnv1a, FaultPlan, FlatMem, MemDiff};

// ---------------------------------------------------------------------------
// Seeding
// ---------------------------------------------------------------------------

/// Derive shard `shard`'s seed from the batch's master seed. The
/// SplitMix64 finalizer ([`mix64`]) decorrelates neighbouring shard ids, so
/// shard 7 of master seed S shares no stream prefix with shard 8.
pub fn shard_seed(master: u64, shard: u64) -> u64 {
    mix64(master ^ (shard.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A shard's identity and private random stream, handed to the scenario
/// closure by [`Farm::run_seeded`].
pub struct Shard {
    pub id: usize,
    pub seed: u64,
    pub rng: XorShift64Star,
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// Per-worker scheduling tallies from one [`Farm::run_metered`] batch.
///
/// `executed[w]` counts items worker `w` ran; `stolen[w]` counts how many
/// of those it took from another worker's deque. The totals are invariant
/// (`total_executed()` always equals the batch size) but the per-worker
/// split depends on thread timing — report it only as nondeterministic.
#[derive(Clone, Debug, Default)]
pub struct PoolMetrics {
    pub workers: usize,
    pub executed: Vec<u64>,
    pub stolen: Vec<u64>,
}

impl PoolMetrics {
    pub fn total_executed(&self) -> u64 {
        self.executed.iter().sum()
    }

    pub fn total_steals(&self) -> u64 {
        self.stolen.iter().sum()
    }

    /// One JSON object, fixed field order.
    pub fn to_json(&self) -> String {
        let list = |v: &[u64]| {
            let items: Vec<String> = v.iter().map(u64::to_string).collect();
            format!("[{}]", items.join(","))
        };
        format!(
            "{{\"workers\":{},\"executed\":{},\"stolen\":{},\"total_executed\":{},\"total_steals\":{}}}",
            self.workers,
            list(&self.executed),
            list(&self.stolen),
            self.total_executed(),
            self.total_steals(),
        )
    }
}

/// A work-stealing pool of `jobs` worker threads.
///
/// Items are dealt round-robin into per-worker deques; each worker pops
/// its own queue from the front and steals from the back of the others
/// when idle. Results travel over a channel tagged with the item index
/// and are re-ordered before return, which is what makes the merge
/// independent of scheduling.
pub struct Farm {
    jobs: usize,
}

impl Farm {
    pub fn new(jobs: usize) -> Farm {
        Farm { jobs: jobs.max(1) }
    }

    /// Worker count matching the host's available parallelism.
    pub fn available() -> usize {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }

    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run `f` over every item, in parallel, returning results in item
    /// order regardless of which worker ran what when.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.run_metered(items, f).0
    }

    /// [`Farm::run`], but also tally how the pool actually scheduled the
    /// batch: per-worker executed and stolen counts. The tallies describe
    /// *this run's* work placement — scheduling-dependent by construction
    /// — so they belong in a report's explicitly nondeterministic section
    /// ([`merged_json_full`]), never in the byte-compared merge.
    pub fn run_metered<T, R, F>(&self, items: Vec<T>, f: F) -> (Vec<R>, PoolMetrics)
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        use std::sync::atomic::{AtomicU64, Ordering};
        let n = items.len();
        let workers = self.jobs.min(n.max(1));
        if workers <= 1 {
            let out: Vec<R> = items.into_iter().enumerate().map(|(i, it)| f(i, it)).collect();
            let metrics = PoolMetrics { workers: 1, executed: vec![n as u64], stolen: vec![0] };
            return (out, metrics);
        }
        let executed: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let stolen: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();

        let queues: Vec<Mutex<VecDeque<(usize, T)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, it) in items.into_iter().enumerate() {
            queues[i % workers].lock().unwrap().push_back((i, it));
        }

        // The result channel is *bounded* (two slots per worker): a worker
        // that races ahead of the collector blocks in `send`, so at most
        // 2 × workers results are in flight. `slots` still holds every
        // item's result, so batch memory is O(items). The collector runs
        // inside the scope, while workers are still alive — collecting
        // after the scope would deadlock against a full buffer.
        let (tx, rx) = mpsc::sync_channel::<(usize, R)>(workers * 2);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            for w in 0..workers {
                let tx = tx.clone();
                let queues = &queues;
                let f = &f;
                let executed = &executed;
                let stolen = &stolen;
                s.spawn(move || loop {
                    // Own queue first (front), then steal from the back of
                    // the most distant peer onward. The own-queue guard is
                    // dropped before any peer is locked: two idle workers
                    // each holding their own lock while locking the
                    // other's would deadlock.
                    let mut stole = false;
                    let own = queues[w].lock().unwrap().pop_front();
                    let next = own.or_else(|| {
                        stole = true;
                        (1..workers)
                            .find_map(|d| queues[(w + d) % workers].lock().unwrap().pop_back())
                    });
                    match next {
                        Some((i, it)) => {
                            executed[w].fetch_add(1, Ordering::Relaxed);
                            if stole {
                                stolen[w].fetch_add(1, Ordering::Relaxed);
                            }
                            let _ = tx.send((i, f(i, it)));
                        }
                        None => return,
                    }
                });
            }
            drop(tx);
            for (i, r) in rx {
                slots[i] = Some(r);
            }
        });
        let out: Vec<R> =
            slots.into_iter().map(|r| r.expect("each shard reports exactly once")).collect();
        let metrics = PoolMetrics {
            workers,
            executed: executed.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
            stolen: stolen.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
        };
        (out, metrics)
    }

    /// [`Farm::run`], but each item's closure also receives the shard's
    /// private xorshift64* stream derived from `(master_seed, index)`.
    pub fn run_seeded<T, R, F>(&self, master_seed: u64, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut Shard, T) -> R + Sync,
    {
        self.run(items, |i, it| {
            let seed = shard_seed(master_seed, i as u64);
            let mut shard = Shard { id: i, seed, rng: XorShift64Star::new(seed) };
            f(&mut shard, it)
        })
    }

    /// Determinism gate: run the batch in parallel *and* serially and
    /// assert the merged results are identical. Panics on any difference —
    /// a scenario whose result depends on scheduling is a bug.
    pub fn run_verified<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + Clone,
        R: Send + PartialEq + std::fmt::Debug,
        F: Fn(usize, T) -> R + Sync,
    {
        let serial = Farm::new(1).run(items.clone(), &f);
        let parallel = self.run(items, &f);
        assert_eq!(
            serial, parallel,
            "farm determinism gate: merged results differ between --jobs 1 and --jobs {}",
            self.jobs
        );
        parallel
    }
}

// ---------------------------------------------------------------------------
// Shard results and the merged report
// ---------------------------------------------------------------------------

/// What one simulation shard reports back. All fields are architectural
/// or micro-architectural counters — never wall-clock — so the merged
/// report is byte-identical across `--jobs` settings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardResult {
    pub shard: usize,
    pub name: String,
    pub seed: u64,
    pub cycles: u64,
    pub stats: CycleStats,
    pub mem: MemLevelStats,
    /// Faults injected by the plan (0 when the scenario runs fault-free).
    pub fault_events: usize,
    /// FNV-1a digest of the injection trace, for compact byte-comparison.
    pub fault_digest: u64,
    /// First functional divergence, if the scenario found one.
    pub divergence: Option<String>,
}

impl ShardResult {
    /// One JSON object, fixed field order.
    pub fn json(&self) -> String {
        let div = match &self.divergence {
            Some(d) => quote(d),
            None => "null".into(),
        };
        format!(
            "{{\"shard\":{},\"name\":{},\"seed\":{},\"cycles\":{},\"packets\":{},\
             \"instrs\":{},\"traps\":{},\"mispredicts\":{},\"stats_digest\":{},\
             \"mem_digest\":{},\"fault_events\":{},\"fault_digest\":{},\"divergence\":{}}}",
            self.shard,
            quote(&self.name),
            self.seed,
            self.cycles,
            self.stats.packets,
            self.stats.instrs,
            self.stats.traps,
            self.stats.mispredicts,
            fnv1a(format!("{:?}", self.stats).as_bytes()),
            fnv1a(format!("{:?}", self.mem).as_bytes()),
            self.fault_events,
            self.fault_digest,
            div,
        )
    }
}

/// The order-independent merged report: shard objects in shard order plus
/// batch totals. Contains no timing, so any `--jobs` produces identical
/// bytes for the same master seed.
pub fn merged_json(master_seed: u64, results: &[ShardResult]) -> String {
    let total_cycles: u64 = results.iter().map(|r| r.cycles).sum();
    let total_packets: u64 = results.iter().map(|r| r.stats.packets).sum();
    let divergences = results.iter().filter(|r| r.divergence.is_some()).count();
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"master_seed\": {master_seed},\n"));
    s.push_str(&format!("  \"scenarios\": {},\n", results.len()));
    s.push_str(&format!("  \"total_cycles\": {total_cycles},\n"));
    s.push_str(&format!("  \"total_packets\": {total_packets},\n"));
    s.push_str(&format!("  \"divergences\": {divergences},\n"));
    s.push_str("  \"shards\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str("    ");
        s.push_str(&r.json());
        s.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// [`merged_json`] plus an explicitly nondeterministic trailer carrying
/// the pool's scheduling tallies. With `pool: None` the output is
/// byte-identical to [`merged_json`] — the determinism gate keeps
/// comparing the merge while operators still get to see how the batch
/// was scheduled.
pub fn merged_json_full(
    master_seed: u64,
    results: &[ShardResult],
    pool: Option<&PoolMetrics>,
) -> String {
    let mut s = merged_json(master_seed, results);
    if let Some(p) = pool {
        let tail = "  ]\n}\n";
        assert!(s.ends_with(tail), "merged_json changed shape under merged_json_full");
        s.truncate(s.len() - tail.len());
        s.push_str("  ],\n");
        s.push_str(&format!("  \"nondeterministic\": {{\"pool\": {}}}\n", p.to_json()));
        s.push_str("}\n");
    }
    s
}

// ---------------------------------------------------------------------------
// The shared fault-soak runner
// ---------------------------------------------------------------------------

/// Everything one fault soak establishes. `PartialEq` + no wall-clock
/// fields make it directly usable in the determinism gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoakOutcome {
    /// Cycle count of the (fault-injected) cycle-accurate run.
    pub cycles: u64,
    pub stats: CycleStats,
    /// Faults the plan injected; the trace replayed identically across
    /// both passes (asserted inside the runner).
    pub injected: usize,
    /// FNV-1a digest of the injection trace.
    pub fault_digest: u64,
    /// First byte of architectural memory that differs from the
    /// fault-free functional oracle. `None` = full recovery.
    pub divergence: Option<MemDiff>,
}

/// Append a minimal recovery handler — one `rte` packet — and return the
/// program plus the handler's address (the trap vector). A transient
/// fault squashes the packet it hits before anything commits, so plain
/// re-execution is a complete recovery.
pub fn with_handler(prog: &Program) -> (Program, u32) {
    let mut pkts = prog.packets().to_vec();
    pkts.push(Packet::solo(Instr::Rte).expect("solo rte packet always validates"));
    let p = Program::new(prog.base(), pkts);
    let vector = p.addr_of(p.len() - 1);
    (p, vector)
}

/// One fault soak: fault-free functional oracle, then two identically
/// seeded fault-injected cycle runs that must replay the same injection
/// trace. Infrastructure failures (oracle traps, watchdog, replay
/// mismatch) panic with `name`; an architectural divergence after
/// recovery is returned as data so the farm can merge it.
pub fn run_soak(name: &str, prog: &Arc<Program>, mem: &FlatMem, fault_seed: u64) -> SoakOutcome {
    // The oracle runs on the translated engine: bit-identical to the
    // interpreter (the differential fuzzer enforces it) and much faster,
    // and the process-wide translation cache means shards soaking the same
    // kernel under different fault seeds translate it once.
    let mut oracle_sim = XlateSim::new(Arc::clone(prog), mem.clone());
    oracle_sim.run(200_000_000).unwrap_or_else(|t| panic!("{name}: oracle trapped: {t}"));
    assert!(oracle_sim.halted(), "{name}: oracle did not halt");
    let oracle = oracle_sim.mem;

    let (hprog, vector) = with_handler(prog);
    let hprog = Arc::new(hprog);
    let cfg = TimingConfig {
        trap_policy: TrapPolicy::Vector { base: vector },
        max_cycles: 2_000_000_000,
        ..Default::default()
    };
    let mut passes = Vec::new();
    for pass in 0..2 {
        let mut port = LocalMemSys::majc5200().with_mem(mem.clone());
        port.apply_fault_plan(&FaultPlan::soak(fault_seed));
        let mut sim = CycleSim::new(Arc::clone(&hprog), port, cfg);
        sim.run(200_000_000)
            .unwrap_or_else(|e| panic!("{name}: fault soak pass {pass} failed: {e}"));
        assert!(sim.halted(), "{name}: fault soak pass {pass} did not halt");
        let divergence = oracle.first_diff_detail(&sim.port.mem);
        let trace: Vec<_> = sim.port.fault_events_iter().copied().collect();
        passes.push((trace, divergence, sim.stats));
    }
    assert_eq!(passes[0].0, passes[1].0, "{name}: same seed must replay the identical fault trace");
    let (trace, divergence, stats) = passes.swap_remove(0);
    SoakOutcome {
        cycles: stats.cycles,
        stats,
        injected: trace.len(),
        fault_digest: fnv1a(format!("{trace:?}").as_bytes()),
        divergence,
    }
}

impl SoakOutcome {
    /// Repackage as a [`ShardResult`] for the merged report.
    pub fn into_shard_result(self, shard: usize, name: &str, seed: u64) -> ShardResult {
        ShardResult {
            shard,
            name: name.to_string(),
            seed,
            cycles: self.cycles,
            mem: self.stats.mem,
            stats: self.stats,
            fault_events: self.injected,
            fault_digest: self.fault_digest,
            divergence: self.divergence.map(|d| {
                format!("mem[{:#010x}]: oracle={:#04x} soak={:#04x}", d.addr, d.lhs, d.rhs)
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        let a = shard_seed(0x5EED, 0);
        let b = shard_seed(0x5EED, 1);
        assert_ne!(a, b);
        assert_eq!(a, shard_seed(0x5EED, 0), "derivation is a pure function");
        assert_ne!(shard_seed(0x5EED, 0), shard_seed(0x5EEE, 0), "master seed matters");
    }

    #[test]
    fn farm_results_come_back_in_item_order_for_any_job_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8] {
            let got = Farm::new(jobs).run(items.clone(), |_, x| x * x);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn bounded_result_channel_survives_batches_far_beyond_its_buffer() {
        // 10k items through a channel bounded at 2*jobs slots: workers
        // must interleave with the collector without deadlock, and order
        // must still come out right.
        let items: Vec<u64> = (0..10_000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x.wrapping_mul(0x9E37)).collect();
        let got = Farm::new(4).run(items, |_, x| x.wrapping_mul(0x9E37));
        assert_eq!(got, expect);
    }

    #[test]
    fn determinism_gate_accepts_pure_work() {
        let got = Farm::new(4)
            .run_verified((0..40).collect::<Vec<u64>>(), |i, x| (i as u64) ^ x.wrapping_mul(3));
        assert_eq!(got.len(), 40);
    }

    #[test]
    fn seeded_runs_give_each_shard_its_own_stream() {
        let streams =
            Farm::new(3).run_seeded(7, vec![(); 8], |shard, ()| (shard.seed, shard.rng.next_u64()));
        for w in streams.windows(2) {
            assert_ne!(w[0], w[1], "neighbouring shards must not share a stream");
        }
        // And the whole batch is reproducible from the master seed.
        let again =
            Farm::new(1).run_seeded(7, vec![(); 8], |shard, ()| (shard.seed, shard.rng.next_u64()));
        assert_eq!(streams, again);
    }

    #[test]
    fn metered_runs_account_for_every_item_and_keep_order() {
        let items: Vec<u64> = (0..200).collect();
        let expect: Vec<u64> = items.iter().map(|x| x + 1).collect();
        for jobs in [1, 3, 8] {
            let (got, pool) = Farm::new(jobs).run_metered(items.clone(), |_, x| x + 1);
            assert_eq!(got, expect, "jobs={jobs}");
            assert_eq!(pool.total_executed(), 200, "jobs={jobs}");
            assert_eq!(pool.workers, jobs.min(200));
            assert_eq!(pool.executed.len(), pool.workers);
            assert_eq!(pool.stolen.len(), pool.workers);
            assert!(pool.total_steals() <= pool.total_executed());
        }
        // Serial path: one worker executed everything, stole nothing.
        let (_, pool) = Farm::new(1).run_metered(vec![1u64, 2, 3], |_, x| x);
        assert_eq!((pool.executed, pool.stolen), (vec![3], vec![0]));
    }

    #[test]
    fn merged_json_full_without_pool_matches_merged_json_exactly() {
        let r = ShardResult {
            shard: 0,
            name: "demo".into(),
            seed: 1,
            cycles: 10,
            stats: CycleStats::default(),
            mem: MemLevelStats::default(),
            fault_events: 0,
            fault_digest: 0,
            divergence: None,
        };
        let base = merged_json(5, std::slice::from_ref(&r));
        assert_eq!(merged_json_full(5, std::slice::from_ref(&r), None), base);
        let pool = PoolMetrics { workers: 2, executed: vec![1, 0], stolen: vec![0, 0] };
        let full = merged_json_full(5, &[r], Some(&pool));
        assert!(full.starts_with(&base[..base.len() - "  ]\n}\n".len()]));
        assert!(full.contains("\"nondeterministic\": {\"pool\": {\"workers\":2"));
        assert!(full.ends_with("}\n"));
    }

    #[test]
    fn merged_json_is_a_pure_function_of_results() {
        let r = ShardResult {
            shard: 0,
            name: "demo".into(),
            seed: 1,
            cycles: 10,
            stats: CycleStats::default(),
            mem: MemLevelStats::default(),
            fault_events: 0,
            fault_digest: 0,
            divergence: None,
        };
        let a = merged_json(5, std::slice::from_ref(&r));
        let b = merged_json(5, &[r]);
        assert_eq!(a, b);
        assert!(a.contains("\"scenarios\": 1"));
    }
}
