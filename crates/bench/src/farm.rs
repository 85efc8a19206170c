//! Deterministic parallel simulation farm.
//!
//! The MAJC-5200 is a chip built for thread-level parallelism, yet the
//! reproduction used to verify it one scenario at a time. This module is
//! the in-tree answer: a shared-cursor thread pool (scoped `std::thread`s
//! and one `Mutex` — the workspace has no external deps) that executes a
//! batch of independent simulation scenarios.
//!
//! Determinism is the contract. Each closure gets its item's index, from
//! which a scenario derives its seed with [`shard_seed`]; items borrow
//! `Arc`-shared read-only program images and return plain values, such
//! as a [`ShardResult`]. Results come back in item order whatever worker
//! ran what, so a merged report is byte-identical whatever `--jobs` was —
//! a property the determinism gate ([`Farm::run_verified`]) and CI both
//! enforce.

use std::sync::{Arc, Mutex};

use majc_core::{
    json::quote, CycleSim, CycleStats, LocalMemSys, MemLevelStats, TimingConfig, TrapPolicy,
    XlateSim,
};
use majc_isa::{mix64, Instr, Packet, Program};
use majc_mem::{fnv1a, FaultPlan, FlatMem, MemDiff};

/// Derive shard `shard`'s seed from the batch's master seed. The
/// SplitMix64 finalizer ([`mix64`]) decorrelates neighbouring shard ids, so
/// shard 7 of master seed S shares no stream prefix with shard 8.
pub fn shard_seed(master: u64, shard: u64) -> u64 {
    mix64(master ^ (shard.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A pool of `jobs` worker threads that claim items from one shared
/// cursor.
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

    /// Run `f` over every item on `min(jobs, items)` scoped workers and
    /// return the results in item order. Each worker claims the next
    /// `(index, item)` under the cursor's lock, runs it with the lock
    /// released, and keeps its own `(index, result)` list until joined. A
    /// worker's panic reaches the caller with its own payload.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        let cursor = Mutex::new(items.into_iter().enumerate());
        let worker = || {
            let mut done = Vec::new();
            loop {
                // The guard drops at the end of this statement, so no item
                // runs under the lock and a panicking item cannot poison it.
                let next = cursor.lock().expect("cursor lock is never held across an item").next();
                let Some((i, it)) = next else { return done };
                done.push((i, f(i, it)));
            }
        };
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.jobs.min(n)).map(|_| s.spawn(worker)).collect();
            for h in handles {
                let done = h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                for (i, r) in done {
                    slots[i] = Some(r);
                }
            }
        });
        slots.into_iter().map(|r| r.expect("each item is claimed exactly once")).collect()
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
// Results and the merged report
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
        assert!(Farm::new(4).run(Vec::<u64>::new(), |_, x| x).is_empty());
    }

    #[test]
    fn large_batches_come_back_in_item_order() {
        // 10k items, far more than workers: every claim goes through the
        // shared cursor, and the per-worker lists must still merge back
        // into item order.
        let items: Vec<u64> = (0..10_000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x.wrapping_mul(0x9E37)).collect();
        let got = Farm::new(4).run(items, |_, x| x.wrapping_mul(0x9E37));
        assert_eq!(got, expect);
    }

    #[test]
    #[should_panic(expected = "farm item 2 failed on purpose")]
    fn a_worker_panic_reaches_the_caller_with_its_own_payload() {
        Farm::new(2).run((0..4u64).collect(), |i, x| {
            if i == 2 {
                panic!("farm item 2 failed on purpose");
            }
            x
        });
    }

    #[test]
    fn determinism_gate_accepts_pure_work() {
        let got = Farm::new(4)
            .run_verified((0..40).collect::<Vec<u64>>(), |i, x| (i as u64) ^ x.wrapping_mul(3));
        assert_eq!(got.len(), 40);
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
