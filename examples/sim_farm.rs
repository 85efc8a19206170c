//! Simulation farm: shard a batch of independent simulations across the
//! in-tree shared-cursor pool and prove the merged report is
//! byte-identical whatever the worker count.
//!
//! ```sh
//! cargo run --release --example sim_farm
//! ```

use majc::bench::diff::{fuzz_program, FUZZ_BUDGET};
use majc::bench::farm::{merged_json, run_soak, shard_seed, Farm, ShardResult};
use majc::core::diff::diff_run;
use majc::kernels::suite;
use majc::mem::FlatMem;

const MASTER_SEED: u64 = 0xFA23_5EED;

/// Soak every fast suite kernel under deterministic fault injection,
/// one shard per kernel.
fn soak_batch(jobs: usize) -> Vec<ShardResult> {
    let farm = Farm::new(jobs);
    farm.run(suite::fast_cases(), |i, c| {
        let seed = shard_seed(MASTER_SEED, i as u64);
        run_soak(&c.name, &c.prog, &c.mem, seed).into_shard_result(i, &c.name, seed)
    })
}

fn main() {
    // 1. Fan the kernel soaks across the farm and print the per-shard
    //    architectural counters.
    let jobs = Farm::available();
    println!("--- fault soak across {jobs} worker(s) ---");
    let results = soak_batch(jobs);
    for r in &results {
        println!(
            "  shard {:2}  {:<16} {:>9} cycles, {:>3} faults injected, {}",
            r.shard,
            r.name,
            r.cycles,
            r.fault_events,
            match &r.divergence {
                None => "recovered byte-exact".to_string(),
                Some(d) => format!("DIVERGED: {d}"),
            }
        );
    }

    // 2. The determinism contract: the merged report from any worker
    //    count is byte-identical to the serial one.
    let serial = merged_json(MASTER_SEED, &soak_batch(1));
    let parallel = merged_json(MASTER_SEED, &results);
    assert_eq!(serial, parallel, "merged report must not depend on scheduling");
    println!(
        "\nmerged report: {} bytes, byte-identical at --jobs 1 and --jobs {jobs}",
        serial.len()
    );

    // 3. Differential fuzzing through the same pool: seeded random
    //    programs, interpreter vs translated engine vs cycle-accurate.
    const CASES: usize = 256;
    let outcomes = Farm::new(jobs).run((0..CASES).collect::<Vec<_>>(), |_, i| {
        diff_run(fuzz_program(shard_seed(MASTER_SEED, i as u64)), &FlatMem::new(), FUZZ_BUDGET).0
    });
    let divergences = outcomes.iter().filter(|o| o.divergence.is_some()).count();
    let cycles: u64 = outcomes.iter().map(|o| o.cycles).sum();
    println!(
        "fuzzed {CASES} seeded programs ({cycles} simulated cycles): {divergences} divergences"
    );
    assert_eq!(divergences, 0, "the three engines must agree");
}
