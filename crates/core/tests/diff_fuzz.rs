//! Differential fuzzing: seeded random packet streams through *three*
//! engines — the functional interpreter, the decode-once translated
//! engine (bit-for-bit identical, counters and trap registers included),
//! and the cycle-accurate simulator — fanned across the simulation farm.
//! Any architectural divergence is shrunk by the packet-bisection reducer
//! and written to a repro file before the test fails — the panic message
//! names the file.
//!
//! Every fuzz program also runs through the linter's abstract
//! interpretation, and each must-fact it emits is replayed against the
//! translated engine: the fuzzer that guards the simulators guards the
//! analyses with the same corpus.
//!
//! The smoke budget is 1024 seeds in debug builds and 8192 in release —
//! CI runs both (`cargo test` and the release three-way smoke step);
//! `reproduce farm` sweeps a larger slice of the same stream.

use majc_bench::diff::{fuzz_program, shrink, shrink_with, write_repro, FUZZ_BUDGET};
use majc_bench::farm::{shard_seed, Farm};
use majc_core::diff::diff_run;
use majc_core::XlateSim;
use majc_lint::{analyze, validate, LintOptions};
use majc_mem::FlatMem;

const MASTER_SEED: u64 = 0xD1FF_F22E;

/// Corpus programs halt; this is the packet/cycle budget their three-way
/// diff and fact replay run under (vs [`FUZZ_BUDGET`] for the looping
/// random streams).
const CORPUS_BUDGET: u64 = 4_000_000;

/// Analyze `prog` and replay its must-facts against a run on the
/// translated engine starting from `mem`; returns the first
/// contradiction, if any.
fn lint_fact_violation_in(prog: &majc_isa::Program, mem: &FlatMem, budget: u64) -> Option<String> {
    let a = analyze(prog, &LintOptions::default());
    let mut sim = XlateSim::new(prog.clone(), mem.clone());
    let v = validate(&mut sim, &a.facts, budget);
    v.violations.into_iter().next()
}

fn lint_fact_violation(prog: &majc_isa::Program) -> Option<String> {
    lint_fact_violation_in(prog, &FlatMem::new(), FUZZ_BUDGET)
}

/// A seeded generated-corpus case: program image plus its data sections.
fn corpus_case(i: usize) -> majc_kernels::suite::SuiteCase {
    let families = majc_gen::Family::ALL;
    let family = families[i % families.len()];
    let seed = shard_seed(MASTER_SEED ^ 0xC0_0B50, i as u64);
    majc_kernels::suite::gen_case(&majc_gen::generate(family, seed))
}

/// CI smoke: seeded programs through the three-way diff, zero unreduced
/// divergences and zero lint must-fact contradictions. Every eighth case
/// draws from the generated irregular-program corpus instead of the
/// random packet stream, so pointer chases, VM dispatch, and deep call
/// trees ride the same gate. Each divergence is minimized and persisted
/// so the failure is actionable straight from the CI log. Release builds
/// sweep 8x the debug corpus.
#[test]
fn a_thousand_seeded_programs_agree_across_simulators() {
    const CASES: usize = if cfg!(debug_assertions) { 1024 } else { 8192 };
    let farm = Farm::new(Farm::available());
    let failures: Vec<(u64, String)> = farm
        .run((0..CASES).collect::<Vec<_>>(), |_, i| {
            let seed = shard_seed(MASTER_SEED, i as u64);
            if i % 8 == 5 {
                let c = corpus_case(i);
                return diff_run(c.prog.clone(), &c.mem, CORPUS_BUDGET)
                    .0
                    .divergence
                    .or_else(|| {
                        lint_fact_violation_in(&c.prog, &c.mem, CORPUS_BUDGET)
                            .map(|v| format!("lint fact: {v}"))
                    })
                    .map(|d| (seed, format!("corpus case {i}: {d}")));
            }
            let prog = fuzz_program(seed);
            diff_run(prog.clone(), &FlatMem::new(), FUZZ_BUDGET)
                .0
                .divergence
                .or_else(|| lint_fact_violation(&prog).map(|v| format!("lint fact: {v}")))
                .map(|d| (seed, d))
        })
        .into_iter()
        .flatten()
        .collect();

    if failures.is_empty() {
        return;
    }
    let dir = std::env::temp_dir().join("majc-diff-fuzz");
    let mut lines = Vec::new();
    for (seed, divergence) in &failures {
        if divergence.starts_with("corpus case") {
            // Corpus programs are regenerable from (family, seed); report
            // without the packet reducer, which targets random streams.
            lines.push(format!("seed {seed:#018x}: {divergence}"));
            continue;
        }
        let small = shrink(&fuzz_program(*seed), FUZZ_BUDGET);
        let path = write_repro(&dir, *seed, &small, divergence).expect("write repro file");
        lines.push(format!(
            "seed {seed:#018x}: {divergence} (minimized to {} packet(s): {})",
            small.len(),
            path.display()
        ));
    }
    panic!("{} divergence(s):\n{}", lines.len(), lines.join("\n"));
}

/// The fuzz outcomes themselves are jobs-invariant: running a slice of
/// the stream serially and through the farm's worker pool produces
/// identical `DiffOutcome`s in identical order.
#[test]
fn fuzz_results_are_jobs_invariant() {
    let seeds: Vec<u64> = (0..64).map(|i| shard_seed(MASTER_SEED, i)).collect();
    Farm::new(2).run_verified(seeds, |_, seed| {
        diff_run(fuzz_program(seed), &FlatMem::new(), FUZZ_BUDGET).0
    });
}

/// The packet-bisection reducer stays 1-minimal on corpus programs, and
/// the minimized result still writes a valid, reassemblable `.s` repro —
/// corpus images differ from random streams in every way that matters to
/// the repro path (nonzero `.org` base, calls, indirect jumps).
#[test]
fn reducer_minimizes_corpus_programs_to_valid_repros() {
    let p = majc_gen::generate(majc_gen::Family::Calls, 0xDEC1_0A17);
    let prog = majc_asm::assemble(&p.asm).expect("corpus program assembles");
    // Synthetic predicate, same shape as the random-stream reducer test:
    // "still contains a call". Calls-family programs have several.
    let has_call = |p: &majc_isa::Program| {
        p.packets()
            .iter()
            .any(|pkt| pkt.slots().any(|(_, i)| matches!(i, majc_isa::Instr::Call { .. })))
    };
    assert!(has_call(&prog), "calls corpus program must contain a call");
    let small = shrink_with(&prog, has_call);
    assert_eq!(small.len(), 1, "reducer left extra packets: {small:?}");
    assert!(has_call(&small));
    assert_eq!(small.base(), prog.base(), "reducer must preserve the image base");

    let dir = std::env::temp_dir().join("majc-diff-fuzz-corpus-repro");
    let path = write_repro(&dir, 0x0DEC_14A1, &small, "synthetic: contains a call")
        .expect("write corpus repro");
    let text = std::fs::read_to_string(&path).expect("read repro back");
    let back = majc_asm::assemble(&text).expect("corpus repro reassembles");
    assert_eq!(back.base(), small.base());
    assert_eq!(back.packets(), small.packets(), "repro drifted from the minimized program");
    std::fs::remove_dir_all(&dir).ok();
}

/// Repro files round-trip: a written repro reassembles to the exact
/// packet stream that was minimized, so a failure can be replayed from
/// the file alone.
#[test]
fn repro_files_round_trip_through_the_assembler() {
    let seed = shard_seed(MASTER_SEED, 3);
    let prog = fuzz_program(seed);
    let dir = std::env::temp_dir().join(format!("majc-diff-fuzz-rt-{seed:x}"));
    let path = write_repro(&dir, seed, &prog, "round-trip check").expect("write repro");
    let text = std::fs::read_to_string(&path).expect("read repro back");
    let back = majc_asm::assemble(&text).expect("repro reassembles");
    assert_eq!(back.base(), prog.base());
    assert_eq!(back.packets(), prog.packets(), "repro drifted from the original program");
    std::fs::remove_dir_all(&dir).ok();
}
