//! Property tests for the decode-once translation layer.
//!
//! Three properties the translated engine must uphold beyond the
//! three-way differential fuzz:
//!
//! * **snapshot portability** — a [`CpuSnap`] captured at *any* packet
//!   boundary on either engine resumes on the other engine to the exact
//!   architectural state an uninterrupted run reaches (same step budget,
//!   same trap outcome, same state digest);
//! * **kernel-suite bit-identity** — every shipped kernel halts with the
//!   same counters, registers, and memory image on both engines;
//! * **cache determinism** — the translation cache's hit/miss/eviction
//!   counters and resident set are a pure function of the request
//!   multiset, identical across farm `--jobs 1/2/4` interleavings;
//! * **one loop, any chunking** — stepping packet by packet, running in
//!   chunks of 1, 3 or 7 steps, and one whole run leave the same counters
//!   and state as the interpreter, on every way a run can end.

use std::sync::Arc;

use majc_bench::diff::{fuzz_program, FUZZ_BUDGET};
use majc_bench::farm::{shard_seed, Farm};
use majc_core::{
    CpuSnap, ExecEngine, FuncSim, FuncStats, Trap, TrapRegs, XlateCache, XlateCacheStats, XlateSim,
};
use majc_isa::{AluOp, CachePolicy, Cond, Instr, MemWidth, Off, Packet, Program, Reg, Src};
use majc_mem::{fnv1a, FlatMem};

const MASTER_SEED: u64 = 0x51AB_517E;

/// FNV-1a over the full architectural state (CPU context + memory) plus
/// the trap registers the context doesn't carry in its digest-visible
/// part. Equal digests mean the machines are indistinguishable.
fn state_digest<E: ExecEngine>(sim: &E) -> u64 {
    let mut bytes = sim.capture().to_bytes();
    bytes.extend_from_slice(&sim.mem().to_snapshot());
    bytes.extend_from_slice(format!("{:?}{:?}", sim.trap_regs(), sim.stats()).as_bytes());
    fnv1a(&bytes)
}

/// Run `steps` more steps and summarize how the run ended.
fn drive<E: ExecEngine>(sim: &mut E, steps: u64) -> String {
    match sim.run(steps) {
        Ok(_) if sim.halted() => "halted".into(),
        Ok(_) => "budget".into(),
        Err(t) => format!("trap {t:?}"),
    }
}

fn interp(prog: &Arc<Program>) -> FuncSim {
    FuncSim::new(Arc::clone(prog), FlatMem::new())
}

fn xlate(prog: &Arc<Program>) -> XlateSim {
    XlateSim::new(Arc::clone(prog), FlatMem::new())
}

fn resume_interp(prog: &Arc<Program>, mem: FlatMem, snap: &CpuSnap) -> FuncSim {
    FuncSim::resume(Arc::clone(prog), mem, snap)
}

fn resume_xlate(prog: &Arc<Program>, mem: FlatMem, snap: &CpuSnap) -> XlateSim {
    XlateSim::resume(Arc::clone(prog), mem, snap)
}

/// A snapshot taken after `k` steps on one engine and resumed on the
/// other must reach the uninterrupted run's exact end state. Both
/// engines charge every step (including trap deliveries) against the
/// budget, so `k` steps + `budget - k` steps ≡ `budget` steps.
#[test]
fn snapshots_cross_engines_at_arbitrary_packet_boundaries() {
    let splits = [0u64, 1, 2, 5, 17, 101, 999];
    for case in 0..24u64 {
        let seed = shard_seed(MASTER_SEED, case);
        let prog = Arc::new(fuzz_program(seed));

        let mut oracle = interp(&prog);
        let want_end = drive(&mut oracle, FUZZ_BUDGET);
        let want = state_digest(&oracle);

        // Sanity: the two engines agree end-to-end before any splitting.
        let mut whole = xlate(&prog);
        assert_eq!(drive(&mut whole, FUZZ_BUDGET), want_end, "seed {seed}: whole-run end");
        assert_eq!(state_digest(&whole), want, "seed {seed}: whole-run digest");

        for &k in &splits {
            // Interpreter first, translated engine finishes...
            let mut a = interp(&prog);
            match a.run(k) {
                Ok(_) => {
                    let mut b = resume_xlate(&prog, a.mem.clone(), &a.capture());
                    // Stats live outside the snapshot: carry them over so
                    // the end-state counters remain comparable.
                    b.stats = a.stats;
                    let end = drive(&mut b, FUZZ_BUDGET - k);
                    assert_eq!(end, want_end, "seed {seed} split {k} interp->xlate end");
                    assert_eq!(state_digest(&b), want, "seed {seed} split {k} interp->xlate");
                }
                Err(_) => {
                    // Unvectored trap before the boundary: the oracle hit
                    // the identical trap inside its budget too.
                    assert!(want_end.starts_with("trap"), "seed {seed} split {k}: early trap");
                }
            }

            // ...and the mirror image.
            let mut a = xlate(&prog);
            match a.run(k) {
                Ok(_) => {
                    let mut b = resume_interp(&prog, a.mem.clone(), &a.capture());
                    b.stats = a.stats;
                    let end = drive(&mut b, FUZZ_BUDGET - k);
                    assert_eq!(end, want_end, "seed {seed} split {k} xlate->interp end");
                    assert_eq!(state_digest(&b), want, "seed {seed} split {k} xlate->interp");
                }
                Err(_) => {
                    assert!(want_end.starts_with("trap"), "seed {seed} split {k}: early trap");
                }
            }
        }
    }
}

/// Every shipped kernel halts bit-identically on both engines: same
/// counters, same trap registers, same registers, same memory bytes.
/// Heavy (megacycle) kernels only run in release builds.
#[test]
fn kernel_suite_is_bit_identical_across_engines() {
    const BUDGET: u64 = 200_000_000;
    for case in majc_kernels::suite::cases() {
        if case.heavy && cfg!(debug_assertions) {
            continue;
        }
        let mut a = FuncSim::new(Arc::clone(&case.prog), case.mem.clone());
        let mut b = XlateSim::new(Arc::clone(&case.prog), case.mem.clone());
        a.run_to_halt(BUDGET).unwrap_or_else(|e| panic!("{}: interp: {e}", case.name));
        b.run_to_halt(BUDGET).unwrap_or_else(|e| panic!("{}: xlate: {e}", case.name));
        assert_eq!(a.stats, b.stats, "{}: counters diverge", case.name);
        assert_eq!(a.pc(), b.pc(), "{}: final pc", case.name);
        assert_eq!(state_digest(&a), state_digest(&b), "{}: state digest", case.name);
    }
}

/// Cache behaviour is a pure function of the request multiset. Phase 1
/// translates `N` distinct programs once each (all misses; the `CAP`
/// largest digests stay resident). Phase 2 re-requests the whole set:
/// the residents hit, the rest re-miss and immediately self-evict (their
/// digests are below every resident's). Neither phase's counters depend
/// on worker interleaving — asserted across `--jobs 1/2/4`.
#[test]
fn translation_cache_counters_are_jobs_invariant() {
    const CAP: usize = 8;
    const N: usize = 20;
    let progs: Vec<Arc<Program>> = (0..N as u64)
        .map(|i| Arc::new(fuzz_program(shard_seed(MASTER_SEED ^ 0xCAC8E, i))))
        .collect();
    let mut digests: Vec<u64> = progs.iter().map(|p| p.digest()).collect();
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), N, "fuzz corpus must be digest-distinct");
    let floor = digests[N - CAP]; // smallest digest that stays resident

    let expected = XlateCacheStats {
        hits: CAP as u64,
        misses: (2 * N - CAP) as u64,
        evictions: 2 * (N - CAP) as u64,
        resident: CAP,
    };

    for jobs in [1usize, 2, 4] {
        let cache = XlateCache::new(CAP);
        let farm = Farm::new(jobs);
        farm.run(progs.clone(), |_, p| {
            cache.translate(&p);
        });
        farm.run(progs.clone(), |_, p| {
            cache.translate(&p);
        });
        assert_eq!(cache.stats(), expected, "jobs={jobs}");

        // The resident set is exactly the CAP largest digests: a serial
        // re-probe hits iff the digest is at or above the floor (probing
        // below the floor self-evicts and leaves the residents alone).
        for p in &progs {
            let before = cache.stats().hits;
            cache.translate(p);
            let hit = cache.stats().hits > before;
            assert_eq!(hit, p.digest() >= floor, "jobs={jobs}: residency by digest rank");
        }
    }
}

/// How a run ended and everything it left behind.
#[derive(Debug, PartialEq)]
struct EndState {
    end: Result<bool, Trap>,
    stats: FuncStats,
    regs: Vec<u32>,
    pc: u32,
    trap: TrapRegs,
    mem: Vec<u8>,
}

fn end_state<E: ExecEngine>(sim: &E, end: Result<(), Trap>) -> EndState {
    EndState {
        end: end.map(|()| sim.halted()),
        stats: *sim.stats(),
        regs: sim.regs().raw().to_vec(),
        pc: sim.pc(),
        trap: *sim.trap_regs(),
        mem: sim.mem().to_snapshot(),
    }
}

/// `budget` steps spent in runs of at most `chunk` steps. A run that
/// neither halts nor traps spends its whole allowance.
fn run_chunked<E: ExecEngine>(sim: &mut E, budget: u64, chunk: u64) -> EndState {
    let mut left = budget;
    while left > 0 && !sim.halted() {
        let n = chunk.min(left);
        if let Err(t) = sim.run(n) {
            return end_state(sim, Err(t));
        }
        left -= n;
    }
    end_state(sim, Ok(()))
}

/// `budget` single steps, stopping at halt or an unvectored trap.
fn run_stepped(sim: &mut XlateSim, budget: u64) -> EndState {
    for _ in 0..budget {
        match sim.step() {
            Ok(true) => {}
            Ok(false) => break,
            Err(t) => return end_state(sim, Err(t)),
        }
    }
    end_state(sim, Ok(()))
}

/// Every way of driving the translated engine through `budget` steps ends
/// where the interpreter's one run does; returns that end state.
fn assert_chunking_invariant(
    name: &str,
    prog: &Arc<Program>,
    mem: &FlatMem,
    vector: Option<u32>,
    budget: u64,
) -> EndState {
    let fresh_xlate = || {
        let mut x = XlateSim::new(Arc::clone(prog), mem.clone());
        if let Some(v) = vector {
            x.set_trap_vector(v);
        }
        x
    };
    let mut oracle = FuncSim::new(Arc::clone(prog), mem.clone());
    if let Some(v) = vector {
        oracle.set_trap_vector(v);
    }
    let want = run_chunked(&mut oracle, budget, budget);
    let ctx = format!("{name} vector={vector:x?} budget={budget}");
    assert_eq!(run_stepped(&mut fresh_xlate(), budget), want, "{ctx}: step");
    for k in [1, 3, 7] {
        assert_eq!(run_chunked(&mut fresh_xlate(), budget, k), want, "{ctx}: run({k}) chunks");
    }
    assert_eq!(run_chunked(&mut fresh_xlate(), budget, budget), want, "{ctx}: one run");
    want
}

fn solo(i: Instr) -> Packet {
    Packet::solo(i).unwrap()
}

/// Hand-written programs for the exits the generated ones may miss, each
/// with the start of its expected end (`{:?}` of the run's outcome): an
/// off-program taken target, `rte` outside a handler, a vectored trap that
/// returns, a double trap, and a loop only the budget ends.
fn exit_path_programs() -> Vec<(&'static str, Program, Option<u32>, &'static str)> {
    let halt = solo(Instr::Halt);
    let off_program = Program::new(
        0,
        vec![solo(Instr::Br { cond: Cond::Eq, rs: Reg::g(0), off: 400, hint: false }), halt],
    );
    let bad_rte = Program::new(0, vec![solo(Instr::Rte), halt]);
    let spin = Program::new(
        0,
        vec![solo(Instr::Br { cond: Cond::Eq, rs: Reg::g(0), off: 0, hint: true }), halt],
    );
    // The load at 0x8 is misaligned; the handler at 0x14 realigns its base
    // and returns to retry it, and a call then reaches the halt.
    let dec = Instr::Alu { op: AluOp::Sub, rd: Reg::g(0), rs1: Reg::g(0), src2: Src::Imm(1) };
    let fix_and_return = Program::new(
        0,
        vec![
            solo(Instr::SetLo { rd: Reg::g(0), imm: 0x101 }),
            solo(Instr::St {
                w: MemWidth::W,
                pol: CachePolicy::Cached,
                rs: Reg::g(0),
                base: Reg::g(0),
                off: Off::Imm(3),
            }),
            solo(Instr::Ld {
                w: MemWidth::W,
                pol: CachePolicy::Cached,
                rd: Reg::g(1),
                base: Reg::g(0),
                off: Off::Imm(0),
            }),
            solo(Instr::Call { rd: Reg::g(2), off: 4 }),
            halt,
            Packet::new(&[dec, Instr::Nop]).unwrap(),
            solo(Instr::Rte),
        ],
    );
    vec![
        ("off-program br", off_program.clone(), None, "Err(BadPc { pc: 0, target: 400 })"),
        ("off-program br, vectored", off_program, Some(4), "Ok(true)"),
        ("bad rte", bad_rte.clone(), None, "Err(BadRte"),
        ("bad rte, vectored", bad_rte, Some(4), "Ok(true)"),
        ("spin", spin, None, "Ok(false)"),
        ("fix and return", fix_and_return.clone(), Some(0x14), "Ok(true)"),
        ("fix and return, unvectored", fix_and_return.clone(), None, "Err(Misaligned"),
        ("double trap", fix_and_return, Some(0x8), "Err(Misaligned"),
    ]
}

/// `XlateSim::run` is the engine's one loop and `step` one iteration of
/// it, with the per-packet counters folded in on every exit. Stepping,
/// chunked runs and one whole run must therefore agree with each other and
/// with the interpreter on fuzz programs, corpus programs and hand-written
/// exit paths, with and without a trap vector, whether the run halts,
/// exhausts its budget mid-program, or ends in an unvectored trap.
#[test]
fn stepping_and_chunked_runs_match_one_run() {
    let (mut ends, empty) = (Vec::new(), FlatMem::new());
    for (name, prog, vector, want) in exit_path_programs() {
        let end = assert_chunking_invariant(name, &Arc::new(prog), &empty, vector, 1_000);
        let got = format!("{:?}", end.end);
        assert!(got.starts_with(want), "{name}: ended {got}, expected {want}");
        assert_eq!(end.stats.traps, vector.is_some() as u64, "{name}: traps delivered");
        ends.push(end);
    }
    for case in 0..32u64 {
        let seed = shard_seed(MASTER_SEED ^ 0xC4_0C, case);
        let prog = Arc::new(fuzz_program(seed));
        // Re-enter mid-program: a second trap there is a double trap.
        let mid = prog.addr_of(prog.len() / 2);
        for vector in [None, Some(mid)] {
            let name = format!("fuzz seed {seed:#x}");
            ends.push(assert_chunking_invariant(&name, &prog, &empty, vector, FUZZ_BUDGET));
        }
    }
    for case in majc_kernels::suite::corpus_cases(2) {
        let mid = case.prog.addr_of(case.prog.len() / 2);
        for vector in [None, Some(mid)] {
            let full =
                assert_chunking_invariant(&case.name, &case.prog, &case.mem, vector, 1 << 24);
            assert_eq!(full.end, Ok(true), "{}: corpus program must halt", case.name);
            // The same program cut off halfway through.
            let half = full.stats.packets / 2;
            ends.push(assert_chunking_invariant(&case.name, &case.prog, &case.mem, vector, half));
            ends.push(full);
        }
    }

    // Every exit path was taken somewhere above.
    let seen = |f: &dyn Fn(&EndState) -> bool| ends.iter().any(f);
    assert!(seen(&|e| e.end == Ok(true)), "no run halted");
    assert!(seen(&|e| e.end == Ok(false)), "no run exhausted its budget");
    assert!(seen(&|e| e.stats.traps > 0 && e.end == Ok(true)), "no vectored trap returned");
    assert!(seen(&|e| e.stats.traps > 0 && e.end.is_err()), "no double trap");
    assert!(
        seen(&|e| matches!(e.end, Err(Trap::BadPc { pc, target }) if pc != target)),
        "no off-program taken target"
    );
    assert!(seen(&|e| matches!(e.end, Err(Trap::BadRte { .. }))), "no bad rte");
}
