//! Random-packet differential fuzzing: functional vs cycle-accurate.
//!
//! The cycle model executes the translated engine's micro-ops, whose
//! semantics the three-way check below pins to the interpreter's
//! `exec_slot`, so any architectural divergence — registers, memory, trap
//! outcome, or retired-packet count — means the cycle model's scheduling
//! machinery (bypass tracking, LSU, predictor redirects, trap delivery)
//! corrupted state it must only ever reorder.
//! Shards generate seeded legal packet streams with [`fuzz_program`], run
//! both simulators with [`diff_run`], and any failure is shrunk to a
//! minimal program by the greedy packet-bisection reducer in [`shrink`]
//! and written to a repro file by [`write_repro`].
//!
//! [`diff_run3`] extends the pair to a three-way check: the interpreter
//! ([`FuncSim`]), the translated engine ([`XlateSim`]) — compared
//! bit-for-bit on *everything*, counters and trap registers included —
//! and then the cycle model against the functional consensus.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use majc_core::{CycleSim, FuncSim, PerfectPort, SimError, TimingConfig, XlateSim};
use majc_isa::gen::{self, GenCfg};
use majc_isa::{Instr, Packet, Program, SplitMix64};
use majc_mem::FlatMem;

/// Packet budget per fuzz case. Random control flow can loop, so both
/// simulators run at most this many packets; budget-capped runs still
/// compare all architectural state.
pub const FUZZ_BUDGET: u64 = 20_000;

/// Generate a seeded legal packet stream. The seed picks the flavor:
/// straight-line compute, compute + memory, or compute + memory +
/// control, with register-pool shape varied per case.
pub fn fuzz_program(seed: u64) -> Program {
    let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let flavor = rng.index(4);
    let cfg = GenCfg {
        mem: flavor >= 1,
        control: flavor >= 3,
        locals: rng.flip(),
        globals: 8 + rng.index(88) as u8,
    };
    let n = 1 + rng.index(48);
    if !cfg.mem && !cfg.control {
        return gen::straightline_program(&mut rng, n, &cfg);
    }
    let pkts: Vec<Packet> = (0..n)
        .map(|_| gen::packet(&mut rng, &cfg))
        .chain(std::iter::once(Packet::solo(Instr::Halt).expect("halt packet")))
        .collect();
    Program::new(0, pkts)
}

/// How one simulator's run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
enum End {
    Halted,
    Budget,
    Trap(String),
}

/// Everything [`diff_run`] establishes about one program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffOutcome {
    /// Cycle count of the cycle-accurate run (0 if it trapped).
    pub cycles: u64,
    /// Packets the functional simulator retired.
    pub packets: u64,
    /// First architectural divergence, human-readable. `None` = agree.
    pub divergence: Option<String>,
}

/// Run the program on both simulators under the same packet budget and
/// report the first architectural divergence: trap outcome, retired
/// packet count, any register, or any byte of memory.
pub fn diff_run(prog: &Program, budget: u64) -> DiffOutcome {
    let image = Arc::new(prog.clone());

    let mut func = FuncSim::new(Arc::clone(&image), FlatMem::new());
    let f_end = match func.run(budget) {
        Ok(_) if func.halted() => End::Halted,
        Ok(_) => End::Budget,
        Err(t) => End::Trap(format!("{t:?}")),
    };

    let mut cyc = CycleSim::new(image, PerfectPort::new(), TimingConfig::default());
    let c_end = match cyc.run(budget) {
        Ok(_) if cyc.halted() => End::Halted,
        Ok(_) => End::Budget,
        Err(SimError::Trap(t)) => End::Trap(format!("{t:?}")),
        Err(e @ SimError::Hang { .. }) => End::Trap(format!("{e:?}")),
    };

    let cycles = cyc.stats.cycles;
    let packets = func.stats.packets;
    let divergence = first_divergence(&func, &cyc, &f_end, &c_end);
    DiffOutcome { cycles, packets, divergence }
}

/// Run the program on the interpreter, the translated engine, and the
/// cycle model under the same budget. The two functional engines must be
/// *bit-identical* — same end state, [`majc_core::FuncStats`] counters,
/// trap registers, PC, every register, every byte of memory — and then
/// the functional consensus is compared to the cycle model exactly as in
/// [`diff_run`]. The first discrepancy found is reported.
pub fn diff_run3(prog: &Program, budget: u64) -> DiffOutcome {
    diff_run3_with_mem(prog, &FlatMem::new(), budget)
}

/// [`diff_run3`] with an initial memory image: all three engines start
/// from a clone of `mem`. This is how the generated irregular-program
/// corpus (whose programs read data sections) goes through the same
/// three-way check as the random packet streams.
pub fn diff_run3_with_mem(prog: &Program, mem: &FlatMem, budget: u64) -> DiffOutcome {
    let image = Arc::new(prog.clone());

    let mut func = FuncSim::new(Arc::clone(&image), mem.clone());
    let f_end = match func.run(budget) {
        Ok(_) if func.halted() => End::Halted,
        Ok(_) => End::Budget,
        Err(t) => End::Trap(format!("{t:?}")),
    };

    let mut xl = XlateSim::new(Arc::clone(&image), mem.clone());
    let x_end = match xl.run(budget) {
        Ok(_) if xl.halted() => End::Halted,
        Ok(_) => End::Budget,
        Err(t) => End::Trap(format!("{t:?}")),
    };

    if let Some(d) = engine_divergence(&func, &xl, &f_end, &x_end) {
        return DiffOutcome { cycles: 0, packets: func.stats.packets, divergence: Some(d) };
    }

    let mut cyc =
        CycleSim::new(image, PerfectPort::new().with_mem(mem.clone()), TimingConfig::default());
    let c_end = match cyc.run(budget) {
        Ok(_) if cyc.halted() => End::Halted,
        Ok(_) => End::Budget,
        Err(SimError::Trap(t)) => End::Trap(format!("{t:?}")),
        Err(e @ SimError::Hang { .. }) => End::Trap(format!("{e:?}")),
    };

    let cycles = cyc.stats.cycles;
    let packets = func.stats.packets;
    let divergence = first_divergence(&func, &cyc, &f_end, &c_end);
    DiffOutcome { cycles, packets, divergence }
}

/// The bit-identity check between the two functional engines. Stricter
/// than the func-vs-cycle comparison: the translation is *supposed* to be
/// the same machine, so every counter and trap register must match too.
fn engine_divergence(func: &FuncSim, xl: &XlateSim, f_end: &End, x_end: &End) -> Option<String> {
    if f_end != x_end {
        return Some(format!("outcome: interp={f_end:?} xlate={x_end:?}"));
    }
    if func.stats != xl.stats {
        return Some(format!("stats: interp={:?} xlate={:?}", func.stats, xl.stats));
    }
    if func.pc() != xl.pc() || func.halted() != xl.halted() {
        return Some(format!(
            "flow: interp pc={:#010x} halted={} xlate pc={:#010x} halted={}",
            func.pc(),
            func.halted(),
            xl.pc(),
            xl.halted()
        ));
    }
    if func.trap_regs() != xl.trap_regs() {
        return Some(format!(
            "trap regs: interp={:?} xlate={:?}",
            func.trap_regs(),
            xl.trap_regs()
        ));
    }
    let fr = func.regs.raw();
    let xr = xl.regs.raw();
    if let Some(i) = (0..fr.len()).find(|&i| fr[i] != xr[i]) {
        return Some(format!("reg[{i}]: interp={:#010x} xlate={:#010x}", fr[i], xr[i]));
    }
    func.mem
        .first_diff_detail(&xl.mem)
        .map(|d| format!("mem[{:#010x}]: interp={:#04x} xlate={:#04x}", d.addr, d.lhs, d.rhs))
}

fn first_divergence(
    func: &FuncSim,
    cyc: &CycleSim<PerfectPort>,
    f_end: &End,
    c_end: &End,
) -> Option<String> {
    if f_end != c_end {
        return Some(format!("outcome: func={f_end:?} cycle={c_end:?}"));
    }
    // Packet accounting differs by design on a delivered trap (the
    // functional model counts the trapping packet before flow handling),
    // so only trap-free runs compare counts.
    if !matches!(f_end, End::Trap(_)) && func.stats.packets != cyc.stats.packets {
        return Some(format!("packets: func={} cycle={}", func.stats.packets, cyc.stats.packets));
    }
    let fr = func.regs.raw();
    let cr = cyc.regs(0).raw();
    if let Some(i) = (0..fr.len()).find(|&i| fr[i] != cr[i]) {
        return Some(format!("reg[{i}]: func={:#010x} cycle={:#010x}", fr[i], cr[i]));
    }
    func.mem
        .first_diff_detail(&cyc.port.mem)
        .map(|d| format!("mem[{:#010x}]: func={:#04x} cycle={:#04x}", d.addr, d.lhs, d.rhs))
}

/// Greedy packet-bisection reducer (ddmin-style): repeatedly remove
/// chunks of packets, halving the chunk size, keeping any candidate that
/// still fails `diverges`. The result is 1-minimal — removing any single
/// remaining packet makes the divergence disappear.
pub fn shrink_with(prog: &Program, diverges: impl Fn(&Program) -> bool) -> Program {
    let mut pkts = prog.packets().to_vec();
    let mut chunk = (pkts.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < pkts.len() && pkts.len() > 1 {
            let end = (i + chunk).min(pkts.len());
            let mut cand = pkts.clone();
            cand.drain(i..end);
            if !cand.is_empty() && diverges(&Program::new(prog.base(), cand.clone())) {
                pkts = cand;
            } else {
                i = end;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    Program::new(prog.base(), pkts)
}

/// Shrink a program whose [`diff_run`] diverges to a minimal program
/// that still shows *a* divergence (not necessarily the identical one —
/// standard reducer practice).
pub fn shrink(prog: &Program, budget: u64) -> Program {
    shrink_with(prog, |p| diff_run(p, budget).divergence.is_some())
}

/// Write a minimized failure to `dir/repro-<seed>.s`: the divergence as
/// a header comment plus the disassembled program, replayable through
/// the assembler.
pub fn write_repro(
    dir: &Path,
    seed: u64,
    prog: &Program,
    divergence: &str,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("repro-{seed:016x}.s"));
    let mut text = String::new();
    text.push_str(&format!("; differential fuzzer repro, seed {seed:#018x}\n"));
    text.push_str(&format!("; divergence: {divergence}\n"));
    text.push_str(&format!("; {} packet(s), base {:#010x}\n", prog.len(), prog.base()));
    text.push_str(&majc_asm::program_to_string(prog));
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_programs_are_reproducible_and_end_in_halt() {
        for seed in 0..50u64 {
            let a = fuzz_program(seed);
            let b = fuzz_program(seed);
            assert_eq!(a.packets(), b.packets(), "seed {seed}");
            let last = a.packets().last().expect("non-empty");
            assert!(
                last.slots().any(|(_, i)| matches!(i, Instr::Halt)),
                "seed {seed} does not end in halt"
            );
        }
    }

    #[test]
    fn a_known_clean_seed_produces_no_divergence() {
        let p = fuzz_program(0);
        let out = diff_run(&p, FUZZ_BUDGET);
        assert_eq!(out.divergence, None, "{:?}", out);
        assert!(out.packets > 0);
    }

    #[test]
    fn three_way_diff_agrees_on_clean_seeds() {
        for seed in [0u64, 3, 11, 42] {
            let p = fuzz_program(seed);
            let out = diff_run3(&p, FUZZ_BUDGET);
            assert_eq!(out.divergence, None, "seed {seed}: {:?}", out);
        }
    }

    #[test]
    fn reducer_is_one_minimal_against_a_synthetic_predicate() {
        // Divergence := "program still contains a Div packet". The
        // reducer must strip everything else.
        let mut rng = SplitMix64::new(77);
        let mut pkts: Vec<Packet> =
            (0..24).map(|_| gen::packet(&mut rng, &GenCfg::compute_only(16))).collect();
        let marker = Packet::solo(Instr::Div {
            rd: majc_isa::Reg::g(1),
            rs1: majc_isa::Reg::g(2),
            rs2: majc_isa::Reg::g(3),
        })
        .expect("solo div");
        pkts.insert(13, marker);
        let prog = Program::new(0, pkts);
        let has_div = |p: &Program| {
            p.packets().iter().any(|pkt| pkt.slots().any(|(_, i)| matches!(i, Instr::Div { .. })))
        };
        let small = shrink_with(&prog, has_div);
        assert_eq!(small.len(), 1, "reducer left extra packets: {small:?}");
        assert!(has_div(&small));
    }
}
