//! The differential oracle: one program on all three engines.
//!
//! The interpreter ([`FuncSim`]) and the translated engine ([`XlateSim`])
//! are meant to be the same machine, so they are compared bit for bit on
//! everything: how the run ended, the [`FuncStats`](crate::FuncStats)
//! counters, the PC, the trap registers, every register and every byte
//! of memory. Their consensus is then compared with the cycle model on
//! ideal memory ([`PerfectPort`], so timing cannot mask an architectural
//! bug). The cycle model executes the translated engine's micro-ops, so
//! a divergence there means its scheduling machinery (bypass tracking,
//! LSU, predictor redirects, trap delivery) corrupted state it must only
//! ever reorder.
//!
//! [`diff_run`] is the one entry point. The bench fuzzer, its reducer,
//! the `reproduce` experiments and serve's `fuzz` verb all call it.

use std::sync::Arc;

use majc_isa::Program;
use majc_mem::FlatMem;

use crate::config::TimingConfig;
use crate::cycle::CycleSim;
use crate::engine::ExecEngine;
use crate::func_sim::FuncSim;
use crate::memsys::PerfectPort;
use crate::regfile::RegFile;
use crate::trap::SimError;
use crate::xlate::{Translation, XlateSim};

/// How one engine's run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
enum End {
    Halted,
    Budget,
    Trap(String),
}

/// Everything [`diff_run`] establishes about one program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffOutcome {
    /// Cycle count of the cycle-accurate run (0 if the functional engines
    /// already disagreed and it did not run).
    pub cycles: u64,
    /// Packets the interpreter retired.
    pub packets: u64,
    /// First architectural divergence, human-readable. `None` = agree.
    pub divergence: Option<String>,
}

/// Run `prog` from a clone of `mem` on the interpreter, the translated
/// engine and the cycle model, each under the same `budget`, and report
/// the first discrepancy. The interpreter comes back at its end state,
/// so a caller can check the program's own postconditions without a
/// second run.
///
/// The translated engine translates privately: an oracle run never
/// touches the process-wide translation cache or its counters.
pub fn diff_run(
    prog: impl Into<Arc<Program>>,
    mem: &FlatMem,
    budget: u64,
) -> (DiffOutcome, FuncSim) {
    let image = prog.into();

    let mut func = FuncSim::new(Arc::clone(&image), mem.clone());
    let f_end = functional_end(&mut func, budget);
    let xl = Arc::new(Translation::build(Arc::clone(&image)));
    let mut xs = XlateSim::from_translation(xl, mem.clone());
    let x_end = functional_end(&mut xs, budget);
    if let Some(d) = engine_divergence(&func, &xs, &f_end, &x_end) {
        let packets = func.stats.packets;
        return (DiffOutcome { cycles: 0, packets, divergence: Some(d) }, func);
    }

    let port = PerfectPort::new().with_mem(mem.clone());
    let mut cyc = CycleSim::new(image, port, TimingConfig::default());
    let c_end = match cyc.run(budget) {
        Ok(_) if cyc.halted() => End::Halted,
        Ok(_) => End::Budget,
        Err(SimError::Trap(t)) => End::Trap(format!("{t:?}")),
        Err(e @ SimError::Hang { .. }) => End::Trap(format!("{e:?}")),
    };
    let divergence = cycle_divergence(&func, &cyc, &f_end, &c_end);
    (DiffOutcome { cycles: cyc.stats.cycles, packets: func.stats.packets, divergence }, func)
}

/// Run a functional engine under `budget` and classify how it ended.
fn functional_end<E: ExecEngine>(engine: &mut E, budget: u64) -> End {
    match engine.run(budget) {
        Ok(_) if engine.halted() => End::Halted,
        Ok(_) => End::Budget,
        Err(t) => End::Trap(format!("{t:?}")),
    }
}

/// The bit-identity check between the two functional engines. Stricter
/// than the comparison with the cycle model: the translation is the same
/// machine, so every counter and trap register must match too.
fn engine_divergence(func: &FuncSim, xs: &XlateSim, f_end: &End, x_end: &End) -> Option<String> {
    if f_end != x_end {
        return Some(format!("outcome: interp={f_end:?} xlate={x_end:?}"));
    }
    if func.stats != xs.stats {
        return Some(format!("stats: interp={:?} xlate={:?}", func.stats, xs.stats));
    }
    if func.pc() != xs.pc() || func.halted() != xs.halted() {
        return Some(format!(
            "flow: interp pc={:#010x} halted={} xlate pc={:#010x} halted={}",
            func.pc(),
            func.halted(),
            xs.pc(),
            xs.halted()
        ));
    }
    if func.trap_regs() != xs.trap_regs() {
        return Some(format!(
            "trap regs: interp={:?} xlate={:?}",
            func.trap_regs(),
            xs.trap_regs()
        ));
    }
    state_divergence(("interp", &func.regs, &func.mem), ("xlate", &xs.regs, &xs.mem))
}

/// The functional consensus against the cycle model: outcome, retired
/// packets, registers and memory.
fn cycle_divergence(
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
    state_divergence(("func", &func.regs, &func.mem), ("cycle", cyc.regs(0), &cyc.port.mem))
}

/// The first register, else the first memory byte, where two labelled
/// machine states differ.
fn state_divergence(
    (la, ra, ma): (&str, &RegFile, &FlatMem),
    (lb, rb, mb): (&str, &RegFile, &FlatMem),
) -> Option<String> {
    let (ra, rb) = (ra.raw(), rb.raw());
    if let Some(i) = (0..ra.len()).find(|&i| ra[i] != rb[i]) {
        return Some(format!("reg[{i}]: {la}={:#010x} {lb}={:#010x}", ra[i], rb[i]));
    }
    ma.first_diff_detail(mb)
        .map(|d| format!("mem[{:#010x}]: {la}={:#04x} {lb}={:#04x}", d.addr, d.lhs, d.rhs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use majc_isa::{gen, Instr, Packet, Reg, SplitMix64, Src};

    fn fuzz(seed: u64) -> Program {
        gen::fuzz_program(&mut SplitMix64::new(seed), 48)
    }

    #[test]
    fn clean_seeds_agree_three_ways() {
        for seed in 0..32u64 {
            let (out, _) = diff_run(fuzz(seed), &FlatMem::new(), 20_000);
            assert_eq!(out.divergence, None, "seed {seed}: {out:?}");
        }
    }

    #[test]
    fn the_interpreter_comes_back_at_its_end_state() {
        let add = Instr::Alu {
            op: majc_isa::AluOp::Add,
            rd: Reg::g(1),
            rs1: Reg::g(2),
            src2: Src::Imm(7),
        };
        let prog =
            Program::new(0, vec![Packet::solo(add).unwrap(), Packet::solo(Instr::Halt).unwrap()]);
        let (out, interp) = diff_run(prog, &FlatMem::new(), 100);
        assert_eq!((out.packets, out.divergence), (2, None));
        assert!(out.cycles > 0);
        assert!(interp.halted());
        assert_eq!(interp.regs.get(Reg::g(1)), 7);
    }

    #[test]
    fn engine_divergence_names_the_first_difference() {
        let prog = Arc::new(fuzz(1));
        let mut func = FuncSim::new(Arc::clone(&prog), FlatMem::new());
        let mut xs = XlateSim::from_translation(Arc::new(Translation::build(prog)), FlatMem::new());
        let (f_end, x_end) = (functional_end(&mut func, 100), functional_end(&mut xs, 100));
        assert_eq!(engine_divergence(&func, &xs, &f_end, &x_end), None);
        xs.mem.write(0x40, &[1]);
        let d = engine_divergence(&func, &xs, &f_end, &x_end).expect("memory differs");
        assert!(d.starts_with("mem[0x00000040]"), "{d}");
        assert_eq!(
            engine_divergence(&func, &xs, &End::Halted, &End::Budget).as_deref(),
            Some("outcome: interp=Halted xlate=Budget")
        );
    }
}
