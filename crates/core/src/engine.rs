//! The unified functional-execution interface.
//!
//! Two engines execute MAJC programs architecturally: [`FuncSim`], the
//! packet-at-a-time interpreter, and [`XlateSim`](crate::xlate::XlateSim),
//! the decode-once translated engine. Both are bit-identical — same
//! counters, traps, snapshots, and digests — so every consumer (the farm,
//! the differential fuzzer, the lint fact validator, the fault-soak
//! oracle, `majc-serve` workers) programs against this trait and picks an
//! engine by construction only.

use majc_isa::Program;
use majc_mem::FlatMem;

use crate::exec::Trap;
use crate::func_sim::{FuncSim, FuncStats};
use crate::regfile::RegFile;
use crate::snapshot::CpuSnap;
use crate::trap::{SimError, TrapRegs};

/// An instruction-accurate execution engine for one CPU.
///
/// Implementations must agree bit-for-bit on every architectural outcome:
/// register and memory state, the [`FuncStats`] counters, trap delivery
/// (including [`TrapRegs`] contents), and [`CpuSnap`] captures. The
/// differential fuzzer enforces this across engines on every CI run.
pub trait ExecEngine {
    /// Execute one packet. `Ok(true)` while running, `Ok(false)` once
    /// halted; `Err` on an unvectored (or double) trap.
    fn step(&mut self) -> Result<bool, Trap>;

    /// Current packet address.
    fn pc(&self) -> u32;

    /// Whether the machine has executed `halt`.
    fn halted(&self) -> bool;

    /// The program image being executed.
    fn program(&self) -> &Program;

    /// Architectural register state.
    fn regs(&self) -> &RegFile;

    /// Mutable register state (test setup, checkpoint restore).
    fn regs_mut(&mut self) -> &mut RegFile;

    /// The data memory image.
    fn mem(&self) -> &FlatMem;

    /// Mutable data memory image.
    fn mem_mut(&mut self) -> &mut FlatMem;

    /// Architectural event counters.
    fn stats(&self) -> &FuncStats;

    /// Enable vectored trap delivery to the packet at `base`.
    fn set_trap_vector(&mut self, base: u32);

    /// The trap registers (latched by the most recent delivery).
    fn trap_regs(&self) -> &TrapRegs;

    /// Capture the architectural state at the current packet boundary.
    fn capture(&self) -> CpuSnap;

    /// Stable engine identifier for reports and diagnostics.
    fn engine_name(&self) -> &'static str;

    /// Run until `halt` or until `max_steps` steps (each what one
    /// [`ExecEngine::step`] does) have been made; returns packets
    /// committed. Every step — including a trap delivery, which commits no
    /// packet — consumes budget, so a trap storm cannot run unbounded.
    /// Each engine implements its own loop; none is shared.
    fn run(&mut self, max_steps: u64) -> Result<u64, Trap>;

    /// [`ExecEngine::run`] with a watchdog: exhausting the step budget
    /// without reaching `halt` is a hang, reported as a structured
    /// [`SimError::Hang`] carrying the stuck PC.
    fn run_to_halt(&mut self, max_steps: u64) -> Result<u64, SimError>;
}

impl ExecEngine for FuncSim {
    fn step(&mut self) -> Result<bool, Trap> {
        FuncSim::step(self)
    }

    fn pc(&self) -> u32 {
        FuncSim::pc(self)
    }

    fn halted(&self) -> bool {
        FuncSim::halted(self)
    }

    fn program(&self) -> &Program {
        FuncSim::program(self)
    }

    fn regs(&self) -> &RegFile {
        &self.regs
    }

    fn regs_mut(&mut self) -> &mut RegFile {
        &mut self.regs
    }

    fn mem(&self) -> &FlatMem {
        &self.mem
    }

    fn mem_mut(&mut self) -> &mut FlatMem {
        &mut self.mem
    }

    fn stats(&self) -> &FuncStats {
        &self.stats
    }

    fn set_trap_vector(&mut self, base: u32) {
        FuncSim::set_trap_vector(self, base)
    }

    fn trap_regs(&self) -> &TrapRegs {
        FuncSim::trap_regs(self)
    }

    fn capture(&self) -> CpuSnap {
        FuncSim::capture(self)
    }

    fn engine_name(&self) -> &'static str {
        "func-interp"
    }

    fn run(&mut self, max_steps: u64) -> Result<u64, Trap> {
        FuncSim::run(self, max_steps)
    }

    fn run_to_halt(&mut self, max_steps: u64) -> Result<u64, SimError> {
        FuncSim::run_to_halt(self, max_steps)
    }
}
