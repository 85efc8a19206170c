//! Shared measurement harness for benchmark kernels.
//!
//! Every kernel provides: a builder that emits MAJC code plus initialised
//! memory, a pure-Rust reference, and an extractor reading results back
//! from memory. The harness runs the same program on the functional
//! simulator (correctness) and the cycle simulator (timing), under either
//! the real DRDRAM memory system or perfect memory (the paper's "without
//! memory effects").

use majc_core::{CycleSim, CycleStats, FuncSim, LocalMemSys, PerfectPort, SimError, TimingConfig};
use majc_isa::Program;
use majc_mem::FlatMem;

/// Which memory system to run under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemModel {
    /// 16 KB caches over the 1.6 GB/s DRDRAM channel.
    Dram,
    /// Real caches over a zero-latency backend.
    PerfectDram,
    /// Fully ideal: every access a 2-cycle hit.
    Perfect,
}

/// Outcome of one cycle-accurate run.
pub struct CycleRun {
    pub stats: CycleStats,
    pub mem: FlatMem,
}

/// Run to halt on the cycle simulator (cold caches).
pub fn run_cycle(prog: &Program, mem: FlatMem, model: MemModel, cfg: TimingConfig) -> CycleRun {
    run_cycle_limit(prog, mem, model, cfg, 200_000_000)
}

/// Run twice on the same memory system and report the *second* pass:
/// warm-cache methodology, matching how kernel cycle counts are normally
/// quoted (and how the paper's per-kernel numbers must be read — 63 cycles
/// for the biquad cascade cannot include cold-start misses). Kernels are
/// idempotent over memory (inputs read, outputs written), so the second
/// pass computes identical results. Capacity misses in data sets larger
/// than the 16 KB cache remain visible, as they should.
pub fn run_warm(prog: &Program, mem: FlatMem, model: MemModel, cfg: TimingConfig) -> CycleRun {
    match model {
        MemModel::Perfect => run_cycle(prog, mem, model, cfg),
        MemModel::Dram | MemModel::PerfectDram => {
            let base = if model == MemModel::Dram {
                LocalMemSys::majc5200()
            } else {
                LocalMemSys::perfect_dram()
            };
            let port = base.with_mem(mem);
            let mut warm = CycleSim::new(prog.clone(), port, cfg);
            expect_halt(warm.run(200_000_000), warm.halted());
            let mut port = warm.port;
            port.new_epoch();
            let mut sim = CycleSim::new(prog.clone(), port, cfg);
            expect_halt(sim.run(200_000_000), sim.halted());
            CycleRun { stats: sim.stats, mem: sim.port.mem }
        }
    }
}

/// Run to halt with an explicit packet limit.
pub fn run_cycle_limit(
    prog: &Program,
    mem: FlatMem,
    model: MemModel,
    cfg: TimingConfig,
    max_packets: u64,
) -> CycleRun {
    match model {
        MemModel::Perfect => {
            let port = PerfectPort::new().with_mem(mem);
            let mut sim = CycleSim::new(prog.clone(), port, cfg);
            expect_halt(sim.run(max_packets), sim.halted());
            CycleRun { stats: sim.stats, mem: sim.port.mem }
        }
        MemModel::Dram | MemModel::PerfectDram => {
            let base = if model == MemModel::Dram {
                LocalMemSys::majc5200()
            } else {
                LocalMemSys::perfect_dram()
            };
            let port = base.with_mem(mem);
            let mut sim = CycleSim::new(prog.clone(), port, cfg);
            expect_halt(sim.run(max_packets), sim.halted());
            CycleRun { stats: sim.stats, mem: sim.port.mem }
        }
    }
}

fn expect_halt(res: Result<u64, SimError>, halted: bool) {
    match res {
        Ok(_) => assert!(halted, "kernel did not halt within the packet budget"),
        Err(e) => panic!("kernel failed: {e}"),
    }
}

/// Run to halt on the functional simulator; returns final memory.
pub fn run_func(prog: &Program, mem: FlatMem) -> FlatMem {
    let mut sim = FuncSim::new(prog.clone(), mem);
    sim.run(200_000_000).expect("kernel trapped");
    assert!(sim.halted(), "kernel did not halt");
    sim.mem
}

/// Convenience: warm-cache cycles under the default MAJC-5200
/// configuration and the DRDRAM memory system.
pub fn measure(prog: &Program, mem: FlatMem) -> u64 {
    run_warm(prog, mem, MemModel::Dram, TimingConfig::default()).stats.cycles
}

// ---------------- memory image helpers for kernel builders ----------------

/// Write a slice of `f32` at `addr`.
pub fn put_f32s(mem: &mut FlatMem, addr: u32, xs: &[f32]) {
    for (i, &x) in xs.iter().enumerate() {
        mem.write_f32(addr + 4 * i as u32, x);
    }
}

/// Read `n` `f32`s from `addr`.
pub fn get_f32s(mem: &mut FlatMem, addr: u32, n: usize) -> Vec<f32> {
    (0..n).map(|i| mem.read_f32(addr + 4 * i as u32)).collect()
}

/// Write a slice of `i16` at `addr`.
pub fn put_i16s(mem: &mut FlatMem, addr: u32, xs: &[i16]) {
    for (i, &x) in xs.iter().enumerate() {
        mem.write_u16(addr + 2 * i as u32, x as u16);
    }
}

pub fn get_i16s(mem: &mut FlatMem, addr: u32, n: usize) -> Vec<i16> {
    (0..n).map(|i| mem.read_u16(addr + 2 * i as u32) as i16).collect()
}

/// Write a slice of `u8` at `addr`.
pub fn put_u8s(mem: &mut FlatMem, addr: u32, xs: &[u8]) {
    mem.write(addr, xs);
}

pub fn get_u8s(mem: &mut FlatMem, addr: u32, n: usize) -> Vec<u8> {
    let mut v = vec![0u8; n];
    mem.read(addr, &mut v);
    v
}

/// Write a slice of `u32`/`i32` words.
pub fn put_u32s(mem: &mut FlatMem, addr: u32, xs: &[u32]) {
    for (i, &x) in xs.iter().enumerate() {
        mem.write_u32(addr + 4 * i as u32, x);
    }
}

pub fn get_i32s(mem: &mut FlatMem, addr: u32, n: usize) -> Vec<i32> {
    (0..n).map(|i| mem.read_u32(addr + 4 * i as u32) as i32).collect()
}

/// Standard data-region addresses used by the kernels.
pub mod layout {
    /// Primary input array.
    pub const INPUT: u32 = 0x0001_0000;
    /// Secondary input (coefficients, reference block, ...).
    pub const COEFF: u32 = 0x0002_0000;
    /// Output array.
    pub const OUTPUT: u32 = 0x0003_0000;
    /// Lookup tables (twiddles, zigzag, VLC, ...).
    pub const TABLE: u32 = 0x0004_0000;
    /// Scratch.
    pub const SCRATCH: u32 = 0x0005_0000;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_helpers_round_trip() {
        let mut m = FlatMem::new();
        put_f32s(&mut m, 0x100, &[1.0, -2.5, 3.25]);
        assert_eq!(get_f32s(&mut m, 0x100, 3), vec![1.0, -2.5, 3.25]);
        put_i16s(&mut m, 0x200, &[-7, 7, 32767]);
        assert_eq!(get_i16s(&mut m, 0x200, 3), vec![-7, 7, 32767]);
        put_u8s(&mut m, 0x300, &[1, 2, 3]);
        assert_eq!(get_u8s(&mut m, 0x300, 3), vec![1, 2, 3]);
    }
}
