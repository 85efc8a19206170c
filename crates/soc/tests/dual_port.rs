//! Dual-port isolation and arbitration properties of the shared D-cache.
//!
//! The chip promises that two CPUs running *disjoint* programs — no shared
//! cache lines — behave exactly like two standalone single-CPU simulators:
//! the shared dual-ported D-cache and the per-CPU I-caches add no
//! cross-CPU interference. Cold misses DO couple the CPUs (they serialize
//! on the one DRDRAM channel behind the crossbar — that contention is the
//! point of the chip model), so the isolation property is stated where it
//! must hold exactly: the warm steady state, where every access hits and
//! the hierarchy has no shared resource left to fight over. Each test runs
//! a cold pass to fill the caches, opens a new epoch (`new_epoch` keeps
//! tags, discards in-flight timing), and compares the `Event::Issue`
//! streams of a fresh measurement pass against standalone cores, each on
//! its own memory system, warmed the same way.
//!
//! The last test is the complement: same-cycle same-line traffic *with a
//! writer* must be serialized by the port arbiter (counted in
//! `dport_conflicts`), deterministically, without losing either CPU's
//! stores.

use majc_asm::Asm;
use majc_core::{CpuCore, Event, LocalMemSys, MemSink, TimingConfig};
use majc_isa::gen::{straightline_program, GenCfg};
use majc_isa::{AluOp, CachePolicy, Cond, Instr, MemWidth, Off, Program, Reg, SplitMix64, Src};
use majc_mem::FlatMem;
use majc_soc::Majc5200;

/// A comparable projection of one issued packet.
type Rec = (u8, u32, u64, u8, u32);

fn recs(sink: &mut MemSink) -> Vec<Rec> {
    let issues = sink.events().iter().filter_map(|e| match *e {
        Event::Issue { ctx, pc, at, width, stalls, .. } => {
            Some((ctx, pc, at, width, stalls.operand + stalls.bypass))
        }
        _ => None,
    });
    issues.collect()
}

/// Warm-run `p` alone on a single-CPU simulator bound to D-cache port
/// `cpu` and return the steady-state issue trace.
fn solo_warm_trace(p: &Program, cpu: usize) -> Vec<Rec> {
    let cfg = TimingConfig::default();
    let mut port = LocalMemSys::majc5200();
    CpuCore::new(p.clone(), cfg, cpu).run_on(&mut port, 1_000_000).expect("solo warm pass");
    port.new_epoch();
    let mut core = CpuCore::with_sink(p.clone(), cfg, cpu, MemSink::unbounded());
    core.run_on(&mut port, 1_000_000).expect("solo measurement pass");
    recs(&mut core.sink)
}

/// Warm-run both programs through the SoC and return both steady-state
/// issue traces plus the conflict count of the measurement pass.
fn soc_warm_traces(p0: &Program, p1: &Program) -> ([Vec<Rec>; 2], u64) {
    let cfg = TimingConfig::default();
    let sinks = || [MemSink::unbounded(), MemSink::unbounded()];
    let mut chip = Majc5200::with_sinks([p0.clone(), p1.clone()], FlatMem::new(), cfg, sinks());
    chip.run(10_000_000).expect("SoC warm pass");
    chip.chip_mut().new_epoch();
    let before = chip.chip().stats.dport_conflicts;
    let [s0, s1] = sinks();
    chip.cpu =
        [CpuCore::with_sink(p0.clone(), cfg, 0, s0), CpuCore::with_sink(p1.clone(), cfg, 1, s1)];
    chip.run(10_000_000).expect("SoC measurement pass");
    let [c0, c1] = &mut chip.cpu;
    ([recs(&mut c0.sink), recs(&mut c1.sink)], chip.chip().stats.dport_conflicts - before)
}

/// Disjoint compute-only programs: randomized property over many seeds.
/// Each CPU's warm issue trace through the SoC must be cycle-identical to
/// the same program on a standalone simulator.
#[test]
fn disjoint_compute_matches_standalone() {
    for seed in 0..10u64 {
        let cfg = GenCfg::compute_only(24);
        let p0 =
            straightline_program(&mut SplitMix64::new(2 * seed + 1), 24 + 5 * seed as usize, &cfg);
        let p1 =
            straightline_program(&mut SplitMix64::new(2 * seed + 2), 16 + 7 * seed as usize, &cfg);
        let ([t0, t1], conflicts) = soc_warm_traces(&p0, &p1);
        assert_eq!(t0, solo_warm_trace(&p0, 0), "seed {seed}: CPU0 trace diverged");
        assert_eq!(t1, solo_warm_trace(&p1, 1), "seed {seed}: CPU1 trace diverged");
        assert_eq!(conflicts, 0, "seed {seed}: compute-only programs touched the D ports");
    }
}

/// A load loop walking `lines` consecutive cache lines starting at `data`.
fn line_walker(code_base: u32, data: u32, lines: u32) -> Program {
    let mut a = Asm::new(code_base);
    a.set32(Reg::g(0), data);
    a.set32(Reg::g(2), lines);
    a.label("l");
    a.op(Instr::Ld {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rd: Reg::g(1),
        base: Reg::g(0),
        off: Off::Imm(0),
    });
    a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(0), rs1: Reg::g(0), src2: Src::Imm(32) });
    a.op(Instr::Alu { op: AluOp::Sub, rd: Reg::g(2), rs1: Reg::g(2), src2: Src::Imm(1) });
    a.br(Cond::Gt, Reg::g(2), "l", true);
    a.op(Instr::Halt);
    a.finish().unwrap()
}

/// Disjoint *data* traffic: CPU0 walks lines mapping to D-cache sets 0-63,
/// CPU1 walks sets 64-127 (the set index is addr bits [5..12)). Both ports
/// are live every iteration, yet with no shared line the arbiter never
/// fires and each CPU's warm trace equals its standalone run exactly.
#[test]
fn disjoint_data_sets_match_standalone() {
    // 0x10_0000 / 32 = 32768 ≡ 0 (mod 128): lines land in sets 0..64.
    let p0 = line_walker(0, 0x10_0000, 64);
    // 0x20_0000 / 32 = 65536 ≡ 0 (mod 128), +64 lines: sets 64..128.
    let p1 = line_walker(0x4000, 0x20_0000 + 64 * 32, 64);
    let ([t0, t1], conflicts) = soc_warm_traces(&p0, &p1);
    assert_eq!(t0, solo_warm_trace(&p0, 0), "CPU0 trace diverged");
    assert_eq!(t1, solo_warm_trace(&p1, 1), "CPU1 trace diverged");
    assert_eq!(conflicts, 0, "disjoint sets must never collide on a port");
}

/// A store loop hammering one word of a shared line. `pad` inserts extra
/// ALU packets per iteration: giving the two CPUs different loop periods
/// sweeps their store-drain phases past each other, so same-cycle
/// collisions are guaranteed rather than phase-locked away.
fn line_hammer(code_base: u32, addr: u32, val: u32, iters: u32, pad: u32) -> Program {
    let mut a = Asm::new(code_base);
    a.set32(Reg::g(0), addr);
    a.set32(Reg::g(1), val);
    a.set32(Reg::g(2), iters);
    a.label("l");
    a.op(Instr::St {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rs: Reg::g(1),
        base: Reg::g(0),
        off: Off::Imm(0),
    });
    for _ in 0..pad {
        a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(3), rs1: Reg::g(3), src2: Src::Imm(1) });
    }
    a.op(Instr::Alu { op: AluOp::Sub, rd: Reg::g(2), rs1: Reg::g(2), src2: Src::Imm(1) });
    a.br(Cond::Gt, Reg::g(2), "l", true);
    a.op(Instr::Halt);
    a.finish().unwrap()
}

/// Same-cycle same-line stores from both CPUs: the port arbiter must
/// serialize them (conflicts observed and counted), the outcome must be
/// deterministic run-to-run, and neither CPU's stores may be lost — the
/// line stays coherent because there is only one physical copy.
#[test]
fn same_line_writes_arbitrate_coherently() {
    const LINE: u32 = 0x0003_0000;
    let run = || {
        let mut chip = Majc5200::new(
            [
                line_hammer(0, LINE, 0xAAAA_0000, 400, 0),
                line_hammer(0x4000, LINE + 4, 0xBBBB_0000, 400, 1),
            ],
            FlatMem::new(),
            TimingConfig::default(),
        );
        let (c0, c1) = chip.run(10_000_000).expect("conflict scenario");
        let w0 = chip.chip_mut().mem.read_u32(LINE);
        let w1 = chip.chip_mut().mem.read_u32(LINE + 4);
        (c0, c1, chip.chip().stats.dport_conflicts, w0, w1)
    };
    let (c0, c1, conflicts, w0, w1) = run();
    assert!(conflicts > 0, "same-cycle same-line writes never collided");
    assert_eq!(w0, 0xAAAA_0000, "CPU0's stores lost");
    assert_eq!(w1, 0xBBBB_0000, "CPU1's stores lost");
    assert_eq!(run(), (c0, c1, conflicts, w0, w1), "arbitration must be deterministic");
}
