//! Dual-CPU trap interplay on the full chip model.
//!
//! Precise trap delivery is per-CPU state: one CPU vectoring into its
//! handler must not disturb the other CPU's pipeline, the shared D-cache,
//! or the crossbar. These tests run recovery scenarios on CPU0 while CPU1
//! keeps executing — including traps taken with stores draining behind a
//! membar, traps with scoreboarded loads still in flight, and a
//! whole-chip fault-injection soak with both CPUs recovering.

use majc_asm::Asm;
use majc_core::{SimError, TimingConfig, TrapPolicy};
use majc_isa::{AluOp, CachePolicy, Cond, Instr, MemWidth, Off, Program, Reg, Src};
use majc_mem::{FaultPlan, FlatMem};
use majc_soc::Majc5200;

const RESULT0: u32 = 0x0002_0000;
const COUNTER1: u32 = 0x0002_1000;

fn ld(rd: Reg, base: Reg, off: i16) -> Instr {
    Instr::Ld { w: MemWidth::W, pol: CachePolicy::Cached, rd, base, off: Off::Imm(off) }
}

fn st(rs: Reg, base: Reg, off: i16) -> Instr {
    Instr::St { w: MemWidth::W, pol: CachePolicy::Cached, rs, base, off: Off::Imm(off) }
}

/// CPU1's independent workload: CAS-increment `counter` fifty times.
fn incrementer(base: u32, counter: u32) -> Program {
    let mut a = Asm::new(base);
    a.set32(Reg::g(0), counter);
    a.set32(Reg::g(1), 50);
    a.label("retry");
    a.op(ld(Reg::g(2), Reg::g(0), 0));
    a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(3), rs1: Reg::g(2), src2: Src::Imm(1) });
    a.op(Instr::Cas { rd: Reg::g(2), base: Reg::g(0), rs: Reg::g(3) });
    a.op(Instr::Alu { op: AluOp::Sub, rd: Reg::g(4), rs1: Reg::g(3), src2: Src::Imm(1) });
    a.op(Instr::Alu { op: AluOp::Sub, rd: Reg::g(4), rs1: Reg::g(4), src2: Src::Reg(Reg::g(2)) });
    a.br(Cond::Ne, Reg::g(4), "retry", false);
    a.op(Instr::Alu { op: AluOp::Sub, rd: Reg::g(1), rs1: Reg::g(1), src2: Src::Imm(1) });
    a.br(Cond::Gt, Reg::g(1), "retry", true);
    a.op(Instr::Halt);
    a.finish().unwrap()
}

#[test]
fn cpu0_trap_recovery_leaves_cpu1_undisturbed() {
    // CPU0 divides by zero; its handler repairs the divisor and rte
    // retries. CPU1 hammers the shared D-cache with atomics throughout.
    let mut a = Asm::new(0);
    a.op(Instr::SetLo { rd: Reg::g(0), imm: 12 });
    a.op(Instr::Div { rd: Reg::g(1), rs1: Reg::g(0), rs2: Reg::g(2) });
    a.set32(Reg::g(5), RESULT0);
    a.op(st(Reg::g(1), Reg::g(5), 0));
    a.op(Instr::Halt);
    // handler: last two packets.
    a.op(Instr::SetLo { rd: Reg::g(2), imm: 4 });
    a.op(Instr::Rte);
    let p0 = a.finish().unwrap();
    let vector = p0.addr_of(p0.len() - 2);

    let mut chip =
        Majc5200::new([p0, incrementer(0x4000, COUNTER1)], FlatMem::new(), TimingConfig::default());
    chip.cpu[0].set_trap_policy(TrapPolicy::Vector { base: vector });
    chip.run(10_000_000).unwrap();
    assert!(chip.cpu[0].halted() && chip.cpu[1].halted());
    assert_eq!(chip.cpu[0].stats.traps, 1, "one precise trap on CPU0");
    assert_eq!(chip.cpu[1].stats.traps, 0, "CPU1 never traps");
    let mem = &mut chip.chip_mut().mem;
    assert_eq!(mem.read_u32(RESULT0), 3, "retried divide on CPU0");
    assert_eq!(mem.read_u32(COUNTER1), 50, "CPU1's atomics all landed");
}

#[test]
fn trap_behind_membar_drain_is_precise() {
    // CPU0 posts stores, fences them with membar, then takes a misaligned
    // load trap. The handler aligns the address; the fenced stores must
    // be visible exactly once and the retried load must see memory.
    let mut a = Asm::new(0);
    a.set32(Reg::g(0), RESULT0);
    a.op(Instr::SetLo { rd: Reg::g(1), imm: 7 });
    a.op(st(Reg::g(1), Reg::g(0), 0));
    a.op(st(Reg::g(1), Reg::g(0), 4));
    a.op(Instr::Membar);
    a.op(Instr::SetLo { rd: Reg::g(2), imm: 0x1001 });
    a.op(ld(Reg::g(3), Reg::g(2), 0)); // traps: misaligned
    a.op(st(Reg::g(3), Reg::g(0), 8));
    a.op(Instr::Halt);
    a.op(Instr::Alu { op: AluOp::And, rd: Reg::g(2), rs1: Reg::g(2), src2: Src::Imm(-4) });
    a.op(Instr::Rte);
    let p0 = a.finish().unwrap();
    let vector = p0.addr_of(p0.len() - 2);

    let mut mem = FlatMem::new();
    mem.write_u32(0x1000, 99);
    let mut chip = Majc5200::new([p0, incrementer(0x4000, COUNTER1)], mem, TimingConfig::default());
    chip.cpu[0].set_trap_policy(TrapPolicy::Vector { base: vector });
    chip.run(10_000_000).unwrap();
    assert!(chip.cpu[0].halted() && chip.cpu[1].halted());
    assert_eq!(chip.cpu[0].stats.traps, 1);
    let mem = &mut chip.chip_mut().mem;
    assert_eq!(mem.read_u32(RESULT0), 7, "pre-fence store committed once");
    assert_eq!(mem.read_u32(RESULT0 + 4), 7);
    assert_eq!(mem.read_u32(RESULT0 + 8), 99, "retried load saw memory");
    assert_eq!(mem.read_u32(COUNTER1), 50);
}

#[test]
fn div_zero_with_loads_in_flight_squashes_precisely() {
    // Three scoreboarded loads are issued (potentially still in flight on
    // the DRDRAM channel) when FU0 takes a divide-by-zero. The trap must
    // squash only the divide packet: the loads' results remain valid and
    // the retried divide completes into the final sum.
    const DATA: u32 = 0x0002_2000;
    let mut a = Asm::new(0);
    a.set32(Reg::g(0), DATA);
    a.op(ld(Reg::g(4), Reg::g(0), 0));
    a.op(ld(Reg::g(5), Reg::g(0), 4));
    a.op(ld(Reg::g(6), Reg::g(0), 8));
    a.op(Instr::SetLo { rd: Reg::g(1), imm: 12 });
    a.op(Instr::Div { rd: Reg::g(2), rs1: Reg::g(1), rs2: Reg::g(3) }); // traps
    a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(7), rs1: Reg::g(4), src2: Src::Reg(Reg::g(5)) });
    a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(7), rs1: Reg::g(7), src2: Src::Reg(Reg::g(6)) });
    a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(7), rs1: Reg::g(7), src2: Src::Reg(Reg::g(2)) });
    a.op(st(Reg::g(7), Reg::g(0), 16));
    a.op(Instr::Halt);
    a.op(Instr::SetLo { rd: Reg::g(3), imm: 4 });
    a.op(Instr::Rte);
    let p0 = a.finish().unwrap();
    let vector = p0.addr_of(p0.len() - 2);

    let mut mem = FlatMem::new();
    mem.write_u32(DATA, 10);
    mem.write_u32(DATA + 4, 20);
    mem.write_u32(DATA + 8, 30);
    let mut chip = Majc5200::new([p0, incrementer(0x4000, COUNTER1)], mem, TimingConfig::default());
    chip.cpu[0].set_trap_policy(TrapPolicy::Vector { base: vector });
    chip.run(10_000_000).unwrap();
    assert!(chip.cpu[0].halted() && chip.cpu[1].halted());
    assert_eq!(chip.cpu[0].stats.traps, 1);
    let mem = &mut chip.chip_mut().mem;
    assert_eq!(mem.read_u32(DATA + 16), 10 + 20 + 30 + 3, "loads survived the squash");
    assert_eq!(mem.read_u32(COUNTER1), 50);
}

#[test]
fn chip_watchdog_reports_the_stuck_cpu() {
    // CPU0 spins forever; CPU1 halts immediately. The chip-level watchdog
    // must surface a structured hang naming only the stuck PC.
    let mut a = Asm::new(0);
    a.label("spin");
    a.br(Cond::Eq, Reg::g(0), "spin", true);
    a.op(Instr::Halt);
    let p0 = a.finish().unwrap();
    let spin_pc = p0.addr_of(0);
    let mut b = Asm::new(0x4000);
    b.op(Instr::Halt);
    let p1 = b.finish().unwrap();

    let cfg = TimingConfig { max_cycles: 20_000, ..Default::default() };
    let mut chip = Majc5200::new([p0, p1], FlatMem::new(), cfg);
    let e = chip.run(u64::MAX).unwrap_err();
    match e {
        SimError::Hang { at, pcs } => {
            assert!(at > 20_000);
            assert_eq!(pcs, vec![spin_pc], "only CPU0 is stuck");
        }
        other => panic!("expected a hang, got {other:?}"),
    }
}

#[test]
fn dual_cpu_fault_soak_recovers_and_replays() {
    // Both CPUs CAS-increment a shared counter under the aggressive fault
    // plan: shared D-cache parity losses trap and retry, crossbar grants
    // drop and re-arbitrate, DRDRAM transfers retry. All 100 increments
    // must land, and the same seed must replay the identical trace.
    fn incrementer_with_handler(base: u32, counter: u32) -> (Program, u32) {
        let p = incrementer(base, counter);
        let mut pkts = p.packets().to_vec();
        pkts.push(majc_isa::Packet::solo(Instr::Rte).unwrap());
        let p = Program::new(p.base(), pkts);
        let vector = p.addr_of(p.len() - 1);
        (p, vector)
    }
    const SHARED: u32 = 0x0002_3000;
    let mut traces = Vec::new();
    for pass in 0..2 {
        let (p0, v0) = incrementer_with_handler(0, SHARED);
        let (p1, v1) = incrementer_with_handler(0x4000, SHARED);
        let cfg = TimingConfig { max_cycles: 50_000_000, ..Default::default() };
        let mut chip = Majc5200::new([p0, p1], FlatMem::new(), cfg);
        chip.cpu[0].set_trap_policy(TrapPolicy::Vector { base: v0 });
        chip.cpu[1].set_trap_policy(TrapPolicy::Vector { base: v1 });
        chip.apply_fault_plan(&FaultPlan::soak(0x0DDC0DE));
        chip.run(50_000_000).unwrap_or_else(|e| panic!("soak pass {pass} failed: {e}"));
        assert!(chip.cpu[0].halted() && chip.cpu[1].halted());
        assert_eq!(chip.chip_mut().mem.read_u32(SHARED), 100, "every increment must land");
        let events: Vec<_> = chip.chip().fault_events_iter().copied().collect();
        assert!(!events.is_empty(), "the soak plan must inject something");
        traces.push(events);
    }
    assert_eq!(traces[0], traces[1], "same seed, same injection trace");
}
