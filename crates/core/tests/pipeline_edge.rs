//! Edge-case tests for the cycle-accurate pipeline: precise traps,
//! barriers, predicated stores, structural hazards, and the LSU limits —
//! the behaviours paper §3.2/§4 specifies beyond plain dataflow.

use majc_asm::Asm;
use majc_core::{
    CycleSim, Event, FuncSim, LocalMemSys, MemSink, PerfectPort, SimError, TimingConfig, Trap,
};
use majc_isa::{AluOp, CachePolicy, Cond, Instr, MemWidth, Off, Program, Reg, Src};
use majc_mem::FlatMem;

fn ld(rd: Reg, base: Reg, off: i16) -> Instr {
    Instr::Ld { w: MemWidth::W, pol: CachePolicy::Cached, rd, base, off: Off::Imm(off) }
}

fn st(rs: Reg, base: Reg, off: i16) -> Instr {
    Instr::St { w: MemWidth::W, pol: CachePolicy::Cached, rs, base, off: Off::Imm(off) }
}

#[test]
fn misaligned_load_traps_in_both_simulators() {
    let mut a = Asm::new(0);
    a.set32(Reg::g(0), 0x1001);
    a.op(ld(Reg::g(1), Reg::g(0), 0));
    a.op(Instr::Halt);
    let prog = a.finish().unwrap();
    let mut f = FuncSim::new(prog.clone(), FlatMem::new());
    let e1 = loop {
        match f.step() {
            Ok(true) => {}
            Ok(false) => panic!("should trap"),
            Err(e) => break e,
        }
    };
    let mut c = CycleSim::new(prog, PerfectPort::new(), TimingConfig::default());
    let e2 = loop {
        match c.step() {
            Ok(true) => {}
            Ok(false) => panic!("should trap"),
            Err(e) => break e,
        }
    };
    assert_eq!(SimError::from(e1), e2);
    assert!(matches!(e1, Trap::Misaligned { addr: 0x1001, .. }));
}

#[test]
fn divide_by_zero_is_a_precise_trap() {
    let mut a = Asm::new(0);
    a.set32(Reg::g(0), 7);
    a.op(Instr::Div { rd: Reg::g(1), rs1: Reg::g(0), rs2: Reg::g(2) });
    a.op(Instr::Halt);
    let prog = a.finish().unwrap();
    let mut c = CycleSim::new(prog, PerfectPort::new(), TimingConfig::default());
    let e = c.run(100).unwrap_err();
    assert!(matches!(e, SimError::Trap(Trap::DivZero { .. })));
}

#[test]
fn vectored_trap_delivery_recovers_a_misaligned_load() {
    use majc_core::{trap::cause, TrapPolicy};
    use majc_isa::Packet;
    // Handler at packet 4 masks the low address bits and retries the load.
    let pkts = vec![
        Packet::solo(Instr::SetLo { rd: Reg::g(0), imm: 0x101 }).unwrap(),
        Packet::solo(ld(Reg::g(1), Reg::g(0), 0)).unwrap(),
        Packet::solo(Instr::Alu {
            op: AluOp::Add,
            rd: Reg::g(2),
            rs1: Reg::g(1),
            src2: Src::Imm(1),
        })
        .unwrap(),
        Packet::solo(Instr::Halt).unwrap(),
        // handler:
        Packet::solo(Instr::Alu {
            op: AluOp::And,
            rd: Reg::g(0),
            rs1: Reg::g(0),
            src2: Src::Imm(-4),
        })
        .unwrap(),
        Packet::solo(Instr::Rte).unwrap(),
    ];
    let prog = Program::new(0, pkts);
    let vector = prog.addr_of(4);

    let mut mem = FlatMem::new();
    mem.write_u32(0x100, 41);
    let mut f = FuncSim::new(prog.clone(), mem.clone());
    f.set_trap_vector(vector);
    f.run(100).unwrap();
    assert!(f.halted());
    assert_eq!(f.regs.get(Reg::g(2)), 42, "functional sim recovers through the handler");
    assert_eq!(f.stats.traps, 1);
    assert_eq!(f.trap_regs().cause, cause::MISALIGNED);
    assert!(!f.trap_regs().active, "rte leaves trap state");

    let cfg =
        TimingConfig { trap_policy: TrapPolicy::Vector { base: vector }, ..Default::default() };
    let mut c = CycleSim::new(prog, PerfectPort::new().with_mem(mem), cfg);
    c.run(100).unwrap();
    assert!(c.halted());
    assert_eq!(c.regs(0).get(Reg::g(2)), 42, "cycle sim recovers through the handler");
    assert_eq!(c.stats.traps, 1);
    assert_eq!(c.trap_regs(0).tpc, 4, "faulting packet latched");
    assert_eq!(c.trap_regs(0).bad_addr, 0x101);
    assert!(!c.trap_regs(0).active);
}

#[test]
fn trap_handler_can_repair_a_divide_by_zero() {
    use majc_core::TrapPolicy;
    use majc_isa::Packet;
    let add = |rd: u8, imm: i16| Instr::Alu {
        op: AluOp::Add,
        rd: Reg::g(rd),
        rs1: Reg::g(rd),
        src2: Src::Imm(imm),
    };
    let pkts = vec![
        Packet::solo(Instr::SetLo { rd: Reg::g(0), imm: 12 }).unwrap(),
        // The divide traps in slot 0; slots 1-3 must not commit with it.
        Packet::new(&[
            Instr::Div { rd: Reg::g(1), rs1: Reg::g(0), rs2: Reg::g(2) },
            add(5, 7),
            Instr::Mul { rd: Reg::g(6), rs1: Reg::g(0), rs2: Reg::g(0) },
            add(7, 1),
        ])
        .unwrap(),
        Packet::solo(Instr::Halt).unwrap(),
        // handler: record what slots 1-3 left behind, install a non-zero
        // divisor, then re-execute the divide.
        Packet::new(&[
            Instr::SetLo { rd: Reg::g(2), imm: 4 },
            Instr::Alu {
                op: AluOp::Add,
                rd: Reg::g(10),
                rs1: Reg::g(5),
                src2: Src::Reg(Reg::g(7)),
            },
            Instr::Alu { op: AluOp::Or, rd: Reg::g(11), rs1: Reg::g(6), src2: Src::Imm(0) },
        ])
        .unwrap(),
        Packet::solo(Instr::Rte).unwrap(),
    ];
    let prog = Program::new(0, pkts);
    let vector = prog.addr_of(3);
    let cfg =
        TimingConfig { trap_policy: TrapPolicy::Vector { base: vector }, ..Default::default() };
    let mut c = CycleSim::new(prog.clone(), PerfectPort::new(), cfg);
    c.run(100).unwrap();
    assert!(c.halted());
    assert_eq!(c.regs(0).get(Reg::g(1)), 3, "retried divide uses the repaired divisor");
    assert_eq!(c.stats.traps, 1);
    let r = |i: u8| c.regs(0).get(Reg::g(i));
    assert_eq!((r(10), r(11)), (0, 0), "the trapping packet's write set was not committed");
    assert_eq!((r(5), r(6), r(7)), (7, 144, 1), "the re-executed packet committed once");

    // Same squash-and-retry on the interpreter.
    let mut f = FuncSim::new(prog, FlatMem::new());
    f.set_trap_vector(vector);
    f.run(100).unwrap();
    assert!(f.halted());
    assert_eq!(f.regs.raw(), c.regs(0).raw(), "both simulators commit the same registers");
}

/// Every instruction form the translation lowers to the generic
/// `exec_slot` micro-op (group and non-faulting loads, group stores,
/// conditional stores, prefetch, barrier, atomics, the S2.13 divide
/// family, `pmuls31`, byte shuffle, bit extract), including one that traps
/// and is delivered through the vector. The cycle model, on either port,
/// must reach the interpreter's registers, memory, PC and trap registers.
#[test]
fn fallback_forms_reach_the_interpreters_state_on_the_cycle_model() {
    use majc_core::{global_xlate_cache, TrapPolicy};
    use majc_isa::Packet;
    use std::sync::Arc;
    let set = |rd: u8, imm: i16| Instr::SetLo { rd: Reg::g(rd), imm };
    let mem_w = |w: MemWidth, pol: CachePolicy, rd: u8, base: u8, off: i16| Instr::Ld {
        w,
        pol,
        rd: Reg::g(rd),
        base: Reg::g(base),
        off: Off::Imm(off),
    };
    let g = Reg::g;
    let fallback = [
        mem_w(MemWidth::G, CachePolicy::Cached, 8, 0, 0),
        mem_w(MemWidth::W, CachePolicy::NonFaulting, 16, 0, 4),
        mem_w(MemWidth::W, CachePolicy::NonFaulting, 17, 0, 1), // misaligned: reads zero
        Instr::St {
            w: MemWidth::G,
            pol: CachePolicy::Cached,
            rs: g(8),
            base: g(1),
            off: Off::Imm(0),
        },
        Instr::CSt { cond: Cond::Ne, rc: g(2), rs: g(2), base: g(1) },
        Instr::Prefetch { base: g(0), off: 64 },
        Instr::Membar,
        Instr::Cas { rd: g(9), base: g(1), rs: g(2) },
        Instr::Swap { rd: g(10), base: g(1) },
        Instr::PRsqrt { rd: g(21), rs: g(3) },
    ];
    let mut pkts = vec![
        Packet::new(&[set(0, 0x100), set(1, 0x200), set(2, 5), set(3, 0x1800)]).unwrap(),
        Packet::new(&[set(4, 0x0C00), set(5, 0x0102), set(6, 0x0408), set(7, 0x102)]).unwrap(),
    ];
    pkts.extend(fallback.iter().map(|&ins| Packet::solo(ins).unwrap()));
    pkts.push(
        Packet::new(&[
            Instr::PDiv { rd: g(20), rs1: g(3), rs2: g(4) },
            Instr::PMulS31 { rd: g(22), rs1: g(3), rs2: g(4) },
            Instr::ByteShuf { rd: g(23), rs: g(8), ctl: g(5) },
            Instr::BitExt { rd: g(24), rs: g(8), ctl: g(6) },
        ])
        .unwrap(),
    );
    // Misaligned conditional store (the alignment check precedes the
    // condition): traps; slot 1's write is squashed with it.
    pkts.push(
        Packet::new(&[
            Instr::CSt { cond: Cond::Eq, rc: g(0), rs: g(2), base: g(7) },
            Instr::Alu { op: AluOp::Add, rd: g(26), rs1: g(26), src2: Src::Imm(1) },
        ])
        .unwrap(),
    );
    pkts.push(Packet::solo(Instr::Halt).unwrap());
    let vector_idx = pkts.len();
    // handler: realign the store address, then retry the faulting packet.
    pkts.push(
        Packet::solo(Instr::Alu { op: AluOp::And, rd: g(7), rs1: g(7), src2: Src::Imm(-4) })
            .unwrap(),
    );
    pkts.push(Packet::solo(Instr::Rte).unwrap());
    let prog = Arc::new(Program::new(0, pkts));
    let vector = prog.addr_of(vector_idx);
    // The fallback list, the four-wide packet and the trapping store.
    assert_eq!(global_xlate_cache().translate(&prog).fallback_uops(), fallback.len() + 5);

    let mut mem = FlatMem::new();
    for k in 0..16u32 {
        mem.write_u32(0x100 + 4 * k, 0x0101_0101 * (k + 1));
    }
    let mut f = FuncSim::new(Arc::clone(&prog), mem.clone());
    f.set_trap_vector(vector);
    f.run(1_000).unwrap();
    assert!(f.halted());
    assert_eq!(f.stats.traps, 1);
    assert_eq!(f.regs.get(g(26)), 1, "the squashed slot committed once, on the retry");
    assert_ne!(f.regs.get(g(8)), 0, "the group load moved data");

    let cfg =
        TimingConfig { trap_policy: TrapPolicy::Vector { base: vector }, ..Default::default() };
    let check = |port: &str, regs: &[u32], pc: u32, trap: &majc_core::TrapRegs, m: &FlatMem| {
        assert_eq!(regs, f.regs.raw(), "{port}: registers");
        assert_eq!(pc, f.pc(), "{port}: pc");
        assert_eq!(trap, f.trap_regs(), "{port}: trap registers");
        assert_eq!(m.first_diff_detail(&f.mem), None, "{port}: memory");
    };
    let mut p = CycleSim::new(Arc::clone(&prog), PerfectPort::new().with_mem(mem.clone()), cfg);
    p.run(1_000).unwrap();
    assert!(p.halted());
    check("perfect", p.regs(0).raw(), p.pc(0), p.trap_regs(0), &p.port.mem);
    let mut l = CycleSim::new(prog, LocalMemSys::majc5200().with_mem(mem), cfg);
    l.run(1_000).unwrap();
    assert!(l.halted());
    check("local", l.regs(0).raw(), l.pc(0), l.trap_regs(0), &l.port.mem);
    assert_eq!((p.stats.traps, l.stats.traps), (1, 1));
}

#[test]
fn rte_outside_a_handler_traps() {
    use majc_core::{trap::cause, TrapPolicy};
    use majc_isa::Packet;
    let prog = Program::new(
        0,
        vec![Packet::solo(Instr::Rte).unwrap(), Packet::solo(Instr::Halt).unwrap()],
    );
    // Bare machine: surfaces as an error.
    let mut c = CycleSim::new(prog.clone(), PerfectPort::new(), TimingConfig::default());
    let e = c.run(100).unwrap_err();
    assert!(matches!(e, SimError::Trap(Trap::BadRte { pc: 0 })));
    // Vectored: delivered like any other trap, resuming past the bad rte.
    let vector = prog.addr_of(1); // "handler" is just the halt
    let cfg =
        TimingConfig { trap_policy: TrapPolicy::Vector { base: vector }, ..Default::default() };
    let mut c = CycleSim::new(prog, PerfectPort::new(), cfg);
    c.run(100).unwrap();
    assert!(c.halted());
    assert_eq!(c.trap_regs(0).cause, cause::BAD_RTE);
}

#[test]
fn double_trap_is_fatal() {
    use majc_core::TrapPolicy;
    use majc_isa::Packet;
    // The handler divides by zero again while the first trap is still
    // active; the machine has nowhere to go, so the run errors out.
    let pkts = vec![
        Packet::solo(Instr::SetLo { rd: Reg::g(0), imm: 12 }).unwrap(),
        Packet::solo(Instr::Div { rd: Reg::g(1), rs1: Reg::g(0), rs2: Reg::g(2) }).unwrap(),
        Packet::solo(Instr::Halt).unwrap(),
        // handler: faults again (g2 still zero) with the trap active.
        Packet::solo(Instr::Div { rd: Reg::g(3), rs1: Reg::g(0), rs2: Reg::g(2) }).unwrap(),
        Packet::solo(Instr::Rte).unwrap(),
    ];
    let prog = Program::new(0, pkts);
    let vector = prog.addr_of(3);
    let cfg =
        TimingConfig { trap_policy: TrapPolicy::Vector { base: vector }, ..Default::default() };
    let mut c = CycleSim::new(prog, PerfectPort::new(), cfg);
    let e = c.run(100).unwrap_err();
    assert!(matches!(e, SimError::Trap(Trap::DivZero { .. })), "double trap surfaces: {e:?}");
}

#[test]
fn watchdog_diagnoses_an_infinite_loop_as_a_hang() {
    use majc_isa::{Cond, Packet};
    // br.eq g0, self: g0 is zero, so the branch spins forever.
    let prog = Program::new(
        0,
        vec![
            Packet::solo(Instr::Br { cond: Cond::Eq, rs: Reg::g(0), off: 0, hint: true }).unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ],
    );
    let cfg = TimingConfig { max_cycles: 5_000, ..Default::default() };
    let mut c = CycleSim::new(prog, PerfectPort::new(), cfg);
    let e = c.run(u64::MAX).unwrap_err();
    match e {
        SimError::Hang { at, pcs } => {
            assert!(at > 5_000);
            assert_eq!(pcs, vec![0], "the stuck PC is reported");
        }
        other => panic!("expected a hang, got {other:?}"),
    }
}

#[test]
fn conditional_store_is_predicated() {
    let mut a = Asm::new(0);
    a.set32(Reg::g(0), 0x2000);
    a.set32(Reg::g(1), 111);
    a.set32(Reg::g(2), 0); // predicate false for Ne
    a.op(Instr::CSt { cond: Cond::Ne, rc: Reg::g(2), rs: Reg::g(1), base: Reg::g(0) });
    a.set32(Reg::g(2), 1); // predicate true
    a.set32(Reg::g(3), 0x2004);
    a.op(Instr::CSt { cond: Cond::Ne, rc: Reg::g(2), rs: Reg::g(1), base: Reg::g(3) });
    a.op(Instr::Halt);
    let prog = a.finish().unwrap();
    let mut c = CycleSim::new(prog, LocalMemSys::majc5200(), TimingConfig::default());
    c.run(1000).unwrap();
    assert_eq!(c.port.mem.read_u32(0x2000), 0, "suppressed store must not land");
    assert_eq!(c.port.mem.read_u32(0x2004), 111);
}

#[test]
fn membar_waits_for_the_store_buffer() {
    // Store to a cold line (slow drain), membar, then a cheap op: the
    // membar must push the next issue past the drain.
    let build = |with_bar: bool| {
        let mut a = Asm::new(0);
        a.set32(Reg::g(0), 0x0010_0000);
        a.op(st(Reg::g(1), Reg::g(0), 0));
        if with_bar {
            a.op(Instr::Membar);
        }
        for _ in 0..3 {
            a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(2), rs1: Reg::g(2), src2: Src::Imm(1) });
        }
        a.op(Instr::Halt);
        a.finish().unwrap()
    };
    let run = |prog: Program| {
        let mut c = CycleSim::new(prog, LocalMemSys::majc5200(), TimingConfig::default());
        c.run(1000).unwrap();
        c.stats.cycles
    };
    let without = run(build(false));
    let with = run(build(true));
    assert!(with > without + 10, "membar must expose the drain: {with} vs {without}");
}

#[test]
fn store_buffer_hides_miss_latency_without_a_barrier() {
    // Eight stores to distinct cold lines retire into the buffer without
    // blocking the ALU stream behind them.
    let mut a = Asm::new(0);
    a.set32(Reg::g(0), 0x0010_0000);
    for i in 0..6i16 {
        a.op(Instr::St {
            w: MemWidth::W,
            pol: CachePolicy::Cached,
            rs: Reg::g(1),
            base: Reg::g(0),
            off: Off::Imm(i * 32),
        });
    }
    a.op(Instr::Halt);
    let prog = a.finish().unwrap();
    let mut c = CycleSim::new(prog, LocalMemSys::majc5200(), TimingConfig::default());
    c.run(1000).unwrap();
    // Six cold-line stores would cost ~310 cycles if each write-allocate
    // miss blocked issue; the buffer and the four MSHRs overlap them.
    assert!(c.stats.cycles < 250, "stores must not fully serialise: {}", c.stats.cycles);
    assert!(c.lsu_stats().stores >= 6);
}

#[test]
fn integer_divide_serialises_on_fu0() {
    let build = |n: usize| {
        let mut a = Asm::new(0);
        a.set32(Reg::g(0), 1000);
        a.set32(Reg::g(1), 7);
        for i in 0..n {
            a.op(Instr::Div { rd: Reg::g(10 + i as u8), rs1: Reg::g(0), rs2: Reg::g(1) });
        }
        a.op(Instr::Halt);
        a.finish().unwrap()
    };
    let run = |p: Program| {
        let mut c = CycleSim::new(p, PerfectPort::new(), TimingConfig::default());
        c.run(10_000).unwrap();
        c.stats.cycles
    };
    let one = run(build(1));
    let four = run(build(4));
    let idiv = TimingConfig::default().idiv_lat;
    assert!(
        four >= one + 3 * idiv - 3,
        "non-pipelined divides must serialise: 1 -> {one}, 4 -> {four}"
    );
}

#[test]
fn double_precision_initiation_interval_is_visible() {
    let build = || {
        let mut a = Asm::new(0);
        for i in 0..10u8 {
            // Independent doubles on the same unit (slot 1 = FU1).
            a.pack(&[
                Instr::Nop,
                Instr::DAdd { rd: Reg::g(32 + 2 * (i % 8)), rs1: Reg::g(0), rs2: Reg::g(2) },
            ]);
        }
        a.op(Instr::Halt);
        a.finish().unwrap()
    };
    let run = |ii: u64| {
        let cfg = TimingConfig { dbl_ii: ii, ..Default::default() };
        let mut c = CycleSim::new(build(), PerfectPort::new(), cfg);
        c.run(1000).unwrap();
        c.stats.cycles
    };
    let pipelined = run(1);
    let partial = run(2);
    assert!(partial > pipelined, "initiation interval must cost: {partial} vs {pipelined}");
    assert!(partial >= pipelined + 8, "ten ops at ii=2 add >= 8 cycles");
}

#[test]
fn jmpl_returns_precisely() {
    // call -> work -> jmpl back; the return lands on the packet after the
    // call in both simulators.
    let mut a = Asm::new(0);
    a.set32(Reg::g(0), 5);
    a.call(Reg::g(2), "sub");
    a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(1), rs1: Reg::g(1), src2: Src::Imm(100) });
    a.op(Instr::Halt);
    a.label("sub");
    a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(1), rs1: Reg::g(0), src2: Src::Imm(1) });
    a.op(Instr::Jmpl { rd: Reg::g(3), base: Reg::g(2), off: 0 });
    let prog = a.finish().unwrap();
    let mut f = FuncSim::new(prog.clone(), FlatMem::new());
    f.run(100).unwrap();
    assert_eq!(f.regs.get(Reg::g(1)), 106);
    let mut c = CycleSim::new(prog, PerfectPort::new(), TimingConfig::default());
    c.run(100).unwrap();
    assert_eq!(c.regs(0).get(Reg::g(1)), 106);
}

#[test]
fn swap_is_atomic_exchange() {
    let mut a = Asm::new(0);
    a.set32(Reg::g(0), 0x3000);
    a.set32(Reg::g(1), 42);
    a.op(Instr::Swap { rd: Reg::g(1), base: Reg::g(0) });
    a.op(st(Reg::g(1), Reg::g(0), 4));
    a.op(Instr::Halt);
    let prog = a.finish().unwrap();
    let mut mem = FlatMem::new();
    mem.write_u32(0x3000, 7);
    let mut c = CycleSim::new(prog, LocalMemSys::majc5200().with_mem(mem), TimingConfig::default());
    c.run(1000).unwrap();
    assert_eq!(c.port.mem.read_u32(0x3000), 42, "new value written");
    assert_eq!(c.port.mem.read_u32(0x3004), 7, "old value returned");
}

#[test]
fn trace_captures_stalls() {
    let mut a = Asm::new(0);
    a.set32(Reg::g(0), 0x100);
    a.op(ld(Reg::g(1), Reg::g(0), 0));
    a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(2), rs1: Reg::g(1), src2: Src::Imm(1) });
    a.op(Instr::Halt);
    let prog = a.finish().unwrap();
    let mut c = CycleSim::with_sink(
        prog,
        PerfectPort::new(),
        TimingConfig::default(),
        MemSink::unbounded(),
    );
    c.run(100).unwrap();
    let operand_wait = |e: &Event| match e {
        Event::Issue { stalls, .. } => stalls.operand + stalls.bypass,
        _ => 0,
    };
    assert!(
        c.sink.events().iter().any(|e| operand_wait(e) > 0),
        "load consumer must record its wait"
    );
}

#[test]
fn context_registers_are_isolated() {
    // Two contexts run the same increment loop on their own registers.
    let mut a = Asm::new(0);
    a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(1), rs1: Reg::g(1), src2: Src::Reg(Reg::g(0)) });
    a.op(Instr::Halt);
    let prog = a.finish().unwrap();
    let mut cfg = TimingConfig::default();
    cfg.threading.contexts = 2;
    let mut c = CycleSim::new(prog, PerfectPort::new(), cfg);
    c.regs_mut(0).set(Reg::g(0), 10);
    c.regs_mut(1).set(Reg::g(0), 99);
    c.run(100).unwrap();
    assert!(c.halted());
    assert_eq!(c.regs(0).get(Reg::g(1)), 10);
    assert_eq!(c.regs(1).get(Reg::g(1)), 99, "contexts must not share registers");
}
