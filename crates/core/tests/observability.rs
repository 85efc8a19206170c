//! Integration tests for the observability layer: sink-generic simulation
//! must not perturb timing, the event stream must be deterministic, and
//! the stall attribution must reconcile exactly with the aggregate
//! counters — whole-pipeline versions of the contracts the unit tests
//! check in isolation.

use majc_asm::Asm;
use majc_core::{
    trap::cause, CycleSim, Event, LocalMemSys, MemSink, PerfectPort, StallReason, TimingConfig,
    TrapPolicy, NUM_STALL_REASONS,
};
use majc_isa::{AluOp, CachePolicy, Cond, Instr, MemWidth, Off, Reg, Src, XorShift64};
use majc_kernels::fir;
use majc_mem::FlatMem;

/// A small memory-heavy loop: strided loads with a dependent accumulate,
/// enough traffic to exercise the caches, the crossbar, and the DRDRAM
/// channel behind the local memory system.
fn stride_kernel() -> (majc_isa::Program, FlatMem) {
    let mut a = Asm::new(0);
    a.set32(Reg::g(0), 0x1_0000); // base
    a.set32(Reg::g(1), 256); // iterations
    a.set32(Reg::g(2), 0); // acc
    a.label("loop");
    a.op(Instr::Ld {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rd: Reg::g(3),
        base: Reg::g(0),
        off: Off::Imm(0),
    });
    a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(2), rs1: Reg::g(2), src2: Src::Reg(Reg::g(3)) });
    a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(0), rs1: Reg::g(0), src2: Src::Imm(64) });
    a.op(Instr::Alu { op: AluOp::Sub, rd: Reg::g(1), rs1: Reg::g(1), src2: Src::Imm(1) });
    a.br(Cond::Gt, Reg::g(1), "loop", true);
    a.op(Instr::St {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rs: Reg::g(2),
        base: Reg::g(0),
        off: Off::Imm(0),
    });
    a.op(Instr::Halt);
    let prog = a.finish().unwrap();
    let mut mem = FlatMem::new();
    for i in 0..256u32 {
        mem.write_u32(0x1_0000 + i * 64, i + 1);
    }
    (prog, mem)
}

fn capture(prog: &majc_isa::Program, mem: FlatMem) -> (Vec<Event>, majc_core::CycleStats) {
    let mut port = LocalMemSys::majc5200().with_mem(mem);
    port.enable_logs();
    let mut sim =
        CycleSim::with_sink(prog.clone(), port, TimingConfig::default(), MemSink::unbounded());
    sim.run(1_000_000).unwrap();
    assert!(sim.halted());
    let stats = sim.stats;
    let mut evs = sim.sink.take();
    evs.extend(sim.port.drain_events());
    evs.sort_by_key(Event::timestamp);
    (evs, stats)
}

/// The 64x64 FIR of Table 2 with the seeded input of the reproduction's
/// demo: a floating-point MAC loop beside the stride kernel's loads.
fn fir_kernel() -> (majc_isa::Program, FlatMem) {
    let mut rng = XorShift64::new(11);
    let coeffs: Vec<f32> = (0..fir::TAPS).map(|_| rng.next_f32() * 0.2).collect();
    let input: Vec<f32> = (0..fir::OUTPUTS + fir::TAPS - 1).map(|_| rng.next_f32()).collect();
    fir::build(&coeffs, &input)
}

#[test]
fn null_and_mem_sinks_agree_on_timing() {
    for (name, (prog, mem)) in [("stride", stride_kernel()), ("fir", fir_kernel())] {
        let mut base = CycleSim::new(
            prog.clone(),
            LocalMemSys::majc5200().with_mem(mem.clone()),
            TimingConfig::default(),
        );
        base.run(1_000_000).unwrap();
        assert!(base.halted(), "{name}");

        let (_, traced) = capture(&prog, mem);
        assert_eq!(base.stats.cycles, traced.cycles, "{name}: tracing must not change timing");
        assert_eq!(base.stats.instrs, traced.instrs, "{name}");
        assert_eq!(base.stats.packets, traced.packets, "{name}");
        assert_eq!(base.stats.data_stall_cycles, traced.data_stall_cycles, "{name}");
        assert_eq!(base.stats.mem_stall_cycles, traced.mem_stall_cycles, "{name}");
        assert_eq!(base.stats.front_stall_cycles, traced.front_stall_cycles, "{name}");
        assert_eq!(base.stats.stall_by_reason, traced.stall_by_reason, "{name}");
    }
}

#[test]
fn event_stream_is_identical_across_runs() {
    let (prog, mem) = stride_kernel();
    let (a, _) = capture(&prog, mem.clone());
    let (b, _) = capture(&prog, mem);
    assert_eq!(a, b, "event stream must be identical");
    assert!(!a.is_empty());
}

#[test]
fn stall_attribution_reconciles_with_aggregate_counters() {
    let (prog, mem) = stride_kernel();
    let (evs, stats) = capture(&prog, mem);
    let mut by_event = [0u64; NUM_STALL_REASONS];
    for ev in &evs {
        if let Event::Issue { stalls, .. } = ev {
            for (t, v) in by_event.iter_mut().zip(stalls.by_reason().iter()) {
                *t += *v;
            }
        }
    }
    assert_eq!(by_event, stats.stall_by_reason, "per-event buckets must sum to the counters");
    assert_eq!(by_event[StallReason::IFetch.idx()], stats.front_stall_cycles);
    assert_eq!(
        by_event[StallReason::Operand.idx()] + by_event[StallReason::Bypass.idx()],
        stats.data_stall_cycles
    );
    assert_eq!(by_event[StallReason::LsuStructural.idx()], stats.mem_stall_cycles);
    assert!(stats.attributed_stalls() <= stats.cycles, "attribution can never exceed time");
    assert!(stats.stall_attribution_consistent());
}

#[test]
fn microthreaded_attribution_stays_bounded() {
    let (prog, mem) = stride_kernel();
    let mut cfg = TimingConfig::default();
    cfg.threading.contexts = 2;
    let mut sim =
        CycleSim::with_sink(prog, LocalMemSys::majc5200().with_mem(mem), cfg, MemSink::unbounded());
    sim.run(1_000_000).unwrap();
    assert!(sim.halted());
    assert!(
        sim.stats.attributed_stalls() <= sim.stats.cycles,
        "parked context retries must not over-attribute: {} > {}",
        sim.stats.attributed_stalls(),
        sim.stats.cycles
    );
    assert!(sim.stats.stall_attribution_consistent());
}

#[test]
fn profiler_reconciles_and_ranks() {
    let (prog, mem) = stride_kernel();
    let (evs, stats) = capture(&prog, mem);
    let prof = majc_core::profile(&evs);
    assert_eq!(prof.packets, stats.packets);
    assert_eq!(prof.totals, stats.stall_by_reason);
    assert!(!prof.pcs.is_empty());
    // Ranked by total, descending.
    for w in prof.pcs.windows(2) {
        assert!(w[0].total >= w[1].total);
    }
    // The load consumer's wait dominates this kernel: the top entry has
    // operand or lsu time, and the rendered table mentions it.
    let table = prof.render(5);
    assert!(table.contains("total:"), "render emits a totals line:\n{table}");
    // Interval samples cover the run and sum to the same totals.
    let samples = majc_core::intervals(&evs, 500);
    let sampled: u64 = samples.iter().map(|s| s.by_reason.iter().sum::<u64>()).sum();
    assert_eq!(sampled, prof.total_stall());
    assert_eq!(samples.iter().map(|s| s.packets).sum::<u64>(), stats.packets);
}

#[test]
fn perfetto_round_trip_validates() {
    let (prog, mem) = stride_kernel();
    let (evs, _) = capture(&prog, mem);
    let doc = majc_core::export_perfetto(&evs);
    let n = majc_core::validate_perfetto(&doc).expect("export must validate");
    assert!(n >= evs.len(), "every event renders at least one trace entry");
    assert_eq!(doc, majc_core::export_perfetto(&evs), "export is deterministic");
}

#[test]
fn vectored_trap_emits_squash_and_trap_events() {
    use majc_isa::{Packet, Program};
    // Divide by zero, repaired by the handler (same shape as the
    // pipeline_edge trap tests) — the trace must show the delivery.
    let pkts = vec![
        Packet::solo(Instr::SetLo { rd: Reg::g(0), imm: 12 }).unwrap(),
        Packet::solo(Instr::Div { rd: Reg::g(1), rs1: Reg::g(0), rs2: Reg::g(2) }).unwrap(),
        Packet::solo(Instr::Halt).unwrap(),
        Packet::solo(Instr::SetLo { rd: Reg::g(2), imm: 4 }).unwrap(),
        Packet::solo(Instr::Rte).unwrap(),
    ];
    let prog = Program::new(0, pkts);
    let vector = prog.addr_of(3);
    let div_pc = prog.addr_of(1);
    let cfg =
        TimingConfig { trap_policy: TrapPolicy::Vector { base: vector }, ..Default::default() };
    let mut sim = CycleSim::with_sink(prog, PerfectPort::new(), cfg, MemSink::unbounded());
    sim.run(100).unwrap();
    assert!(sim.halted());
    let evs = sim.sink.take();
    let trap = evs
        .iter()
        .find_map(|e| match *e {
            Event::TrapDeliver { pc, vector: v, cause, .. } => Some((pc, v, cause)),
            _ => None,
        })
        .expect("trap delivery event");
    assert_eq!(trap, (div_pc, vector, cause::DIV_ZERO));
    let squash = evs
        .iter()
        .find_map(|e| match *e {
            Event::Squash { pc, cause, .. } => Some((pc, cause)),
            _ => None,
        })
        .expect("squash event for the faulting packet");
    assert_eq!(squash, (div_pc, cause::DIV_ZERO));
    // The handler itself shows up as issues at the vector.
    assert!(
        evs.iter().any(|e| matches!(e, Event::Issue { pc, .. } if *pc == vector)),
        "handler packets issue at the vector"
    );
    // The post-trap refill is attributed: some later packet carries a
    // trap-caused pre-wait.
    assert!(
        sim.stats.stall_by_reason[StallReason::Trap.idx()] > 0,
        "trap refill cycles are attributed to the Trap bucket"
    );
}
