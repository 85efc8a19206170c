//! Differential oracle: for branch-free deterministic programs the
//! linter's symbolic issue model must equal the cycle-accurate
//! simulator's actual issue cycles, packet for packet. This pins the
//! static schedule analysis to the dynamic truth — the two models cannot
//! drift apart without a test failure.

use majc_bench::farm::Farm;
use majc_core::{BypassModel, CycleSim, Event, MemSink, PerfectPort, TimingConfig};
use majc_isa::gen::{self, GenCfg};
use majc_isa::{AluOp, Instr, Packet, Program, Reg, SplitMix64, Src};
use majc_lint::predicted_issue_cycles;

fn actual_issue_cycles(prog: &Program, timing: TimingConfig) -> Vec<u64> {
    let mut sim =
        CycleSim::with_sink(prog.clone(), PerfectPort::new(), timing, MemSink::unbounded());
    sim.run(1_000_000).expect("deterministic program runs clean");
    assert!(sim.halted());
    let issues = sim.sink.events().iter().filter_map(|e| match *e {
        Event::Issue { at, .. } => Some(at),
        _ => None,
    });
    issues.collect()
}

fn check_result(prog: &Program, timing: TimingConfig, what: &str) -> Result<(), String> {
    let predicted = predicted_issue_cycles(prog, &timing)
        .expect("branch-free deterministic program is predictable");
    let actual = actual_issue_cycles(prog, timing);
    if predicted == actual {
        Ok(())
    } else {
        Err(format!(
            "{what}: static and dynamic schedules diverged\n  predicted: {predicted:?}\n  \
             actual:    {actual:?}"
        ))
    }
}

fn check(prog: &Program, timing: TimingConfig, what: &str) {
    if let Err(e) = check_result(prog, timing, what) {
        panic!("{e}");
    }
}

/// Fan a generated case list across the simulation farm; program
/// generation stays serial so the rng stream (and thus the corpus) is
/// exactly what the seeds have always produced.
fn check_all_parallel(cases: Vec<(String, Program, TimingConfig)>) {
    let farm = Farm::new(Farm::available());
    let failures: Vec<String> = farm
        .run(cases, |_, (what, prog, timing)| check_result(&prog, timing, &what).err())
        .into_iter()
        .flatten()
        .collect();
    assert!(failures.is_empty(), "{} oracle failures:\n{}", failures.len(), failures.join("\n"));
}

#[test]
fn random_straightline_programs_match_the_simulator() {
    let mut rng = SplitMix64::new(0x0AC1_E001);
    let cfg = GenCfg { locals: true, globals: 24, ..GenCfg::default() };
    let cases = (0..256)
        .map(|case| {
            let n = 1 + rng.index(50);
            let prog = gen::straightline_program(&mut rng, n, &cfg);
            (format!("case {case}"), prog, TimingConfig::default())
        })
        .collect();
    check_all_parallel(cases);
}

#[test]
fn oracle_holds_under_every_bypass_model() {
    let mut rng = SplitMix64::new(0x0AC1_E002);
    let cfg = GenCfg { locals: false, globals: 16, ..GenCfg::default() };
    let mut cases = Vec::new();
    for model in [BypassModel::Full, BypassModel::Majc, BypassModel::WbOnly] {
        for case in 0..64 {
            let n = 1 + rng.index(30);
            let prog = gen::straightline_program(&mut rng, n, &cfg);
            let timing = TimingConfig { bypass: model, ..Default::default() };
            cases.push((format!("{model:?} case {case}"), prog, timing));
        }
    }
    check_all_parallel(cases);
}

/// The generator never emits integer divides (a zero divisor traps), so
/// the 18-cycle FU0 divider and its structural hazard get a directed test.
#[test]
fn divider_latency_and_structural_hazard_match() {
    let p = Program::new(
        0,
        vec![
            Packet::solo(Instr::SetLo { rd: Reg::g(1), imm: 500 }).unwrap(),
            Packet::solo(Instr::SetLo { rd: Reg::g(2), imm: 3 }).unwrap(),
            Packet::solo(Instr::Div { rd: Reg::g(0), rs1: Reg::g(1), rs2: Reg::g(2) }).unwrap(),
            // Back-to-back divide: must wait for the non-pipelined divider.
            Packet::solo(Instr::Rem { rd: Reg::g(3), rs1: Reg::g(1), rs2: Reg::g(2) }).unwrap(),
            // And a consumer of both quotient and remainder.
            Packet::new(&[Instr::Alu {
                op: AluOp::Add,
                rd: Reg::g(4),
                rs1: Reg::g(0),
                src2: Src::Reg(Reg::g(3)),
            }])
            .unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ],
    );
    check(&p, TimingConfig::default(), "div/rem chain");
}

/// Double-precision ops are pipelined at an initiation interval > 1:
/// consecutive doubles on one FU expose a structural hazard the oracle
/// must time exactly.
#[test]
fn double_precision_initiation_interval_matches() {
    let dmul = |rd: u8, rs: u8| Instr::DMul { rd: Reg::g(rd), rs1: Reg::g(rs), rs2: Reg::g(rs) };
    let p = Program::new(
        0,
        vec![
            Packet::solo(Instr::SetLo { rd: Reg::g(0), imm: 1 }).unwrap(),
            Packet::solo(Instr::SetLo { rd: Reg::g(1), imm: 2 }).unwrap(),
            Packet::new(&[Instr::Nop, dmul(4, 0)]).unwrap(),
            Packet::new(&[Instr::Nop, dmul(6, 0)]).unwrap(), // same FU: blocked by dbl_ii
            Packet::new(&[Instr::Nop, Instr::Nop, dmul(8, 0)]).unwrap(), // other FU: free
            Packet::solo(Instr::Halt).unwrap(),
        ],
    );
    check(&p, TimingConfig::default(), "dmul initiation interval");
}

/// Long dependency chains across functional units, hand-built to stress
/// the bypass asymmetry at every producer/consumer distance.
#[test]
fn cross_fu_chains_match_at_every_distance() {
    for gap in 1..=5usize {
        for (prod_slot, cons_slot) in [(1, 2), (2, 1), (1, 3), (3, 2), (2, 3)] {
            let mut pkts = vec![Packet::solo(Instr::SetLo { rd: Reg::g(0), imm: 9 }).unwrap()];
            let mut produce = vec![Instr::Nop; prod_slot + 1];
            produce[prod_slot] = Instr::Mul { rd: Reg::g(2), rs1: Reg::g(0), rs2: Reg::g(0) };
            pkts.push(Packet::new(&produce).unwrap());
            for _ in 1..gap {
                pkts.push(Packet::solo(Instr::Nop).unwrap());
            }
            let mut consume = vec![Instr::Nop; cons_slot + 1];
            consume[cons_slot] =
                Instr::Alu { op: AluOp::Add, rd: Reg::g(4), rs1: Reg::g(2), src2: Src::Imm(1) };
            pkts.push(Packet::new(&consume).unwrap());
            pkts.push(Packet::solo(Instr::Halt).unwrap());
            let p = Program::new(0, pkts);
            check(
                &p,
                TimingConfig::default(),
                &format!("mul on slot {prod_slot}, add on slot {cons_slot}, gap {gap}"),
            );
        }
    }
}
