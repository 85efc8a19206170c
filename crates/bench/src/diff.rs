//! Differential fuzzing policy: the bench fuzz stream, its packet
//! budget, the reducer and repro files.
//!
//! The oracle itself is [`majc_core::diff::diff_run`]: the interpreter and
//! the translated engine bit for bit, then their consensus against the
//! cycle model. Shards generate seeded legal packet streams with
//! [`fuzz_program`] and run them through that oracle; any failure is
//! shrunk to a minimal program by the greedy packet-bisection reducer in
//! [`shrink`] and written to a repro file by [`write_repro`].

use std::path::{Path, PathBuf};

use majc_core::diff::diff_run;
use majc_isa::{gen, Program, SplitMix64};
use majc_mem::FlatMem;

/// Packet budget per fuzz case. Random control flow can loop, so every
/// engine runs at most this many packets; budget-capped runs still
/// compare all architectural state.
pub const FUZZ_BUDGET: u64 = 20_000;

/// The bench fuzz stream: [`gen::fuzz_program`] of at most 48 packets,
/// seeded per case.
pub fn fuzz_program(seed: u64) -> Program {
    gen::fuzz_program(&mut SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15), 48)
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

/// Shrink a program whose [`diff_run`] from empty memory diverges to a
/// minimal program that still shows *a* divergence (not necessarily the
/// identical one — standard reducer practice).
pub fn shrink(prog: &Program, budget: u64) -> Program {
    shrink_with(prog, |p| diff_run(p.clone(), &FlatMem::new(), budget).0.divergence.is_some())
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
    use majc_isa::gen::GenCfg;
    use majc_isa::{Instr, Packet};

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
