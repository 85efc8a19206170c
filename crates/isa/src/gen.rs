//! Random-but-valid instruction, packet and program generation.
//!
//! Drives the randomized tests across the workspace: encoding round trips,
//! assembler/disassembler round trips, functional-vs-cycle equivalence,
//! and the static-linter-vs-simulator schedule oracle. Everything produced
//! here passes [`Instr::validate_for_fu`] for its slot by construction
//! (candidates that fail validation are rejected and redrawn).

use crate::fixed::{FixFmt, SatMode};
use crate::instr::{Instr, Off, Src};
use crate::ops::{AluOp, CachePolicy, Cond, CvtKind, MemWidth};
use crate::packet::{Packet, Program, MAX_SLOTS};
use crate::reg::Reg;
use crate::rng::SplitMix64;

/// What the generator is allowed to produce.
#[derive(Clone, Copy, Debug)]
pub struct GenCfg {
    /// Loads, stores, atomics, prefetch, membar (FU0).
    pub mem: bool,
    /// Branches, calls, indirect jumps (FU0).
    pub control: bool,
    /// Draw FU-local registers as well as globals.
    pub locals: bool,
    /// Size of the global register pool to draw from (1..=96). Small pools
    /// concentrate dependencies, which is what schedule tests want.
    pub globals: u8,
}

impl Default for GenCfg {
    fn default() -> GenCfg {
        GenCfg { mem: true, control: true, locals: true, globals: 96 }
    }
}

impl GenCfg {
    /// Straight-line compute only: valid anywhere, no memory, no control —
    /// the shape the cycle-schedule oracle can predict exactly.
    pub fn compute_only(globals: u8) -> GenCfg {
        GenCfg { mem: false, control: false, locals: false, globals }
    }
}

fn reg(rng: &mut SplitMix64, fu: u8, cfg: &GenCfg) -> Reg {
    if cfg.locals && rng.below(4) == 0 {
        Reg::l(fu, rng.below(32) as u8)
    } else {
        Reg::g(rng.below(u64::from(cfg.globals)) as u8)
    }
}

/// An even-aligned global with room for a register pair.
fn preg(rng: &mut SplitMix64, cfg: &GenCfg) -> Reg {
    let pool = u64::from(cfg.globals.max(2)) / 2;
    Reg::g((rng.below(pool) * 2) as u8)
}

/// A group-aligned global (8-register span for 32-byte loads).
fn greg8(rng: &mut SplitMix64) -> Reg {
    Reg::g((rng.below(11) * 8) as u8)
}

fn cond(rng: &mut SplitMix64) -> Cond {
    *rng.pick(&Cond::ALL)
}

fn short_cond(rng: &mut SplitMix64) -> Cond {
    *rng.pick(&Cond::SHORT)
}

/// One candidate instruction for FU `fu`; may be invalid (caller rejects).
fn candidate(rng: &mut SplitMix64, fu: u8, cfg: &GenCfg) -> Instr {
    let r = |rng: &mut SplitMix64| reg(rng, fu, cfg);
    let common = 7u64;
    let fu0_extra =
        if fu == 0 { 6 + if cfg.mem { 8 } else { 0 } + if cfg.control { 3 } else { 0 } } else { 0 };
    let fu123_extra = if fu == 0 { 0 } else { 24u64 };
    let mut k = rng.below(common + fu0_extra + fu123_extra);

    // --- common to every FU ---
    if k < common {
        return match k {
            0 => Instr::Nop,
            1 | 2 => {
                let op = *rng.pick(&AluOp::ALL);
                let rd = r(rng);
                let rs1 = r(rng);
                let src2 =
                    if k == 1 { Src::Reg(r(rng)) } else { Src::Imm(rng.range_i16(-256, 256)) };
                Instr::Alu { op, rd, rs1, src2 }
            }
            3 => Instr::SetLo { rd: r(rng), imm: rng.next_u32() as i16 },
            4 => Instr::SetHi { rd: r(rng), imm: rng.next_u32() as u16 },
            5 => Instr::CMove { cond: short_cond(rng), rc: r(rng), rd: r(rng), rs: r(rng) },
            _ => Instr::Alu {
                op: AluOp::Add,
                rd: r(rng),
                rs1: r(rng),
                src2: Src::Imm(rng.range_i16(-128, 128)),
            },
        };
    }
    k -= common;

    if fu == 0 {
        // --- FU0 math specials ---
        if k < 6 {
            return match k {
                0 => Instr::Div { rd: r(rng), rs1: r(rng), rs2: r(rng) },
                1 => Instr::Rem { rd: r(rng), rs1: r(rng), rs2: r(rng) },
                2 => Instr::FDiv { rd: r(rng), rs1: r(rng), rs2: r(rng) },
                3 => Instr::FRsqrt { rd: r(rng), rs: r(rng) },
                4 => Instr::PDiv { rd: r(rng), rs1: r(rng), rs2: r(rng) },
                _ => Instr::PRsqrt { rd: r(rng), rs: r(rng) },
            };
        }
        k -= 6;
        if cfg.mem {
            if k < 8 {
                let w = *rng.pick(&MemWidth::ALL);
                let pol = *rng.pick(&CachePolicy::ALL);
                return match k {
                    0 | 1 => {
                        let off = if k == 0 {
                            Off::Imm(rng.range_i16(-60, 60) * w.bytes() as i16)
                        } else {
                            Off::Reg(r(rng))
                        };
                        Instr::Ld { w, pol, rd: greg8(rng), base: r(rng), off }
                    }
                    2 | 3 => {
                        let w = if w.valid_for_store() { w } else { MemWidth::W };
                        let off = if k == 2 {
                            Off::Imm(rng.range_i16(-60, 60) * w.bytes() as i16)
                        } else {
                            Off::Reg(r(rng))
                        };
                        Instr::St { w, pol, rs: greg8(rng), base: r(rng), off }
                    }
                    4 => Instr::CSt { cond: short_cond(rng), rc: r(rng), rs: r(rng), base: r(rng) },
                    5 => Instr::Prefetch { base: r(rng), off: rng.range_i16(-512, 512) },
                    6 => Instr::Cas { rd: r(rng), base: r(rng), rs: r(rng) },
                    _ => {
                        if rng.flip() {
                            Instr::Swap { rd: r(rng), base: r(rng) }
                        } else {
                            Instr::Membar
                        }
                    }
                };
            }
            k -= 8;
        }
        // --- control ---
        return match k {
            0 => Instr::Br {
                cond: cond(rng),
                rs: r(rng),
                off: rng.range_i32(-500, 500) * 4,
                hint: rng.flip(),
            },
            1 => Instr::Call { rd: r(rng), off: rng.range_i32(-2000, 2000) * 4 },
            _ => Instr::Jmpl { rd: r(rng), base: r(rng), off: rng.range_i16(-256, 256) },
        };
    }

    // --- FU1-FU3 compute ---
    match k {
        0 => Instr::Pick { cond: short_cond(rng), rd: r(rng), rs1: r(rng), rs2: r(rng) },
        1 => Instr::Cmp { cond: short_cond(rng), rd: r(rng), rs1: r(rng), rs2: r(rng) },
        2 => Instr::Mul { rd: r(rng), rs1: r(rng), rs2: r(rng) },
        3 => Instr::MulHi { rd: r(rng), rs1: r(rng), rs2: r(rng) },
        4 => Instr::MulAdd { rd: r(rng), rs1: r(rng), rs2: r(rng) },
        5 => Instr::MulSub { rd: r(rng), rs1: r(rng), rs2: r(rng) },
        6 => Instr::PAdd { mode: *rng.pick(&SatMode::ALL), rd: r(rng), rs1: r(rng), rs2: r(rng) },
        7 => Instr::PSub { mode: *rng.pick(&SatMode::ALL), rd: r(rng), rs1: r(rng), rs2: r(rng) },
        8 => Instr::PMul { fmt: *rng.pick(&FixFmt::ALL), rd: r(rng), rs1: r(rng), rs2: r(rng) },
        9 => Instr::PMulAdd { fmt: *rng.pick(&FixFmt::ALL), rd: r(rng), rs1: r(rng), rs2: r(rng) },
        10 => Instr::DotP { rd: r(rng), rs1: r(rng), rs2: r(rng) },
        11 => Instr::PMulS31 { rd: r(rng), rs1: r(rng), rs2: r(rng) },
        12 => Instr::PDist { rd: r(rng), rs1: r(rng), rs2: r(rng) },
        13 => Instr::ByteShuf { rd: r(rng), rs: preg(rng, cfg), ctl: r(rng) },
        14 => Instr::BitExt { rd: r(rng), rs: preg(rng, cfg), ctl: r(rng) },
        15 => Instr::Lzd { rd: r(rng), rs: r(rng) },
        16 => match rng.below(5) {
            0 => Instr::FAdd { rd: r(rng), rs1: r(rng), rs2: r(rng) },
            1 => Instr::FSub { rd: r(rng), rs1: r(rng), rs2: r(rng) },
            2 => Instr::FMul { rd: r(rng), rs1: r(rng), rs2: r(rng) },
            3 => Instr::FMin { rd: r(rng), rs1: r(rng), rs2: r(rng) },
            _ => Instr::FMax { rd: r(rng), rs1: r(rng), rs2: r(rng) },
        },
        17 => Instr::FMAdd { rd: r(rng), rs1: r(rng), rs2: r(rng) },
        18 => Instr::FMSub { rd: r(rng), rs1: r(rng), rs2: r(rng) },
        19 => {
            if rng.flip() {
                Instr::FNeg { rd: r(rng), rs: r(rng) }
            } else {
                Instr::FAbs { rd: r(rng), rs: r(rng) }
            }
        }
        20 => Instr::FCmp { cond: short_cond(rng), rd: r(rng), rs1: r(rng), rs2: r(rng) },
        21 => match rng.below(6) {
            0 => Instr::DAdd { rd: preg(rng, cfg), rs1: preg(rng, cfg), rs2: preg(rng, cfg) },
            1 => Instr::DSub { rd: preg(rng, cfg), rs1: preg(rng, cfg), rs2: preg(rng, cfg) },
            2 => Instr::DMul { rd: preg(rng, cfg), rs1: preg(rng, cfg), rs2: preg(rng, cfg) },
            3 => Instr::DMin { rd: preg(rng, cfg), rs1: preg(rng, cfg), rs2: preg(rng, cfg) },
            4 => Instr::DMax { rd: preg(rng, cfg), rs1: preg(rng, cfg), rs2: preg(rng, cfg) },
            _ => Instr::DNeg { rd: preg(rng, cfg), rs: preg(rng, cfg) },
        },
        22 => Instr::DCmp {
            cond: short_cond(rng),
            rd: r(rng),
            rs1: preg(rng, cfg),
            rs2: preg(rng, cfg),
        },
        _ => {
            let kind = *rng.pick(&CvtKind::ALL);
            let rd = if kind.dst_is_pair() { preg(rng, cfg) } else { r(rng) };
            let rs = if kind.src_is_pair() { preg(rng, cfg) } else { r(rng) };
            Instr::Cvt { kind, rd, rs }
        }
    }
}

/// A random instruction valid for FU `fu` under `cfg`.
pub fn instr(rng: &mut SplitMix64, fu: u8, cfg: &GenCfg) -> Instr {
    loop {
        let ins = candidate(rng, fu, cfg);
        if ins.validate_for_fu(fu).is_ok() {
            return ins;
        }
    }
}

/// A random well-formed packet (1-4 slots, slot 0 on FU0).
pub fn packet(rng: &mut SplitMix64, cfg: &GenCfg) -> Packet {
    let width = 1 + rng.index(MAX_SLOTS);
    let instrs: Vec<Instr> = (0..width).map(|fu| instr(rng, fu as u8, cfg)).collect();
    Packet::new(&instrs).expect("generated slots validate per FU")
}

/// A random straight-line program of `n` packets plus a final `halt`.
/// Memory and control are disabled regardless of `cfg`, so the result is
/// runnable (and exactly schedulable) from any register state.
pub fn straightline_program(rng: &mut SplitMix64, n: usize, cfg: &GenCfg) -> Program {
    let cfg = GenCfg { mem: false, control: false, ..*cfg };
    let mut pkts: Vec<Packet> = (0..n)
        .map(|_| loop {
            let p = packet(rng, &cfg);
            // Integer divide/remainder trap on a zero divisor, which a
            // random program cannot rule out; everything else is total.
            if !p.slots().any(|(_, i)| matches!(i, Instr::Div { .. } | Instr::Rem { .. })) {
                break p;
            }
        })
        .collect();
    pkts.push(Packet::solo(Instr::Halt).expect("halt packet"));
    Program::new(0, pkts)
}

/// One differential-fuzz program of at most `max_packets` random packets
/// plus a final `halt`. The first draw picks the flavour: straight-line
/// compute, compute + memory, or compute + memory + control; the next
/// ones vary the register-pool shape. Each fuzzer seeds `rng` its own
/// way, so every consumer draws from its own reproducible stream.
pub fn fuzz_program(rng: &mut SplitMix64, max_packets: usize) -> Program {
    let flavor = rng.index(4);
    let cfg = GenCfg {
        mem: flavor >= 1,
        control: flavor >= 3,
        locals: rng.flip(),
        globals: 8 + rng.index(88) as u8,
    };
    let n = 1 + rng.index(max_packets);
    if !cfg.mem && !cfg.control {
        return straightline_program(rng, n, &cfg);
    }
    let pkts: Vec<Packet> = (0..n)
        .map(|_| packet(rng, &cfg))
        .chain(std::iter::once(Packet::solo(Instr::Halt).expect("halt packet")))
        .collect();
    Program::new(0, pkts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_instrs_validate() {
        let mut rng = SplitMix64::new(99);
        let cfg = GenCfg::default();
        for fu in 0..4u8 {
            for _ in 0..2000 {
                let ins = instr(&mut rng, fu, &cfg);
                assert!(ins.validate_for_fu(fu).is_ok(), "{ins:?} on FU{fu}");
            }
        }
    }

    #[test]
    fn straightline_programs_have_no_mem_or_control() {
        let mut rng = SplitMix64::new(5);
        let p = straightline_program(&mut rng, 40, &GenCfg::default());
        assert_eq!(p.len(), 41);
        for (i, pkt) in p.packets().iter().enumerate() {
            for (_, ins) in pkt.slots() {
                assert!(!ins.is_mem(), "{ins:?}");
                if i + 1 < p.len() {
                    assert!(!ins.is_control(), "{ins:?}");
                }
            }
        }
    }

    #[test]
    fn fuzz_programs_are_reproducible_bounded_and_end_in_halt() {
        for seed in 0..50u64 {
            let a = fuzz_program(&mut SplitMix64::new(seed), 12);
            let b = fuzz_program(&mut SplitMix64::new(seed), 12);
            assert_eq!(a.packets(), b.packets(), "seed {seed}");
            assert!(a.len() <= 13, "seed {seed}: {} packets", a.len());
            let last = a.packets().last().expect("non-empty");
            assert!(
                last.slots().any(|(_, i)| matches!(i, Instr::Halt)),
                "seed {seed} does not end in halt"
            );
        }
    }
}
