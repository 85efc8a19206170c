//! 64-sample, 64-tap floating-point FIR (Table 2, row 2; paper: 2757
//! cycles).
//!
//! `y[n] = Σ_{k=0}^{63} c[k] · x[n+k]` for `n = 0..63` (the standard DSP
//! MAC benchmark form; `x` has 127 elements).
//!
//! Schedule: all 64 coefficients live in registers (8 group loads). Outputs
//! are produced four at a time; each tap step `j` loads one new sample into
//! an 8-deep rotating register window and issues four FMAs (spread over
//! FU1-3, two packets). Each output keeps two partial accumulators
//! (even/odd taps) so FMA issues to one accumulator are 4 cycles apart —
//! exactly the single-precision pipeline depth, so the loop runs stall-free
//! at 2 cycles per tap for 4 outputs: 64 · 2 · 16 ≈ 2k cycles plus edges.

use majc_asm::Asm;
use majc_isa::{AluOp, CachePolicy, Cond, Instr, MemWidth, Off, Program, Reg, Src};
use majc_mem::FlatMem;

use crate::harness::{layout, put_f32s};

pub const TAPS: usize = 64;
pub const OUTPUTS: usize = 64;

/// Bit-exact reference (fused multiply-add, same association order: two
/// partials per output, even taps then odd, combined at the end).
pub fn reference(coeffs: &[f32], input: &[f32]) -> Vec<f32> {
    assert_eq!(coeffs.len(), TAPS);
    assert!(input.len() >= OUTPUTS + TAPS - 1);
    (0..OUTPUTS)
        .map(|n| {
            let mut even = 0.0f32;
            let mut odd = 0.0f32;
            for k in 0..TAPS {
                let acc = if k % 2 == 0 { &mut even } else { &mut odd };
                *acc = coeffs[k].mul_add(input[n + k], *acc);
            }
            even + odd
        })
        .collect()
}

const XPTR: Reg = Reg::g(0);
const YPTR: Reg = Reg::g(1);
const COUNT: Reg = Reg::g(2);
/// `XPTR + 16`: loop loads index from here so scaled offsets fit 7 bits.
const XPTR2: Reg = Reg::g(4);

fn coef(k: usize) -> Reg {
    Reg::g(16 + k as u8) // g16..g79
}
fn win(i: usize) -> Reg {
    Reg::g(80 + (i % 8) as u8) // g80..g87
}
/// Accumulators: output o (0..4), partial p (0..2) in locals of the FU
/// that owns the output's FMAs.
fn acc(o: usize, p: usize) -> Reg {
    // outputs 0..3 -> FU 1,2,3,1; second FU1 output uses locals 2-3.
    match o {
        0 => Reg::l(1, p as u8),
        1 => Reg::l(2, p as u8),
        2 => Reg::l(3, p as u8),
        _ => Reg::l(1, 2 + p as u8),
    }
}
fn fu_of(o: usize) -> usize {
    [1, 2, 3, 1][o]
}

/// Build the FIR kernel and its memory image.
pub fn build(coeffs: &[f32], input: &[f32]) -> (Program, FlatMem) {
    assert_eq!(coeffs.len(), TAPS);
    assert!(input.len() >= OUTPUTS + TAPS - 1);
    let mut mem = FlatMem::new();
    put_f32s(&mut mem, layout::INPUT, input);
    put_f32s(&mut mem, layout::COEFF, coeffs);

    let ld = |rd: Reg, base: Reg, off: i16| Instr::Ld {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rd,
        base,
        off: Off::Imm(off),
    };

    let mut a = Asm::new(0);
    a.set32(XPTR, layout::INPUT);
    a.set32(YPTR, layout::OUTPUT);
    a.set32(COUNT, (OUTPUTS / 4) as u32);
    let cp = Reg::g(3);
    a.set32(cp, layout::COEFF);
    for g in 0..8u8 {
        a.op(Instr::Ld {
            w: MemWidth::G,
            pol: CachePolicy::Cached,
            rd: coef(8 * g as usize),
            base: cp,
            off: Off::Imm(32 * g as i16),
        });
    }

    a.label("group");
    a.op(Instr::Alu { op: AluOp::Add, rd: XPTR2, rs1: XPTR, src2: Src::Imm(16) });
    // Zero the 8 accumulators (0.0f32 has an all-zero pattern) and prime
    // the 4-deep part of the window.
    a.pack(&[
        ld(win(0), XPTR, 0),
        Instr::SetLo { rd: acc(0, 0), imm: 0 },
        Instr::SetLo { rd: acc(1, 0), imm: 0 },
        Instr::SetLo { rd: acc(2, 0), imm: 0 },
    ]);
    a.pack(&[
        ld(win(1), XPTR, 4),
        Instr::SetLo { rd: acc(0, 1), imm: 0 },
        Instr::SetLo { rd: acc(1, 1), imm: 0 },
        Instr::SetLo { rd: acc(2, 1), imm: 0 },
    ]);
    a.pack(&[ld(win(2), XPTR, 8), Instr::SetLo { rd: acc(3, 0), imm: 0 }]);
    a.pack(&[ld(win(3), XPTR, 12), Instr::SetLo { rd: acc(3, 1), imm: 0 }]);

    // Tap loop, fully unrolled: per j two packets, four FMAs, one load.
    for j in 0..TAPS {
        let p = j % 2;
        let mut slots1 = vec![Instr::Nop; 4];
        let mut slots2 = vec![Instr::Nop; 2];
        // Next window element x[n+j+4], via the pre-advanced base so the
        // scaled immediate stays within 7 bits (j <= 63 words). The final
        // step needs nothing: the window already holds x[n+63..n+66].
        if j + 4 <= TAPS + 2 {
            slots1[0] = ld(win(j + 4), XPTR2, (4 * j) as i16);
        }
        for o in 0..4 {
            let f = Instr::FMAdd { rd: acc(o, p), rs1: coef(j), rs2: win(j + o) };
            match o {
                0..=2 => slots1[fu_of(o)] = f,
                _ => slots2[1] = f,
            }
        }
        // Trim trailing nops from slots1 (width must cover used slots).
        a.pack(&slots1);
        a.pack(&slots2);
    }
    // Combine partials and store the four outputs.
    a.pack(&[
        Instr::Nop,
        Instr::FAdd { rd: acc(0, 0), rs1: acc(0, 0), rs2: acc(0, 1) },
        Instr::FAdd { rd: acc(1, 0), rs1: acc(1, 0), rs2: acc(1, 1) },
        Instr::FAdd { rd: acc(2, 0), rs1: acc(2, 0), rs2: acc(2, 1) },
    ]);
    a.pack(&[Instr::Nop, Instr::FAdd { rd: acc(3, 0), rs1: acc(3, 0), rs2: acc(3, 1) }]);
    // Copy accumulator locals to globals for FU0 stores.
    a.pack(&[
        Instr::Nop,
        Instr::Alu { op: AluOp::Or, rd: Reg::g(88), rs1: acc(0, 0), src2: Src::Imm(0) },
        Instr::Alu { op: AluOp::Or, rd: Reg::g(89), rs1: acc(1, 0), src2: Src::Imm(0) },
        Instr::Alu { op: AluOp::Or, rd: Reg::g(90), rs1: acc(2, 0), src2: Src::Imm(0) },
    ]);
    a.pack(&[
        Instr::Nop,
        Instr::Alu { op: AluOp::Or, rd: Reg::g(91), rs1: acc(3, 0), src2: Src::Imm(0) },
    ]);
    for o in 0..4u8 {
        a.op(Instr::St {
            w: MemWidth::W,
            pol: CachePolicy::Cached,
            rs: Reg::g(88 + o),
            base: YPTR,
            off: Off::Imm(4 * o as i16),
        });
    }
    // Advance pointers, count down, loop.
    a.op(Instr::Alu { op: AluOp::Add, rd: XPTR, rs1: XPTR, src2: Src::Imm(16) });
    a.op(Instr::Alu { op: AluOp::Add, rd: YPTR, rs1: YPTR, src2: Src::Imm(16) });
    a.op(Instr::Alu { op: AluOp::Sub, rd: COUNT, rs1: COUNT, src2: Src::Imm(1) });
    a.br(Cond::Gt, COUNT, "group", true);
    a.op(Instr::Halt);
    (a.finish().expect("fir kernel assembles"), mem)
}

pub fn extract(mem: &mut FlatMem, n: usize) -> Vec<f32> {
    crate::harness::get_f32s(mem, layout::OUTPUT, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{measure, run_func};
    use majc_isa::XorShift64;

    fn workload() -> (Vec<f32>, Vec<f32>) {
        let mut rng = XorShift64::new(11);
        let coeffs: Vec<f32> = (0..TAPS).map(|_| rng.next_f32() * 0.2).collect();
        let input: Vec<f32> = (0..OUTPUTS + TAPS - 1).map(|_| rng.next_f32()).collect();
        (coeffs, input)
    }

    #[test]
    fn matches_reference_bit_exactly() {
        let (c, x) = workload();
        let (prog, mem) = build(&c, &x);
        let mut out = run_func(&prog, mem);
        assert_eq!(extract(&mut out, OUTPUTS), reference(&c, &x));
    }

    #[test]
    fn cycles_near_paper_2757() {
        let (c, x) = workload();
        let (prog, mem) = build(&c, &x);
        let cycles = measure(&prog, mem);
        assert!((1500..=5000).contains(&cycles), "FIR took {cycles} cycles (paper: 2757)");
    }
}
