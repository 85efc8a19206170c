//! 8×8 forward DCT + quantization (Table 1; paper: 200 cycles).
//!
//! AAN-style scaled forward DCT (5 multiplies, 29 adds per 8-point pass;
//! the row/column scale factors fold into the quantiser reciprocals, which
//! is why the paper's DCT+Q is *cheaper* than its IDCT), followed by
//! reciprocal-multiply quantisation using the high-half multiply
//! (`mulhi`), which paper §4 provides exactly for this "obtaining 64-bit
//! multiplies" pattern. Block, constants and temps are register-resident;
//! loads, reciprocal loads and quantised stores weave through FU0.

use majc_asm::Asm;
use majc_isa::{AluOp, CachePolicy, Instr, MemWidth, Off, Program, Reg, Src};
use majc_mem::FlatMem;

use crate::harness::{layout, put_i16s, put_u32s};
use crate::idct::Weaver;

/// Fixed-point bits for the AAN rotation constants.
pub const AAN_BITS: u32 = 13;
const C_0_707: i32 = 5793; // 0.707106781 * 8192
const C_0_382: i32 = 3135; // 0.382683433
const C_0_541: i32 = 4433; // 0.541196100
const C_1_306: i32 = 10703; // 1.306562965

/// AAN scale factors (output k of a 1-D pass carries factor aan[k]).
fn aan_scale(k: usize) -> f64 {
    match k {
        0 => 1.0,
        1 => 1.387039845,
        2 => 1.306562965,
        3 => 1.175875602,
        4 => 1.0,
        5 => 0.785694958,
        6 => 0.541196100,
        7 => 0.275899379,
        _ => unreachable!(),
    }
}

/// Quantiser reciprocals: `recip[i] = 2^16 / (q[i] / (aan_r * aan_c))`,
/// so `level = mulhi(coeff << 16, recip)` divides by the quantiser while
/// undoing the AAN scaling.
pub fn reciprocals(q: &[u16; 64]) -> [u32; 64] {
    std::array::from_fn(|i| {
        let (r, c) = (i / 8, i % 8);
        let eff = q[i] as f64 * aan_scale(r) * aan_scale(c);
        ((65536.0 / eff).round() as u32).max(1)
    })
}

#[inline]
fn fxmul(a: i32, c: i32) -> i32 {
    (a.wrapping_mul(c)) >> AAN_BITS
}

/// One AAN 8-point forward pass, mirroring the kernel op-for-op.
fn fdct_1d(x: [i32; 8]) -> [i32; 8] {
    let t0 = x[0] + x[7];
    let t7 = x[0] - x[7];
    let t1 = x[1] + x[6];
    let t6 = x[1] - x[6];
    let t2 = x[2] + x[5];
    let t5 = x[2] - x[5];
    let t3 = x[3] + x[4];
    let t4 = x[3] - x[4];
    let t10 = t0 + t3;
    let t13 = t0 - t3;
    let t11 = t1 + t2;
    let t12 = t1 - t2;
    let y0 = t10 + t11;
    let y4 = t10 - t11;
    let z1 = fxmul(t12 + t13, C_0_707);
    let y2 = t13 + z1;
    let y6 = t13 - z1;
    let t10 = t4 + t5;
    let t11 = t5 + t6;
    let t12 = t6 + t7;
    let z5 = fxmul(t10 - t12, C_0_382);
    let z2 = fxmul(t10, C_0_541) + z5;
    let z4 = fxmul(t12, C_1_306) + z5;
    let z3 = fxmul(t11, C_0_707);
    let z11 = t7 + z3;
    let z13 = t7 - z3;
    [y0, z11 + z4, y2, z13 - z2, y4, z13 + z2, y6, z11 - z4]
}

/// Quantise with the kernel's exact `mulhi(coeff << 16, recip)` semantics
/// (round toward negative infinity, like the hardware op).
fn quantise(v: i32, recip: u32) -> i16 {
    (((v as i64) << 16).wrapping_mul(recip as i64) >> 32) as i16
}

/// Reference DCT + quantisation.
pub fn reference(pixels: &[i16; 64], q: &[u16; 64]) -> [i16; 64] {
    let recips = reciprocals(q);
    let mut w = [0i32; 64];
    for r in 0..8 {
        let row: [i32; 8] = std::array::from_fn(|i| pixels[r * 8 + i] as i32);
        let o = fdct_1d(row);
        w[r * 8..r * 8 + 8].copy_from_slice(&o);
    }
    for c in 0..8 {
        let col: [i32; 8] = std::array::from_fn(|i| w[i * 8 + c]);
        let o = fdct_1d(col);
        for i in 0..8 {
            w[i * 8 + c] = o[i];
        }
    }
    // The 2-D AAN output carries an 8x scale (beyond the folded per-entry
    // factors); fold the /8 into the reciprocal multiply input shift:
    // mulhi((v >> 3) << 16, recip).
    std::array::from_fn(|i| quantise(w[i] >> 3, recips[i]))
}

const XP: Reg = Reg::g(0);
const OP: Reg = Reg::g(1);
const RP: Reg = Reg::g(2);
const CONSTS: [(u8, i32); 4] = [(3, C_0_707), (4, C_0_382), (5, C_0_541), (6, C_1_306)];
fn creg(v: i32) -> Reg {
    Reg::g(CONSTS.iter().find(|&&(_, c)| c == v).expect("const").0)
}
fn blk(i: usize) -> Reg {
    Reg::g(16 + i as u8)
}
fn t(i: usize) -> Reg {
    Reg::g(80 + i as u8)
}

fn emit_1d(a: &mut Asm, w: &mut Weaver, x: &[Reg; 8], rot: usize) {
    let t = |i: usize| t((i + rot * 7) % 15);
    let add =
        |rd: Reg, r1: Reg, r2: Reg| Instr::Alu { op: AluOp::Add, rd, rs1: r1, src2: Src::Reg(r2) };
    let sub =
        |rd: Reg, r1: Reg, r2: Reg| Instr::Alu { op: AluOp::Sub, rd, rs1: r1, src2: Src::Reg(r2) };
    let sra = |rd: Reg, r1: Reg| Instr::Alu {
        op: AluOp::Sra,
        rd,
        rs1: r1,
        src2: Src::Imm(AAN_BITS as i16),
    };
    let mul = |rd: Reg, r1: Reg, c: i32| Instr::Mul { rd, rs1: r1, rs2: creg(c) };

    // Butterfly stage: t0..t7 in pool 0..7.
    for i in 0..4 {
        w.op(a, add(t(i), x[i], x[7 - i]));
        w.op(a, sub(t(7 - i), x[i], x[7 - i]));
    }
    // Even part.
    w.op(a, add(t(8), t(0), t(3))); // t10
    w.op(a, sub(t(9), t(0), t(3))); // t13
    w.op(a, add(t(10), t(1), t(2))); // t11
    w.op(a, sub(t(11), t(1), t(2))); // t12
    w.op(a, add(x[0], t(8), t(10))); // y0
    w.op(a, sub(x[4], t(8), t(10))); // y4
    w.op(a, add(t(12), t(11), t(9)));
    w.op(a, mul(t(12), t(12), C_0_707));
    w.op(a, sra(t(12), t(12))); // z1
    w.op(a, add(x[2], t(9), t(12))); // y2
    w.op(a, sub(x[6], t(9), t(12))); // y6
                                     // Odd part (t4..t7 still live).
    w.op(a, add(t(8), t(4), t(5))); // t10
    w.op(a, add(t(10), t(5), t(6))); // t11
    w.op(a, add(t(11), t(6), t(7))); // t12
    w.op(a, sub(t(12), t(8), t(11)));
    w.op(a, mul(t(12), t(12), C_0_382));
    w.op(a, sra(t(12), t(12))); // z5
    w.op(a, mul(t(8), t(8), C_0_541));
    w.op(a, sra(t(8), t(8)));
    w.op(a, add(t(8), t(8), t(12))); // z2
    w.op(a, mul(t(11), t(11), C_1_306));
    w.op(a, sra(t(11), t(11)));
    w.op(a, add(t(11), t(11), t(12))); // z4
    w.op(a, mul(t(10), t(10), C_0_707));
    w.op(a, sra(t(10), t(10))); // z3
    w.op(a, add(t(13), t(7), t(10))); // z11
    w.op(a, sub(t(14), t(7), t(10))); // z13
    w.op(a, add(x[1], t(13), t(11))); // y1 = z11 + z4
    w.op(a, sub(x[3], t(14), t(8))); // y3 = z13 - z2
    w.op(a, add(x[5], t(14), t(8))); // y5 = z13 + z2
    w.op(a, sub(x[7], t(13), t(11))); // y7 = z11 - z4
}

/// Build the DCT+quant kernel: pixels (i16) at INPUT, reciprocal table
/// (u32) at TABLE, quantised levels (i16) at OUTPUT.
pub fn build(pixels: &[i16; 64], q: &[u16; 64]) -> (Program, FlatMem) {
    let mut mem = FlatMem::new();
    put_i16s(&mut mem, layout::INPUT, pixels);
    put_u32s(&mut mem, layout::TABLE, &reciprocals(q));

    let mut a = Asm::new(0);
    a.set32(XP, layout::INPUT);
    a.set32(OP, layout::OUTPUT);
    a.set32(RP, layout::TABLE);
    for &(r, v) in &CONSTS {
        a.set32(Reg::g(r), v as u32);
    }
    let mut w = Weaver::new();
    for i in 0..64 {
        w.push_fu0(Instr::Ld {
            w: MemWidth::H,
            pol: CachePolicy::Cached,
            rd: blk(i),
            base: XP,
            off: Off::Imm(2 * i as i16),
        });
    }
    for _ in 0..8 {
        w.pop_fu0_now(&mut a);
    }
    for r in 0..8 {
        let x: [Reg; 8] = std::array::from_fn(|i| blk(r * 8 + i));
        emit_1d(&mut a, &mut w, &x, r);
    }
    for c in 0..8 {
        let x: [Reg; 8] = std::array::from_fn(|i| blk(i * 8 + c));
        emit_1d(&mut a, &mut w, &x, c);
    }
    w.flush(&mut a);
    // Quantisation pass over the whole block (column loop above only did
    // the transform). Reciprocals arrive two per 8-byte load, results
    // leave two per word store, and the per-element math is sra, sll,
    // mulhi (the reference computes (v >> 3) << 16, NOT v << 13 — the low
    // bits differ — so the kernel mirrors exactly), then a 4-op pack.
    for pair in 0..32usize {
        let (i0, i1) = (2 * pair, 2 * pair + 1);
        let stage = t(2 * (pair % 4)); // even: pair (stage, stage+1)
        let stage1 = Reg::from_index(stage.index() as u8 + 1).unwrap();
        w.push_fu0(Instr::Ld {
            w: MemWidth::L,
            pol: CachePolicy::Cached,
            rd: stage,
            base: RP,
            off: Off::Imm((8 * pair) as i16),
        });
        let (v0, v1) = (blk(i0), blk(i1));
        for (v, r) in [(v0, stage), (v1, stage1)] {
            w.op(&mut a, Instr::Alu { op: AluOp::Sra, rd: v, rs1: v, src2: Src::Imm(3) });
            w.op(&mut a, Instr::Alu { op: AluOp::Sll, rd: v, rs1: v, src2: Src::Imm(16) });
            w.op(&mut a, Instr::MulHi { rd: v, rs1: v, rs2: r });
        }
        // Pack the two signed 16-bit levels into one little-endian word.
        w.op(&mut a, Instr::Alu { op: AluOp::Sll, rd: v0, rs1: v0, src2: Src::Imm(16) });
        w.op(&mut a, Instr::Alu { op: AluOp::Srl, rd: v0, rs1: v0, src2: Src::Imm(16) });
        w.op(&mut a, Instr::Alu { op: AluOp::Sll, rd: v1, rs1: v1, src2: Src::Imm(16) });
        w.op(&mut a, Instr::Alu { op: AluOp::Or, rd: v0, rs1: v0, src2: Src::Reg(v1) });
        w.push_fu0(Instr::St {
            w: MemWidth::W,
            pol: CachePolicy::Cached,
            rs: v0,
            base: OP,
            off: Off::Imm((4 * pair) as i16),
        });
    }
    w.drain_fu0(&mut a);
    a.op(Instr::Halt);
    (a.finish().expect("dct kernel assembles"), mem)
}

pub fn extract(mem: &mut FlatMem) -> [i16; 64] {
    crate::harness::get_i16s(mem, layout::OUTPUT, 64).try_into().unwrap()
}

/// A typical MPEG-style quantisation matrix scaled by `qscale`.
pub fn demo_qmatrix(qscale: u16) -> [u16; 64] {
    const BASE: [u16; 64] = [
        8, 16, 19, 22, 26, 27, 29, 34, 16, 16, 22, 24, 27, 29, 34, 37, 19, 22, 26, 27, 29, 34, 34,
        38, 22, 22, 26, 27, 29, 34, 37, 40, 22, 26, 27, 29, 32, 35, 40, 48, 26, 27, 29, 32, 35, 40,
        48, 58, 26, 27, 29, 34, 38, 46, 56, 69, 27, 29, 35, 38, 46, 56, 69, 83,
    ];
    std::array::from_fn(|i| (BASE[i] * qscale).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{measure, run_func};
    use majc_isa::XorShift64;

    fn workload(seed: u64) -> [i16; 64] {
        let mut rng = XorShift64::new(seed);
        std::array::from_fn(|_| rng.next_i16(255))
    }

    #[test]
    fn matches_reference_bit_exactly() {
        for seed in 1..5 {
            let px = workload(seed);
            let q = demo_qmatrix(2);
            let (prog, mem) = build(&px, &q);
            let mut out = run_func(&prog, mem);
            assert_eq!(extract(&mut out), reference(&px, &q), "seed {seed}");
        }
    }

    #[test]
    fn dc_coefficient_is_sensible() {
        // A flat block of value v has DC = 8*v (2-D AAN gain) and zero AC;
        // after quantisation by q[0]=8*qscale the DC level ~ v/qscale.
        let px = [64i16; 64];
        let q = demo_qmatrix(1);
        let out = reference(&px, &q);
        assert!((60..=68).contains(&out[0]), "DC level {}", out[0]);
        assert!(out[1..].iter().all(|&v| v == 0), "AC must be zero");
    }

    #[test]
    fn round_trips_through_idct() {
        // DCT+Q then dequantise+IDCT recovers the image approximately.
        let px = workload(7);
        let q = demo_qmatrix(1);
        let levels = reference(&px, &q);
        // Dequantise: coeff = level * q (AAN scales already folded away in
        // the reciprocal, so dequantisation uses the plain matrix).
        let mut coeffs = [0i16; 64];
        for i in 0..64 {
            coeffs[i] = levels[i].saturating_mul(q[i] as i16);
        }
        let back = crate::idct::reference(&coeffs);
        let mut err = 0f64;
        for i in 0..64 {
            err += (back[i] as f64 - px[i] as f64).abs();
        }
        let mae = err / 64.0;
        assert!(mae < 25.0, "mean reconstruction error {mae}");
    }

    #[test]
    fn cycles_near_paper_200() {
        let px = workload(3);
        let (prog, mem) = build(&px, &demo_qmatrix(2));
        let cycles = measure(&prog, mem);
        assert!((150..=900).contains(&cycles), "DCT+Q took {cycles} cycles (paper: 200)");
    }
}
