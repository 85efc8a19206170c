//! 1024-point complex FFT butterflies, radix-2 and radix-4 (Table 2).
//!
//! The paper's cycle counts for these two rows are lost to OCR damage in
//! the source text; we report measured values and verify the qualitative
//! claim the paper makes explicitly: "unlike traditional DSPs that have
//! smaller register files, MAJC-5200 is capable of using the compute
//! efficient Radix-4 FFT algorithms" — radix-4 does 5 passes instead of
//! 10 and wins decisively.
//!
//! Both kernels operate in place on pre-reordered input (reordering is the
//! separate bit-reversal benchmark) with a full 1024-entry twiddle table
//! `tw[k] = e^{-2πik/N}`, and are mirrored operation-for-operation by
//! bit-exact Rust references. Correctness is additionally anchored to a
//! naive O(N²) DFT with a numeric tolerance.

use majc_asm::Asm;
use majc_isa::{AluOp, CachePolicy, Cond, Instr, MemWidth, Off, Program, Reg, Src};
use majc_mem::FlatMem;

use crate::harness::layout;

pub const N: usize = 1024;

pub type C = (f32, f32);

/// Full twiddle table: `tw[k] = e^{-2πik/N}`.
pub fn twiddles() -> Vec<C> {
    (0..N)
        .map(|k| {
            let th = -2.0 * std::f64::consts::PI * k as f64 / N as f64;
            (th.cos() as f32, th.sin() as f32)
        })
        .collect()
}

/// Complex multiply with the kernels' exact operation order:
/// `re = wr·xr` rounded, then fused `-= wi·xi`; likewise for `im`.
#[inline]
fn cmul(w: C, x: C) -> C {
    let re = w.1.mul_add(-x.1, w.0 * x.0);
    let im = w.1.mul_add(x.0, w.0 * x.1);
    (re, im)
}

/// Radix-2 DIT stages over bit-reversed input (mirrors the kernel).
pub fn radix2_reference(x: &mut [C], tw: &[C]) {
    assert_eq!(x.len(), N);
    let mut m = 2usize;
    while m <= N {
        let half = m / 2;
        let stride = N / m;
        for block in (0..N).step_by(m) {
            for j in 0..half {
                let w = tw[j * stride];
                let i1 = block + j;
                let i2 = i1 + half;
                let t = cmul(w, x[i2]);
                let a = x[i1];
                x[i1] = (a.0 + t.0, a.1 + t.1);
                x[i2] = (a.0 - t.0, a.1 - t.1);
            }
        }
        m *= 2;
    }
}

/// Radix-4 DIT stages over base-4 digit-reversed input.
pub fn radix4_reference(x: &mut [C], tw: &[C]) {
    assert_eq!(x.len(), N);
    let mut l = 4usize;
    while l <= N {
        let ls = l / 4;
        let stride = N / l;
        for block in (0..N).step_by(l) {
            for j in 0..ls {
                let w1 = tw[j * stride];
                let w2 = tw[2 * j * stride];
                let w3 = tw[3 * j * stride];
                let i0 = block + j;
                let (x0, x1, x2, x3) = (x[i0], x[i0 + ls], x[i0 + 2 * ls], x[i0 + 3 * ls]);
                let b1 = cmul(w1, x1);
                let b2 = cmul(w2, x2);
                let b3 = cmul(w3, x3);
                let t0 = (x0.0 + b2.0, x0.1 + b2.1);
                let t1 = (x0.0 - b2.0, x0.1 - b2.1);
                let t2 = (b1.0 + b3.0, b1.1 + b3.1);
                let t3 = (b1.0 - b3.0, b1.1 - b3.1);
                x[i0] = (t0.0 + t2.0, t0.1 + t2.1);
                x[i0 + 2 * ls] = (t0.0 - t2.0, t0.1 - t2.1);
                // y1 = t1 + (-i)·t3 ; y3 = t1 + i·t3.
                x[i0 + ls] = (t1.0 + t3.1, t1.1 - t3.0);
                x[i0 + 3 * ls] = (t1.0 - t3.1, t1.1 + t3.0);
            }
        }
        l *= 4;
    }
}

/// Base-4 digit reversal of a 5-digit index.
pub fn digit_rev4(i: usize) -> usize {
    let mut v = i;
    let mut out = 0;
    for _ in 0..5 {
        out = (out << 2) | (v & 3);
        v >>= 2;
    }
    out
}

/// Naive O(N²) forward DFT in f64, the ground truth for tests.
pub fn naive_dft(x: &[C]) -> Vec<(f64, f64)> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut re = 0.0f64;
            let mut im = 0.0f64;
            for (j, &(xr, xi)) in x.iter().enumerate() {
                let th = -2.0 * std::f64::consts::PI * (k * j % n) as f64 / n as f64;
                let (c, s) = (th.cos(), th.sin());
                re += xr as f64 * c - xi as f64 * s;
                im += xr as f64 * s + xi as f64 * c;
            }
            (re, im)
        })
        .collect()
}

fn write_complex(mem: &mut FlatMem, addr: u32, xs: &[C]) {
    for (i, &(re, im)) in xs.iter().enumerate() {
        mem.write_f32(addr + 8 * i as u32, re);
        mem.write_f32(addr + 8 * i as u32 + 4, im);
    }
}

pub fn read_complex(mem: &mut FlatMem, n: usize) -> Vec<C> {
    (0..n)
        .map(|i| {
            (
                mem.read_f32(layout::INPUT + 8 * i as u32),
                mem.read_f32(layout::INPUT + 8 * i as u32 + 4),
            )
        })
        .collect()
}

// Common registers.
const XB: Reg = Reg::g(0);
const TB: Reg = Reg::g(1);
const BLOCKS: Reg = Reg::g(2);
const JCNT: Reg = Reg::g(3);
const MB: Reg = Reg::g(4); // half (r2) / quarter (r4) span in bytes
const TS: Reg = Reg::g(5);
const STAGE: Reg = Reg::g(6);
const P: Reg = Reg::g(7);
const WP1: Reg = Reg::g(8);
const WP2: Reg = Reg::g(9);
const WP3: Reg = Reg::g(10);
const JJ: Reg = Reg::g(11);
const BB: Reg = Reg::g(12);
const MB2: Reg = Reg::g(13);
const MB3: Reg = Reg::g(14);
const TS2: Reg = Reg::g(15);
const TS3: Reg = Reg::g(30);

fn ldl(rd: Reg, base: Reg, off: Off) -> Instr {
    Instr::Ld { w: MemWidth::L, pol: CachePolicy::Cached, rd, base, off }
}
fn stl(rs: Reg, base: Reg, off: Off) -> Instr {
    Instr::St { w: MemWidth::L, pol: CachePolicy::Cached, rs, base, off }
}
fn alu(op: AluOp, rd: Reg, rs1: Reg, imm: i16) -> Instr {
    Instr::Alu { op, rd, rs1, src2: Src::Imm(imm) }
}
fn alur(op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) -> Instr {
    Instr::Alu { op, rd, rs1, src2: Src::Reg(rs2) }
}

/// Build the radix-2 kernel (input pre-bit-reversed, in place at INPUT).
pub fn build_radix2(data_bitrev: &[C]) -> (Program, FlatMem) {
    assert_eq!(data_bitrev.len(), N);
    let mut mem = FlatMem::new();
    write_complex(&mut mem, layout::INPUT, data_bitrev);
    write_complex(&mut mem, layout::TABLE, &twiddles());

    // Data registers.
    let (ar, ai) = (Reg::g(16), Reg::g(17));
    let (br, bi) = (Reg::g(18), Reg::g(19));
    let (wr, wi) = (Reg::g(20), Reg::g(21));
    let (tr, ti) = (Reg::g(24), Reg::g(25));
    let (o1r, o1i) = (Reg::g(26), Reg::g(27));
    let (o2r, o2i) = (Reg::g(28), Reg::g(29));

    let mut a = Asm::new(0);
    a.set32(XB, layout::INPUT);
    a.set32(TB, layout::TABLE);
    a.set32(MB, 8); // half = 1 element
    a.set32(JCNT, 1);
    a.set32(BLOCKS, (N / 2) as u32);
    a.set32(TS, (N as u32 / 2) * 8);
    a.set32(STAGE, 10);

    a.label("stage");
    a.pack(&[alu(AluOp::Or, P, XB, 0), alu(AluOp::Or, BB, BLOCKS, 0)]);
    a.label("block");
    a.pack(&[alu(AluOp::Or, WP1, TB, 0), alu(AluOp::Or, JJ, JCNT, 0)]);
    a.label("bfly");
    // Loads: x[i2] via register offset, twiddle, x[i1].
    a.op(ldl(br, P, Off::Reg(MB)));
    a.op(ldl(wr, WP1, Off::Imm(0)));
    a.op(ldl(ar, P, Off::Imm(0)));
    // t = w * b, with pointer bumps riding the compute packets.
    a.pack(&[
        Instr::Nop,
        Instr::FMul { rd: tr, rs1: wr, rs2: br },
        Instr::FMul { rd: ti, rs1: wr, rs2: bi },
        alur(AluOp::Add, WP1, WP1, TS),
    ]);
    a.pack(&[
        Instr::Nop,
        Instr::FMSub { rd: tr, rs1: wi, rs2: bi },
        Instr::FMAdd { rd: ti, rs1: wi, rs2: br },
        alu(AluOp::Sub, JJ, JJ, 1),
    ]);
    a.pack(&[
        Instr::Nop,
        Instr::FAdd { rd: o1r, rs1: ar, rs2: tr },
        Instr::FAdd { rd: o1i, rs1: ai, rs2: ti },
    ]);
    a.pack(&[
        Instr::Nop,
        Instr::FSub { rd: o2r, rs1: ar, rs2: tr },
        Instr::FSub { rd: o2i, rs1: ai, rs2: ti },
    ]);
    a.op(stl(o1r, P, Off::Imm(0)));
    a.op(stl(o2r, P, Off::Reg(MB)));
    a.br_pack(Cond::Gt, JJ, "bfly", true, &[alu(AluOp::Add, P, P, 8)]);
    // Skip the second half of the block; next block.
    a.pack(&[alur(AluOp::Add, P, P, MB), alu(AluOp::Sub, BB, BB, 1)]);
    a.br(Cond::Gt, BB, "block", true);
    // Stage parameter update.
    a.pack(&[
        alu(AluOp::Sll, MB, MB, 1),
        alu(AluOp::Sll, JCNT, JCNT, 1),
        alu(AluOp::Srl, BLOCKS, BLOCKS, 1),
        alu(AluOp::Srl, TS, TS, 1),
    ]);
    a.op(alu(AluOp::Sub, STAGE, STAGE, 1));
    a.br(Cond::Gt, STAGE, "stage", true);
    a.op(Instr::Halt);
    (a.finish().expect("radix-2 kernel assembles"), mem)
}

/// Build the radix-4 kernel (input pre-digit-reversed, in place at INPUT).
pub fn build_radix4(data_digitrev: &[C]) -> (Program, FlatMem) {
    assert_eq!(data_digitrev.len(), N);
    let mut mem = FlatMem::new();
    write_complex(&mut mem, layout::INPUT, data_digitrev);
    write_complex(&mut mem, layout::TABLE, &twiddles());

    let x = |q: usize| (Reg::g(16 + 2 * q as u8), Reg::g(17 + 2 * q as u8)); // g16..23
    let w = |q: usize| (Reg::g(22 + 2 * q as u8), Reg::g(23 + 2 * q as u8)); // q=1..3: g24..29
    let b = |q: usize| (Reg::g(30 + 2 * q as u8), Reg::g(31 + 2 * q as u8)); // q=1..3: g32..37
    let t = |q: usize| (Reg::g(40 + 2 * q as u8), Reg::g(41 + 2 * q as u8)); // g40..47
    let y = |q: usize| (Reg::g(48 + 2 * q as u8), Reg::g(49 + 2 * q as u8)); // g48..55

    let mut a = Asm::new(0);
    a.set32(XB, layout::INPUT);
    a.set32(TB, layout::TABLE);
    a.set32(MB, 8); // quarter span = 1 element
    a.set32(JCNT, 1);
    a.set32(BLOCKS, (N / 4) as u32);
    a.set32(TS, (N as u32 / 4) * 8);
    a.set32(STAGE, 5);

    a.label("stage");
    // Derived per-stage strides.
    a.pack(&[
        alu(AluOp::Sll, MB2, MB, 1),
        alu(AluOp::Sll, TS2, TS, 1),
        alur(AluOp::Add, TS3, TS, TS),
    ]);
    a.pack(&[
        alur(AluOp::Add, MB3, MB2, MB),
        alur(AluOp::Add, TS3, TS3, TS),
        alu(AluOp::Or, P, XB, 0),
    ]);
    a.op(alu(AluOp::Or, BB, BLOCKS, 0));
    a.label("block");
    a.pack(&[
        alu(AluOp::Or, WP1, TB, 0),
        alu(AluOp::Or, WP2, TB, 0),
        alu(AluOp::Or, WP3, TB, 0),
        alu(AluOp::Or, JJ, JCNT, 0),
    ]);
    a.label("bfly");
    let (x0r, x0i) = x(0);
    let (x1r, _x1i) = x(1);
    let (x2r, _x2i) = x(2);
    let (x3r, _x3i) = x(3);
    a.op(ldl(x1r, P, Off::Reg(MB)));
    a.op(ldl(x2r, P, Off::Reg(MB2)));
    a.op(ldl(x3r, P, Off::Reg(MB3)));
    a.op(ldl(x0r, P, Off::Imm(0)));
    a.op(ldl(w(1).0, WP1, Off::Imm(0)));
    a.op(ldl(w(2).0, WP2, Off::Imm(0)));
    a.op(ldl(w(3).0, WP3, Off::Imm(0)));
    // b_q = w_q * x_q for q = 1..3 (two packets each pair of ops, spread
    // across units; pointer bumps ride along).
    let bump = [
        alur(AluOp::Add, WP1, WP1, TS),
        alur(AluOp::Add, WP2, WP2, TS2),
        alur(AluOp::Add, WP3, WP3, TS3),
    ];
    for (q, bmp) in (1..4).zip(bump) {
        let (wqr, wqi) = w(q);
        let (xqr, xqi) = (x(q).0, x(q).1);
        let (bqr, bqi) = b(q);
        a.pack(&[
            Instr::Nop,
            Instr::FMul { rd: bqr, rs1: wqr, rs2: xqr },
            Instr::FMul { rd: bqi, rs1: wqr, rs2: xqi },
            bmp,
        ]);
        a.pack(&[
            Instr::Nop,
            Instr::FMSub { rd: bqr, rs1: wqi, rs2: xqi },
            Instr::FMAdd { rd: bqi, rs1: wqi, rs2: xqr },
        ]);
    }
    // t0 = x0 + b2 ; t1 = x0 - b2 ; t2 = b1 + b3 ; t3 = b1 - b3.
    let (b1r, b1i) = b(1);
    let (b2r, b2i) = b(2);
    let (b3r, b3i) = b(3);
    let (t0r, t0i) = t(0);
    let (t1r, t1i) = t(1);
    let (t2r, t2i) = t(2);
    let (t3r, t3i) = t(3);
    a.pack(&[
        Instr::Nop,
        Instr::FAdd { rd: t0r, rs1: x0r, rs2: b2r },
        Instr::FAdd { rd: t0i, rs1: x0i, rs2: b2i },
        Instr::FSub { rd: t1r, rs1: x0r, rs2: b2r },
    ]);
    a.pack(&[
        Instr::Nop,
        Instr::FSub { rd: t1i, rs1: x0i, rs2: b2i },
        Instr::FAdd { rd: t2r, rs1: b1r, rs2: b3r },
        Instr::FAdd { rd: t2i, rs1: b1i, rs2: b3i },
    ]);
    a.pack(&[
        Instr::Nop,
        Instr::FSub { rd: t3r, rs1: b1r, rs2: b3r },
        Instr::FSub { rd: t3i, rs1: b1i, rs2: b3i },
        alu(AluOp::Sub, JJ, JJ, 1),
    ]);
    // Outputs.
    let (y0r, y0i) = y(0);
    let (y1r, y1i) = y(1);
    let (y2r, y2i) = y(2);
    let (y3r, y3i) = y(3);
    a.pack(&[
        Instr::Nop,
        Instr::FAdd { rd: y0r, rs1: t0r, rs2: t2r },
        Instr::FAdd { rd: y0i, rs1: t0i, rs2: t2i },
        Instr::FSub { rd: y2r, rs1: t0r, rs2: t2r },
    ]);
    a.pack(&[
        Instr::Nop,
        Instr::FSub { rd: y2i, rs1: t0i, rs2: t2i },
        Instr::FAdd { rd: y1r, rs1: t1r, rs2: t3i },
        Instr::FSub { rd: y1i, rs1: t1i, rs2: t3r },
    ]);
    a.pack(&[
        Instr::Nop,
        Instr::FSub { rd: y3r, rs1: t1r, rs2: t3i },
        Instr::FAdd { rd: y3i, rs1: t1i, rs2: t3r },
    ]);
    a.op(stl(y0r, P, Off::Imm(0)));
    a.op(stl(y1r, P, Off::Reg(MB)));
    a.op(stl(y2r, P, Off::Reg(MB2)));
    a.op(stl(y3r, P, Off::Reg(MB3)));
    a.br_pack(Cond::Gt, JJ, "bfly", true, &[alu(AluOp::Add, P, P, 8)]);
    // Next block: skip the other three quarters.
    a.pack(&[alur(AluOp::Add, P, P, MB3), alu(AluOp::Sub, BB, BB, 1)]);
    a.br(Cond::Gt, BB, "block", true);
    a.pack(&[
        alu(AluOp::Sll, MB, MB, 2),
        alu(AluOp::Sll, JCNT, JCNT, 2),
        alu(AluOp::Srl, BLOCKS, BLOCKS, 2),
        alu(AluOp::Srl, TS, TS, 2),
    ]);
    a.op(alu(AluOp::Sub, STAGE, STAGE, 1));
    a.br(Cond::Gt, STAGE, "stage", true);
    a.op(Instr::Halt);
    (a.finish().expect("radix-4 kernel assembles"), mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitrev::rev;
    use crate::harness::{measure, run_func};
    use majc_isa::XorShift64;

    fn workload() -> Vec<C> {
        let mut rng = XorShift64::new(99);
        (0..N).map(|_| (rng.next_f32(), rng.next_f32())).collect()
    }

    fn check_against_dft(got: &[C], x: &[C]) {
        let want = naive_dft(x);
        let scale: f64 = want.iter().map(|(r, i)| (r * r + i * i).sqrt()).sum::<f64>() / N as f64;
        for (k, (&(gr, gi), &(wr, wi))) in got.iter().zip(&want).enumerate() {
            let dr = (gr as f64 - wr).abs();
            let di = (gi as f64 - wi).abs();
            assert!(
                dr < 1e-2 * scale && di < 1e-2 * scale,
                "bin {k}: got ({gr}, {gi}), want ({wr:.4}, {wi:.4})"
            );
        }
    }

    #[test]
    fn radix2_matches_reference_and_dft() {
        let x = workload();
        let pre: Vec<C> = (0..N).map(|i| x[rev(i)]).collect();
        let (prog, mem) = build_radix2(&pre);
        let mut out = run_func(&prog, mem);
        let got = read_complex(&mut out, N);
        let mut want = pre.clone();
        radix2_reference(&mut want, &twiddles());
        assert_eq!(got, want, "bit-exact against the mirrored reference");
        check_against_dft(&got, &x);
    }

    #[test]
    fn radix4_matches_reference_and_dft() {
        let x = workload();
        let pre: Vec<C> = (0..N).map(|i| x[digit_rev4(i)]).collect();
        let (prog, mem) = build_radix4(&pre);
        let mut out = run_func(&prog, mem);
        let got = read_complex(&mut out, N);
        let mut want = pre.clone();
        radix4_reference(&mut want, &twiddles());
        assert_eq!(got, want, "bit-exact against the mirrored reference");
        check_against_dft(&got, &x);
    }

    #[test]
    fn radix4_beats_radix2() {
        let x = workload();
        let pre2: Vec<C> = (0..N).map(|i| x[rev(i)]).collect();
        let (p2, m2) = build_radix2(&pre2);
        let c2 = measure(&p2, m2);
        let pre4: Vec<C> = (0..N).map(|i| x[digit_rev4(i)]).collect();
        let (p4, m4) = build_radix4(&pre4);
        let c4 = measure(&p4, m4);
        assert!((c4 as f64) < c2 as f64 * 0.7, "radix-4 ({c4}) should clearly beat radix-2 ({c2})");
        // Sanity bounds: a 1024-point FFT on this machine lands in the
        // tens of thousands of cycles.
        assert!((15_000..120_000).contains(&c2), "radix-2 took {c2}");
        assert!((8_000..60_000).contains(&c4), "radix-4 took {c4}");
    }

    #[test]
    fn digit_rev4_is_involution() {
        for i in 0..N {
            assert_eq!(digit_rev4(digit_rev4(i)), i);
        }
        assert_eq!(digit_rev4(1), 256);
        assert_eq!(digit_rev4(2), 512);
    }
}
