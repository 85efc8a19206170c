//! Single-sample, 16th-order LMS adaptive filter (Table 2; paper: 64
//! cycles).
//!
//! One NLMS-style step: `y = Σ w_k x_k`, `e = d - y`, `w_k += (µ·e) x_k`.
//! The dot product spreads over six partial accumulators (two per compute
//! unit, so each accumulator is re-used at the 4-cycle FMA interval), the
//! reduction tree and the error scale ride the FP pipeline, and the 16
//! coefficient updates go back three per cycle.

use majc_asm::Asm;
use majc_isa::{AluOp, CachePolicy, Instr, MemWidth, Off, Program, Reg, Src};
use majc_mem::FlatMem;

use crate::harness::{layout, put_f32s};

pub const ORDER: usize = 16;

/// Reference with the kernel's exact association order.
pub fn reference(w: &[f32], x: &[f32], d: f32, mu: f32) -> (Vec<f32>, f32, f32) {
    assert_eq!(w.len(), ORDER);
    assert_eq!(x.len(), ORDER);
    let mut parts = [0.0f32; 6];
    for k in 0..ORDER {
        parts[k % 6] = w[k].mul_add(x[k], parts[k % 6]);
    }
    let q0 = parts[0] + parts[1];
    let q1 = parts[2] + parts[3];
    let q2 = parts[4] + parts[5];
    let y = (q0 + q1) + q2;
    let e = d - y;
    let es = mu * e;
    let nw: Vec<f32> = (0..ORDER).map(|k| es.mul_add(x[k], w[k])).collect();
    (nw, y, e)
}

const WPTR: Reg = Reg::g(0);
const XPTR: Reg = Reg::g(1);
const OPTR: Reg = Reg::g(2);

fn wreg(k: usize) -> Reg {
    Reg::g(16 + k as u8) // g16..g31
}
fn xreg(k: usize) -> Reg {
    Reg::g(32 + k as u8) // g32..g47
}
const MU: Reg = Reg::g(48);
const D: Reg = Reg::g(49);
/// Partial accumulators: two per compute unit.
fn part(i: usize) -> Reg {
    Reg::l(1 + (i % 3) as u8, (i / 3) as u8)
}
const Y: Reg = Reg::g(50);
const ES: Reg = Reg::g(51);

/// Build one LMS step. Memory: weights at COEFF, window at INPUT, `d` and
/// `mu` at TABLE; outputs (updated weights, then y, e) at OUTPUT.
pub fn build(w: &[f32], x: &[f32], d: f32, mu: f32) -> (Program, FlatMem) {
    assert_eq!(w.len(), ORDER);
    assert_eq!(x.len(), ORDER);
    let mut mem = FlatMem::new();
    put_f32s(&mut mem, layout::COEFF, w);
    put_f32s(&mut mem, layout::INPUT, x);
    put_f32s(&mut mem, layout::TABLE, &[d, mu]);

    let mut a = Asm::new(0);
    a.set32(WPTR, layout::COEFF);
    a.set32(XPTR, layout::INPUT);
    a.set32(OPTR, layout::OUTPUT);
    let tp = Reg::g(3);
    a.set32(tp, layout::TABLE);
    let gld = |rd: Reg, base: Reg, off: i16| Instr::Ld {
        w: MemWidth::G,
        pol: CachePolicy::Cached,
        rd,
        base,
        off: Off::Imm(off),
    };
    a.op(gld(wreg(0), WPTR, 0));
    a.op(gld(wreg(8), WPTR, 32));
    a.op(gld(xreg(0), XPTR, 0));
    a.op(gld(xreg(8), XPTR, 32));
    a.op(Instr::Ld { w: MemWidth::W, pol: CachePolicy::Cached, rd: D, base: tp, off: Off::Imm(0) });
    a.op(Instr::Ld {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rd: MU,
        base: tp,
        off: Off::Imm(4),
    });
    // Zero the six partials, then the 16-tap dot product, 3 FMAs/cycle.
    a.pack(&[
        Instr::Nop,
        Instr::SetLo { rd: part(0), imm: 0 },
        Instr::SetLo { rd: part(1), imm: 0 },
        Instr::SetLo { rd: part(2), imm: 0 },
    ]);
    a.pack(&[
        Instr::Nop,
        Instr::SetLo { rd: part(3), imm: 0 },
        Instr::SetLo { rd: part(4), imm: 0 },
        Instr::SetLo { rd: part(5), imm: 0 },
    ]);
    for k3 in 0..6 {
        let mut slots = vec![Instr::Nop; 4];
        for lane in 0..3 {
            let k = 3 * k3 + lane;
            if k < ORDER {
                slots[1 + lane] = Instr::FMAdd { rd: part(k % 6), rs1: wreg(k), rs2: xreg(k) };
            }
        }
        a.pack(&slots);
    }
    // Reduce: three pairwise adds, then a 2-level combine on FU1.
    a.pack(&[
        Instr::Nop,
        Instr::FAdd { rd: part(0), rs1: part(0), rs2: part(3) },
        Instr::FAdd { rd: part(1), rs1: part(1), rs2: part(4) },
        Instr::FAdd { rd: part(2), rs1: part(2), rs2: part(5) },
    ]);
    // part() pairs live on different FUs — move FU2/FU3 results to globals.
    a.pack(&[
        Instr::Nop,
        Instr::Nop,
        Instr::Alu { op: AluOp::Or, rd: Reg::g(52), rs1: part(1), src2: Src::Imm(0) },
        Instr::Alu { op: AluOp::Or, rd: Reg::g(53), rs1: part(2), src2: Src::Imm(0) },
    ]);
    a.pack(&[Instr::Nop, Instr::FAdd { rd: Y, rs1: part(0), rs2: Reg::g(52) }]);
    a.pack(&[Instr::Nop, Instr::FAdd { rd: Y, rs1: Y, rs2: Reg::g(53) }]);
    // e = d - y ; es = mu * e (kept fused-order compatible with reference).
    a.pack(&[Instr::Nop, Instr::FSub { rd: ES, rs1: D, rs2: Y }]);
    // y and e go to memory before ES is overwritten by the scale.
    a.op(Instr::St {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rs: Y,
        base: OPTR,
        off: Off::Imm(64),
    });
    a.op(Instr::St {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rs: ES,
        base: OPTR,
        off: Off::Imm(68),
    });
    a.pack(&[Instr::Nop, Instr::FMul { rd: ES, rs1: MU, rs2: ES }]);
    // Weight updates, three per cycle, then two group stores.
    for k3 in 0..6 {
        let mut slots = vec![Instr::Nop; 4];
        for lane in 0..3 {
            let k = 3 * k3 + lane;
            if k < ORDER {
                slots[1 + lane] = Instr::FMAdd { rd: wreg(k), rs1: ES, rs2: xreg(k) };
            }
        }
        a.pack(&slots);
    }
    a.op(Instr::St {
        w: MemWidth::G,
        pol: CachePolicy::Cached,
        rs: wreg(0),
        base: OPTR,
        off: Off::Imm(0),
    });
    a.op(Instr::St {
        w: MemWidth::G,
        pol: CachePolicy::Cached,
        rs: wreg(8),
        base: OPTR,
        off: Off::Imm(32),
    });
    a.op(Instr::Halt);
    (a.finish().expect("lms kernel assembles"), mem)
}

/// (updated weights, y, e) read back from memory.
pub fn extract(mem: &mut FlatMem) -> (Vec<f32>, f32, f32) {
    let w = crate::harness::get_f32s(mem, layout::OUTPUT, ORDER);
    let y = mem.read_f32(layout::OUTPUT + 64);
    let e = mem.read_f32(layout::OUTPUT + 68);
    (w, y, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{measure, run_func};
    use majc_isa::XorShift64;

    fn workload() -> (Vec<f32>, Vec<f32>, f32, f32) {
        let mut rng = XorShift64::new(21);
        let w: Vec<f32> = (0..ORDER).map(|_| rng.next_f32() * 0.5).collect();
        let x: Vec<f32> = (0..ORDER).map(|_| rng.next_f32()).collect();
        (w, x, rng.next_f32(), 0.05)
    }

    #[test]
    fn matches_reference_bit_exactly() {
        let (w, x, d, mu) = workload();
        let (prog, mem) = build(&w, &x, d, mu);
        let mut out = run_func(&prog, mem);
        let (gw, gy, ge) = extract(&mut out);
        let (rw, ry, re) = reference(&w, &x, d, mu);
        assert_eq!(gy, ry);
        assert_eq!(ge, re);
        assert_eq!(gw, rw);
    }

    #[test]
    fn cycles_near_paper_64() {
        let (w, x, d, mu) = workload();
        let (prog, mem) = build(&w, &x, d, mu);
        let cycles = measure(&prog, mem);
        assert!((35..=130).contains(&cycles), "LMS took {cycles} cycles (paper: 64)");
    }
}
