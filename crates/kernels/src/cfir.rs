//! 64-sample, 64-tap complex FIR (Table 2; paper: 8643 cycles).
//!
//! `y[n] = Σ_k c[k] · x[n+k]` over complex floats stored interleaved
//! (re, im), so one 8-byte `L` load moves a whole complex value into a
//! register pair. Two outputs are produced concurrently; each tap step
//! loads one new sample and the next coefficient and issues eight FMAs.
//! Every one of the four products (cr·xr, ci·xi, cr·xi, ci·xr) gets its
//! own accumulator, doubled by tap parity, so no accumulator is touched
//! more often than every 6 cycles.

use majc_asm::Asm;
use majc_isa::{AluOp, CachePolicy, Cond, Instr, MemWidth, Off, Program, Reg, Src};
use majc_mem::FlatMem;

use crate::harness::layout;

pub const TAPS: usize = 64;
pub const OUTPUTS: usize = 64;

/// Complex number as (re, im).
pub type C = (f32, f32);

/// Reference with the kernel's exact association order.
pub fn reference(coeffs: &[C], input: &[C]) -> Vec<C> {
    assert_eq!(coeffs.len(), TAPS);
    assert!(input.len() >= OUTPUTS + TAPS - 1);
    (0..OUTPUTS)
        .map(|n| {
            // Four product accumulators x two parities.
            let mut acc = [[0.0f32; 4]; 2];
            for k in 0..TAPS {
                let p = k % 2;
                let (cr, ci) = coeffs[k];
                let (xr, xi) = input[n + k];
                acc[p][0] = cr.mul_add(xr, acc[p][0]);
                acc[p][1] = ci.mul_add(xi, acc[p][1]);
                acc[p][2] = cr.mul_add(xi, acc[p][2]);
                acc[p][3] = ci.mul_add(xr, acc[p][3]);
            }
            let a = acc[0][0] + acc[1][0];
            let b = acc[0][1] + acc[1][1];
            let c = acc[0][2] + acc[1][2];
            let d = acc[0][3] + acc[1][3];
            (a - b, c + d)
        })
        .collect()
}

const XPTR: Reg = Reg::g(0);
const YPTR: Reg = Reg::g(1);
const COUNT: Reg = Reg::g(2);
const CPTR: Reg = Reg::g(3);
/// Pre-advanced bases keeping scaled immediates in range.
const XPTR2: Reg = Reg::g(4);
const CPTR1: Reg = Reg::g(5);

/// Complex window: 4 complex values in pairs g80..g87.
fn wr(i: usize) -> Reg {
    Reg::g(80 + 2 * (i % 4) as u8)
}
fn wi(i: usize) -> Reg {
    Reg::g(81 + 2 * (i % 4) as u8)
}
/// Coefficient double-buffer in pairs g88..g91.
fn cr(j: usize) -> Reg {
    Reg::g(88 + 2 * (j % 2) as u8)
}
fn ci(j: usize) -> Reg {
    Reg::g(89 + 2 * (j % 2) as u8)
}
/// Accumulator for output `o`, product `t` (0..4), parity `p`.
fn acc(o: usize, t: usize, p: usize) -> Reg {
    let idx = o * 4 + t; // 0..8
    Reg::l(1 + (idx % 3) as u8, (idx / 3) as u8 + 3 * p as u8)
}
fn fu_of(o: usize, t: usize) -> usize {
    1 + (o * 4 + t) % 3
}

fn write_complex(mem: &mut FlatMem, addr: u32, xs: &[C]) {
    for (i, &(re, im)) in xs.iter().enumerate() {
        mem.write_f32(addr + 8 * i as u32, re);
        mem.write_f32(addr + 8 * i as u32 + 4, im);
    }
}

pub fn read_complex(mem: &mut FlatMem, addr: u32, n: usize) -> Vec<C> {
    (0..n)
        .map(|i| (mem.read_f32(addr + 8 * i as u32), mem.read_f32(addr + 8 * i as u32 + 4)))
        .collect()
}

pub fn build(coeffs: &[C], input: &[C]) -> (Program, FlatMem) {
    assert_eq!(coeffs.len(), TAPS);
    assert!(input.len() >= OUTPUTS + TAPS - 1);
    let mut mem = FlatMem::new();
    write_complex(&mut mem, layout::INPUT, input);
    write_complex(&mut mem, layout::COEFF, coeffs);

    let ldl = |rd: Reg, base: Reg, elem: i16| Instr::Ld {
        w: MemWidth::L,
        pol: CachePolicy::Cached,
        rd,
        base,
        off: Off::Imm(8 * elem),
    };
    let mut a = Asm::new(0);
    a.set32(XPTR, layout::INPUT);
    a.set32(YPTR, layout::OUTPUT);
    a.set32(CPTR, layout::COEFF);
    a.set32(COUNT, (OUTPUTS / 2) as u32);
    a.op(Instr::Alu { op: AluOp::Add, rd: CPTR1, rs1: CPTR, src2: Src::Imm(8) });

    a.label("group");
    a.op(Instr::Alu { op: AluOp::Add, rd: XPTR2, rs1: XPTR, src2: Src::Imm(16) });
    // Prime: window x[n..n+1], coefficient c[0]; zero the 16 accumulators.
    a.op(ldl(wr(0), XPTR, 0));
    a.op(ldl(wr(1), XPTR, 1));
    a.op(ldl(cr(0), CPTR, 0));
    for p in 0..2 {
        for batch in 0..3 {
            let mut slots = vec![Instr::Nop; 4];
            let mut any = false;
            for lane in 0..3 {
                let idx = batch * 3 + lane;
                if idx < 8 {
                    let (o, t) = (idx / 4, idx % 4);
                    slots[fu_of(o, t)] = Instr::SetLo { rd: acc(o, t, p), imm: 0 };
                    any = true;
                }
            }
            if any {
                a.pack(&slots);
            }
        }
    }
    // Tap loop, fully unrolled: three packets per tap.
    for j in 0..TAPS {
        let p = j % 2;
        // Eight FMAs: outputs 0 and 1, four products each.
        let mut fmas = Vec::with_capacity(8);
        for o in 0..2 {
            let (xr, xi) = (wr(j + o), wi(j + o));
            fmas.push((fu_of(o, 0), Instr::FMAdd { rd: acc(o, 0, p), rs1: cr(j), rs2: xr }));
            fmas.push((fu_of(o, 1), Instr::FMAdd { rd: acc(o, 1, p), rs1: ci(j), rs2: xi }));
            fmas.push((fu_of(o, 2), Instr::FMAdd { rd: acc(o, 2, p), rs1: cr(j), rs2: xi }));
            fmas.push((fu_of(o, 3), Instr::FMAdd { rd: acc(o, 3, p), rs1: ci(j), rs2: xr }));
        }
        // Three packets; FU0 slots carry the window & coefficient loads.
        let mut fu0 = Vec::new();
        if j + 2 < TAPS + 1 {
            fu0.push(ldl(wr(j + 2), XPTR2, (j as i16 + 2) - 2));
        }
        if j + 1 < TAPS {
            fu0.push(ldl(cr(j + 1), CPTR1, j as i16));
        }
        for pk in 0..3 {
            let mut slots = vec![Instr::Nop; 4];
            if let Some(op) = fu0.get(pk) {
                slots[0] = *op;
            }
            // Round-robin: assign the pk-th FMA of each FU.
            for (fu, slot) in slots.iter_mut().enumerate().skip(1) {
                let of_fu: Vec<&Instr> =
                    fmas.iter().filter(|(f, _)| *f == fu).map(|(_, i)| i).collect();
                if let Some(ins) = of_fu.get(pk) {
                    *slot = **ins;
                }
            }
            a.pack(&slots);
        }
    }
    // Combine: A = A0+A1 per product, then yr = A - B, yi = C + D.
    // First move parity-1 accumulators across: they live on the same FU as
    // parity 0 (same idx), so the adds are local.
    for batch in 0..3 {
        let mut slots = vec![Instr::Nop; 4];
        let mut any = false;
        for lane in 0..3 {
            let idx = batch * 3 + lane;
            if idx < 8 {
                let (o, t) = (idx / 4, idx % 4);
                slots[fu_of(o, t)] =
                    Instr::FAdd { rd: acc(o, t, 0), rs1: acc(o, t, 0), rs2: acc(o, t, 1) };
                any = true;
            }
        }
        if any {
            a.pack(&slots);
        }
    }
    // Move the combined products to globals using each owner FU's ALU.
    for batch in 0..3 {
        let mut slots = vec![Instr::Nop; 4];
        let mut any = false;
        for lane in 0..3 {
            let idx = batch * 3 + lane;
            if idx < 8 {
                let (o, t) = (idx / 4, idx % 4);
                slots[fu_of(o, t)] = Instr::Alu {
                    op: AluOp::Or,
                    rd: Reg::g(64 + idx as u8),
                    rs1: acc(o, t, 0),
                    src2: Src::Imm(0),
                };
                any = true;
            }
        }
        if any {
            a.pack(&slots);
        }
    }
    // y0 = (g64 - g65, g66 + g67), y1 = (g68 - g69, g70 + g71).
    a.pack(&[
        Instr::Nop,
        Instr::FSub { rd: Reg::g(72), rs1: Reg::g(64), rs2: Reg::g(65) },
        Instr::FAdd { rd: Reg::g(73), rs1: Reg::g(66), rs2: Reg::g(67) },
        Instr::FSub { rd: Reg::g(74), rs1: Reg::g(68), rs2: Reg::g(69) },
    ]);
    a.pack(&[Instr::Nop, Instr::FAdd { rd: Reg::g(75), rs1: Reg::g(70), rs2: Reg::g(71) }]);
    for k in 0..2u8 {
        a.op(Instr::St {
            w: MemWidth::L,
            pol: CachePolicy::Cached,
            rs: Reg::g(72 + 2 * k),
            base: YPTR,
            off: Off::Imm(8 * k as i16),
        });
    }
    a.op(Instr::Alu { op: AluOp::Add, rd: XPTR, rs1: XPTR, src2: Src::Imm(16) });
    a.op(Instr::Alu { op: AluOp::Add, rd: YPTR, rs1: YPTR, src2: Src::Imm(16) });
    a.op(Instr::Alu { op: AluOp::Sub, rd: COUNT, rs1: COUNT, src2: Src::Imm(1) });
    a.br(Cond::Gt, COUNT, "group", true);
    a.op(Instr::Halt);
    (a.finish().expect("cfir kernel assembles"), mem)
}

pub fn extract(mem: &mut FlatMem, n: usize) -> Vec<C> {
    read_complex(mem, layout::OUTPUT, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{measure, run_func};
    use majc_isa::XorShift64;

    fn workload() -> (Vec<C>, Vec<C>) {
        let mut rng = XorShift64::new(31);
        let c: Vec<C> = (0..TAPS).map(|_| (rng.next_f32() * 0.2, rng.next_f32() * 0.2)).collect();
        let x: Vec<C> = (0..OUTPUTS + TAPS - 1).map(|_| (rng.next_f32(), rng.next_f32())).collect();
        (c, x)
    }

    #[test]
    fn matches_reference_bit_exactly() {
        let (c, x) = workload();
        let (prog, mem) = build(&c, &x);
        let mut out = run_func(&prog, mem);
        assert_eq!(extract(&mut out, OUTPUTS), reference(&c, &x));
    }

    #[test]
    fn cycles_near_paper_8643() {
        let (c, x) = workload();
        let (prog, mem) = build(&c, &x);
        let cycles = measure(&prog, mem);
        assert!((4000..=14000).contains(&cycles), "complex FIR took {cycles} cycles (paper: 8643)");
    }
}
