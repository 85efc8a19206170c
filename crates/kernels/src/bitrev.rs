//! 1024-point bit reversal (Table 2; paper: 2484 cycles).
//!
//! "Bit reversal for FFT is however required to be performed using table
//! look-up since no bit-reversed addressing is available" (paper §5). The
//! table holds one 8-byte entry per *swap pair* `(i_off, j_off)` — byte
//! offsets precomputed so the kernel does no shifting — and each swap is
//! five `L`-width memory operations: one table load, two element loads,
//! two element stores. 1024 points have 496 swap pairs, so the kernel is
//! FU0-bound at ≈ 5 × 496 ≈ 2.5k cycles, exactly the paper's regime.

use majc_asm::Asm;
use majc_isa::{AluOp, CachePolicy, Cond, Instr, MemWidth, Off, Program, Reg, Src};
use majc_mem::FlatMem;

use crate::harness::layout;

pub const N: usize = 1024;
const BITS: u32 = 10;

/// Bit-reverse a 10-bit index.
pub fn rev(i: usize) -> usize {
    (i as u32).reverse_bits() as usize >> (32 - BITS)
}

/// The swap-pair table: `(i, rev(i))` for all `i < rev(i)`.
pub fn swap_pairs() -> Vec<(u32, u32)> {
    (0..N)
        .filter_map(|i| {
            let j = rev(i);
            (i < j).then_some((i as u32, j as u32))
        })
        .collect()
}

/// Reference: permute a complex array in place.
pub fn reference(x: &mut [(f32, f32)]) {
    assert_eq!(x.len(), N);
    for (i, j) in swap_pairs() {
        x.swap(i as usize, j as usize);
    }
}

const XB: Reg = Reg::g(0);
const TP: Reg = Reg::g(1);
const COUNT: Reg = Reg::g(2);

/// Table-entry double buffers (pairs): (i_off, j_off).
fn tbuf(k: usize) -> Reg {
    Reg::g(16 + 2 * (k % 4) as u8)
}
/// Element buffers for the unrolled pairs.
fn abuf(k: usize) -> Reg {
    Reg::g(24 + 4 * (k % 4) as u8)
}
fn bbuf(k: usize) -> Reg {
    Reg::g(26 + 4 * (k % 4) as u8)
}

/// Build the kernel plus memory: data (interleaved complex) at INPUT,
/// swap table at TABLE. `data` must hold `N` complex values.
pub fn build(data: &[(f32, f32)]) -> (Program, FlatMem) {
    assert_eq!(data.len(), N);
    let mut mem = FlatMem::new();
    for (i, &(re, im)) in data.iter().enumerate() {
        mem.write_f32(layout::INPUT + 8 * i as u32, re);
        mem.write_f32(layout::INPUT + 8 * i as u32 + 4, im);
    }
    let mut pairs = swap_pairs();
    // Pad to a multiple of 4 with self-swaps (no-ops).
    while !pairs.len().is_multiple_of(4) {
        pairs.push((0, 0));
    }
    for (k, &(i, j)) in pairs.iter().enumerate() {
        mem.write_u32(layout::TABLE + 8 * k as u32, 8 * i);
        mem.write_u32(layout::TABLE + 8 * k as u32 + 4, 8 * j);
    }

    let mut a = Asm::new(0);
    a.set32(XB, layout::INPUT);
    a.set32(TP, layout::TABLE);
    a.set32(COUNT, (pairs.len() / 4) as u32);
    let ldl = |rd: Reg, base: Reg, off: Off| Instr::Ld {
        w: MemWidth::L,
        pol: CachePolicy::Cached,
        rd,
        base,
        off,
    };
    let stl = |rs: Reg, base: Reg, off: Off| Instr::St {
        w: MemWidth::L,
        pol: CachePolicy::Cached,
        rs,
        base,
        off,
    };
    // Prime two table entries.
    a.op(ldl(tbuf(0), TP, Off::Imm(0)));
    a.op(ldl(tbuf(1), TP, Off::Imm(8)));

    a.label("quad");
    for k in 0..4usize {
        let t = tbuf(k);
        let ioff = t;
        let joff = Reg::from_index(t.index() as u8 + 1).unwrap();
        // Table prefetch two entries ahead (entries k+2 within this quad
        // land at offsets 16,24; k+2 >= 4 belongs to the next quad via the
        // advanced pointer, still expressible as an immediate).
        a.op(ldl(abuf(k), XB, Off::Reg(ioff)));
        a.op(ldl(bbuf(k), XB, Off::Reg(joff)));
        a.op(ldl(tbuf(k + 2), TP, Off::Imm(8 * (k as i16 + 2))));
        a.op(stl(abuf(k), XB, Off::Reg(joff)));
        a.op(stl(bbuf(k), XB, Off::Reg(ioff)));
    }
    a.op(Instr::Alu { op: AluOp::Add, rd: TP, rs1: TP, src2: Src::Imm(32) });
    a.op(Instr::Alu { op: AluOp::Sub, rd: COUNT, rs1: COUNT, src2: Src::Imm(1) });
    a.br(Cond::Gt, COUNT, "quad", true);
    a.op(Instr::Halt);
    (a.finish().expect("bitrev kernel assembles"), mem)
}

pub fn extract(mem: &mut FlatMem) -> Vec<(f32, f32)> {
    (0..N)
        .map(|i| {
            (
                mem.read_f32(layout::INPUT + 8 * i as u32),
                mem.read_f32(layout::INPUT + 8 * i as u32 + 4),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{measure, run_func};
    use majc_isa::XorShift64;

    fn workload() -> Vec<(f32, f32)> {
        let mut rng = XorShift64::new(77);
        (0..N).map(|_| (rng.next_f32(), rng.next_f32())).collect()
    }

    #[test]
    fn permutation_matches_reference() {
        let data = workload();
        let (prog, mem) = build(&data);
        let mut out = run_func(&prog, mem);
        let got = extract(&mut out);
        let mut want = data.clone();
        reference(&mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn rev_is_involution() {
        for i in 0..N {
            assert_eq!(rev(rev(i)), i);
        }
        assert_eq!(rev(1), 512);
        assert_eq!(rev(3), 768);
    }

    #[test]
    fn cycles_near_paper_2484() {
        let data = workload();
        let (prog, mem) = build(&data);
        let cycles = measure(&prog, mem);
        assert!((1500..=5500).contains(&cycles), "bit reversal took {cycles} cycles (paper: 2484)");
    }
}
