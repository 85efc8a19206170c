//! Max search: maximum value in an array of 40 floats (Table 2; paper:
//! 126 cycles).
//!
//! Four partial maxima, each fed every fourth element so `fmax` issues to
//! one register exactly at the 4-cycle FP interval; FU0 streams one load
//! per cycle; a short tree reduces the partials at the end.

use majc_asm::Asm;
use majc_isa::{CachePolicy, Instr, MemWidth, Off, Program, Reg};
use majc_mem::FlatMem;

use crate::harness::{layout, put_f32s};

pub const N: usize = 40;

/// Reference with the kernel's exact comparison order.
pub fn reference(xs: &[f32]) -> f32 {
    assert_eq!(xs.len(), N);
    let mut m = [xs[0], xs[1], xs[2], xs[3]];
    for (k, &x) in xs.iter().enumerate().skip(4) {
        let i = k % 4;
        m[i] = m[i].max(x);
    }
    (m[0].max(m[1])).max(m[2].max(m[3]))
}

const PTR: Reg = Reg::g(0);
const OPTR: Reg = Reg::g(1);

fn xw(i: usize) -> Reg {
    Reg::g(16 + (i % 8) as u8)
}
fn m(i: usize) -> Reg {
    Reg::g(24 + i as u8)
}

pub fn build(xs: &[f32]) -> (Program, FlatMem) {
    assert_eq!(xs.len(), N);
    let mut mem = FlatMem::new();
    put_f32s(&mut mem, layout::INPUT, xs);

    let ld = |rd: Reg, off: i16| Instr::Ld {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rd,
        base: PTR,
        off: Off::Imm(off),
    };
    let mut a = Asm::new(0);
    a.set32(PTR, layout::INPUT);
    a.set32(OPTR, layout::OUTPUT);
    // Prime: first four elements become the initial partial maxima.
    for i in 0..4 {
        a.op(ld(m(i), 4 * i as i16));
    }
    // Fill a short window ahead of the fmax stream.
    a.op(ld(xw(4), 16));
    a.op(ld(xw(5), 20));
    // Stream: one load + one fmax per packet. Element offsets stay within
    // the 7-bit scaled immediate (k <= 39 words).
    for k in 4..N {
        let mut slots = vec![Instr::Nop; 2];
        if k + 2 < N {
            slots[0] = ld(xw(k + 2), (4 * (k + 2)) as i16);
        }
        slots[1] = Instr::FMax { rd: m(k % 4), rs1: m(k % 4), rs2: xw(k) };
        a.pack(&slots);
    }
    // Reduce the four partials.
    a.pack(&[
        Instr::Nop,
        Instr::FMax { rd: m(0), rs1: m(0), rs2: m(1) },
        Instr::FMax { rd: m(2), rs1: m(2), rs2: m(3) },
    ]);
    // m(2) is a global written by FU2; readable by FU1 directly.
    a.pack(&[Instr::Nop, Instr::FMax { rd: m(0), rs1: m(0), rs2: m(2) }]);
    a.op(Instr::St {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rs: m(0),
        base: OPTR,
        off: Off::Imm(0),
    });
    a.op(Instr::Halt);
    (a.finish().expect("maxsearch kernel assembles"), mem)
}

pub fn extract(mem: &mut FlatMem) -> f32 {
    mem.read_f32(layout::OUTPUT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{measure, run_func};
    use majc_isa::XorShift64;

    fn workload(seed: u64) -> Vec<f32> {
        let mut rng = XorShift64::new(seed);
        (0..N).map(|_| rng.next_f32() * 100.0).collect()
    }

    #[test]
    fn matches_reference() {
        for seed in 1..6 {
            let xs = workload(seed);
            let (prog, mem) = build(&xs);
            let mut out = run_func(&prog, mem);
            assert_eq!(extract(&mut out), reference(&xs));
            // And the reference agrees with the naive max.
            let naive = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(reference(&xs), naive);
        }
    }

    #[test]
    fn cycles_near_paper_126() {
        let xs = workload(42);
        let (prog, mem) = build(&xs);
        let cycles = measure(&prog, mem);
        assert!((40..=180).contains(&cycles), "max search took {cycles} cycles (paper: 126)");
    }
}
