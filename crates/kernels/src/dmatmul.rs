//! 8×8 double-precision matrix multiply.
//!
//! Not a paper table row, but the paper's §4 makes a specific
//! microarchitectural claim about double precision: "Functional units
//! FU1-3 provide double precision floating point addition, subtraction,
//! and multiply operations. These instructions are partially pipelined for
//! optimal performance and simpler scheduling by the compiler." This
//! kernel exercises exactly that path — register-pair operands, no double
//! FMA (multiply and add are separate, as the paper lists), throughput
//! limited by the initiation interval — and feeds the `dbl_ii` ablation.

use majc_asm::Asm;
use majc_isa::{AluOp, CachePolicy, Instr, MemWidth, Off, Program, Reg, Src};
use majc_mem::FlatMem;

use crate::harness::layout;
use crate::idct::Weaver;

pub const N: usize = 8;

/// Reference mirroring the kernel op-for-op: `t = a*b` rounded, then
/// `c += t` — double ops are *not* fused on MAJC-5200.
pub fn reference(a: &[f64; 64], b: &[f64; 64]) -> [f64; 64] {
    let mut c = [0.0f64; 64];
    for i in 0..N {
        for k in 0..N {
            for j in 0..N {
                let t = a[i * N + k] * b[k * N + j];
                c[i * N + j] += t;
            }
        }
    }
    c
}

const AP: Reg = Reg::g(0);
const BP: Reg = Reg::g(1);
const CP: Reg = Reg::g(2);
/// A-row element k as a register pair (g16..g31).
fn arow(k: usize) -> Reg {
    Reg::g(16 + 2 * k as u8)
}
/// C-row accumulator j (g32..g47).
fn crow(j: usize) -> Reg {
    Reg::g(32 + 2 * j as u8)
}
/// B-row element j (g48..g63).
fn brow(j: usize) -> Reg {
    Reg::g(48 + 2 * j as u8)
}
/// Product temporaries (g64..g75, six pairs rotating).
fn tmp(i: usize) -> Reg {
    Reg::g(64 + 2 * (i % 6) as u8)
}

fn put_doubles(mem: &mut FlatMem, addr: u32, xs: &[f64]) {
    for (i, &x) in xs.iter().enumerate() {
        mem.write_f64(addr + 8 * i as u32, x);
    }
}

pub fn build(a: &[f64; 64], b: &[f64; 64]) -> (Program, FlatMem) {
    let mut mem = FlatMem::new();
    put_doubles(&mut mem, layout::INPUT, a);
    put_doubles(&mut mem, layout::COEFF, b);

    let mut asm = Asm::new(0);
    asm.set32(AP, layout::INPUT);
    asm.set32(BP, layout::COEFF);
    asm.set32(CP, layout::OUTPUT);
    let ldd = |rd: Reg, base: Reg, elem: usize| Instr::Ld {
        w: MemWidth::L,
        pol: CachePolicy::Cached,
        rd,
        base,
        off: Off::Imm((8 * elem) as i16),
    };
    let std_ = |rs: Reg, base: Reg, elem: usize| Instr::St {
        w: MemWidth::L,
        pol: CachePolicy::Cached,
        rs,
        base,
        off: Off::Imm((8 * elem) as i16),
    };

    // Row loop, fully unrolled (8 rows): each row streams all of B.
    for i in 0..N {
        let mut w = Weaver::with_window(24);
        // Load this row of A and zero the C accumulators.
        for k in 0..N {
            w.push_fu0(ldd(arow(k), AP, k));
        }
        for j in 0..N {
            w.op(&mut asm, Instr::SetLo { rd: crow(j), imm: 0 });
            w.op(
                &mut asm,
                Instr::SetLo { rd: Reg::from_index(crow(j).index() as u8 + 1).unwrap(), imm: 0 },
            );
        }
        // k loop: load B row k, then 8 multiply/add pairs.
        for k in 0..N {
            for j in 0..N {
                w.push_fu0(ldd(brow(j), BP, k * N + j));
            }
            for j in 0..N {
                let t = tmp(j);
                w.op(&mut asm, Instr::DMul { rd: t, rs1: arow(k), rs2: brow(j) });
                w.op(&mut asm, Instr::DAdd { rd: crow(j), rs1: crow(j), rs2: t });
            }
        }
        for j in 0..N {
            w.push_fu0(std_(crow(j), CP, j));
        }
        w.drain_fu0(&mut asm);
        // Advance row pointers (64 bytes per row).
        asm.op(Instr::Alu { op: AluOp::Add, rd: AP, rs1: AP, src2: Src::Imm(64) });
        asm.op(Instr::Alu { op: AluOp::Add, rd: CP, rs1: CP, src2: Src::Imm(64) });
        let _ = i;
    }
    asm.op(Instr::Halt);
    (asm.finish().expect("dmatmul kernel assembles"), mem)
}

pub fn extract(mem: &mut FlatMem) -> [f64; 64] {
    std::array::from_fn(|i| mem.read_f64(layout::OUTPUT + 8 * i as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{measure, run_func, run_warm, MemModel};
    use majc_core::TimingConfig;
    use majc_isa::XorShift64;

    fn workload() -> ([f64; 64], [f64; 64]) {
        let mut rng = XorShift64::new(13);
        (
            std::array::from_fn(|_| rng.next_f32() as f64),
            std::array::from_fn(|_| rng.next_f32() as f64),
        )
    }

    #[test]
    fn matches_reference_bit_exactly() {
        let (a, b) = workload();
        let (prog, mem) = build(&a, &b);
        let mut out = run_func(&prog, mem);
        assert_eq!(extract(&mut out), reference(&a, &b));
    }

    #[test]
    fn identity_is_identity() {
        let (a, _) = workload();
        let mut eye = [0.0f64; 64];
        for i in 0..N {
            eye[i * N + i] = 1.0;
        }
        let (prog, mem) = build(&a, &eye);
        let mut out = run_func(&prog, mem);
        assert_eq!(extract(&mut out), a);
    }

    #[test]
    fn initiation_interval_governs_throughput() {
        let (a, b) = workload();
        let base = {
            let (p, m) = build(&a, &b);
            measure(&p, m)
        };
        // Fully pipelined doubles (ii = 1) must be faster; unpipelined
        // (ii = 4) must be slower.
        let run_ii = |ii: u64| {
            let (p, m) = build(&a, &b);
            let cfg = TimingConfig { dbl_ii: ii, ..Default::default() };
            run_warm(&p, m, MemModel::Dram, cfg).stats.cycles
        };
        let fast = run_ii(1);
        let slow = run_ii(4);
        assert!(fast < base, "ii=1 {fast} vs ii=2 {base}");
        assert!(slow > base, "ii=4 {slow} vs ii=2 {base}");
    }

    #[test]
    fn cycles_are_plausible() {
        // 1024 double ops over 3 partially-pipelined units (ii=2) bounds
        // the kernel below at ~683 cycles; loads add more.
        let (a, b) = workload();
        let (prog, mem) = build(&a, &b);
        let cycles = measure(&prog, mem);
        assert!((650..4000).contains(&cycles), "8x8 double matmul took {cycles}");
    }
}
