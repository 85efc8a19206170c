//! Cascade of eight 2nd-order biquad sections (Table 2, rows 1 and 3).
//!
//! The paper reports 63 cycles for a single sample through the cascade and
//! 2021 cycles for a 64-sample, 16th-order IIR — the same filter, so both
//! benchmarks share this builder (the 16th-order IIR *is* eight cascaded
//! biquads).
//!
//! Schedule: transposed direct-form II with in-place accumulation. The
//! critical path is one fused multiply-add per stage (`y_k = s1_k + b0_k ·
//! y_{k-1}` computed *into* the s1 register), 4 cycles each on FU1, giving
//! 8 × 4 = 32 cycles of recurrence per sample; the four state-update FMAs
//! per stage run in the shadow on FU2/FU3. State registers rotate roles
//! each sample, so the sample loop is fully unrolled.

use majc_asm::Asm;
use majc_isa::{Instr, MemWidth, Off, Program, Reg, XorShift64};
use majc_mem::FlatMem;

use crate::harness::{layout, put_f32s};

pub const STAGES: usize = 8;

/// Filter coefficients and initial state.
#[derive(Clone, Debug)]
pub struct Cascade {
    /// Per stage: (b0, b1, b2, a1, a2); `y = b0 x + b1 x' + b2 x'' - a1 y'
    /// - a2 y''` in transposed form.
    pub coeffs: [(f32, f32, f32, f32, f32); STAGES],
    pub state: [(f32, f32); STAGES],
}

impl Cascade {
    /// A stable, deterministic cascade for benchmarking.
    pub fn demo(seed: u64) -> Cascade {
        let mut rng = XorShift64::new(seed);
        let mut coeffs = [(0.0f32, 0.0, 0.0, 0.0, 0.0); STAGES];
        for c in &mut coeffs {
            // Poles safely inside the unit circle (stability triangle).
            let a2 = rng.next_f32() * 0.6;
            let a1 = rng.next_f32() * (0.9 + a2).min(1.2);
            let g = 0.25 + 0.1 * rng.next_f32();
            *c = (g, g * rng.next_f32(), g * rng.next_f32(), a1, a2);
        }
        Cascade { coeffs, state: [(0.0, 0.0); STAGES] }
    }
}

/// Pure-Rust reference, bit-exact against the simulated kernel (same fused
/// operations in the same order).
pub fn reference(c: &Cascade, input: &[f32]) -> Vec<f32> {
    let mut s = c.state;
    input
        .iter()
        .map(|&x0| {
            let mut x = x0;
            for ((b0, b1, b2, a1, a2), st) in c.coeffs.iter().zip(s.iter_mut()) {
                let (s1, s2) = *st;
                let y = b0.mul_add(x, s1);
                let ns1 = (-a1).mul_add(y, b1.mul_add(x, s2));
                let ns2 = (-a2).mul_add(y, b2 * x);
                *st = (ns1, ns2);
                x = y;
            }
            x
        })
        .collect()
}

// Register map.
fn b0(k: usize) -> Reg {
    Reg::g(16 + 5 * k as u8)
}
fn b1(k: usize) -> Reg {
    Reg::g(17 + 5 * k as u8)
}
fn b2(k: usize) -> Reg {
    Reg::g(18 + 5 * k as u8)
}
fn a1(k: usize) -> Reg {
    Reg::g(19 + 5 * k as u8)
}
fn a2(k: usize) -> Reg {
    Reg::g(20 + 5 * k as u8)
}
/// Role banks: bank 0 = g56.., bank 1 = g64.., bank 2 = g72.. (8 each).
fn bank(b: usize, k: usize) -> Reg {
    Reg::g(56 + 8 * b as u8 + k as u8)
}
/// Rotating input-sample registers.
fn xreg(n: usize) -> Reg {
    Reg::g(80 + (n % 3) as u8)
}

const XPTR: Reg = Reg::g(0);
const YPTR: Reg = Reg::g(1);
const CPTR: Reg = Reg::g(2);
const SPTR: Reg = Reg::g(3);

/// Build the kernel processing `n` samples, plus its initialised memory.
/// Input at `layout::INPUT`, output at `layout::OUTPUT`.
pub fn build(c: &Cascade, input: &[f32]) -> (Program, FlatMem) {
    let n = input.len();
    assert!((1..=64).contains(&n), "offsets are immediate-encoded; keep n <= 64");
    let mut mem = FlatMem::new();
    put_f32s(&mut mem, layout::INPUT, input);
    let flat: Vec<f32> = c.coeffs.iter().flat_map(|&(p, q, r, s, t)| [p, q, r, s, t]).collect();
    put_f32s(&mut mem, layout::COEFF, &flat);
    let st: Vec<f32> = c.state.iter().map(|&(s1, _)| s1).collect();
    put_f32s(&mut mem, layout::SCRATCH, &st);
    let st2: Vec<f32> = c.state.iter().map(|&(_, s2)| s2).collect();
    put_f32s(&mut mem, layout::SCRATCH + 32, &st2);

    let mut a = Asm::new(0);
    a.set32(XPTR, layout::INPUT);
    a.set32(YPTR, layout::OUTPUT);
    a.set32(CPTR, layout::COEFF);
    a.set32(SPTR, layout::SCRATCH);
    // Coefficients: 40 floats = 5 group loads into g16..g55.
    for g in 0..5u8 {
        a.op(Instr::Ld {
            w: MemWidth::G,
            pol: majc_isa::CachePolicy::Cached,
            rd: Reg::g(16 + 8 * g),
            base: CPTR,
            off: Off::Imm(32 * g as i16),
        });
    }
    // States: s1 into bank 0 (g56..63), s2 into bank 1 (g64..71).
    a.op(Instr::Ld {
        w: MemWidth::G,
        pol: majc_isa::CachePolicy::Cached,
        rd: bank(0, 0),
        base: SPTR,
        off: Off::Imm(0),
    });
    a.op(Instr::Ld {
        w: MemWidth::G,
        pol: majc_isa::CachePolicy::Cached,
        rd: bank(1, 0),
        base: SPTR,
        off: Off::Imm(32),
    });

    // First sample's input must be loaded before the loop: inside the loop
    // it would land in the same packet as its consumer, whose slots read
    // pre-packet register state.
    a.op(Instr::Ld {
        w: MemWidth::W,
        pol: majc_isa::CachePolicy::Cached,
        rd: xreg(0),
        base: XPTR,
        off: Off::Imm(0),
    });
    // FU0 side-channel: loads/stores to slip into compute packets.
    let mut fu0: std::collections::VecDeque<Instr> = std::collections::VecDeque::new();

    // Fully unrolled sample loop with rotating role banks:
    // sample n: s1 lives in bank (n)%3, s2 in bank (n+1)%3, temps in (n+2)%3.
    for s in 0..n {
        let rs1 = |k: usize| bank(s % 3, k);
        let rs2 = |k: usize| bank((s + 1) % 3, k);
        let rt = |k: usize| bank((s + 2) % 3, k);
        // Queue next sample's load and this sample's store.
        if s + 1 < n {
            fu0.push_back(Instr::Ld {
                w: MemWidth::W,
                pol: majc_isa::CachePolicy::Cached,
                rd: xreg(s + 1),
                base: XPTR,
                off: Off::Imm(4 * (s as i16 + 1)),
            });
        }
        let mut pending_update: Option<(usize, Reg)> = None;
        for k in 0..STAGES {
            let x = if k == 0 { xreg(s) } else { rs1(k - 1) };
            // P1: y computed in place in the s1 register; partial updates.
            let f0 = fu0.pop_front().unwrap_or(Instr::Nop);
            a.pack(&[
                f0,
                Instr::FMAdd { rd: rs1(k), rs1: b0(k), rs2: x }, // y_k
                Instr::FMAdd { rd: rs2(k), rs1: b1(k), rs2: x }, // s2 + b1 x
                Instr::FMul { rd: rt(k), rs1: b2(k), rs2: x },   // b2 x
            ]);
            // P2 for the previous stage (delayed so it never blocks the
            // y-chain): new s1 -= a1*y ; new s2 -= a2*y.
            if let Some((pk, py)) = pending_update.take() {
                let f0 = fu0.pop_front().unwrap_or(Instr::Nop);
                a.pack(&[
                    f0,
                    Instr::Nop,
                    Instr::FMSub { rd: rs2(pk), rs1: a1(pk), rs2: py },
                    Instr::FMSub { rd: rt(pk), rs1: a2(pk), rs2: py },
                ]);
            }
            pending_update = Some((k, rs1(k)));
        }
        // Final stage's update packet.
        if let Some((pk, py)) = pending_update {
            let f0 = fu0.pop_front().unwrap_or(Instr::Nop);
            a.pack(&[
                f0,
                Instr::Nop,
                Instr::FMSub { rd: rs2(pk), rs1: a1(pk), rs2: py },
                Instr::FMSub { rd: rt(pk), rs1: a2(pk), rs2: py },
            ]);
        }
        // Store y (= stage-7 s1 register).
        fu0.push_back(Instr::St {
            w: MemWidth::W,
            pol: majc_isa::CachePolicy::Cached,
            rs: rs1(STAGES - 1),
            base: YPTR,
            off: Off::Imm(4 * s as i16),
        });
    }
    for ins in fu0 {
        a.op(ins);
    }
    a.op(Instr::Halt);
    (a.finish().expect("biquad kernel assembles"), mem)
}

/// Read the `n` outputs back.
pub fn extract(mem: &mut FlatMem, n: usize) -> Vec<f32> {
    crate::harness::get_f32s(mem, layout::OUTPUT, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{measure, run_func, MemModel};

    fn demo_input(n: usize) -> Vec<f32> {
        let mut rng = XorShift64::new(7);
        (0..n).map(|_| rng.next_f32()).collect()
    }

    #[test]
    fn matches_reference_bit_exactly() {
        let c = Cascade::demo(3);
        let input = demo_input(16);
        let (prog, mem) = build(&c, &input);
        let mut out_mem = run_func(&prog, mem);
        let got = extract(&mut out_mem, input.len());
        let want = reference(&c, &input);
        assert_eq!(got, want);
    }

    #[test]
    fn single_sample_near_paper_63_cycles() {
        let c = Cascade::demo(4);
        let input = demo_input(1);
        let (prog, mem) = build(&c, &input);
        let cycles = measure(&prog, mem);
        // Paper: 63 cycles. Accept the right ballpark.
        assert!(
            (35..=130).contains(&cycles),
            "single-sample cascade took {cycles} cycles (paper: 63)"
        );
    }

    #[test]
    fn iir_64_samples_near_paper_2021_cycles() {
        let c = Cascade::demo(5);
        let input = demo_input(64);
        let (prog, mem) = build(&c, &input);
        let cycles = measure(&prog, mem);
        // Paper: 2021 cycles for the 64-sample 16th-order IIR.
        assert!(
            (1200..=4000).contains(&cycles),
            "64-sample IIR took {cycles} cycles (paper: 2021)"
        );
    }

    #[test]
    fn recurrence_dominates_not_memory() {
        let c = Cascade::demo(6);
        let input = demo_input(64);
        let (prog, mem) = build(&c, &input);
        let dram = crate::harness::run_warm(
            &prog,
            mem.clone(),
            MemModel::Dram,
            majc_core::TimingConfig::default(),
        )
        .stats
        .cycles;
        let perfect = crate::harness::run_warm(
            &prog,
            mem,
            MemModel::Perfect,
            majc_core::TimingConfig::default(),
        )
        .stats
        .cycles;
        assert!(
            dram as f64 <= perfect as f64 * 1.25,
            "IIR is compute bound: dram {dram} vs perfect {perfect}"
        );
    }
}
