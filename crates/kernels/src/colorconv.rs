//! 512×512 RGB → YCbCr color conversion (Table 1; paper: 0.9 Mcycles,
//! ≈ 3.4 cycles/pixel).
//!
//! Planar 16-bit input (R, G, B arrays, two pixels per 32-bit word) and
//! planar 16-bit output. Each component is three packed S.15
//! multiply-accumulates (`pmuladd.s15`) over pixel pairs, so one loop
//! iteration converts eight pixels with 12 loads, 12 stores and 36 SIMD
//! MACs — FU0-bound at ≈ 3.3 cycles/pixel, the paper's regime.

use majc_asm::Asm;
use majc_isa::{AluOp, CachePolicy, Cond, FixFmt, Instr, MemWidth, Off, Program, Reg, Src};
use majc_mem::FlatMem;

use crate::harness::put_i16s;

pub const WIDTH: usize = 512;
pub const HEIGHT: usize = 512;
const PIXELS: usize = WIDTH * HEIGHT;
/// Pixel pairs converted per loop iteration.
const UNROLL: usize = 4;

/// BT.601-style coefficients in S.15 (video range, 8-bit samples).
pub const CY: (i16, i16, i16, i16) = (8414, 16519, 3208, 16); // R,G,B, offset
pub const CCB: (i16, i16, i16, i16) = (-4856, -9535, 14392, 128);
pub const CCR: (i16, i16, i16, i16) = (14392, -12051, -2340, 128);

#[inline]
fn s15_mac(acc: i16, c: i16, x: i16) -> i16 {
    // Mirrors PMulAdd { fmt: S15 }: product >> 15, accumulate, saturate.
    let p = ((c as i32 * x as i32) >> 15) + acc as i32;
    p.clamp(i16::MIN as i32, i16::MAX as i32) as i16
}

/// Reference conversion with the kernel's exact fixed-point semantics.
/// Outputs are 8-bit planes (the kernel packs four pixels per word with a
/// byte shuffle; video-range coefficients guarantee results in 0..=255
/// for 8-bit inputs).
pub fn reference(r: &[i16], g: &[i16], b: &[i16]) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let conv = |(cr, cg, cb, off): (i16, i16, i16, i16)| -> Vec<u8> {
        r.iter()
            .zip(g)
            .zip(b)
            .map(|((&rv, &gv), &bv)| {
                let mut acc = off;
                acc = s15_mac(acc, cr, rv);
                acc = s15_mac(acc, cg, gv);
                acc = s15_mac(acc, cb, bv);
                acc as u8
            })
            .collect()
    };
    (conv(CY), conv(CCB), conv(CCR))
}

const RP: Reg = Reg::g(0);
const GP: Reg = Reg::g(1);
const BP: Reg = Reg::g(2);
const YP: Reg = Reg::g(3);
const CBP: Reg = Reg::g(4);
const CRP: Reg = Reg::g(5);
const COUNT: Reg = Reg::g(6);

fn rdat(k: usize) -> Reg {
    Reg::g(16 + k as u8)
}
fn gdat(k: usize) -> Reg {
    Reg::g(20 + k as u8)
}
fn bdat(k: usize) -> Reg {
    Reg::g(24 + k as u8)
}
fn yacc(k: usize) -> Reg {
    Reg::g(28 + k as u8)
}
fn cbacc(k: usize) -> Reg {
    Reg::g(32 + k as u8)
}
fn cracc(k: usize) -> Reg {
    Reg::g(36 + k as u8)
}
/// Coefficient pairs (both lanes equal) and offset pairs.
const CYR: Reg = Reg::g(40);
const CYG: Reg = Reg::g(41);
const CYB: Reg = Reg::g(42);
const CBR: Reg = Reg::g(43);
const CBG: Reg = Reg::g(44);
const CBB: Reg = Reg::g(45);
const CRR: Reg = Reg::g(46);
const CRG: Reg = Reg::g(47);
const CRB: Reg = Reg::g(48);
const OFFY: Reg = Reg::g(49);
const OFFC: Reg = Reg::g(50);
/// Byte-shuffle selector packing the low bytes of four 16-bit lanes.
const CTL: Reg = Reg::g(51);
/// Packed output words ready for FU0 stores.
fn packed(i: usize) -> Reg {
    Reg::g(52 + i as u8)
}

/// Memory layout: 512 KB input planes and 256 KB output planes, placed
/// far from the shared `layout` region so nothing overlaps.
const R_PLANE: u32 = 0x0100_0000;
const G_PLANE: u32 = 0x0110_0000;
const B_PLANE: u32 = 0x0120_0000;
pub const Y_PLANE: u32 = 0x0200_0000;
pub const CB_PLANE: u32 = 0x0210_0000;
pub const CR_PLANE: u32 = 0x0220_0000;

fn lanes(v: i16) -> u32 {
    ((v as u16 as u32) << 16) | v as u16 as u32
}

pub fn build(r: &[i16], g: &[i16], b: &[i16]) -> (Program, FlatMem) {
    assert_eq!(r.len(), PIXELS);
    assert_eq!(g.len(), PIXELS);
    assert_eq!(b.len(), PIXELS);
    let mut mem = FlatMem::new();
    put_i16s(&mut mem, R_PLANE, r);
    put_i16s(&mut mem, G_PLANE, g);
    put_i16s(&mut mem, B_PLANE, b);

    let mut a = Asm::new(0);
    a.set32(RP, R_PLANE);
    a.set32(GP, G_PLANE);
    a.set32(BP, B_PLANE);
    a.set32(YP, Y_PLANE);
    a.set32(CBP, CB_PLANE);
    a.set32(CRP, CR_PLANE);
    a.set32(COUNT, (PIXELS / 2 / UNROLL) as u32);
    for (reg, v) in [
        (CYR, CY.0),
        (CYG, CY.1),
        (CYB, CY.2),
        (CBR, CCB.0),
        (CBG, CCB.1),
        (CBB, CCB.2),
        (CRR, CCR.0),
        (CRG, CCR.1),
        (CRB, CCR.2),
        (OFFY, CY.3),
        (OFFC, CCB.3),
    ] {
        a.set32(reg, lanes(v));
    }
    a.set32(CTL, 0x5713); // dest bytes: px3, px2, px1, px0 (LE memory order)
    let ldw = |rd: Reg, base: Reg, k: usize| Instr::Ld {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rd,
        base,
        off: Off::Imm(4 * k as i16),
    };
    let stw = |rs: Reg, base: Reg, k: usize| Instr::St {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rs,
        base,
        off: Off::Imm(4 * k as i16),
    };
    let mac = |rd: Reg, c: Reg, x: Reg| Instr::PMulAdd { fmt: FixFmt::S15, rd, rs1: c, rs2: x };
    let mov = |rd: Reg, rs: Reg| Instr::Alu { op: AluOp::Or, rd, rs1: rs, src2: Src::Imm(0) };

    a.label("loop");
    // Phase 1: loads + accumulator initialisation.
    for k in 0..UNROLL {
        a.pack(&[
            ldw(rdat(k), RP, k),
            mov(yacc(k), OFFY),
            mov(cbacc(k), OFFC),
            mov(cracc(k), OFFC),
        ]);
    }
    for k in 0..UNROLL {
        a.pack(&[ldw(gdat(k), GP, k)]);
        a.pack(&[ldw(bdat(k), BP, k)]);
    }
    // Phase 2: 9 packed MACs per pixel pair, three per packet.
    for k in 0..UNROLL {
        a.pack(&[
            Instr::Nop,
            mac(yacc(k), CYR, rdat(k)),
            mac(cbacc(k), CBR, rdat(k)),
            mac(cracc(k), CRR, rdat(k)),
        ]);
        a.pack(&[
            Instr::Nop,
            mac(yacc(k), CYG, gdat(k)),
            mac(cbacc(k), CBG, gdat(k)),
            mac(cracc(k), CRG, gdat(k)),
        ]);
        a.pack(&[
            Instr::Nop,
            mac(yacc(k), CYB, bdat(k)),
            mac(cbacc(k), CBB, bdat(k)),
            mac(cracc(k), CRB, bdat(k)),
        ]);
    }
    // Phase 3: pack four pixels per word with byte shuffles, prefetch the
    // streams ahead (paper SS4: "The prefetch instruction is useful in
    // programs with predictable data access patterns common in multimedia
    // and image processing"), store, and maintain pointers.
    let shuf = |rd: Reg, rs: Reg| Instr::ByteShuf { rd, rs, ctl: CTL };
    a.pack(&[
        Instr::Prefetch { base: RP, off: 64 },
        shuf(packed(0), yacc(0)),
        shuf(packed(1), yacc(2)),
        shuf(packed(2), cbacc(0)),
    ]);
    a.pack(&[
        Instr::Prefetch { base: GP, off: 64 },
        shuf(packed(3), cbacc(2)),
        shuf(packed(4), cracc(0)),
        shuf(packed(5), cracc(2)),
    ]);
    a.op(Instr::Prefetch { base: BP, off: 64 });
    a.pack(&[stw(packed(0), YP, 0)]);
    a.pack(&[stw(packed(1), YP, 1)]);
    a.pack(&[
        stw(packed(2), CBP, 0),
        Instr::Alu { op: AluOp::Add, rd: RP, rs1: RP, src2: Src::Imm(16) },
    ]);
    a.pack(&[
        stw(packed(3), CBP, 1),
        Instr::Alu { op: AluOp::Add, rd: GP, rs1: GP, src2: Src::Imm(16) },
    ]);
    a.pack(&[
        stw(packed(4), CRP, 0),
        Instr::Alu { op: AluOp::Add, rd: BP, rs1: BP, src2: Src::Imm(16) },
    ]);
    a.pack(&[
        stw(packed(5), CRP, 1),
        Instr::Alu { op: AluOp::Add, rd: YP, rs1: YP, src2: Src::Imm(8) },
    ]);
    a.op(Instr::Prefetch { base: YP, off: 32 });
    a.pack(&[
        Instr::Prefetch { base: CBP, off: 32 },
        Instr::Alu { op: AluOp::Add, rd: CBP, rs1: CBP, src2: Src::Imm(8) },
        Instr::Alu { op: AluOp::Add, rd: CRP, rs1: CRP, src2: Src::Imm(8) },
        Instr::Alu { op: AluOp::Sub, rd: COUNT, rs1: COUNT, src2: Src::Imm(1) },
    ]);
    a.br(Cond::Gt, COUNT, "loop", true);
    a.op(Instr::Halt);
    (a.finish().expect("colorconv kernel assembles"), mem)
}

pub fn extract(mem: &mut FlatMem) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    (
        crate::harness::get_u8s(mem, Y_PLANE, PIXELS),
        crate::harness::get_u8s(mem, CB_PLANE, PIXELS),
        crate::harness::get_u8s(mem, CR_PLANE, PIXELS),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_func, run_warm, MemModel};
    use majc_isa::XorShift64;

    #[test]
    fn matches_reference() {
        let mut rng = XorShift64::new(5);
        let r: Vec<i16> = (0..PIXELS).map(|_| rng.next_i16(255).abs()).collect();
        let g: Vec<i16> = (0..PIXELS).map(|_| rng.next_i16(255).abs()).collect();
        let b: Vec<i16> = (0..PIXELS).map(|_| rng.next_i16(255).abs()).collect();
        let (prog, mem) = build(&r, &g, &b);
        let mut out = run_func(&prog, mem);
        let (gy, gcb, gcr) = extract(&mut out);
        let (ry, rcb, rcr) = reference(&r, &g, &b);
        assert_eq!(gy, ry);
        assert_eq!(gcb, rcb);
        assert_eq!(gcr, rcr);
    }

    #[test]
    fn y_values_are_plausible_video_range() {
        // White-ish pixel should give Y near 235, black near 16.
        let (y, _, _) = reference(&[255, 0], &[255, 0], &[255, 0]);
        assert!((230..=240).contains(&y[0]), "white Y = {}", y[0]);
        assert!((14..=18).contains(&y[1]), "black Y = {}", y[1]);
    }

    #[test]
    fn cycles_near_paper_900k() {
        let mut rng = XorShift64::new(6);
        let r: Vec<i16> = (0..PIXELS).map(|_| rng.next_i16(255).abs()).collect();
        let g: Vec<i16> = (0..PIXELS).map(|_| rng.next_i16(255).abs()).collect();
        let b: Vec<i16> = (0..PIXELS).map(|_| rng.next_i16(255).abs()).collect();
        let (prog, mem) = build(&r, &g, &b);
        let cycles =
            run_warm(&prog, mem, MemModel::Dram, majc_core::TimingConfig::default()).stats.cycles;
        // Paper: 0.9 Mcycles for 512x512.
        assert!(
            (500_000..=2_000_000).contains(&cycles),
            "color conversion took {cycles} cycles (paper: 900k)"
        );
    }
}
