//! Architectural execution semantics for every MAJC instruction.
//!
//! Both simulators share this module: the functional (instruction-accurate)
//! simulator applies it directly, and the cycle-accurate pipeline applies
//! it at issue while modelling timing separately. Slots of one packet all
//! read pre-packet register state ([`WriteSet`] defers the writes), which
//! is the VLIW parallel-issue semantics.

use majc_isa::fixed::{self, FixFmt, SatMode};
use majc_isa::{CachePolicy, CvtKind, Instr, MemWidth, Off, Reg, Src};
use majc_mem::{DKind, DPolicy, FlatMem};

use crate::regfile::{RegFile, WriteSet};

/// Control-flow outcome of a packet slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// Fall through to the next packet.
    Next,
    /// Transfer to a packet byte address.
    Taken(u32),
    /// Return from trap: the simulator resolves the target from its trap
    /// registers (outside a handler this is itself a trap).
    Rte,
    /// Stop the machine.
    Halt,
}

/// Precise traps (paper §3.2: "MAJC-5200 provides precise exception
/// handling capabilities for most instructions").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trap {
    /// Access not aligned to its natural width.
    Misaligned { pc: u32, addr: u32 },
    /// Integer divide by zero.
    DivZero { pc: u32 },
    /// Control transfer to an address that is not a packet boundary.
    BadPc { pc: u32, target: u32 },
    /// A dirty cache line was lost to a parity error: the only copy of the
    /// data is gone, so the access cannot be completed transparently.
    DataError { pc: u32, addr: u32 },
    /// `rte` executed with no trap being serviced.
    BadRte { pc: u32 },
}

impl core::fmt::Display for Trap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Trap::Misaligned { pc, addr } => {
                write!(f, "misaligned access to {addr:#010x} at pc {pc:#010x}")
            }
            Trap::DivZero { pc } => write!(f, "integer divide by zero at pc {pc:#010x}"),
            Trap::BadPc { pc, target } => {
                write!(f, "jump to non-packet address {target:#010x} at pc {pc:#010x}")
            }
            Trap::DataError { pc, addr } => {
                write!(f, "unrecoverable data error at {addr:#010x} at pc {pc:#010x}")
            }
            Trap::BadRte { pc } => {
                write!(f, "rte outside a trap handler at pc {pc:#010x}")
            }
        }
    }
}

impl std::error::Error for Trap {}

/// The memory side effect of a slot, for the timing layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemEffect {
    pub addr: u32,
    pub bytes: u32,
    pub kind: DKind,
    pub pol: DPolicy,
}

/// What a slot did.
#[derive(Clone, Copy, Debug, Default)]
pub struct SlotOutcome {
    pub flow: Option<Flow>,
    pub mem: Option<MemEffect>,
}

#[inline]
fn pol_of(p: CachePolicy) -> DPolicy {
    match p {
        CachePolicy::Cached => DPolicy::Cached,
        CachePolicy::NonCached => DPolicy::NonCached,
        CachePolicy::NonAllocating => DPolicy::NonAllocating,
        // Non-faulting loads move data like ordinary cached loads; the
        // difference is fault semantics, handled in `exec_slot`.
        CachePolicy::NonFaulting => DPolicy::Cached,
    }
}

#[inline]
pub(crate) fn lane_op(mode: SatMode, a: i16, b: i16, sub: bool) -> u16 {
    let (x, y) = if mode == SatMode::Unsigned {
        (a as u16 as i32, b as u16 as i32)
    } else {
        (a as i32, b as i32)
    };
    mode.apply(if sub { x - y } else { x + y })
}

/// Per-lane multiply with format-dependent saturation: fixed-point formats
/// saturate signed; plain `Int16` wraps (two's-complement low half).
#[inline]
pub(crate) fn lane_mul(fmt: FixFmt, a: i16, b: i16) -> u16 {
    let p = fmt.mul(a, b);
    match fmt {
        FixFmt::Int16 => p as u16,
        _ => SatMode::Signed.apply(p),
    }
}

#[inline]
pub(crate) fn lane_mac(fmt: FixFmt, acc: i16, a: i16, b: i16) -> u16 {
    let p = fmt.mul(a, b) + acc as i32;
    match fmt {
        FixFmt::Int16 => p as u16,
        _ => SatMode::Signed.apply(p),
    }
}

/// Truncating float->int with IEEE-style clamping (NaN -> 0).
#[inline]
pub(crate) fn f2i(v: f32) -> i32 {
    if v.is_nan() {
        0
    } else {
        v.clamp(i32::MIN as f32, i32::MAX as f32) as i32
    }
}

/// Execute one slot. Reads architectural state from `regs` (pre-packet
/// values), buffers register writes into `ws`, and performs memory data
/// movement on `mem` immediately (only FU0 touches memory, so ordering
/// within a packet is trivial).
pub fn exec_slot(
    ins: &Instr,
    regs: &RegFile,
    ws: &mut WriteSet,
    mem: &mut FlatMem,
    pc: u32,
    pkt_bytes: u32,
) -> Result<SlotOutcome, Trap> {
    use Instr::*;
    let mut out = SlotOutcome::default();
    let g = |r: Reg| regs.get(r);
    let gi = |r: Reg| regs.get_i32(r);
    let gf = |r: Reg| regs.get_f32(r);
    let gd = |r: Reg| regs.get_f64(r);

    match *ins {
        Nop => {}
        Halt => out.flow = Some(Flow::Halt),
        Membar => {
            out.mem =
                Some(MemEffect { addr: 0, bytes: 0, kind: DKind::Store, pol: DPolicy::Cached })
        }

        Ld { w, pol, rd, base, off } => {
            let addr = addr_of(regs, base, off);
            if let Err(trap) = check_align(pc, addr, w) {
                if pol != CachePolicy::NonFaulting {
                    return Err(trap);
                }
                // Non-faulting (speculative) load: the faulting access
                // returns zero instead of trapping (paper §4), so the
                // compiler can hoist loads above their guarding branches.
                for k in 0..w.bytes().div_ceil(4).max(1) {
                    if let Some(r) = Reg::from_index(rd.index() as u8 + k as u8) {
                        ws.push(r, 0);
                    }
                }
                return Ok(out);
            }
            match w {
                MemWidth::B => ws.push(rd, mem.read_u8(addr) as i8 as i32 as u32),
                MemWidth::Bu => ws.push(rd, mem.read_u8(addr) as u32),
                MemWidth::H => ws.push(rd, mem.read_u16(addr) as i16 as i32 as u32),
                MemWidth::Hu => ws.push(rd, mem.read_u16(addr) as u32),
                MemWidth::W => ws.push(rd, mem.read_u32(addr)),
                MemWidth::L => ws.push_u64(rd, mem.read_u64(addr)),
                MemWidth::G => {
                    // A group running off the end of the register file
                    // drops the excess words rather than panicking.
                    for k in 0..8u32 {
                        if let Some(r) = Reg::from_index(rd.index() as u8 + k as u8) {
                            ws.push(r, mem.read_u32(addr + 4 * k));
                        }
                    }
                }
            }
            out.mem =
                Some(MemEffect { addr, bytes: w.bytes(), kind: DKind::Load, pol: pol_of(pol) });
        }
        St { w, pol, rs, base, off } => {
            let addr = addr_of(regs, base, off);
            check_align(pc, addr, w)?;
            match w {
                // Unsigned widths are load-only sign modes; a malformed
                // store behaves as its signed twin rather than panicking.
                MemWidth::B | MemWidth::Bu => mem.write_u8(addr, g(rs) as u8),
                MemWidth::H | MemWidth::Hu => mem.write_u16(addr, g(rs) as u16),
                MemWidth::W => mem.write_u32(addr, g(rs)),
                MemWidth::L => mem.write_u64(addr, regs.get_u64(rs)),
                MemWidth::G => {
                    // Registers past the file's end store as zero rather
                    // than panicking on a malformed encoding.
                    for k in 0..8u32 {
                        let v = Reg::from_index(rs.index() as u8 + k as u8).map(&g).unwrap_or(0);
                        mem.write_u32(addr + 4 * k, v);
                    }
                }
            }
            out.mem =
                Some(MemEffect { addr, bytes: w.bytes(), kind: DKind::Store, pol: pol_of(pol) });
        }
        CSt { cond, rc, rs, base } => {
            let addr = g(base);
            check_align(pc, addr, MemWidth::W)?;
            if cond.eval(gi(rc)) {
                mem.write_u32(addr, g(rs));
                out.mem =
                    Some(MemEffect { addr, bytes: 4, kind: DKind::Store, pol: DPolicy::Cached });
            }
        }
        Prefetch { base, off } => {
            let addr = g(base).wrapping_add(off as i32 as u32) & !31;
            out.mem =
                Some(MemEffect { addr, bytes: 32, kind: DKind::Prefetch, pol: DPolicy::Cached });
        }
        Cas { rd, base, rs } => {
            let addr = g(base);
            check_align(pc, addr, MemWidth::W)?;
            let old = mem.read_u32(addr);
            if old == g(rd) {
                mem.write_u32(addr, g(rs));
            }
            ws.push(rd, old);
            out.mem = Some(MemEffect { addr, bytes: 4, kind: DKind::Atomic, pol: DPolicy::Cached });
        }
        Swap { rd, base } => {
            let addr = g(base);
            check_align(pc, addr, MemWidth::W)?;
            let old = mem.read_u32(addr);
            mem.write_u32(addr, g(rd));
            ws.push(rd, old);
            out.mem = Some(MemEffect { addr, bytes: 4, kind: DKind::Atomic, pol: DPolicy::Cached });
        }

        Br { cond, rs, off, .. } => {
            out.flow = Some(if cond.eval(gi(rs)) {
                Flow::Taken(pc.wrapping_add(off as u32))
            } else {
                Flow::Next
            });
        }
        Call { rd, off } => {
            ws.push(rd, pc + pkt_bytes);
            out.flow = Some(Flow::Taken(pc.wrapping_add(off as u32)));
        }
        Jmpl { rd, base, off } => {
            ws.push(rd, pc + pkt_bytes);
            out.flow = Some(Flow::Taken(g(base).wrapping_add(off as i32 as u32)));
        }
        Rte => out.flow = Some(Flow::Rte),

        Div { rd, rs1, rs2 } => {
            if gi(rs2) == 0 {
                return Err(Trap::DivZero { pc });
            }
            ws.push(rd, gi(rs1).wrapping_div(gi(rs2)) as u32);
        }
        Rem { rd, rs1, rs2 } => {
            if gi(rs2) == 0 {
                return Err(Trap::DivZero { pc });
            }
            ws.push(rd, gi(rs1).wrapping_rem(gi(rs2)) as u32);
        }
        FDiv { rd, rs1, rs2 } => ws.push_f32(rd, gf(rs1) / gf(rs2)),
        FRsqrt { rd, rs } => ws.push_f32(rd, 1.0 / gf(rs).sqrt()),
        PDiv { rd, rs1, rs2 } => {
            let (a1, a0) = fixed::lanes(g(rs1));
            let (b1, b0) = fixed::lanes(g(rs2));
            ws.push(
                rd,
                fixed::pack(fixed::s2_13_div(a1, b1) as u16, fixed::s2_13_div(a0, b0) as u16),
            );
        }
        PRsqrt { rd, rs } => {
            let (a1, a0) = fixed::lanes(g(rs));
            ws.push(rd, fixed::pack(fixed::s2_13_rsqrt(a1) as u16, fixed::s2_13_rsqrt(a0) as u16));
        }

        Alu { op, rd, rs1, src2 } => {
            let b = match src2 {
                Src::Reg(r) => g(r),
                Src::Imm(i) => i as i32 as u32,
            };
            ws.push(rd, op.eval(g(rs1), b));
        }
        SetLo { rd, imm } => ws.push(rd, imm as i32 as u32),
        SetHi { rd, imm } => ws.push(rd, ((imm as u32) << 16) | (g(rd) & 0xFFFF)),
        CMove { cond, rc, rd, rs } => {
            if cond.eval(gi(rc)) {
                ws.push(rd, g(rs));
            }
        }
        Pick { cond, rd, rs1, rs2 } => {
            ws.push(rd, if cond.eval(gi(rd)) { g(rs1) } else { g(rs2) });
        }
        Cmp { cond, rd, rs1, rs2 } => ws.push(rd, cond.eval2(gi(rs1), gi(rs2)) as u32),

        Mul { rd, rs1, rs2 } => ws.push(rd, gi(rs1).wrapping_mul(gi(rs2)) as u32),
        MulHi { rd, rs1, rs2 } => {
            ws.push(rd, ((gi(rs1) as i64 * gi(rs2) as i64) >> 32) as u32);
        }
        MulAdd { rd, rs1, rs2 } => {
            ws.push(rd, (gi(rd)).wrapping_add(gi(rs1).wrapping_mul(gi(rs2))) as u32);
        }
        MulSub { rd, rs1, rs2 } => {
            ws.push(rd, (gi(rd)).wrapping_sub(gi(rs1).wrapping_mul(gi(rs2))) as u32);
        }

        PAdd { mode, rd, rs1, rs2 } => {
            let (a1, a0) = fixed::lanes(g(rs1));
            let (b1, b0) = fixed::lanes(g(rs2));
            ws.push(rd, fixed::pack(lane_op(mode, a1, b1, false), lane_op(mode, a0, b0, false)));
        }
        PSub { mode, rd, rs1, rs2 } => {
            let (a1, a0) = fixed::lanes(g(rs1));
            let (b1, b0) = fixed::lanes(g(rs2));
            ws.push(rd, fixed::pack(lane_op(mode, a1, b1, true), lane_op(mode, a0, b0, true)));
        }
        PMul { fmt, rd, rs1, rs2 } => {
            let (a1, a0) = fixed::lanes(g(rs1));
            let (b1, b0) = fixed::lanes(g(rs2));
            ws.push(rd, fixed::pack(lane_mul(fmt, a1, b1), lane_mul(fmt, a0, b0)));
        }
        PMulAdd { fmt, rd, rs1, rs2 } => {
            let (c1, c0) = fixed::lanes(g(rd));
            let (a1, a0) = fixed::lanes(g(rs1));
            let (b1, b0) = fixed::lanes(g(rs2));
            ws.push(rd, fixed::pack(lane_mac(fmt, c1, a1, b1), lane_mac(fmt, c0, a0, b0)));
        }
        DotP { rd, rs1, rs2 } => {
            let (a1, a0) = fixed::lanes(g(rs1));
            let (b1, b0) = fixed::lanes(g(rs2));
            let dot = a1 as i32 * b1 as i32 + a0 as i32 * b0 as i32;
            ws.push(rd, gi(rd).wrapping_add(dot) as u32);
        }
        PMulS31 { rd, rs1, rs2 } => {
            let (_, a0) = fixed::lanes(g(rs1));
            let (_, b0) = fixed::lanes(g(rs2));
            ws.push(rd, fixed::s31_product(a0, b0) as u32);
        }
        PDist { rd, rs1, rs2 } => {
            let a = g(rs1).to_be_bytes();
            let b = g(rs2).to_be_bytes();
            let sad: u32 =
                a.iter().zip(&b).map(|(&x, &y)| (x as i32 - y as i32).unsigned_abs()).sum();
            ws.push(rd, g(rd).wrapping_add(sad));
        }
        ByteShuf { rd, rs, ctl } => {
            // Source bytes 0..8: MSB-first across the pair (rs, rs+1).
            let hi = g(rs).to_be_bytes();
            let lo = Reg::from_index(rs.index() as u8 + 1).map(&g).unwrap_or(0).to_be_bytes();
            let src = [hi[0], hi[1], hi[2], hi[3], lo[0], lo[1], lo[2], lo[3]];
            let c = g(ctl);
            let mut out_bytes = [0u8; 4];
            for (i, ob) in out_bytes.iter_mut().enumerate() {
                let nib = (c >> (12 - 4 * i)) & 0xF;
                *ob = if nib & 0x8 != 0 { 0 } else { src[(nib & 7) as usize] };
            }
            ws.push(rd, u32::from_be_bytes(out_bytes));
        }
        BitExt { rd, rs, ctl } => {
            // 64-bit window with rs as the most-significant word (a
            // bitstream reads MSB-first).
            let v = ((g(rs) as u64) << 32)
                | Reg::from_index(rs.index() as u8 + 1).map(&g).unwrap_or(0) as u64;
            let c = g(ctl);
            let pos = c & 0x3F;
            let len = ((c >> 8) & 0x1F) + 1;
            let field = if pos + len > 64 {
                // Window overrun extracts what is there, zero-padded.
                (v << pos.min(63)) >> (64 - len)
            } else {
                (v << pos) >> (64 - len)
            };
            ws.push(rd, field as u32);
        }
        Lzd { rd, rs } => ws.push(rd, g(rs).leading_zeros()),

        FAdd { rd, rs1, rs2 } => ws.push_f32(rd, gf(rs1) + gf(rs2)),
        FSub { rd, rs1, rs2 } => ws.push_f32(rd, gf(rs1) - gf(rs2)),
        FMul { rd, rs1, rs2 } => ws.push_f32(rd, gf(rs1) * gf(rs2)),
        FMAdd { rd, rs1, rs2 } => ws.push_f32(rd, gf(rs1).mul_add(gf(rs2), gf(rd))),
        FMSub { rd, rs1, rs2 } => ws.push_f32(rd, gf(rs1).mul_add(-gf(rs2), gf(rd))),
        FMin { rd, rs1, rs2 } => ws.push_f32(rd, gf(rs1).min(gf(rs2))),
        FMax { rd, rs1, rs2 } => ws.push_f32(rd, gf(rs1).max(gf(rs2))),
        FNeg { rd, rs } => ws.push_f32(rd, -gf(rs)),
        FAbs { rd, rs } => ws.push_f32(rd, gf(rs).abs()),
        FCmp { cond, rd, rs1, rs2 } => {
            ws.push(rd, cond.eval_f64(gf(rs1) as f64, gf(rs2) as f64) as u32)
        }

        DAdd { rd, rs1, rs2 } => ws.push_f64(rd, gd(rs1) + gd(rs2)),
        DSub { rd, rs1, rs2 } => ws.push_f64(rd, gd(rs1) - gd(rs2)),
        DMul { rd, rs1, rs2 } => ws.push_f64(rd, gd(rs1) * gd(rs2)),
        DMin { rd, rs1, rs2 } => ws.push_f64(rd, gd(rs1).min(gd(rs2))),
        DMax { rd, rs1, rs2 } => ws.push_f64(rd, gd(rs1).max(gd(rs2))),
        DNeg { rd, rs } => ws.push_f64(rd, -gd(rs)),
        DCmp { cond, rd, rs1, rs2 } => ws.push(rd, cond.eval_f64(gd(rs1), gd(rs2)) as u32),

        Cvt { kind, rd, rs } => match kind {
            CvtKind::I2F => ws.push_f32(rd, gi(rs) as f32),
            CvtKind::F2I => ws.push(rd, f2i(gf(rs)) as u32),
            CvtKind::I2D => ws.push_f64(rd, gi(rs) as f64),
            CvtKind::D2I => {
                let v = gd(rs);
                let i =
                    if v.is_nan() { 0 } else { v.clamp(i32::MIN as f64, i32::MAX as f64) as i32 };
                ws.push(rd, i as u32);
            }
            CvtKind::F2D => ws.push_f64(rd, gf(rs) as f64),
            CvtKind::D2F => ws.push_f32(rd, gd(rs) as f32),
            CvtKind::F2X => {
                let x = fixed::f64_to_s2_13(gf(rs) as f64) as u16;
                ws.push(rd, fixed::pack(x, x));
            }
            CvtKind::X2F => {
                let (_, lo) = fixed::lanes(g(rs));
                ws.push_f32(rd, fixed::s2_13_to_f64(lo) as f32);
            }
        },
    }
    Ok(out)
}

#[inline]
fn addr_of(regs: &RegFile, base: Reg, off: Off) -> u32 {
    match off {
        Off::Imm(i) => regs.get(base).wrapping_add(i as i32 as u32),
        Off::Reg(r) => regs.get(base).wrapping_add(regs.get(r)),
    }
}

#[inline]
fn check_align(pc: u32, addr: u32, w: MemWidth) -> Result<(), Trap> {
    if !addr.is_multiple_of(w.bytes()) {
        Err(Trap::Misaligned { pc, addr })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use majc_isa::{AluOp, Cond};

    fn setup() -> (RegFile, WriteSet, FlatMem) {
        (RegFile::new(), WriteSet::default(), FlatMem::new())
    }

    fn run(ins: Instr, regs: &mut RegFile, mem: &mut FlatMem) -> SlotOutcome {
        let mut ws = WriteSet::default();
        let out = exec_slot(&ins, regs, &mut ws, mem, 0x1000, 8).unwrap();
        ws.apply(regs);
        out
    }

    #[test]
    fn alu_and_sets() {
        let (mut r, _, mut m) = setup();
        run(Instr::SetLo { rd: Reg::g(0), imm: -5 }, &mut r, &mut m);
        assert_eq!(r.get_i32(Reg::g(0)), -5);
        run(Instr::SetLo { rd: Reg::g(1), imm: 0x1234 }, &mut r, &mut m);
        run(Instr::SetHi { rd: Reg::g(1), imm: 0xABCD }, &mut r, &mut m);
        assert_eq!(r.get(Reg::g(1)), 0xABCD_1234);
        run(
            Instr::Alu { op: AluOp::Add, rd: Reg::g(2), rs1: Reg::g(1), src2: Src::Imm(4) },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get(Reg::g(2)), 0xABCD_1238);
    }

    #[test]
    fn loads_and_stores() {
        let (mut r, _, mut m) = setup();
        m.write_u32(0x100, 0xFFFF_8081);
        r.set(Reg::g(0), 0x100);
        run(
            Instr::Ld {
                w: MemWidth::B,
                pol: CachePolicy::Cached,
                rd: Reg::g(1),
                base: Reg::g(0),
                off: Off::Imm(0),
            },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get_i32(Reg::g(1)), -127); // 0x81 sign-extended
        run(
            Instr::Ld {
                w: MemWidth::Bu,
                pol: CachePolicy::Cached,
                rd: Reg::g(2),
                base: Reg::g(0),
                off: Off::Imm(0),
            },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get(Reg::g(2)), 0x81);
        // Group store/load round trip.
        for k in 0..8 {
            r.set(Reg::g(8 + k), 100 + k as u32);
        }
        r.set(Reg::g(3), 0x200);
        run(
            Instr::St {
                w: MemWidth::G,
                pol: CachePolicy::Cached,
                rs: Reg::g(8),
                base: Reg::g(3),
                off: Off::Imm(0),
            },
            &mut r,
            &mut m,
        );
        run(
            Instr::Ld {
                w: MemWidth::G,
                pol: CachePolicy::Cached,
                rd: Reg::g(16),
                base: Reg::g(3),
                off: Off::Imm(0),
            },
            &mut r,
            &mut m,
        );
        for k in 0..8 {
            assert_eq!(r.get(Reg::g(16 + k)), 100 + k as u32);
        }
    }

    #[test]
    fn misalignment_traps() {
        let (mut r, mut ws, mut m) = setup();
        r.set(Reg::g(0), 0x101);
        let res = exec_slot(
            &Instr::Ld {
                w: MemWidth::W,
                pol: CachePolicy::Cached,
                rd: Reg::g(1),
                base: Reg::g(0),
                off: Off::Imm(0),
            },
            &r,
            &mut ws,
            &mut m,
            0x1000,
            4,
        );
        assert_eq!(res.unwrap_err(), Trap::Misaligned { pc: 0x1000, addr: 0x101 });
    }

    #[test]
    fn non_faulting_load_returns_zero() {
        let (mut r, mut ws, mut m) = setup();
        m.write_u32(0x100, 0xDEAD_BEEF);
        r.set(Reg::g(0), 0x101); // misaligned for a word access
        r.set(Reg::g(1), 77);
        let out = exec_slot(
            &Instr::Ld {
                w: MemWidth::W,
                pol: CachePolicy::NonFaulting,
                rd: Reg::g(1),
                base: Reg::g(0),
                off: Off::Imm(0),
            },
            &r,
            &mut ws,
            &mut m,
            0x1000,
            4,
        )
        .expect("non-faulting load must not trap");
        assert_eq!(out.mem, None, "faulting .nf load performs no access");
        ws.apply(&mut r);
        assert_eq!(r.get(Reg::g(1)), 0, "faulting .nf load returns zero");
        // An aligned .nf load behaves like a normal load.
        r.set(Reg::g(0), 0x100);
        run(
            Instr::Ld {
                w: MemWidth::W,
                pol: CachePolicy::NonFaulting,
                rd: Reg::g(2),
                base: Reg::g(0),
                off: Off::Imm(0),
            },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get(Reg::g(2)), 0xDEAD_BEEF);
    }

    #[test]
    fn branches() {
        let (mut r, _, mut m) = setup();
        r.set(Reg::g(0), 0);
        let out =
            run(Instr::Br { cond: Cond::Eq, rs: Reg::g(0), off: 16, hint: true }, &mut r, &mut m);
        assert_eq!(out.flow, Some(Flow::Taken(0x1010)));
        let out =
            run(Instr::Br { cond: Cond::Ne, rs: Reg::g(0), off: 16, hint: false }, &mut r, &mut m);
        assert_eq!(out.flow, Some(Flow::Next));
        let out = run(Instr::Call { rd: Reg::g(1), off: -32 }, &mut r, &mut m);
        assert_eq!(out.flow, Some(Flow::Taken(0x1000 - 32)));
        assert_eq!(r.get(Reg::g(1)), 0x1008, "return address is the next packet");
        r.set(Reg::g(2), 0x2000);
        let out = run(Instr::Jmpl { rd: Reg::g(3), base: Reg::g(2), off: 8 }, &mut r, &mut m);
        assert_eq!(out.flow, Some(Flow::Taken(0x2008)));
    }

    #[test]
    fn simd_dot_and_sad() {
        let (mut r, _, mut m) = setup();
        r.set(Reg::g(0), fixed::pack(3i16 as u16, (-2i16) as u16));
        r.set(Reg::g(1), fixed::pack(10i16 as u16, 5i16 as u16));
        r.set(Reg::g(2), 100);
        run(Instr::DotP { rd: Reg::g(2), rs1: Reg::g(0), rs2: Reg::g(1) }, &mut r, &mut m);
        assert_eq!(r.get_i32(Reg::g(2)), 100 + 3 * 10 + (-2) * 5);

        r.set(Reg::g(3), u32::from_be_bytes([10, 20, 30, 40]));
        r.set(Reg::g(4), u32::from_be_bytes([13, 17, 35, 40]));
        r.set(Reg::g(5), 0);
        run(Instr::PDist { rd: Reg::g(5), rs1: Reg::g(3), rs2: Reg::g(4) }, &mut r, &mut m);
        assert_eq!(r.get(Reg::g(5)), 3 + 3 + 5);
    }

    #[test]
    fn byte_shuffle() {
        let (mut r, _, mut m) = setup();
        r.set(Reg::g(0), u32::from_be_bytes([0xA0, 0xA1, 0xA2, 0xA3]));
        r.set(Reg::g(1), u32::from_be_bytes([0xB0, 0xB1, 0xB2, 0xB3]));
        // Select bytes 7,0,4 and zero the last.
        r.set(Reg::g(2), 0x7048 | 0x8); // nibbles: 7,0,4,8
        run(Instr::ByteShuf { rd: Reg::g(3), rs: Reg::g(0), ctl: Reg::g(2) }, &mut r, &mut m);
        assert_eq!(r.get(Reg::g(3)), u32::from_be_bytes([0xB3, 0xA0, 0xB0, 0x00]));
    }

    #[test]
    fn bit_extract_spans_words() {
        let (mut r, _, mut m) = setup();
        r.set(Reg::g(0), 0x0000_0001); // MS word
        r.set(Reg::g(1), 0x8000_0000); // LS word
                                       // The 64-bit window is 0x0000_0001_8000_0000: bits 31..33 (MSB-first
                                       // positions) hold 0b11. Extract pos=31, len=2.
        r.set(Reg::g(2), (1 << 8) | 31); // len-1=1, pos=31
        run(Instr::BitExt { rd: Reg::g(3), rs: Reg::g(0), ctl: Reg::g(2) }, &mut r, &mut m);
        assert_eq!(r.get(Reg::g(3)), 0b11);
    }

    #[test]
    fn fp_fma_is_fused() {
        let (mut r, _, mut m) = setup();
        r.set_f32(Reg::g(0), 0.1);
        r.set_f32(Reg::g(1), 10.0);
        r.set_f32(Reg::g(2), 1.0);
        run(Instr::FMAdd { rd: Reg::g(2), rs1: Reg::g(0), rs2: Reg::g(1) }, &mut r, &mut m);
        assert_eq!(r.get_f32(Reg::g(2)), 0.1f32.mul_add(10.0, 1.0));
    }

    #[test]
    fn double_precision_pairs() {
        let (mut r, _, mut m) = setup();
        r.set_f64(Reg::g(2), 1.5);
        r.set_f64(Reg::g(4), 2.25);
        run(Instr::DMul { rd: Reg::g(6), rs1: Reg::g(2), rs2: Reg::g(4) }, &mut r, &mut m);
        assert_eq!(r.get_f64(Reg::g(6)), 3.375);
    }

    #[test]
    fn divide_traps_on_zero() {
        let (mut r, mut ws, mut m) = setup();
        r.set(Reg::g(1), 42);
        let res = exec_slot(
            &Instr::Div { rd: Reg::g(0), rs1: Reg::g(1), rs2: Reg::g(2) },
            &r,
            &mut ws,
            &mut m,
            0x40,
            4,
        );
        assert_eq!(res.unwrap_err(), Trap::DivZero { pc: 0x40 });
    }

    #[test]
    fn atomics() {
        let (mut r, _, mut m) = setup();
        m.write_u32(0x80, 5);
        r.set(Reg::g(0), 0x80);
        r.set(Reg::g(1), 5); // expected
        r.set(Reg::g(2), 9); // new
        run(Instr::Cas { rd: Reg::g(1), base: Reg::g(0), rs: Reg::g(2) }, &mut r, &mut m);
        assert_eq!(r.get(Reg::g(1)), 5, "old value returned");
        assert_eq!(m.read_u32(0x80), 9, "swap happened");
        // Failed CAS.
        r.set(Reg::g(1), 5);
        run(Instr::Cas { rd: Reg::g(1), base: Reg::g(0), rs: Reg::g(2) }, &mut r, &mut m);
        assert_eq!(r.get(Reg::g(1)), 9, "old value returned");
        assert_eq!(m.read_u32(0x80), 9, "no change on mismatch");
    }

    #[test]
    fn pick_select() {
        let (mut r, _, mut m) = setup();
        r.set(Reg::g(0), 1); // predicate in rd (old value)
        r.set(Reg::g(1), 111);
        r.set(Reg::g(2), 222);
        run(
            Instr::Pick { cond: Cond::Ne, rd: Reg::g(0), rs1: Reg::g(1), rs2: Reg::g(2) },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get(Reg::g(0)), 111);
        run(
            Instr::Pick { cond: Cond::Eq, rd: Reg::g(0), rs1: Reg::g(1), rs2: Reg::g(2) },
            &mut r,
            &mut m,
        );
        assert_eq!(r.get(Reg::g(0)), 222, "111 != 0, Eq false, picks rs2");
    }

    #[test]
    fn conversions() {
        let (mut r, _, mut m) = setup();
        r.set(Reg::g(0), (-7i32) as u32);
        run(Instr::Cvt { kind: CvtKind::I2F, rd: Reg::g(1), rs: Reg::g(0) }, &mut r, &mut m);
        assert_eq!(r.get_f32(Reg::g(1)), -7.0);
        r.set_f32(Reg::g(2), 3.9);
        run(Instr::Cvt { kind: CvtKind::F2I, rd: Reg::g(3), rs: Reg::g(2) }, &mut r, &mut m);
        assert_eq!(r.get_i32(Reg::g(3)), 3);
        run(Instr::Cvt { kind: CvtKind::F2D, rd: Reg::g(4), rs: Reg::g(2) }, &mut r, &mut m);
        assert!((r.get_f64(Reg::g(4)) - 3.9f32 as f64).abs() < 1e-12);
    }
}
