//! The MAJC instruction set as implemented by MAJC-5200 (paper §4).
//!
//! Instructions are 32-bit; a VLIW packet carries one to four of them. The
//! first slot of a packet must hold an FU0 instruction (memory, control
//! flow, or ALU); slots 1-3 hold compute instructions for FU1-FU3.

use crate::fixed::{FixFmt, SatMode};
use crate::ops::{AluOp, CachePolicy, Cond, CvtKind, LatClass, MemWidth};
use crate::reg::Reg;
use crate::IsaError;

/// Second source operand: register or 16-bit sign-extended immediate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Src {
    Reg(Reg),
    Imm(i16),
}

/// Load/store address offset: register index or immediate byte offset.
///
/// Immediate offsets are encoded scaled by the access size, so the byte
/// offset must be a multiple of the width for multi-byte accesses and must
/// fit the 7-bit scaled field (±64 elements).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Off {
    Reg(Reg),
    Imm(i16),
}

/// A fixed-capacity list of register names, used for def/use queries on the
/// simulator's hot path without allocating.
#[derive(Clone, Copy, Debug, Default)]
pub struct RegList {
    regs: [u8; 10],
    len: u8,
}

impl RegList {
    #[inline]
    pub fn push(&mut self, r: Reg) {
        self.regs[self.len as usize] = r.index() as u8;
        self.len += 1;
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The listed registers as absolute indices in `0..224` (see
    /// [`Reg::index`]), with no per-entry re-validation.
    #[inline]
    pub fn indices(&self) -> &[u8] {
        &self.regs[..self.len as usize]
    }

    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.regs[..self.len as usize].iter().map(|&i| Reg::from_index(i).unwrap())
    }

    fn push_span(&mut self, base: Reg, n: u8) {
        for k in 0..n as usize {
            // Spans that run off the register file are dropped here and
            // rejected by `Instr::validate_for_fu`.
            let Some(idx) = base.index().checked_add(k).filter(|&i| i < 224) else { break };
            self.push(Reg::from_index(idx as u8).unwrap());
        }
    }
}

/// One MAJC instruction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Instr {
    /// No operation (any FU).
    Nop,
    /// Stop simulation (simulator control; assembles into FU0 space).
    Halt,

    // ------------------------- FU0: memory -------------------------
    /// Load: `rd = mem[base + off]` with the given width and cache policy.
    /// `L` fills the pair `(rd, rd+1)`, `G` fills `rd..rd+8` (32 bytes).
    Ld {
        w: MemWidth,
        pol: CachePolicy,
        rd: Reg,
        base: Reg,
        off: Off,
    },
    /// Store: `mem[base + off] = rs` (pair/group for `L`/`G`).
    St {
        w: MemWidth,
        pol: CachePolicy,
        rs: Reg,
        base: Reg,
        off: Off,
    },
    /// Conditional word store: `if cond(rc) { mem[base] = rs }` (paper §4:
    /// predicated store on FU0).
    CSt {
        cond: Cond,
        rc: Reg,
        rs: Reg,
        base: Reg,
    },
    /// Non-faulting 32-byte block prefetch into the data cache.
    Prefetch {
        base: Reg,
        off: i16,
    },
    /// Memory barrier: drains the store buffer before younger accesses.
    Membar,
    /// Atomic compare-and-swap on a word: `old = mem[base]; if old == rd
    /// { mem[base] = rs }; rd = old`.
    Cas {
        rd: Reg,
        base: Reg,
        rs: Reg,
    },
    /// Atomic exchange: `rd <-> mem[base]`.
    Swap {
        rd: Reg,
        base: Reg,
    },

    // ----------------------- FU0: control flow -----------------------
    /// Conditional branch on `cond(rs)`; `off` is a byte displacement from
    /// the start of the current packet. `hint` is the static prediction.
    Br {
        cond: Cond,
        rs: Reg,
        off: i32,
        hint: bool,
    },
    /// Call: `rd = return address; pc += off`.
    Call {
        rd: Reg,
        off: i32,
    },
    /// Jump and link through a register: `rd = return address; pc = base + off`.
    Jmpl {
        rd: Reg,
        base: Reg,
        off: i16,
    },
    /// Return from trap: restore the PC saved by the trap-delivery hardware
    /// and leave trap state. Only meaningful inside a trap handler (the
    /// paper's pipeline ends in a Trap stage, §3.1).
    Rte,

    // --------------------- FU0: long-latency math ---------------------
    /// Non-pipelined 32-bit signed divide.
    Div {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Non-pipelined 32-bit signed remainder.
    Rem {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Single-precision FP divide (6-cycle).
    FDiv {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Single-precision FP reciprocal square root (6-cycle).
    FRsqrt {
        rd: Reg,
        rs: Reg,
    },
    /// SIMD S2.13 parallel divide, both lanes (6-cycle).
    PDiv {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// SIMD S2.13 parallel reciprocal square root, both lanes (6-cycle).
    PRsqrt {
        rd: Reg,
        rs: Reg,
    },

    // --------------------------- any FU ---------------------------
    /// Standard logical/shift/arithmetic op. Saturating variants are
    /// restricted to FU1-FU3.
    Alu {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        src2: Src,
    },
    /// `rd = sign_extend(imm)` — with [`Instr::SetHi`], "all units are
    /// capable of setting arbitrary constants" (paper §4).
    SetLo {
        rd: Reg,
        imm: i16,
    },
    /// `rd = (imm << 16) | (rd & 0xffff)`.
    SetHi {
        rd: Reg,
        imm: u16,
    },
    /// Conditional move: `if cond(rc) { rd = rs }` (any FU).
    CMove {
        cond: Cond,
        rc: Reg,
        rd: Reg,
        rs: Reg,
    },

    // ----------------------- FU1-FU3: compute -----------------------
    /// Predicated pick/select: `rd = cond(rd_old) ? rs1 : rs2`.
    Pick {
        cond: Cond,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Two-operand signed compare producing 0/1: `rd = (rs1 cond rs2)`.
    Cmp {
        cond: Cond,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Two-cycle pipelined 32-bit multiply, low half.
    Mul {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// High 32 bits of the signed 64-bit product (paper §4: enables 64-bit
    /// multiplies).
    MulHi {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Fused multiply-add: `rd += rs1 * rs2` (accumulator form).
    MulAdd {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Fused multiply-subtract: `rd -= rs1 * rs2`.
    MulSub {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },

    // SIMD on 16-bit lane pairs.
    /// Packed 16-bit add under a saturation mode.
    PAdd {
        mode: SatMode,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Packed 16-bit subtract under a saturation mode.
    PSub {
        mode: SatMode,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Packed 16-bit multiply in a fixed-point format (signed-saturating).
    PMul {
        fmt: FixFmt,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Packed fused multiply-add: `rd.lanes += rs1.lanes * rs2.lanes`.
    PMulAdd {
        fmt: FixFmt,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Dot product with full 32-bit precision: `rd += hi(rs1)*hi(rs2) +
    /// lo(rs1)*lo(rs2)` (paper §4).
    DotP {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Saturated S.31 product of the low-lane S.15 quantities.
    PMulS31 {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Pixel distance: `rd += Σ |bytes(rs1) - bytes(rs2)|` over 4 packed
    /// bytes (motion-estimation SAD, paper §4).
    PDist {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Byte shuffle: permute the 8 bytes of the pair `(rs, rs+1)` into `rd`
    /// under nibble selectors in `ctl` (can also zero byte fields).
    ByteShuf {
        rd: Reg,
        rs: Reg,
        ctl: Reg,
    },
    /// Bit-field extract from the 64-bit pair `(rs, rs+1)`; `ctl[5:0]` is
    /// the MSB-first bit position, `ctl[12:8]` is `len-1`. The extracted
    /// field is zero-extended — "a general purpose alignment instruction
    /// since the field extracted can span two registers" (paper §4).
    BitExt {
        rd: Reg,
        rs: Reg,
        ctl: Reg,
    },
    /// Leading-zero detect (32 for a zero input).
    Lzd {
        rd: Reg,
        rs: Reg,
    },

    // Single-precision FP (4-cycle, fully pipelined).
    FAdd {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    FSub {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    FMul {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Fused multiply-add: `rd += rs1 * rs2`.
    FMAdd {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Fused multiply-subtract: `rd -= rs1 * rs2`.
    FMSub {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    FMin {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    FMax {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    FNeg {
        rd: Reg,
        rs: Reg,
    },
    FAbs {
        rd: Reg,
        rs: Reg,
    },
    /// FP compare producing 0/1 in an integer register.
    FCmp {
        cond: Cond,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },

    // Double-precision FP on register pairs (partially pipelined).
    DAdd {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    DSub {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    DMul {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    DMin {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    DMax {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    DNeg {
        rd: Reg,
        rs: Reg,
    },
    DCmp {
        cond: Cond,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },

    /// Numeric conversions (paper §4 "Convert (FU1-3)").
    Cvt {
        kind: CvtKind,
        rd: Reg,
        rs: Reg,
    },
}

/// Bitmask with bit `i` set when the instruction may issue on FU`i`.
pub const FU0_ONLY: u8 = 0b0001;
/// Compute units FU1-FU3.
pub const FU123: u8 = 0b1110;
/// Any functional unit.
pub const ANY_FU: u8 = 0b1111;

impl Instr {
    /// Which functional units can execute this instruction.
    pub fn fu_mask(&self) -> u8 {
        use Instr::*;
        match self {
            Nop => ANY_FU,
            Halt => FU0_ONLY,
            Ld { .. }
            | St { .. }
            | CSt { .. }
            | Prefetch { .. }
            | Membar
            | Cas { .. }
            | Swap { .. } => FU0_ONLY,
            Br { .. } | Call { .. } | Jmpl { .. } | Rte => FU0_ONLY,
            Div { .. } | Rem { .. } | FDiv { .. } | FRsqrt { .. } | PDiv { .. } | PRsqrt { .. } => {
                FU0_ONLY
            }
            Alu { op, .. } => {
                if op.compute_only() {
                    FU123
                } else {
                    ANY_FU
                }
            }
            SetLo { .. } | SetHi { .. } | CMove { .. } => ANY_FU,
            Pick { .. }
            | Cmp { .. }
            | Mul { .. }
            | MulHi { .. }
            | MulAdd { .. }
            | MulSub { .. }
            | PAdd { .. }
            | PSub { .. }
            | PMul { .. }
            | PMulAdd { .. }
            | DotP { .. }
            | PMulS31 { .. }
            | PDist { .. }
            | ByteShuf { .. }
            | BitExt { .. }
            | Lzd { .. }
            | FAdd { .. }
            | FSub { .. }
            | FMul { .. }
            | FMAdd { .. }
            | FMSub { .. }
            | FMin { .. }
            | FMax { .. }
            | FNeg { .. }
            | FAbs { .. }
            | FCmp { .. }
            | DAdd { .. }
            | DSub { .. }
            | DMul { .. }
            | DMin { .. }
            | DMax { .. }
            | DNeg { .. }
            | DCmp { .. }
            | Cvt { .. } => FU123,
        }
    }

    /// Latency class for the timing model.
    pub fn lat_class(&self) -> LatClass {
        use Instr::*;
        match self {
            Ld { .. } | Cas { .. } | Swap { .. } => LatClass::Load,
            St { .. } | CSt { .. } | Prefetch { .. } | Membar => LatClass::Store,
            Br { .. } | Call { .. } | Jmpl { .. } | Rte | Halt => LatClass::Branch,
            Div { .. } | Rem { .. } => LatClass::IDiv,
            FDiv { .. } | FRsqrt { .. } | PDiv { .. } | PRsqrt { .. } => LatClass::Div6,
            Mul { .. } | MulHi { .. } | MulAdd { .. } | MulSub { .. } => LatClass::Mul,
            FAdd { .. }
            | FSub { .. }
            | FMul { .. }
            | FMAdd { .. }
            | FMSub { .. }
            | FMin { .. }
            | FMax { .. }
            | FNeg { .. }
            | FAbs { .. }
            | FCmp { .. }
            | Cvt { .. } => LatClass::FpSingle,
            DAdd { .. }
            | DSub { .. }
            | DMul { .. }
            | DMin { .. }
            | DMax { .. }
            | DNeg { .. }
            | DCmp { .. } => LatClass::FpDouble,
            _ => LatClass::Single,
        }
    }

    /// True for loads/stores/atomics/prefetch/membar.
    pub fn is_mem(&self) -> bool {
        matches!(self.lat_class(), LatClass::Load | LatClass::Store)
    }

    /// True for control-transfer instructions.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instr::Br { .. } | Instr::Call { .. } | Instr::Jmpl { .. } | Instr::Rte | Instr::Halt
        )
    }

    /// Registers written by this instruction.
    pub fn defs(&self) -> RegList {
        use Instr::*;
        let mut l = RegList::default();
        match *self {
            Ld { w, rd, .. } => l.push_span(rd, w.regs()),
            Cas { rd, .. } | Swap { rd, .. } => l.push(rd),
            Call { rd, .. } | Jmpl { rd, .. } => l.push(rd),
            Div { rd, .. }
            | Rem { rd, .. }
            | FDiv { rd, .. }
            | FRsqrt { rd, .. }
            | PDiv { rd, .. }
            | PRsqrt { rd, .. } => l.push(rd),
            Alu { rd, .. }
            | SetLo { rd, .. }
            | SetHi { rd, .. }
            | CMove { rd, .. }
            | Pick { rd, .. }
            | Cmp { rd, .. }
            | Mul { rd, .. }
            | MulHi { rd, .. }
            | MulAdd { rd, .. }
            | MulSub { rd, .. }
            | PAdd { rd, .. }
            | PSub { rd, .. }
            | PMul { rd, .. }
            | PMulAdd { rd, .. }
            | DotP { rd, .. }
            | PMulS31 { rd, .. }
            | PDist { rd, .. }
            | ByteShuf { rd, .. }
            | BitExt { rd, .. }
            | Lzd { rd, .. }
            | FAdd { rd, .. }
            | FSub { rd, .. }
            | FMul { rd, .. }
            | FMAdd { rd, .. }
            | FMSub { rd, .. }
            | FMin { rd, .. }
            | FMax { rd, .. }
            | FNeg { rd, .. }
            | FAbs { rd, .. }
            | FCmp { rd, .. } => l.push(rd),
            DAdd { rd, .. }
            | DSub { rd, .. }
            | DMul { rd, .. }
            | DMin { rd, .. }
            | DMax { rd, .. }
            | DNeg { rd, .. } => l.push_span(rd, 2),
            DCmp { rd, .. } => l.push(rd),
            Cvt { kind, rd, .. } => l.push_span(rd, if kind.dst_is_pair() { 2 } else { 1 }),
            Nop | Halt | Rte | St { .. } | CSt { .. } | Prefetch { .. } | Membar | Br { .. } => {}
        }
        l
    }

    /// Registers read by this instruction (accumulator forms read `rd`).
    pub fn uses(&self) -> RegList {
        use Instr::*;
        let mut l = RegList::default();
        match *self {
            Ld { base, off, .. } => {
                l.push(base);
                if let Off::Reg(r) = off {
                    l.push(r);
                }
            }
            St { w, rs, base, off, .. } => {
                l.push_span(rs, w.regs());
                l.push(base);
                if let Off::Reg(r) = off {
                    l.push(r);
                }
            }
            CSt { rc, rs, base, .. } => {
                l.push(rc);
                l.push(rs);
                l.push(base);
            }
            Prefetch { base, .. } => l.push(base),
            Cas { rd, base, rs } => {
                l.push(rd);
                l.push(base);
                l.push(rs);
            }
            Swap { rd, base } => {
                l.push(rd);
                l.push(base);
            }
            Br { rs, .. } => l.push(rs),
            Jmpl { base, .. } => l.push(base),
            Div { rs1, rs2, .. }
            | Rem { rs1, rs2, .. }
            | FDiv { rs1, rs2, .. }
            | PDiv { rs1, rs2, .. }
            | Cmp { rs1, rs2, .. }
            | Mul { rs1, rs2, .. }
            | MulHi { rs1, rs2, .. }
            | PAdd { rs1, rs2, .. }
            | PSub { rs1, rs2, .. }
            | PMul { rs1, rs2, .. }
            | PMulS31 { rs1, rs2, .. }
            | FAdd { rs1, rs2, .. }
            | FSub { rs1, rs2, .. }
            | FMul { rs1, rs2, .. }
            | FMin { rs1, rs2, .. }
            | FMax { rs1, rs2, .. }
            | FCmp { rs1, rs2, .. } => {
                l.push(rs1);
                l.push(rs2);
            }
            FRsqrt { rs, .. }
            | PRsqrt { rs, .. }
            | Lzd { rs, .. }
            | FNeg { rs, .. }
            | FAbs { rs, .. } => l.push(rs),
            Alu { rs1, src2, .. } => {
                l.push(rs1);
                if let Src::Reg(r) = src2 {
                    l.push(r);
                }
            }
            SetLo { .. } => {}
            SetHi { rd, .. } => l.push(rd),
            CMove { rc, rd, rs, .. } => {
                l.push(rc);
                l.push(rd);
                l.push(rs);
            }
            Pick { rd, rs1, rs2, .. } => {
                l.push(rd);
                l.push(rs1);
                l.push(rs2);
            }
            MulAdd { rd, rs1, rs2 }
            | MulSub { rd, rs1, rs2 }
            | DotP { rd, rs1, rs2 }
            | PDist { rd, rs1, rs2 } => {
                l.push(rd);
                l.push(rs1);
                l.push(rs2);
            }
            PMulAdd { rd, rs1, rs2, .. } => {
                l.push(rd);
                l.push(rs1);
                l.push(rs2);
            }
            FMAdd { rd, rs1, rs2 } | FMSub { rd, rs1, rs2 } => {
                l.push(rd);
                l.push(rs1);
                l.push(rs2);
            }
            ByteShuf { rs, ctl, .. } | BitExt { rs, ctl, .. } => {
                l.push_span(rs, 2);
                l.push(ctl);
            }
            DAdd { rs1, rs2, .. }
            | DSub { rs1, rs2, .. }
            | DMul { rs1, rs2, .. }
            | DMin { rs1, rs2, .. }
            | DMax { rs1, rs2, .. }
            | DCmp { rs1, rs2, .. } => {
                l.push_span(rs1, 2);
                l.push_span(rs2, 2);
            }
            DNeg { rs, .. } => l.push_span(rs, 2),
            Cvt { kind, rs, .. } => l.push_span(rs, if kind.src_is_pair() { 2 } else { 1 }),
            Nop | Halt | Rte | Membar | Call { .. } => {}
        }
        l
    }

    /// Validate placement on functional unit `fu`: unit legality, register
    /// visibility, pair alignment, and width constraints.
    pub fn validate_for_fu(&self, fu: u8) -> Result<(), IsaError> {
        if self.fu_mask() & (1 << fu) == 0 {
            return Err(IsaError::WrongUnit { fu, instr: format!("{self:?}") });
        }
        for r in self.defs().iter().chain(self.uses().iter()) {
            if !r.accessible_by(fu) {
                return Err(IsaError::RegNotVisible { fu, reg: r.to_string() });
            }
        }
        // Pair/group alignment.
        let pair_ok = |r: Reg| r.index().is_multiple_of(2);
        let group_ok = |r: Reg, n: usize| {
            if n == 1 {
                return true;
            }
            if !r.index().is_multiple_of(2) {
                return false;
            }
            // The whole span must stay inside one visibility window: all
            // globals, or all locals of the executing unit.
            let last = r.index() + n - 1;
            match Reg::from_index(last as u8) {
                Some(x) => x.local_owner() == r.local_owner() && x.accessible_by(fu),
                None => false,
            }
        };
        use Instr::*;
        let ok = match *self {
            Ld { w, rd, .. } => group_ok(rd, w.regs() as usize),
            // Non-faulting only makes sense for speculative loads.
            St { w, pol, rs, .. } => {
                w.valid_for_store()
                    && pol != CachePolicy::NonFaulting
                    && group_ok(rs, w.regs() as usize)
            }
            DAdd { rd, rs1, rs2 }
            | DSub { rd, rs1, rs2 }
            | DMul { rd, rs1, rs2 }
            | DMin { rd, rs1, rs2 }
            | DMax { rd, rs1, rs2 } => pair_ok(rd) && pair_ok(rs1) && pair_ok(rs2),
            DNeg { rd, rs } => pair_ok(rd) && pair_ok(rs),
            DCmp { rs1, rs2, .. } => pair_ok(rs1) && pair_ok(rs2),
            ByteShuf { rs, .. } | BitExt { rs, .. } => pair_ok(rs),
            Cvt { kind, rd, rs } => {
                (!kind.dst_is_pair() || pair_ok(rd)) && (!kind.src_is_pair() || pair_ok(rs))
            }
            _ => true,
        };
        if ok {
            Ok(())
        } else {
            Err(IsaError::BadOperand { instr: format!("{self:?}") })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(i: u8) -> Reg {
        Reg::g(i)
    }

    #[test]
    fn fu_masks() {
        assert_eq!(
            Instr::Ld {
                w: MemWidth::W,
                pol: CachePolicy::Cached,
                rd: g(0),
                base: g(1),
                off: Off::Imm(0)
            }
            .fu_mask(),
            FU0_ONLY
        );
        assert_eq!(Instr::FMAdd { rd: g(0), rs1: g(1), rs2: g(2) }.fu_mask(), FU123);
        assert_eq!(
            Instr::Alu { op: AluOp::Add, rd: g(0), rs1: g(1), src2: Src::Imm(1) }.fu_mask(),
            ANY_FU
        );
        assert_eq!(
            Instr::Alu { op: AluOp::AddSat, rd: g(0), rs1: g(1), src2: Src::Imm(1) }.fu_mask(),
            FU123
        );
        assert_eq!(Instr::Nop.fu_mask(), ANY_FU);
    }

    #[test]
    fn defs_and_uses() {
        let fma = Instr::FMAdd { rd: g(2), rs1: g(3), rs2: g(4) };
        let defs: Vec<_> = fma.defs().iter().collect();
        let uses: Vec<_> = fma.uses().iter().collect();
        assert_eq!(defs, vec![g(2)]);
        assert_eq!(uses, vec![g(2), g(3), g(4)]); // accumulator reads rd

        let ldg = Instr::Ld {
            w: MemWidth::G,
            pol: CachePolicy::Cached,
            rd: g(8),
            base: g(1),
            off: Off::Imm(0),
        };
        assert_eq!(ldg.defs().len(), 8);
        assert_eq!(ldg.defs().iter().last(), Some(g(15)));

        let dadd = Instr::DAdd { rd: g(0), rs1: g(2), rs2: g(4) };
        assert_eq!(dadd.defs().len(), 2);
        assert_eq!(dadd.uses().len(), 4);
    }

    #[test]
    fn validation() {
        // A compute op on FU0 is rejected.
        let fma = Instr::FMAdd { rd: g(0), rs1: g(1), rs2: g(2) };
        assert!(fma.validate_for_fu(0).is_err());
        assert!(fma.validate_for_fu(1).is_ok());
        // A local of FU2 is not visible to FU1.
        let alu = Instr::Alu { op: AluOp::Add, rd: Reg::l(2, 0), rs1: g(0), src2: Src::Imm(1) };
        assert!(alu.validate_for_fu(2).is_ok());
        assert!(alu.validate_for_fu(1).is_err());
        // Odd pair base is rejected.
        let d = Instr::DAdd { rd: g(1), rs1: g(2), rs2: g(4) };
        assert!(d.validate_for_fu(1).is_err());
        // Store of an unsigned-load width is rejected.
        let st = Instr::St {
            w: MemWidth::Bu,
            pol: CachePolicy::Cached,
            rs: g(0),
            base: g(1),
            off: Off::Imm(0),
        };
        assert!(st.validate_for_fu(0).is_err());
        // A group that would leave the global window is rejected.
        let ldg = Instr::Ld {
            w: MemWidth::G,
            pol: CachePolicy::Cached,
            rd: g(90),
            base: g(1),
            off: Off::Imm(0),
        };
        assert!(ldg.validate_for_fu(0).is_err());
    }

    #[test]
    fn lat_classes() {
        assert_eq!(Instr::Nop.lat_class(), LatClass::Single);
        assert_eq!(Instr::Mul { rd: g(0), rs1: g(1), rs2: g(2) }.lat_class(), LatClass::Mul);
        assert_eq!(Instr::FAdd { rd: g(0), rs1: g(1), rs2: g(2) }.lat_class(), LatClass::FpSingle);
        assert_eq!(Instr::DMul { rd: g(0), rs1: g(2), rs2: g(4) }.lat_class(), LatClass::FpDouble);
        assert_eq!(Instr::FDiv { rd: g(0), rs1: g(1), rs2: g(2) }.lat_class(), LatClass::Div6);
        assert_eq!(Instr::Div { rd: g(0), rs1: g(1), rs2: g(2) }.lat_class(), LatClass::IDiv);
    }
}
