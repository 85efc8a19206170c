//! Operation kinds shared across the instruction set.

/// ALU operations executable on any functional unit (saturating variants
/// only on FU1-FU3, per paper §4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    /// `rd = rs1 & !src2`
    AndNot,
    /// `rd = rs1 | !src2`
    OrNot,
    /// Logical shift left.
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// 32-bit saturated add (FU1-3 only).
    AddSat,
    /// 32-bit saturated subtract (FU1-3 only).
    SubSat,
}

impl AluOp {
    pub const ALL: [AluOp; 12] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::AndNot,
        AluOp::OrNot,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::AddSat,
        AluOp::SubSat,
    ];

    /// Saturating ops are restricted to the compute units FU1-FU3.
    #[inline]
    pub const fn compute_only(self) -> bool {
        matches!(self, AluOp::AddSat | AluOp::SubSat)
    }

    /// The mnemonic used by the assembler.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::AndNot => "andn",
            AluOp::OrNot => "orn",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::AddSat => "adds",
            AluOp::SubSat => "subs",
        }
    }

    /// Evaluate the operation on 32-bit operands.
    #[inline]
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::AndNot => a & !b,
            AluOp::OrNot => a | !b,
            AluOp::Sll => a.wrapping_shl(b & 31),
            AluOp::Srl => a.wrapping_shr(b & 31),
            AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
            AluOp::AddSat => (a as i32).saturating_add(b as i32) as u32,
            AluOp::SubSat => (a as i32).saturating_sub(b as i32) as u32,
        }
    }
}

/// Branch/conditional-move conditions, evaluated against a register compared
/// to zero (signed).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cond {
    pub const ALL: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge];

    /// The four conditions representable in 2-bit fields (conditional move,
    /// pick, conditional store, and compare instructions). The remaining two
    /// are synthesised by operand swap or negation.
    pub const SHORT: [Cond; 4] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge];

    #[inline]
    pub fn eval(self, v: i32) -> bool {
        match self {
            Cond::Eq => v == 0,
            Cond::Ne => v != 0,
            Cond::Lt => v < 0,
            Cond::Le => v <= 0,
            Cond::Gt => v > 0,
            Cond::Ge => v >= 0,
        }
    }

    /// Evaluate as a two-operand comparison `a ? b` (signed).
    #[inline]
    pub fn eval2(self, a: i32, b: i32) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }

    /// Evaluate as a two-operand float comparison (IEEE: unordered is false
    /// except for `Ne`).
    #[inline]
    pub fn eval_f64(self, a: f64, b: f64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }

    pub const fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
        }
    }

    /// 3-bit encoding.
    #[inline]
    pub const fn encode(self) -> u32 {
        match self {
            Cond::Eq => 0,
            Cond::Ne => 1,
            Cond::Lt => 2,
            Cond::Le => 3,
            Cond::Gt => 4,
            Cond::Ge => 5,
        }
    }

    #[inline]
    pub const fn decode(bits: u32) -> Option<Cond> {
        match bits {
            0 => Some(Cond::Eq),
            1 => Some(Cond::Ne),
            2 => Some(Cond::Lt),
            3 => Some(Cond::Le),
            4 => Some(Cond::Gt),
            5 => Some(Cond::Ge),
            _ => None,
        }
    }

    /// 2-bit encoding of the [`Cond::SHORT`] subset.
    #[inline]
    pub const fn encode_short(self) -> Option<u32> {
        match self {
            Cond::Eq => Some(0),
            Cond::Ne => Some(1),
            Cond::Lt => Some(2),
            Cond::Ge => Some(3),
            _ => None,
        }
    }

    #[inline]
    pub const fn decode_short(bits: u32) -> Cond {
        match bits & 3 {
            0 => Cond::Eq,
            1 => Cond::Ne,
            2 => Cond::Lt,
            _ => Cond::Ge,
        }
    }
}

/// Memory access widths supported by loads/stores (paper §4: byte, short,
/// word, long, and 32-byte group).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemWidth {
    /// Signed byte.
    B,
    /// Unsigned byte.
    Bu,
    /// Signed halfword.
    H,
    /// Unsigned halfword.
    Hu,
    /// 32-bit word.
    W,
    /// 64-bit long: a register pair.
    L,
    /// 32-byte group: eight consecutive registers.
    G,
}

impl MemWidth {
    pub const ALL: [MemWidth; 7] = [
        MemWidth::B,
        MemWidth::Bu,
        MemWidth::H,
        MemWidth::Hu,
        MemWidth::W,
        MemWidth::L,
        MemWidth::G,
    ];

    /// Access size in bytes.
    #[inline]
    pub const fn bytes(self) -> u32 {
        match self {
            MemWidth::B | MemWidth::Bu => 1,
            MemWidth::H | MemWidth::Hu => 2,
            MemWidth::W => 4,
            MemWidth::L => 8,
            MemWidth::G => 32,
        }
    }

    /// How many destination registers the access touches.
    #[inline]
    pub const fn regs(self) -> u8 {
        match self {
            MemWidth::L => 2,
            MemWidth::G => 8,
            _ => 1,
        }
    }

    /// Store widths never sign-extend; `Bu`/`Hu` only exist for loads.
    #[inline]
    pub const fn valid_for_store(self) -> bool {
        !matches!(self, MemWidth::Bu | MemWidth::Hu)
    }

    pub const fn suffix(self) -> &'static str {
        match self {
            MemWidth::B => "b",
            MemWidth::Bu => "ub",
            MemWidth::H => "h",
            MemWidth::Hu => "uh",
            MemWidth::W => "w",
            MemWidth::L => "l",
            MemWidth::G => "g",
        }
    }
}

/// Cacheability policy of a load/store (paper §4: cached, non-cached,
/// non-allocating, or non-faulting).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CachePolicy {
    #[default]
    Cached,
    NonCached,
    /// Hits are serviced by the cache; misses bypass allocation.
    NonAllocating,
    /// Speculative load that returns zero instead of trapping on a fault
    /// (paper §4 pairs this with the non-faulting block prefetch).
    NonFaulting,
}

impl CachePolicy {
    pub const ALL: [CachePolicy; 4] = [
        CachePolicy::Cached,
        CachePolicy::NonCached,
        CachePolicy::NonAllocating,
        CachePolicy::NonFaulting,
    ];

    #[inline]
    pub const fn encode(self) -> u32 {
        match self {
            CachePolicy::Cached => 0,
            CachePolicy::NonCached => 1,
            CachePolicy::NonAllocating => 2,
            CachePolicy::NonFaulting => 3,
        }
    }

    #[inline]
    pub const fn decode(bits: u32) -> CachePolicy {
        match bits & 3 {
            1 => CachePolicy::NonCached,
            2 => CachePolicy::NonAllocating,
            3 => CachePolicy::NonFaulting,
            _ => CachePolicy::Cached,
        }
    }

    pub const fn suffix(self) -> &'static str {
        match self {
            CachePolicy::Cached => "",
            CachePolicy::NonCached => ".nc",
            CachePolicy::NonAllocating => ".na",
            CachePolicy::NonFaulting => ".nf",
        }
    }
}

/// Conversion instruction kinds (paper §4 lists int/float/fixed conversions).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CvtKind {
    /// int32 -> float32
    I2F,
    /// float32 -> int32 (truncate toward zero)
    F2I,
    /// int32 -> float64 (pair destination)
    I2D,
    /// float64 (pair) -> int32
    D2I,
    /// float32 -> float64 (pair destination)
    F2D,
    /// float64 (pair) -> float32
    D2F,
    /// float32 -> S2.13 fixed (both lanes receive the value)
    F2X,
    /// S2.13 fixed (low lane) -> float32
    X2F,
}

impl CvtKind {
    pub const ALL: [CvtKind; 8] = [
        CvtKind::I2F,
        CvtKind::F2I,
        CvtKind::I2D,
        CvtKind::D2I,
        CvtKind::F2D,
        CvtKind::D2F,
        CvtKind::F2X,
        CvtKind::X2F,
    ];

    #[inline]
    pub const fn encode(self) -> u32 {
        match self {
            CvtKind::I2F => 0,
            CvtKind::F2I => 1,
            CvtKind::I2D => 2,
            CvtKind::D2I => 3,
            CvtKind::F2D => 4,
            CvtKind::D2F => 5,
            CvtKind::F2X => 6,
            CvtKind::X2F => 7,
        }
    }

    #[inline]
    pub const fn decode(bits: u32) -> CvtKind {
        match bits & 7 {
            0 => CvtKind::I2F,
            1 => CvtKind::F2I,
            2 => CvtKind::I2D,
            3 => CvtKind::D2I,
            4 => CvtKind::F2D,
            5 => CvtKind::D2F,
            6 => CvtKind::F2X,
            _ => CvtKind::X2F,
        }
    }

    /// Whether the destination is a register pair.
    #[inline]
    pub const fn dst_is_pair(self) -> bool {
        matches!(self, CvtKind::I2D | CvtKind::F2D)
    }

    /// Whether the source is a register pair.
    #[inline]
    pub const fn src_is_pair(self) -> bool {
        matches!(self, CvtKind::D2I | CvtKind::D2F)
    }

    pub const fn mnemonic(self) -> &'static str {
        match self {
            CvtKind::I2F => "i2f",
            CvtKind::F2I => "f2i",
            CvtKind::I2D => "i2d",
            CvtKind::D2I => "d2i",
            CvtKind::F2D => "f2d",
            CvtKind::D2F => "d2f",
            CvtKind::F2X => "f2x",
            CvtKind::X2F => "x2f",
        }
    }
}

/// Latency classes used by the timing model (paper §3.2 and §4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LatClass {
    /// Single-cycle ALU / SIMD / moves / sets.
    Single,
    /// Two-cycle fully pipelined integer multiply family.
    Mul,
    /// Four-cycle fully pipelined single-precision FP.
    FpSingle,
    /// Partially-pipelined double precision (latency 4, initiation 2).
    FpDouble,
    /// Six-cycle FU0 divide / reciprocal square root (single and S2.13).
    Div6,
    /// Non-pipelined integer divide.
    IDiv,
    /// Load: non-deterministic, scoreboarded (2-cycle load-to-use on hit).
    Load,
    /// Store / prefetch / membar / atomic: handled by the LSU.
    Store,
    /// Control transfer.
    Branch,
}

impl LatClass {
    /// Every class, in declaration order: `ALL[c as usize] == c`.
    pub const ALL: [LatClass; 9] = [
        LatClass::Single,
        LatClass::Mul,
        LatClass::FpSingle,
        LatClass::FpDouble,
        LatClass::Div6,
        LatClass::IDiv,
        LatClass::Load,
        LatClass::Store,
        LatClass::Branch,
    ];

    /// Whether results of this class are protected by the run-time
    /// scoreboard. Paper §3.2: "only the non-deterministic loads and long
    /// latency instructions are interlocked through a score-boarding
    /// mechanism" — loads (and the atomics sharing their class) plus the
    /// divide families. Everything else has a deterministic latency the
    /// compiler must schedule around.
    #[inline]
    pub const fn is_interlocked(self) -> bool {
        matches!(self, LatClass::Load | LatClass::IDiv | LatClass::Div6)
    }

    /// Deterministic-latency producer classes: results become visible a
    /// fixed number of cycles after issue (plus the bypass-network delay to
    /// the consuming unit) and are *not* interlocked on the real hardware.
    /// A read before that point is an exposed-latency hazard.
    #[inline]
    pub const fn is_compiler_scheduled(self) -> bool {
        matches!(
            self,
            LatClass::Single
                | LatClass::Mul
                | LatClass::FpSingle
                | LatClass::FpDouble
                | LatClass::Branch
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_eval() {
        assert_eq!(AluOp::Add.eval(3, 4), 7);
        assert_eq!(AluOp::Sub.eval(3, 4), (-1i32) as u32);
        assert_eq!(AluOp::Sll.eval(1, 33), 2); // shift counts mask to 5 bits
        assert_eq!(AluOp::Sra.eval(0x8000_0000, 31), 0xFFFF_FFFF);
        assert_eq!(AluOp::Srl.eval(0x8000_0000, 31), 1);
        assert_eq!(AluOp::AddSat.eval(i32::MAX as u32, 1), i32::MAX as u32);
        assert_eq!(AluOp::SubSat.eval(i32::MIN as u32, 1), i32::MIN as u32);
        assert_eq!(AluOp::AndNot.eval(0b1100, 0b1010), 0b0100);
    }

    #[test]
    fn cond_eval() {
        assert!(Cond::Eq.eval(0));
        assert!(Cond::Ne.eval(-1));
        assert!(Cond::Lt.eval(-1));
        assert!(Cond::Le.eval(0));
        assert!(Cond::Gt.eval(5));
        assert!(Cond::Ge.eval(0));
        assert!(!Cond::Gt.eval(0));
        for c in Cond::ALL {
            assert_eq!(Cond::decode(c.encode()), Some(c));
        }
        for c in Cond::SHORT {
            assert_eq!(Cond::decode_short(c.encode_short().unwrap()), c);
        }
        assert_eq!(Cond::Gt.encode_short(), None);
    }

    #[test]
    fn mem_width_sizes() {
        assert_eq!(MemWidth::B.bytes(), 1);
        assert_eq!(MemWidth::G.bytes(), 32);
        assert_eq!(MemWidth::G.regs(), 8);
        assert_eq!(MemWidth::L.regs(), 2);
        assert!(!MemWidth::Bu.valid_for_store());
        assert!(MemWidth::W.valid_for_store());
    }

    #[test]
    fn policy_round_trip() {
        for p in CachePolicy::ALL {
            assert_eq!(CachePolicy::decode(p.encode()), p);
        }
    }

    #[test]
    fn cvt_round_trip() {
        for k in CvtKind::ALL {
            assert_eq!(CvtKind::decode(k.encode()), k);
        }
        assert!(CvtKind::I2D.dst_is_pair());
        assert!(CvtKind::D2F.src_is_pair());
        assert!(!CvtKind::I2F.dst_is_pair());
    }
}
