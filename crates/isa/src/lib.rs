//! # majc-isa
//!
//! The MAJC instruction set architecture as implemented by the MAJC-5200
//! (Sudharsanan, *"MAJC-5200: A High Performance Microprocessor for
//! Multimedia Computing"*, IPPS/SPDP Workshops 2000).
//!
//! This crate defines:
//!
//! * [`reg::Reg`] — the 224-entry register file name space (96 globals +
//!   4×32 FU-locals, paper §3.2);
//! * [`instr::Instr`] — every instruction of paper §4: loads/stores in
//!   five widths and three cache policies, prefetch, membar and atomics,
//!   branches/call/jmpl, predication (conditional move/pick/store), ALU
//!   with saturating variants, 2-cycle pipelined multiplies and fused
//!   multiply-add, the SIMD subsystem (packed 16-bit arithmetic in four
//!   saturation modes, S.15/S2.13 fixed point, dot product, pixel
//!   distance, byte shuffle, bit-field extract, leading-zero detect,
//!   parallel divide/rsqrt), and single/double IEEE floating point;
//! * [`packet::Packet`] — variable-width VLIW packets (1-4 instructions,
//!   2-bit issue-width header, FU0-first slot rule);
//! * [`encode`] — a concrete 32-bit binary encoding with FU-relative 7-bit
//!   register specifiers (the paper does not publish Sun's encoding; ours
//!   preserves every architecturally visible property);
//! * [`fixed`] — the S.15 / S2.13 fixed-point formats and the four SIMD
//!   saturation modes;
//! * [`hash`] — FNV-1a 64, the content digest of program images
//!   ([`Program::digest`]), memory snapshots and reports.

pub mod encode;
pub mod fixed;
pub mod gen;
pub mod hash;
pub mod instr;
pub mod ops;
pub mod packet;
pub mod reg;
pub mod rng;

pub use encode::{
    decode_instr, decode_packet, decode_program, encode_instr, encode_packet, encode_program,
};
pub use fixed::{FixFmt, SatMode};
pub use hash::{fnv1a, fnv1a_extend};
pub use instr::{Instr, Off, RegList, Src};
pub use ops::{AluOp, CachePolicy, Cond, CvtKind, LatClass, MemWidth};
pub use packet::{Packet, Program, MAX_SLOTS};
pub use reg::{Reg, NUM_FUS, NUM_GLOBALS, NUM_LOCALS_PER_FU, NUM_REGS};
pub use rng::{mix64, SplitMix64, XorShift64, XorShift64Star};

/// Errors produced while constructing, encoding, or decoding instructions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IsaError {
    /// Instruction placed on a functional unit that cannot execute it.
    WrongUnit { fu: u8, instr: String },
    /// Register not visible from the executing functional unit.
    RegNotVisible { fu: u8, reg: String },
    /// Structurally invalid operand (odd pair base, bad store width, ...).
    BadOperand { instr: String },
    /// Immediate out of range for its encoding field.
    ImmOutOfRange { imm: i64, bits: u32 },
    /// Packet width outside 1..=4.
    BadPacketWidth(usize),
    /// Unrecognised or malformed instruction word.
    BadEncoding(u32),
}

impl core::fmt::Display for IsaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IsaError::WrongUnit { fu, instr } => {
                write!(f, "instruction cannot execute on FU{fu}: {instr}")
            }
            IsaError::RegNotVisible { fu, reg } => {
                write!(f, "register {reg} is not visible from FU{fu}")
            }
            IsaError::BadOperand { instr } => write!(f, "invalid operand: {instr}"),
            IsaError::ImmOutOfRange { imm, bits } => {
                write!(f, "immediate {imm} does not fit {bits} bits")
            }
            IsaError::BadPacketWidth(w) => write!(f, "packet width {w} outside 1..=4"),
            IsaError::BadEncoding(w) => write!(f, "malformed instruction word {w:#010x}"),
        }
    }
}

impl std::error::Error for IsaError {}
