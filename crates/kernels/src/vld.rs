//! MPEG-2-style variable-length decode + inverse zigzag + inverse
//! quantisation (Table 1; paper: 27 Msymbols/s at 500 MHz ≈ 18.5
//! cycles/symbol).
//!
//! "The versatile bit and byte manipulation operations help the variable
//! length decoding... one can decode a variable length symbol and perform
//! inverse zig-zag transform and inverse quantization within 18 cycles"
//! (paper §5). The decode recurrence is inherently serial: extract a
//! 12-bit window (`bitext` spanning a register pair), look the code up,
//! extract its length, advance the bit position, re-centre the window —
//! the IZZ/IQ work hides in the shadow of that chain on FU1-FU3.
//!
//! The bitstream codes are Exp-Golomb over a synthetic (run, level)
//! alphabet (the paper's actual MPEG-2 tables are not reproduced; DESIGN.md
//! substitution 4), decoded through a 4096-entry flat table; a second
//! table gives each scan position's zigzag offset and quantiser step in
//! one load.

use majc_asm::Asm;
use majc_isa::{AluOp, CachePolicy, Cond, Instr, MemWidth, Off, Program, Reg, Src, XorShift64};
use majc_mem::FlatMem;

use crate::harness::put_u32s;

/// Symbol alphabet: EOB plus (run 0..=6, |level| 1..=4) — 57 symbols, all
/// with Exp-Golomb codes of at most 11 bits.
pub const EOB: usize = 0;
pub const MAX_RUN: usize = 6;
pub const MAX_LEVEL: i32 = 4;

const TAB_BITS: u32 = 12;

const STREAM_BASE: u32 = 0x0100_0000;
const VLC_TAB: u32 = 0x0110_0000;
const ZZQ_TAB: u32 = 0x0112_0000;
pub const OUT_BASE: u32 = 0x0113_0000;

/// Map a symbol index to (run, level); index 0 is EOB.
pub fn symbol_of(k: usize) -> Option<(u8, i16)> {
    if k == EOB {
        return None;
    }
    let k = k - 1;
    let run = (k / (2 * MAX_LEVEL as usize)) as u8;
    let l = k % (2 * MAX_LEVEL as usize);
    let mag = (l / 2 + 1) as i16;
    Some((run, if l.is_multiple_of(2) { mag } else { -mag }))
}

pub fn index_of(run: u8, level: i16) -> usize {
    let l = (level.unsigned_abs() as usize - 1) * 2 + (level < 0) as usize;
    1 + run as usize * 2 * MAX_LEVEL as usize + l
}

/// Exp-Golomb code for index `k`: (bits, len), MSB-first.
pub fn code_of(k: usize) -> (u32, u32) {
    let v = k as u32 + 1;
    let nbits = 32 - v.leading_zeros(); // floor(log2(v)) + 1
    let len = 2 * nbits - 1;
    (v, len)
}

/// The flat decode table: for every 12-bit window, (len<<24 | run<<16 |
/// level as u16).
pub fn vlc_table() -> Vec<u32> {
    let mut tab = vec![0u32; 1 << TAB_BITS];
    let n_symbols = 1 + (MAX_RUN + 1) * 2 * MAX_LEVEL as usize;
    for k in 0..n_symbols {
        let (bits, len) = code_of(k);
        assert!(len <= TAB_BITS, "code too long");
        let hi = bits << (TAB_BITS - len);
        let span = 1u32 << (TAB_BITS - len);
        let (run, level) = symbol_of(k).unwrap_or((63, 0));
        let entry = (len << 24) | ((run as u32) << 16) | (level as u16 as u32);
        for w in hi..hi + span {
            tab[w as usize] = entry;
        }
    }
    tab
}

/// Zigzag scan order (MPEG-2).
pub const ZIGZAG: [u8; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// Quantiser matrix (simplified intra-style ramp).
pub fn qmat(pos: usize) -> u32 {
    8 + 2 * (pos as u32 / 8 + pos as u32 % 8)
}

/// The combined zigzag/quant table: `entry[scan] = qstep << 16 | byte_offset`.
pub fn zzq_table() -> Vec<u32> {
    (0..64).map(|s| (qmat(s) << 16) | (ZIGZAG[s] as u32 * 2)).collect()
}

/// A coded block: (run, level) pairs then EOB.
pub type BlockSyms = Vec<(u8, i16)>;

/// Encode blocks into a bitstream of 32-bit big-endian-bit words.
pub fn encode(blocks: &[BlockSyms]) -> (Vec<u32>, usize) {
    let mut bits: Vec<bool> = Vec::new();
    let mut push = |code: u32, len: u32| {
        for i in (0..len).rev() {
            bits.push(code >> i & 1 == 1);
        }
    };
    let mut nsym = 0;
    for b in blocks {
        for &(run, level) in b {
            let (c, l) = code_of(index_of(run, level));
            push(c, l);
            nsym += 1;
        }
        let (c, l) = code_of(EOB);
        push(c, l);
        nsym += 1;
    }
    // Pad with zeros (never a valid code start... EOB is '1', so pad with
    // zeros and rely on the block count to stop).
    while !bits.len().is_multiple_of(32) || bits.len() < 64 {
        bits.push(false);
    }
    let words = bits.chunks(32).map(|c| c.iter().fold(0u32, |a, &b| (a << 1) | b as u32)).collect();
    (words, nsym)
}

/// Reference decoder over the bit-vector, mirroring the kernel: returns
/// dequantised blocks (row-major `i16[64]` each).
pub fn reference(stream: &[u32], nblocks: usize) -> Vec<[i16; 64]> {
    let tab = vlc_table();
    let zzq = zzq_table();
    let mut out = Vec::new();
    let mut pos = 0usize; // absolute bit position
    for _ in 0..nblocks {
        let mut blk = [0i16; 64];
        let mut scan = 0usize;
        loop {
            let wi = pos >> 5;
            let window =
                ((stream[wi] as u64) << 32) | stream.get(wi + 1).copied().unwrap_or(0) as u64;
            let idx = ((window << (pos & 31)) >> (64 - TAB_BITS)) as usize;
            let e = tab[idx];
            let len = e >> 24;
            let run = (e >> 16) & 0xFF;
            let level = e as u16 as i16;
            pos += len as usize;
            if run == 63 {
                break;
            }
            scan += run as usize + 1;
            let z = zzq[scan.min(63)];
            let qstep = (z >> 16) as i16;
            let off = (z & 0xFFFF) as usize / 2;
            blk[off] = level.wrapping_mul(qstep);
            if scan >= 63 {
                break;
            }
        }
        out.push(blk);
        scan = 0;
        let _ = scan;
    }
    out
}

// Registers.
const SP: Reg = Reg::g(0); // stream base
const TP: Reg = Reg::g(1); // vlc table base
const ZP: Reg = Reg::g(2); // zzq table base
const OP: Reg = Reg::g(3); // output block base
const POS: Reg = Reg::g(4); // absolute bit position
const W0: Reg = Reg::g(6); // window pair (even)
const W1: Reg = Reg::g(7);
const CTLW: Reg = Reg::g(8); // bitext control for the 12-bit window
const IDX: Reg = Reg::g(9);
const ENT: Reg = Reg::g(10);
const LEN: Reg = Reg::g(11);
const RUN: Reg = Reg::g(12);
const LEV: Reg = Reg::g(13);
const SCAN: Reg = Reg::g(14);
const ZENT: Reg = Reg::g(15);
const QST: Reg = Reg::g(16);
const ZOFF: Reg = Reg::g(17);
const WADDR: Reg = Reg::g(18);
const BLKCNT: Reg = Reg::g(19);
const TMP: Reg = Reg::g(20);
const EOBF: Reg = Reg::g(21);
/// Constant 63: the EOB run marker and the scan limit.
const C63: Reg = Reg::g(22);
/// WADDR + 4 for the second window word.
const W4A: Reg = Reg::g(23);

/// Build the decoder for `nblocks` blocks.
pub fn build(stream: &[u32], nblocks: usize) -> (Program, FlatMem) {
    let mut mem = FlatMem::new();
    // Stream words are bit-containers; store them big-endian-bit as u32.
    put_u32s(&mut mem, STREAM_BASE, stream);
    put_u32s(&mut mem, VLC_TAB, &vlc_table());
    put_u32s(&mut mem, ZZQ_TAB, &zzq_table());

    let mut a = Asm::new(0);
    a.set32(SP, STREAM_BASE);
    a.set32(TP, VLC_TAB);
    a.set32(ZP, ZZQ_TAB);
    a.set32(OP, OUT_BASE);
    a.set32(POS, 0);
    a.set32(BLKCNT, nblocks as u32);
    a.set32(C63, 63);
    a.op(Instr::Ld {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rd: W0,
        base: SP,
        off: Off::Imm(0),
    });
    a.op(Instr::Ld {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rd: W1,
        base: SP,
        off: Off::Imm(4),
    });

    a.label("block");
    a.op(Instr::SetLo { rd: SCAN, imm: 0 });

    a.label("symbol");
    // ctl = (TAB_BITS-1)<<8 | (pos & 31): window is (W0,W1) with W0 the
    // most significant word.
    a.pack(&[Instr::Nop, Instr::Alu { op: AluOp::And, rd: CTLW, rs1: POS, src2: Src::Imm(31) }]);
    a.pack(&[
        Instr::Nop,
        Instr::Alu {
            op: AluOp::Or,
            rd: CTLW,
            rs1: CTLW,
            src2: Src::Imm(((TAB_BITS - 1) << 8) as i16),
        },
    ]);
    a.pack(&[Instr::Nop, Instr::BitExt { rd: IDX, rs: W0, ctl: CTLW }]);
    a.pack(&[Instr::Nop, Instr::Alu { op: AluOp::Sll, rd: IDX, rs1: IDX, src2: Src::Imm(2) }]);
    a.op(Instr::Ld {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rd: ENT,
        base: TP,
        off: Off::Reg(IDX),
    });
    // Crack the entry; all three fields in one packet.
    a.pack(&[
        Instr::Nop,
        Instr::Alu { op: AluOp::Srl, rd: LEN, rs1: ENT, src2: Src::Imm(24) },
        Instr::Alu { op: AluOp::Sll, rd: LEV, rs1: ENT, src2: Src::Imm(16) },
        Instr::Alu { op: AluOp::Srl, rd: RUN, rs1: ENT, src2: Src::Imm(16) },
    ]);
    a.pack(&[
        Instr::Nop,
        Instr::Alu { op: AluOp::Add, rd: POS, rs1: POS, src2: Src::Reg(LEN) },
        Instr::Alu { op: AluOp::Sra, rd: LEV, rs1: LEV, src2: Src::Imm(16) },
        Instr::Alu { op: AluOp::And, rd: RUN, rs1: RUN, src2: Src::Imm(255) },
    ]);
    // Re-centre the window on the new word boundary; EOB test rides along.
    a.pack(&[
        Instr::Nop,
        Instr::Alu { op: AluOp::Srl, rd: WADDR, rs1: POS, src2: Src::Imm(3) },
        Instr::Cmp { cond: Cond::Eq, rd: EOBF, rs1: RUN, rs2: C63 },
        Instr::Alu { op: AluOp::Add, rd: SCAN, rs1: SCAN, src2: Src::Reg(RUN) },
    ]);
    a.pack(&[
        Instr::Nop,
        Instr::Alu { op: AluOp::AndNot, rd: WADDR, rs1: WADDR, src2: Src::Imm(3) },
        Instr::Alu { op: AluOp::Add, rd: SCAN, rs1: SCAN, src2: Src::Imm(1) },
    ]);
    a.pack(&[
        Instr::Ld {
            w: MemWidth::W,
            pol: CachePolicy::Cached,
            rd: W0,
            base: SP,
            off: Off::Reg(WADDR),
        },
        Instr::Alu { op: AluOp::Add, rd: W4A, rs1: WADDR, src2: Src::Imm(4) },
    ]);
    // The zigzag/quant lookup needs scan*4 clamped to 63.
    a.pack(&[
        Instr::Nop,
        Instr::SetLo { rd: TMP, imm: 63 },
        Instr::Alu { op: AluOp::Sll, rd: ZOFF, rs1: SCAN, src2: Src::Imm(2) },
    ]);
    a.pack(&[
        Instr::Nop,
        Instr::Cmp { cond: Cond::Lt, rd: QST, rs1: TMP, rs2: SCAN }, // scan > 63?
        Instr::Alu { op: AluOp::Sll, rd: TMP, rs1: TMP, src2: Src::Imm(2) },
    ]);
    a.pack(&[Instr::Nop, Instr::CMove { cond: Cond::Ne, rc: QST, rd: ZOFF, rs: TMP }]);
    a.op(Instr::Ld {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rd: ZENT,
        base: ZP,
        off: Off::Reg(ZOFF),
    });
    a.op(Instr::Ld {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rd: W1,
        base: SP,
        off: Off::Reg(W4A),
    });
    a.pack(&[
        Instr::Nop,
        Instr::Alu { op: AluOp::Srl, rd: QST, rs1: ZENT, src2: Src::Imm(16) },
        Instr::Alu { op: AluOp::And, rd: ZOFF, rs1: ZENT, src2: Src::Imm(255) },
    ]);
    a.pack(&[Instr::Nop, Instr::Mul { rd: LEV, rs1: LEV, rs2: QST }]);
    // Skip the store on EOB; branch also exits the symbol loop.
    a.br(Cond::Ne, EOBF, "eob", false);
    a.op(Instr::Alu { op: AluOp::Add, rd: TMP, rs1: OP, src2: Src::Reg(ZOFF) });
    a.op(Instr::St {
        w: MemWidth::H,
        pol: CachePolicy::Cached,
        rs: LEV,
        base: TMP,
        off: Off::Imm(0),
    });
    // Blocks whose run overshoots 63 end implicitly.
    a.pack(&[Instr::Nop, Instr::Cmp { cond: Cond::Lt, rd: TMP, rs1: SCAN, rs2: C63 }]);
    a.br(Cond::Ne, TMP, "symbol", true);
    a.label("eob");
    a.pack(&[
        Instr::Alu { op: AluOp::Add, rd: OP, rs1: OP, src2: Src::Imm(128) },
        Instr::Alu { op: AluOp::Sub, rd: BLKCNT, rs1: BLKCNT, src2: Src::Imm(1) },
    ]);
    a.br(Cond::Gt, BLKCNT, "block", true);
    a.op(Instr::Halt);
    (a.finish().expect("vld kernel assembles"), mem)
}

pub fn extract(mem: &mut FlatMem, nblocks: usize) -> Vec<[i16; 64]> {
    (0..nblocks)
        .map(|b| {
            let v = crate::harness::get_i16s(mem, OUT_BASE + 128 * b as u32, 64);
            v.try_into().unwrap()
        })
        .collect()
}

/// Generate random coded blocks with geometric-ish run/level statistics.
pub fn workload(seed: u64, nblocks: usize) -> Vec<BlockSyms> {
    let mut rng = XorShift64::new(seed);
    (0..nblocks)
        .map(|_| {
            let mut syms = Vec::new();
            let mut scan = 0usize;
            loop {
                let run = [0, 0, 0, 1, 1, 2, 3, 5][rng.next_range(8)] as u8;
                let mag = [1, 1, 1, 2, 2, 3, 4][rng.next_range(7)] as i16;
                let level = if rng.next_range(2) == 0 { mag } else { -mag };
                scan += run as usize + 1;
                if scan > 60 {
                    break;
                }
                syms.push((run, level));
                if syms.len() >= 20 && rng.next_range(3) == 0 {
                    break;
                }
            }
            syms
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{measure, run_func};

    #[test]
    fn codes_are_prefix_free_and_short() {
        let n = 1 + (MAX_RUN + 1) * 2 * MAX_LEVEL as usize;
        for k in 0..n {
            let (_, len) = code_of(k);
            assert!(len <= 11, "symbol {k} has length {len}");
            assert_eq!(symbol_of(k).map(|(r, l)| index_of(r, l)), symbol_of(k).map(|_| k));
        }
    }

    #[test]
    fn encode_decode_round_trip_in_reference() {
        let blocks = workload(5, 8);
        let (stream, _) = encode(&blocks);
        let got = reference(&stream, blocks.len());
        for (b, syms) in blocks.iter().enumerate() {
            let mut want = [0i16; 64];
            let mut scan = 0usize;
            for &(run, level) in syms {
                scan += run as usize + 1;
                let off = ZIGZAG[scan.min(63)] as usize;
                want[off] = level.wrapping_mul(qmat(scan.min(63)) as i16);
            }
            assert_eq!(got[b], want, "block {b}");
        }
    }

    #[test]
    fn kernel_matches_reference() {
        let blocks = workload(6, 12);
        let (stream, _) = encode(&blocks);
        let (prog, mem) = build(&stream, blocks.len());
        let mut out = run_func(&prog, mem);
        let got = extract(&mut out, blocks.len());
        let want = reference(&stream, blocks.len());
        assert_eq!(got, want);
    }

    #[test]
    fn throughput_near_paper_27_msym_per_s() {
        let blocks = workload(7, 64);
        let (stream, nsym) = encode(&blocks);
        let (prog, mem) = build(&stream, blocks.len());
        let cycles = measure(&prog, mem);
        let cyc_per_sym = cycles as f64 / nsym as f64;
        // Paper: 500e6 / 27e6 = 18.5 cycles/symbol.
        assert!(
            (10.0..=40.0).contains(&cyc_per_sym),
            "{cyc_per_sym:.1} cycles/symbol (paper: 18.5)"
        );
    }
}
