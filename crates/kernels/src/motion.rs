//! Motion estimation, ±16 range, logarithmic search (Table 1; paper:
//! ~3000 cycles per motion vector).
//!
//! "Motion estimation for a video encoder is significantly sped up via the
//! byte permutation and pixel distance operations. Using a logarithmic
//! search mechanism, a motion vector with a ±16 range can be found within
//! about 3000 cycles" (paper §5).
//!
//! The 16×16 current block lives in 64 global registers. A SAD subroutine
//! (entered with `call`, returned with `jmpl`) evaluates one arbitrary-
//! aligned candidate: per row, five word loads + three register copies
//! build even-aligned pairs, four `byteshuf`s align the 16 reference
//! bytes, and four `pdist`s accumulate — the exact byte-permute +
//! pixel-distance pattern the paper describes. The driver runs a 4-level
//! logarithmic search (steps 8, 4, 2, 1 × 8 directions) with predicated
//! best-candidate updates (`cmp` + `cmove`, no branches).

use majc_asm::Asm;
use majc_isa::{AluOp, CachePolicy, Cond, Instr, MemWidth, Off, Program, Reg, Src};
use majc_mem::FlatMem;

use crate::harness::put_u8s;

/// Reference frame geometry.
pub const FRAME: usize = 128;
/// Block size.
pub const BLOCK: usize = 16;
/// Search centre (top-left of the centre candidate).
pub const CX: usize = 56;
pub const CY: usize = 56;

const REF_BASE: u32 = 0x0100_0000;
const CUR_BASE: u32 = 0x0110_0000;
const SHUF_BASE: u32 = 0x0111_0000;
pub const OUT_BASE: u32 = 0x0112_0000;

/// Byte-shuffle control selecting memory bytes `m..m+4` (little-endian
/// word order) from an even register pair holding 8 consecutive bytes.
pub fn shuf_ctl(m: usize) -> u32 {
    let idx = |k: usize| -> u32 {
        if k <= 3 {
            3 - k as u32
        } else {
            11 - k as u32
        }
    };
    (idx(m + 3) << 12) | (idx(m + 2) << 8) | (idx(m + 1) << 4) | idx(m)
}

/// SAD of the 16×16 block at `(x, y)` in `frame` vs `cur`.
pub fn sad(frame: &[u8], x: usize, y: usize, cur: &[u8]) -> u32 {
    let mut s = 0u32;
    for r in 0..BLOCK {
        for c in 0..BLOCK {
            let f = frame[(y + r) * FRAME + x + c] as i32;
            let k = cur[r * BLOCK + c] as i32;
            s += f.abs_diff(k);
        }
    }
    s
}

/// Search-direction deltas in raster byte offsets, in the kernel's order.
const DIRS: [i32; 8] = [
    -(FRAME as i32) - 1,
    -(FRAME as i32),
    -(FRAME as i32) + 1,
    -1,
    1,
    FRAME as i32 - 1,
    FRAME as i32,
    FRAME as i32 + 1,
];

/// Reference logarithmic search mirroring the kernel (same direction
/// order, strict-less updates). Returns (dx, dy, best_sad).
pub fn reference(frame: &[u8], cur: &[u8]) -> (i32, i32, u32) {
    let centre = (CY * FRAME + CX) as i32;
    let mut best_pos = centre;
    let mut best = sad(frame, CX, CY, cur);
    for shift in [3u32, 2, 1, 0] {
        let base = best_pos;
        for d in DIRS {
            let cand = base + (d << shift);
            let (x, y) = ((cand % FRAME as i32) as usize, (cand / FRAME as i32) as usize);
            let s = sad(frame, x, y, cur);
            if s < best {
                best = s;
                best_pos = cand;
            }
        }
    }
    let dx = best_pos % FRAME as i32 - CX as i32;
    let dy = best_pos / FRAME as i32 - CY as i32;
    (dx, dy, best)
}

// Register map.
const CAND: Reg = Reg::g(0); // SAD argument: candidate byte address
const SADR: Reg = Reg::g(1); // SAD result
const LINK: Reg = Reg::g(2); // return address
const ROWP: Reg = Reg::g(3);
const MOFF: Reg = Reg::g(4);
const CTL: Reg = Reg::g(5);
/// Aligned source words w0..w4 and the duplicated-pair layout g6..g13.
const W: [u8; 8] = [6, 7, 8, 9, 10, 11, 12, 13];
const SHUFP: Reg = Reg::g(14);
fn cur(i: usize) -> Reg {
    Reg::g(16 + i as u8)
}
const BEST_SAD: Reg = Reg::g(80);
const BEST_POS: Reg = Reg::g(81);
const STEP: Reg = Reg::g(82);
fn dir(i: usize) -> Reg {
    Reg::g(83 + i as u8)
}
const TMP: Reg = Reg::g(91);
const FLAG: Reg = Reg::g(92);
const OUTP: Reg = Reg::g(93);
fn sacc(fu: u8) -> Reg {
    Reg::l(fu, 0)
}

pub fn build(frame: &[u8], cur_block: &[u8]) -> (Program, FlatMem) {
    assert_eq!(frame.len(), FRAME * FRAME);
    assert_eq!(cur_block.len(), BLOCK * BLOCK);
    let mut mem = FlatMem::new();
    put_u8s(&mut mem, REF_BASE, frame);
    put_u8s(&mut mem, CUR_BASE, cur_block);
    for m in 0..4 {
        mem.write_u32(SHUF_BASE + 4 * m as u32, shuf_ctl(m));
    }

    let mut a = Asm::new(0);
    // ---- prologue: load the current block into g16..g79 ----
    a.set32(TMP, CUR_BASE);
    for i in 0..64 {
        a.op(Instr::Ld {
            w: MemWidth::W,
            pol: CachePolicy::Cached,
            rd: cur(i),
            base: TMP,
            off: Off::Imm((4 * (i % 32)) as i16),
        });
        if i == 31 {
            a.op(Instr::Alu { op: AluOp::Add, rd: TMP, rs1: TMP, src2: Src::Imm(128) });
        }
    }
    a.set32(SHUFP, SHUF_BASE);
    a.set32(OUTP, OUT_BASE);
    for (i, d) in DIRS.iter().enumerate() {
        a.set32(dir(i), *d as u32);
    }
    a.set32(BEST_POS, REF_BASE + (CY * FRAME + CX) as u32);
    // Centre SAD.
    a.op(Instr::Alu { op: AluOp::Or, rd: CAND, rs1: BEST_POS, src2: Src::Imm(0) });
    a.call(LINK, "sad");
    a.op(Instr::Alu { op: AluOp::Or, rd: BEST_SAD, rs1: SADR, src2: Src::Imm(0) });
    // Four refinement levels, eight directions each, fully predicated.
    for shift in [3i16, 2, 1, 0] {
        a.op(Instr::SetLo { rd: STEP, imm: shift });
        // The level's base position is frozen (matches `reference`).
        a.op(Instr::Alu { op: AluOp::Or, rd: Reg::g(94), rs1: BEST_POS, src2: Src::Imm(0) });
        for i in 0..8 {
            a.pack(&[
                Instr::Nop,
                Instr::Alu { op: AluOp::Sll, rd: TMP, rs1: dir(i), src2: Src::Reg(STEP) },
            ]);
            a.pack(&[
                Instr::Nop,
                Instr::Alu { op: AluOp::Add, rd: CAND, rs1: Reg::g(94), src2: Src::Reg(TMP) },
            ]);
            a.call(LINK, "sad");
            a.pack(&[
                Instr::Nop,
                Instr::Cmp { cond: Cond::Lt, rd: FLAG, rs1: SADR, rs2: BEST_SAD },
            ]);
            a.pack(&[
                Instr::CMove { cond: Cond::Ne, rc: FLAG, rd: BEST_SAD, rs: SADR },
                Instr::CMove { cond: Cond::Ne, rc: FLAG, rd: BEST_POS, rs: CAND },
            ]);
        }
    }
    // Store results: best position and SAD.
    a.op(Instr::St {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rs: BEST_POS,
        base: OUTP,
        off: Off::Imm(0),
    });
    a.op(Instr::St {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rs: BEST_SAD,
        base: OUTP,
        off: Off::Imm(4),
    });
    a.op(Instr::Halt);

    // ---- SAD subroutine ----
    a.label("sad");
    let w = |i: usize| Reg::g(W[i]);
    // Alignment: MOFF = addr & 3; ROWP = addr - MOFF; CTL = SHUFTAB[MOFF*4].
    a.pack(&[
        Instr::Nop,
        Instr::Alu { op: AluOp::And, rd: MOFF, rs1: CAND, src2: Src::Imm(3) },
        Instr::SetLo { rd: sacc(2), imm: 0 },
        Instr::SetLo { rd: sacc(3), imm: 0 },
    ]);
    a.pack(&[
        Instr::Nop,
        Instr::SetLo { rd: sacc(1), imm: 0 },
        Instr::Alu { op: AluOp::Sub, rd: ROWP, rs1: CAND, src2: Src::Reg(MOFF) },
        Instr::Alu { op: AluOp::Sll, rd: MOFF, rs1: MOFF, src2: Src::Imm(2) },
    ]);
    a.op(Instr::Ld {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rd: CTL,
        base: SHUFP,
        off: Off::Reg(MOFF),
    });
    let ldw = |rd: Reg, off: i16| Instr::Ld {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rd,
        base: ROWP,
        off: Off::Imm(off),
    };
    let mov = |rd: Reg, rs: Reg| Instr::Alu { op: AluOp::Or, rd, rs1: rs, src2: Src::Imm(0) };
    // Shuffle destinations: one per compute unit's locals plus g15, so the
    // four pdists land on the units that can read them.
    let s0 = Reg::l(1, 1);
    let s1 = Reg::l(3, 1);
    let s2 = Reg::l(2, 1);
    let s3 = Reg::g(15);
    for r in 0..BLOCK {
        // Nine packets per row, scheduled so nothing stalls: loads two
        // cycles ahead of movs, movs one cycle ahead of shuffles,
        // shuffles one cycle ahead of (same-unit) pdists.
        a.pack(&[ldw(w(0), 0)]);
        a.pack(&[ldw(w(1), 4)]);
        a.pack(&[ldw(w(3), 8)]);
        a.pack(&[ldw(w(5), 12), mov(w(2), w(1))]);
        a.pack(&[ldw(w(7), 16), Instr::Nop, mov(w(4), w(3))]);
        a.pack(&[
            Instr::Nop,
            Instr::ByteShuf { rd: s0, rs: w(0), ctl: CTL },
            mov(w(6), w(5)),
            Instr::ByteShuf { rd: s1, rs: w(2), ctl: CTL },
        ]);
        a.pack(&[
            Instr::Nop,
            Instr::ByteShuf { rd: s3, rs: w(6), ctl: CTL },
            Instr::ByteShuf { rd: s2, rs: w(4), ctl: CTL },
            Instr::PDist { rd: sacc(3), rs1: s1, rs2: cur(4 * r + 1) },
        ]);
        a.pack(&[
            Instr::Alu { op: AluOp::Add, rd: ROWP, rs1: ROWP, src2: Src::Imm(FRAME as i16) },
            Instr::PDist { rd: sacc(1), rs1: s0, rs2: cur(4 * r) },
            Instr::PDist { rd: sacc(2), rs1: s2, rs2: cur(4 * r + 2) },
        ]);
        a.pack(&[Instr::Nop, Instr::PDist { rd: sacc(1), rs1: s3, rs2: cur(4 * r + 3) }]);
    }
    // Combine the three accumulators into SADR and return. Each partial
    // is read by its own unit (locals are private).
    a.pack(&[
        Instr::Nop,
        Instr::Alu { op: AluOp::Or, rd: Reg::g(95), rs1: sacc(1), src2: Src::Imm(0) },
        Instr::Alu { op: AluOp::Or, rd: SADR, rs1: sacc(2), src2: Src::Imm(0) },
        Instr::Alu { op: AluOp::Or, rd: TMP, rs1: sacc(3), src2: Src::Imm(0) },
    ]);
    a.pack(&[Instr::Alu { op: AluOp::Add, rd: SADR, rs1: SADR, src2: Src::Reg(TMP) }]);
    a.op(Instr::Alu { op: AluOp::Add, rd: SADR, rs1: SADR, src2: Src::Reg(Reg::g(95)) });
    a.op(Instr::Jmpl { rd: TMP, base: LINK, off: 0 });
    (a.finish().expect("motion kernel assembles"), mem)
}

/// Read back (dx, dy, sad).
pub fn extract(mem: &mut FlatMem) -> (i32, i32, u32) {
    let pos = mem.read_u32(OUT_BASE) - REF_BASE;
    let s = mem.read_u32(OUT_BASE + 4);
    let dx = (pos % FRAME as u32) as i32 - CX as i32;
    let dy = (pos / FRAME as u32) as i32 - CY as i32;
    (dx, dy, s)
}

/// Generate a frame plus a current block displaced by (dx, dy) with noise.
pub fn workload(seed: u64, dx: i32, dy: i32) -> (Vec<u8>, Vec<u8>) {
    let mut rng = majc_isa::XorShift64::new(seed);
    // Smooth-ish random field so the SAD surface has a usable gradient.
    let mut frame = vec![0u8; FRAME * FRAME];
    for y in 0..FRAME {
        for x in 0..FRAME {
            let v = 128.0
                + 60.0 * ((x as f64) / 9.0).sin() * ((y as f64) / 7.0).cos()
                + 30.0 * ((x as f64) / 3.5).cos()
                + rng.next_f32() as f64 * 8.0;
            frame[y * FRAME + x] = v.clamp(0.0, 255.0) as u8;
        }
    }
    let (sx, sy) = ((CX as i32 + dx) as usize, (CY as i32 + dy) as usize);
    let mut cur = vec![0u8; BLOCK * BLOCK];
    for r in 0..BLOCK {
        for c in 0..BLOCK {
            let v = frame[(sy + r) * FRAME + sx + c] as i32 + (rng.next_i16(3) as i32);
            cur[r * BLOCK + c] = v.clamp(0, 255) as u8;
        }
    }
    (frame, cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{measure, run_func};

    #[test]
    fn shuffle_control_is_correct() {
        // m=0 must be the identity permutation of a word.
        assert_eq!(shuf_ctl(0), 0x0123);
        assert_eq!(shuf_ctl(1), 0x7012);
    }

    #[test]
    fn finds_the_planted_vector() {
        for (seed, dx, dy) in [(1u64, -5i32, 3i32), (2, 7, -6), (3, 0, 0), (4, 4, 8)] {
            let (frame, cur) = workload(seed, dx, dy);
            let (prog, mem) = build(&frame, &cur);
            let mut out = run_func(&prog, mem);
            let got = extract(&mut out);
            let want = reference(&frame, &cur);
            assert_eq!(got, want, "kernel and reference disagree (seed {seed})");
            // Logarithmic search is greedy: it can settle in a local
            // minimum of the SAD surface, so only moderate displacements
            // are reliably recovered on this field.
            assert!(
                (got.0 - dx).abs() <= 2 && (got.1 - dy).abs() <= 2,
                "planted ({dx},{dy}), found ({}, {})",
                got.0,
                got.1
            );
        }
    }

    #[test]
    fn cycles_near_paper_3000() {
        let (frame, cur) = workload(7, 6, -4);
        let (prog, mem) = build(&frame, &cur);
        let cycles = measure(&prog, mem);
        assert!(
            (2000..=7500).contains(&cycles),
            "motion estimation took {cycles} cycles (paper: ~3000)"
        );
    }
}
