//! 5×5 convolution over a 512×512 16-bit image (Table 1; paper: 1.65
//! Mcycles, ≈ 6.3 cycles/pixel).
//!
//! "Large register file aids in convolution operations since the filter
//! coefficients, image data, and the intermediate values can be easily
//! stored in registers" (paper §5): all 25 coefficients are replicated
//! into each compute unit's locals, a 5×9 window of image data lives in
//! globals, and five outputs are produced per loop iteration. Next-block
//! window reloads are woven into FU0 slots of the MAC packets, ordered
//! after the last reader of each window register (in-order issue makes
//! that exact), so the loop sustains one load and three MACs per cycle.
//!
//! Valid-region convolution: 500×508 outputs (borders skipped), output
//! value `(Σ k[r][c]·p[y+r][x+c]) >> SHIFT` stored as i16.

use std::collections::VecDeque;

use majc_asm::Asm;
use majc_isa::{AluOp, CachePolicy, Cond, Instr, MemWidth, Off, Program, Reg, Src};
use majc_mem::FlatMem;

use crate::harness::put_i16s;

pub const WIDTH: usize = 512;
pub const HEIGHT: usize = 512;
/// Outputs per row (84 blocks of 6).
pub const OUT_W: usize = 504;
/// Output rows.
pub const OUT_H: usize = HEIGHT - 4;
pub const SHIFT: u32 = 15;

const IN_BASE: u32 = 0x0100_0000;
pub const OUT_BASE: u32 = 0x0200_0000;
const ROW_BYTES: u32 = (WIDTH * 2) as u32;

/// Reference with the kernel's exact arithmetic (i32 MAC, arithmetic
/// shift, wrap to i16).
pub fn reference(img: &[i16], k: &[[i16; 5]; 5]) -> Vec<i16> {
    assert_eq!(img.len(), WIDTH * HEIGHT);
    let mut out = vec![0i16; OUT_W * OUT_H];
    for y in 0..OUT_H {
        for x in 0..OUT_W {
            let mut acc = 0i32;
            for (r, row) in k.iter().enumerate() {
                for (c, &kc) in row.iter().enumerate() {
                    acc = acc.wrapping_add(kc as i32 * img[(y + r) * WIDTH + x + c] as i32);
                }
            }
            out[y * OUT_W + x] = (acc >> SHIFT) as i16;
        }
    }
    out
}

/// A normalized smoothing kernel in S.15 (sums to ~32768).
pub fn demo_kernel() -> [[i16; 5]; 5] {
    let w = [1i32, 4, 6, 4, 1];
    let mut k = [[0i16; 5]; 5];
    let norm: i32 = 256; // sum of outer product of w = 16^2 = 256
    for r in 0..5 {
        for c in 0..5 {
            k[r][c] = (w[r] * w[c] * 32768 / norm) as i16;
        }
    }
    k
}

// Registers.
fn xr(r: usize) -> Reg {
    Reg::g(r as u8) // g0..g4: per-input-row pointers
}
const OP: Reg = Reg::g(5);
const BCOUNT: Reg = Reg::g(6);
const RCOUNT: Reg = Reg::g(7);
/// Window: row r, column slot c (0..10) in g16..g65.
fn win(r: usize, c: usize) -> Reg {
    Reg::g(16 + (r * 10 + c) as u8)
}
/// Output staging registers for FU0 stores.
fn stage(o: usize) -> Reg {
    Reg::g(66 + o as u8)
}
/// Accumulator of output `o` lives on its owning compute unit.
fn fu_of(o: usize) -> u8 {
    1 + (o % 3) as u8
}
fn acc(o: usize) -> Reg {
    Reg::l(fu_of(o), o as u8)
}
/// Coefficient (r, c) replicated into each compute unit's locals.
fn coef(fu: u8, r: usize, c: usize) -> Reg {
    Reg::l(fu, 6 + (r * 5 + c) as u8)
}

pub fn build(img: &[i16], k: &[[i16; 5]; 5]) -> (Program, FlatMem) {
    assert_eq!(img.len(), WIDTH * HEIGHT);
    let mut mem = FlatMem::new();
    put_i16s(&mut mem, IN_BASE, img);

    let mut a = Asm::new(0);
    for r in 0..5 {
        a.set32(xr(r), IN_BASE + r as u32 * ROW_BYTES);
    }
    a.set32(OP, OUT_BASE);
    a.set32(RCOUNT, OUT_H as u32);
    // Coefficients: build each value once in a staging global, then copy
    // into all three compute units' locals in one packet.
    for (r, krow) in k.iter().enumerate() {
        for (c, &kv) in krow.iter().enumerate() {
            a.set32(stage(0), kv as i32 as u32);
            a.pack(&[
                Instr::Nop,
                Instr::Alu { op: AluOp::Or, rd: coef(1, r, c), rs1: stage(0), src2: Src::Imm(0) },
                Instr::Alu { op: AluOp::Or, rd: coef(2, r, c), rs1: stage(0), src2: Src::Imm(0) },
                Instr::Alu { op: AluOp::Or, rd: coef(3, r, c), rs1: stage(0), src2: Src::Imm(0) },
            ]);
        }
    }
    let ldh = |rd: Reg, base: Reg, col: usize| Instr::Ld {
        w: MemWidth::H,
        pol: CachePolicy::Cached,
        rd,
        base,
        off: Off::Imm(2 * col as i16),
    };

    a.label("row");
    // Prime the window: columns 0..9 of all five rows.
    for r in 0..5 {
        for c in 0..10 {
            a.op(ldh(win(r, c), xr(r), c));
        }
    }
    a.op(Instr::SetLo { rd: BCOUNT, imm: (OUT_W / 6) as i16 });

    a.label("block");
    // Compute queue per FU; packet i takes entry i of each queue, so a
    // queue position is also a packet index.
    let mut cq: [VecDeque<Instr>; 3] = Default::default();
    for o in 0..6 {
        cq[fu_of(o) as usize - 1].push_back(Instr::SetLo { rd: acc(o), imm: 0 });
    }
    // Track, per window register, the packet index of its last reader in
    // this block: a next-block reload must issue strictly after it.
    let mut last_reader = [[0usize; 10]; 5];
    for (r, lr_row) in last_reader.iter_mut().enumerate() {
        for c in 0..5 {
            for o in 0..6 {
                let fu = fu_of(o) as usize - 1;
                cq[fu].push_back(Instr::MulAdd {
                    rd: acc(o),
                    rs1: coef(fu_of(o), r, c),
                    rs2: win(r, c + o),
                });
                let pos = cq[fu].len() - 1;
                let lr = &mut lr_row[c + o];
                *lr = (*lr).max(pos + 1);
            }
        }
    }
    // FU0 reload schedule: (earliest packet, load), in window order.
    let mut fu0: VecDeque<(usize, Instr)> = VecDeque::new();
    for (r, lr_row) in last_reader.iter().enumerate() {
        for (cw, &earliest) in lr_row.iter().enumerate() {
            fu0.push_back((earliest, ldh(win(r, cw), xr(r), 6 + cw)));
        }
    }
    fu0.make_contiguous().sort_by_key(|&(e, _)| e);
    // Emit: drain compute queues 3 per packet; an FU0 reload rides along
    // only once its earliest packet has been reached (write-after-read
    // safety is exact because issue is in order).
    let mut pkt = 0usize;
    loop {
        let remaining: usize = cq.iter().map(|q| q.len()).sum();
        if remaining == 0 {
            break;
        }
        let f0 = match fu0.front() {
            Some(&(earliest, ins)) if earliest <= pkt => {
                fu0.pop_front();
                ins
            }
            _ => Instr::Nop,
        };
        let mut slots = vec![f0];
        for q in cq.iter_mut() {
            slots.push(q.pop_front().unwrap_or(Instr::Nop));
        }
        while slots.len() > 1 && matches!(slots.last(), Some(Instr::Nop)) {
            slots.pop();
        }
        a.pack(&slots);
        pkt += 1;
    }
    let mut fu0: VecDeque<Instr> = fu0.into_iter().map(|(_, i)| i).collect();
    // Combine: shift each accumulator into a staging global on its own FU.
    a.pack(&[
        fu0.pop_front().unwrap_or(Instr::Nop),
        Instr::Alu { op: AluOp::Sra, rd: stage(0), rs1: acc(0), src2: Src::Imm(SHIFT as i16) },
        Instr::Alu { op: AluOp::Sra, rd: stage(1), rs1: acc(1), src2: Src::Imm(SHIFT as i16) },
        Instr::Alu { op: AluOp::Sra, rd: stage(2), rs1: acc(2), src2: Src::Imm(SHIFT as i16) },
    ]);
    a.pack(&[
        fu0.pop_front().unwrap_or(Instr::Nop),
        Instr::Alu { op: AluOp::Sra, rd: stage(3), rs1: acc(3), src2: Src::Imm(SHIFT as i16) },
        Instr::Alu { op: AluOp::Sra, rd: stage(4), rs1: acc(4), src2: Src::Imm(SHIFT as i16) },
        Instr::Alu { op: AluOp::Sra, rd: stage(5), rs1: acc(5), src2: Src::Imm(SHIFT as i16) },
    ]);
    // Drain remaining reloads, then store outputs and advance pointers.
    while let Some(op) = fu0.pop_front() {
        a.op(op);
    }
    for o in 0..6 {
        let st = Instr::St {
            w: MemWidth::H,
            pol: CachePolicy::Cached,
            rs: stage(o),
            base: OP,
            off: Off::Imm(2 * o as i16),
        };
        let mut slots = vec![st];
        if o < 5 {
            slots.push(Instr::Alu { op: AluOp::Add, rd: xr(o), rs1: xr(o), src2: Src::Imm(12) });
        }
        a.pack(&slots);
    }
    a.op(Instr::Prefetch { base: xr(4), off: 64 });
    a.pack(&[
        Instr::Alu { op: AluOp::Add, rd: OP, rs1: OP, src2: Src::Imm(12) },
        Instr::Alu { op: AluOp::Sub, rd: BCOUNT, rs1: BCOUNT, src2: Src::Imm(1) },
    ]);
    a.br(Cond::Gt, BCOUNT, "block", true);
    // Row epilogue: the row pointers advanced 12 bytes per block over 84
    // blocks = 1008 bytes; a row is 1024, so add 16 to land on the next
    // row. The output pointer advanced exactly one output row.
    a.pack(&[
        Instr::Alu { op: AluOp::Add, rd: xr(0), rs1: xr(0), src2: Src::Imm(16) },
        Instr::Alu { op: AluOp::Add, rd: xr(1), rs1: xr(1), src2: Src::Imm(16) },
        Instr::Alu { op: AluOp::Add, rd: xr(2), rs1: xr(2), src2: Src::Imm(16) },
        Instr::Alu { op: AluOp::Add, rd: xr(3), rs1: xr(3), src2: Src::Imm(16) },
    ]);
    a.pack(&[
        Instr::Alu { op: AluOp::Add, rd: xr(4), rs1: xr(4), src2: Src::Imm(16) },
        Instr::Alu { op: AluOp::Sub, rd: RCOUNT, rs1: RCOUNT, src2: Src::Imm(1) },
    ]);
    a.br(Cond::Gt, RCOUNT, "row", true);
    a.op(Instr::Halt);
    (a.finish().expect("convolve kernel assembles"), mem)
}

pub fn extract(mem: &mut FlatMem) -> Vec<i16> {
    crate::harness::get_i16s(mem, OUT_BASE, OUT_W * OUT_H)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_func, run_warm, MemModel};
    use majc_isa::XorShift64;

    fn workload() -> Vec<i16> {
        let mut rng = XorShift64::new(13);
        (0..WIDTH * HEIGHT).map(|_| rng.next_i16(255).abs()).collect()
    }

    #[test]
    fn matches_reference() {
        let img = workload();
        let k = demo_kernel();
        let (prog, mem) = build(&img, &k);
        let mut out = run_func(&prog, mem);
        let got = extract(&mut out);
        let want = reference(&img, &k);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "output {i} ({}, {})", i % OUT_W, i / OUT_W);
        }
    }

    #[test]
    fn smoothing_kernel_preserves_dc() {
        // A constant image through a ~unity-gain kernel stays ~constant.
        let img = vec![100i16; WIDTH * HEIGHT];
        let want = reference(&img, &demo_kernel());
        assert!(want.iter().all(|&v| (95..=100).contains(&v)), "got {}", want[0]);
    }

    #[test]
    fn cycles_near_paper_1_65m() {
        let img = workload();
        let (prog, mem) = build(&img, &demo_kernel());
        let cycles =
            run_warm(&prog, mem, MemModel::Dram, majc_core::TimingConfig::default()).stats.cycles;
        assert!(
            (1_000_000..=3_600_000).contains(&cycles),
            "5x5 convolution took {cycles} cycles (paper: 1.65M)"
        );
    }
}
