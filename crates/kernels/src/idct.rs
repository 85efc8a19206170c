//! 8×8 inverse DCT (Table 1; paper: 304 cycles).
//!
//! Classic 13-bit fixed-point even/odd-decomposition IDCT (the "islow"
//! structure used by JPEG/MPEG decoders: 11 multiplies, ~29 adds per
//! 8-point transform), two passes over a 64-entry register-resident block —
//! the whole 8×8 block, all constants, and the temp pool fit the 96-entry
//! global file at once, which is the register-richness point paper §5
//! makes. Input loads and output stores weave through FU0 slots of the
//! compute packets.

use std::collections::VecDeque;

use majc_asm::Asm;
use majc_isa::{AluOp, CachePolicy, Instr, MemWidth, Off, Program, Reg, Src};
use majc_mem::FlatMem;

use crate::harness::{layout, put_i16s};

pub const CONST_BITS: u32 = 13;
pub const PASS1_BITS: u32 = 2;

// 13-bit fixed-point constants (round(c * 8192)).
const C_0_298: i32 = 2446;
const C_0_390: i32 = 3196;
const C_0_541: i32 = 4433;
const C_0_765: i32 = 6270;
const C_0_899: i32 = 7373;
const C_1_175: i32 = 9633;
const C_1_501: i32 = 12299;
const C_1_847: i32 = 15137;
const C_1_961: i32 = 16069;
const C_2_053: i32 = 16819;
const C_2_562: i32 = 20995;
const C_3_072: i32 = 25172;

/// One 8-point 1-D IDCT in i32, mirroring the kernel op-for-op.
fn idct_1d(x: [i32; 8], shift: u32, rnd: i32) -> [i32; 8] {
    // Even part.
    let tmp0 = (x[0] + x[4]) << CONST_BITS;
    let tmp1 = (x[0] - x[4]) << CONST_BITS;
    let z1 = (x[2] + x[6]).wrapping_mul(C_0_541);
    let tmp2 = z1 + x[6].wrapping_mul(-C_1_847);
    let tmp3 = z1 + x[2].wrapping_mul(C_0_765);
    let t10 = tmp0 + tmp3;
    let t13 = tmp0 - tmp3;
    let t11 = tmp1 + tmp2;
    let t12 = tmp1 - tmp2;
    // Odd part.
    let z1 = x[7] + x[1];
    let z2 = x[5] + x[3];
    let z3 = x[7] + x[3];
    let z4 = x[5] + x[1];
    let z5 = (z3 + z4).wrapping_mul(C_1_175);
    let b0 = x[7].wrapping_mul(C_0_298);
    let b1 = x[5].wrapping_mul(C_2_053);
    let b2 = x[3].wrapping_mul(C_3_072);
    let b3 = x[1].wrapping_mul(C_1_501);
    let z1m = z1.wrapping_mul(-C_0_899);
    let z2m = z2.wrapping_mul(-C_2_562);
    let z3m = z3.wrapping_mul(-C_1_961) + z5;
    let z4m = z4.wrapping_mul(-C_0_390) + z5;
    let t0 = b0 + z1m + z3m;
    let t1 = b1 + z2m + z4m;
    let t2 = b2 + z2m + z3m;
    let t3 = b3 + z1m + z4m;
    [
        (t10 + t3 + rnd) >> shift,
        (t11 + t2 + rnd) >> shift,
        (t12 + t1 + rnd) >> shift,
        (t13 + t0 + rnd) >> shift,
        (t13 - t0 + rnd) >> shift,
        (t12 - t1 + rnd) >> shift,
        (t11 - t2 + rnd) >> shift,
        (t10 - t3 + rnd) >> shift,
    ]
}

/// Reference 2-D IDCT with the kernel's exact arithmetic.
pub fn reference(coeffs: &[i16; 64]) -> [i16; 64] {
    let mut w = [0i32; 64];
    let sh1 = CONST_BITS - PASS1_BITS;
    let r1 = 1i32 << (sh1 - 1);
    for r in 0..8 {
        let row: [i32; 8] = std::array::from_fn(|i| coeffs[r * 8 + i] as i32);
        let out = idct_1d(row, sh1, r1);
        w[r * 8..r * 8 + 8].copy_from_slice(&out);
    }
    let sh2 = CONST_BITS + PASS1_BITS + 3;
    let r2 = 1i32 << (sh2 - 1);
    let mut out = [0i16; 64];
    for c in 0..8 {
        let col: [i32; 8] = std::array::from_fn(|i| w[i * 8 + c]);
        let o = idct_1d(col, sh2, r2);
        for i in 0..8 {
            out[i * 8 + c] = o[i] as i16;
        }
    }
    out
}

// Register map: constants g3..g14, RND1 g3? Constants and rounds:
const CONSTS: [(u8, i32); 12] = [
    (3, C_0_541),
    (4, -C_1_847),
    (5, C_0_765),
    (6, C_1_175),
    (7, C_0_298),
    (8, C_2_053),
    (9, C_3_072),
    (10, C_1_501),
    (11, -C_0_899),
    (12, -C_2_562),
    (13, -C_1_961),
    (14, -C_0_390),
];
const RND: Reg = Reg::g(15);
fn creg(v: i32) -> Reg {
    Reg::g(CONSTS.iter().find(|&&(_, c)| c == v).expect("const registered").0)
}
/// The 8×8 block, row-major, in g16..g79.
fn blk(i: usize) -> Reg {
    Reg::g(16 + i as u8)
}
/// Temp pool g80..g94.
fn t(i: usize) -> Reg {
    Reg::g(80 + i as u8)
}
const XP: Reg = Reg::g(0);
const OP: Reg = Reg::g(1);

/// A small list scheduler: buffers compute ops and packs up to three
/// mutually safe ops per packet (FU0 slot fed from a queue), reordering
/// within a lookahead window under RAW/WAR/WAW constraints. This is the
/// compiler-side instruction scheduling the paper assumes ("the
/// instruction scheduling is a compiler driven task in a VLIW machine",
/// §3.2), in miniature.
pub(crate) struct Weaver {
    /// Buffered compute ops with their program-order sequence numbers.
    buf: Vec<(u64, Instr)>,
    /// Queued FU0 ops tagged with the compute-op count at push time, so
    /// program order between the two streams is preserved exactly.
    fu0: VecDeque<(u64, Instr)>,
    /// Compute ops pushed so far.
    seq: u64,
    window: usize,
    /// Which compute unit last wrote each register (bypass affinity: a
    /// consumer on the producer's unit avoids the +1 cross-unit delay).
    last_fu: [u8; 224],
    /// Estimated issue clock and per-register ready times, used to avoid
    /// packing timing-stalled ops when ready ones are available.
    clock: u64,
    ready: [u64; 224],
}

fn defs_overlap(x: &Instr, regs: &majc_isa::RegList) -> bool {
    x.defs().iter().any(|d| regs.iter().any(|r| r == d))
}

fn uses_overlap(x: &Instr, regs: &majc_isa::RegList) -> bool {
    x.uses().iter().any(|u| regs.iter().any(|r| r == u))
}

impl Weaver {
    pub(crate) fn new() -> Weaver {
        Weaver::with_window(16)
    }

    pub(crate) fn with_window(window: usize) -> Weaver {
        Weaver {
            buf: Vec::new(),
            fu0: VecDeque::new(),
            seq: 0,
            window,
            last_fu: [0; 224],
            clock: 0,
            ready: [0; 224],
        }
    }

    pub(crate) fn op(&mut self, a: &mut Asm, ins: Instr) {
        self.seq += 1;
        self.buf.push((self.seq, ins));
        if self.buf.len() >= self.window {
            self.emit_packet(a);
        }
    }

    /// Queue an FU0 (memory) op at the current program position: it comes
    /// after every compute op pushed so far and before all later ones.
    pub(crate) fn push_fu0(&mut self, ins: Instr) {
        self.fu0.push_back((self.seq, ins));
    }

    /// Emit a queued FU0 op immediately as its own packet (preloads that
    /// must precede all compute).
    pub(crate) fn pop_fu0_now(&mut self, a: &mut Asm) {
        let (_, ins) = self.fu0.pop_front().expect("fu0 queue non-empty");
        a.op(ins);
    }

    /// Pick up to three ops that may issue together now. An op may be
    /// hoisted past earlier unissued ops only if it neither reads nor
    /// writes their destinations nor writes their sources; ops sharing a
    /// packet must not read or rewrite each other's destinations (packet
    /// slots read pre-packet state).
    fn emit_packet(&mut self, a: &mut Asm) {
        // Register-order-eligible candidates: an op may issue now only if
        // it has no RAW/WAW/WAR against earlier unissued compute ops *and*
        // no dependence on a still-queued FU0 op that precedes it (a load
        // feeding it, a store reading a register it overwrites, ...).
        let mut eligible: Vec<usize> = Vec::new();
        'cand: for i in 0..self.buf.len() {
            let (sx, ref x) = self.buf[i];
            for (_, y) in self.buf[..i].iter() {
                let yd = y.defs();
                let yu = y.uses();
                if uses_overlap(x, &yd) || defs_overlap(x, &yd) || defs_overlap(x, &yu) {
                    continue 'cand;
                }
            }
            for &(se, ref e) in self.fu0.iter() {
                if se < sx {
                    let ed = e.defs();
                    let eu = e.uses();
                    if uses_overlap(x, &ed) || defs_overlap(x, &ed) || defs_overlap(x, &eu) {
                        continue 'cand;
                    }
                }
            }
            eligible.push(i);
        }
        // Prefer candidates whose operands are (estimated) ready now; a
        // greedy pick without this collapses parallel chains into
        // lockstep, stalling every packet on producer latency.
        let op_ready = |x: &Instr| -> u64 {
            x.uses().iter().map(|u| self.ready[u.index()]).max().unwrap_or(0)
        };
        let mut chosen: Vec<usize> = Vec::new();
        let same_packet_ok = |x: &Instr, chosen: &[usize], buf: &[(u64, Instr)]| {
            chosen.iter().all(|&j| {
                let yd = buf[j].1.defs();
                !uses_overlap(x, &yd) && !defs_overlap(x, &yd)
            })
        };
        for &i in &eligible {
            if chosen.len() == 3 {
                break;
            }
            if op_ready(&self.buf[i].1) <= self.clock
                && same_packet_ok(&self.buf[i].1, &chosen, &self.buf)
            {
                chosen.push(i);
            }
        }
        if chosen.is_empty() && !eligible.is_empty() {
            // Nothing timing-ready: issue the soonest-ready eligible op
            // and account for the stall.
            let &i = eligible.iter().min_by_key(|&&i| op_ready(&self.buf[i].1)).unwrap();
            self.clock = self.clock.max(op_ready(&self.buf[i].1));
            chosen.push(i);
            // Fill remaining slots with now-ready companions.
            for &j in &eligible {
                if chosen.len() == 3 {
                    break;
                }
                if j != i
                    && op_ready(&self.buf[j].1) <= self.clock
                    && same_packet_ok(&self.buf[j].1, &chosen, &self.buf)
                {
                    chosen.push(j);
                }
            }
        }
        chosen.sort_unstable();
        // The FU0 queue head may only issue when it has no hazard against
        // any still-buffered compute op: its destinations must not be read
        // or written by them (a buffered op still needs the old value),
        // and its sources must not be written by them (a store must see
        // the producer's result). Conservative and exact enough.
        let f0 = match self.fu0.front() {
            Some(&(hseq, ref head)) => {
                let hd = head.defs();
                let hu = head.uses();
                // Only compute ops that PRECEDE the head constrain it:
                // old-value readers (WAR), same-destination writers (WAW),
                // and producers of its sources (RAW, for stores).
                let hazard = self.buf.iter().any(|&(ys, ref y)| {
                    // A compute op pushed before (or at) the FU0 push point
                    // precedes it in program order.
                    ys <= hseq && {
                        let yd = y.defs();
                        let yu = y.uses();
                        hd.iter().any(|d| yu.iter().any(|u| u == d) || yd.iter().any(|w| w == d))
                            || hu.iter().any(|u| yd.iter().any(|w| w == u))
                    }
                });
                if hazard {
                    Instr::Nop
                } else {
                    self.fu0.pop_front().unwrap().1
                }
            }
            None => Instr::Nop,
        };
        if chosen.is_empty() && matches!(f0, Instr::Nop) && !self.buf.is_empty() {
            unreachable!("scheduler deadlock: no eligible compute op and FU0 head blocked");
        }
        // Slot assignment with producer affinity: put each op on the unit
        // that produced one of its sources when possible.
        let mut slot_of = [usize::MAX; 3]; // compute slot (fu-1) -> chosen idx
        let mut unplaced = Vec::new();
        for &i in &chosen {
            let pref = self.buf[i]
                .1
                .uses()
                .iter()
                .map(|u| self.last_fu[u.index()])
                .find(|&f| (1..=3).contains(&f) && slot_of[f as usize - 1] == usize::MAX);
            match pref {
                Some(f) => slot_of[f as usize - 1] = i,
                None => unplaced.push(i),
            }
        }
        for i in unplaced {
            let f = slot_of.iter().position(|&x| x == usize::MAX).unwrap();
            slot_of[f] = i;
        }
        let width = slot_of.iter().rposition(|&x| x != usize::MAX).map_or(1, |p| p + 2);
        let mut slots = vec![Instr::Nop; width];
        slots[0] = f0;
        for (f, &i) in slot_of.iter().enumerate() {
            if f + 1 < width {
                slots[f + 1] = if i == usize::MAX { Instr::Nop } else { self.buf[i].1 };
            }
        }
        self.clock += 1;
        for (f, &i) in slot_of.iter().enumerate() {
            if i != usize::MAX {
                let lat = match self.buf[i].1.lat_class() {
                    majc_isa::LatClass::Single => 1,
                    majc_isa::LatClass::Mul => 2,
                    majc_isa::LatClass::FpSingle | majc_isa::LatClass::FpDouble => 4,
                    majc_isa::LatClass::Div6 => 6,
                    majc_isa::LatClass::IDiv => 18,
                    _ => 2,
                };
                for d in self.buf[i].1.defs().iter() {
                    self.last_fu[d.index()] = f as u8 + 1;
                    self.ready[d.index()] = self.clock + lat - 1;
                }
            }
        }
        if !matches!(slots[0], Instr::Nop) {
            for d in slots[0].defs().iter() {
                self.ready[d.index()] = self.clock + 2; // load-to-use
            }
        }
        a.pack(&slots);
        for &i in chosen.iter().rev() {
            self.buf.remove(i);
        }
    }

    pub(crate) fn flush(&mut self, a: &mut Asm) {
        while !self.buf.is_empty() {
            self.emit_packet(a);
        }
    }

    pub(crate) fn drain_fu0(&mut self, a: &mut Asm) {
        // Flushing may need FU0 pops to unblock compute ops, so loop until
        // both streams are empty.
        while !self.buf.is_empty() {
            self.emit_packet(a);
        }
        while let Some((_, i)) = self.fu0.pop_front() {
            a.op(i);
        }
    }
}

/// Emit one 8-point IDCT on block registers `x[i] = blk(stride-mapped i)`,
/// writing back in place.
fn emit_1d(a: &mut Asm, w: &mut Weaver, x: &[Reg; 8], shift: u32, rot: usize) {
    let t = |i: usize| t((i + rot * 7) % 15);
    let add =
        |rd: Reg, r1: Reg, r2: Reg| Instr::Alu { op: AluOp::Add, rd, rs1: r1, src2: Src::Reg(r2) };
    let sub =
        |rd: Reg, r1: Reg, r2: Reg| Instr::Alu { op: AluOp::Sub, rd, rs1: r1, src2: Src::Reg(r2) };
    let sll =
        |rd: Reg, r1: Reg, n: i16| Instr::Alu { op: AluOp::Sll, rd, rs1: r1, src2: Src::Imm(n) };
    let sra =
        |rd: Reg, r1: Reg, n: i16| Instr::Alu { op: AluOp::Sra, rd, rs1: r1, src2: Src::Imm(n) };
    let mul = |rd: Reg, r1: Reg, c: i32| Instr::Mul { rd, rs1: r1, rs2: creg(c) };

    // Even part: temps t0..t8.
    w.op(a, add(t(0), x[0], x[4]));
    w.op(a, sub(t(1), x[0], x[4]));
    w.op(a, add(t(2), x[2], x[6]));
    w.op(a, sll(t(0), t(0), CONST_BITS as i16));
    w.op(a, sll(t(1), t(1), CONST_BITS as i16));
    w.op(a, mul(t(2), t(2), C_0_541)); // z1
    w.op(a, mul(t(3), x[6], -C_1_847));
    w.op(a, mul(t(4), x[2], C_0_765));
    w.op(a, add(t(3), t(2), t(3))); // tmp2
    w.op(a, add(t(4), t(2), t(4))); // tmp3
    w.op(a, add(t(5), t(0), t(4))); // t10
    w.op(a, sub(t(6), t(0), t(4))); // t13
    w.op(a, add(t(7), t(1), t(3))); // t11
    w.op(a, sub(t(8), t(1), t(3))); // t12
                                    // Odd part: z's in t0..t4 (even temps free), b's in t9..t12.
    w.op(a, add(t(0), x[7], x[1])); // z1
    w.op(a, add(t(1), x[5], x[3])); // z2
    w.op(a, add(t(2), x[7], x[3])); // z3
    w.op(a, add(t(3), x[5], x[1])); // z4
    w.op(a, add(t(4), t(2), t(3)));
    w.op(a, mul(t(4), t(4), C_1_175)); // z5
    w.op(a, mul(t(9), x[7], C_0_298)); // b0
    w.op(a, mul(t(10), x[5], C_2_053)); // b1
    w.op(a, mul(t(11), x[3], C_3_072)); // b2
    w.op(a, mul(t(12), x[1], C_1_501)); // b3
    w.op(a, mul(t(0), t(0), -C_0_899)); // z1m
    w.op(a, mul(t(1), t(1), -C_2_562)); // z2m
    w.op(a, mul(t(2), t(2), -C_1_961));
    w.op(a, mul(t(3), t(3), -C_0_390));
    w.op(a, add(t(2), t(2), t(4))); // z3m
    w.op(a, add(t(3), t(3), t(4))); // z4m
    w.op(a, add(t(9), t(9), t(0)));
    w.op(a, add(t(9), t(9), t(2))); // t0
    w.op(a, add(t(10), t(10), t(1)));
    w.op(a, add(t(10), t(10), t(3))); // t1
    w.op(a, add(t(11), t(11), t(1)));
    w.op(a, add(t(11), t(11), t(2))); // t2
    w.op(a, add(t(12), t(12), t(0)));
    w.op(a, add(t(12), t(12), t(3))); // t3
                                      // Outputs: (tEven ± tOdd + RND) >> shift, alternating two sum temps.
    let pairs: [(usize, usize, bool, usize); 8] = [
        (5, 12, true, 0),
        (7, 11, true, 1),
        (8, 10, true, 2),
        (6, 9, true, 3),
        (6, 9, false, 4),
        (8, 10, false, 5),
        (7, 11, false, 6),
        (5, 12, false, 7),
    ];
    for (k, &(e, o, plus, out)) in pairs.iter().enumerate() {
        let s = t(13 + (k % 2));
        w.op(a, if plus { add(s, t(e), t(o)) } else { sub(s, t(e), t(o)) });
        w.op(a, add(s, s, RND));
        w.op(a, sra(x[out], s, shift as i16));
    }
}

/// Build the 8×8 IDCT kernel. Input coefficients (i16) at INPUT, spatial
/// output (i16) at OUTPUT.
pub fn build(coeffs: &[i16; 64]) -> (Program, FlatMem) {
    let mut mem = FlatMem::new();
    put_i16s(&mut mem, layout::INPUT, coeffs);

    let mut a = Asm::new(0);
    a.set32(XP, layout::INPUT);
    a.set32(OP, layout::OUTPUT);
    for &(r, v) in &CONSTS {
        a.set32(Reg::g(r), v as u32);
    }
    let sh1 = CONST_BITS - PASS1_BITS;
    a.set32(RND, 1u32 << (sh1 - 1));

    let mut w = Weaver::new();
    // Queue all 64 input loads; they weave into the row-pass packets
    // (~24 packets per row, 8 loads consumed per row-pass ahead of use).
    for i in 0..64 {
        w.push_fu0(Instr::Ld {
            w: MemWidth::H,
            pol: CachePolicy::Cached,
            rd: blk(i),
            base: XP,
            off: Off::Imm(2 * i as i16),
        });
    }
    // Make sure row 0 is resident before compute starts.
    for _ in 0..8 {
        w.pop_fu0_now(&mut a);
    }
    // Row pass.
    for r in 0..8 {
        let x: [Reg; 8] = std::array::from_fn(|i| blk(r * 8 + i));
        emit_1d(&mut a, &mut w, &x, sh1, r);
    }
    w.flush(&mut a);
    // Switch rounding for pass 2.
    let sh2 = CONST_BITS + PASS1_BITS + 3;
    a.set32(RND, 1u32 << (sh2 - 1));
    // Column pass; stores of column c weave behind column c+1's packets.
    for c in 0..8 {
        let x: [Reg; 8] = std::array::from_fn(|i| blk(i * 8 + c));
        emit_1d(&mut a, &mut w, &x, sh2, c);
        for i in 0..8 {
            w.push_fu0(Instr::St {
                w: MemWidth::H,
                pol: CachePolicy::Cached,
                rs: blk(i * 8 + c),
                base: OP,
                off: Off::Imm(2 * (i * 8 + c) as i16),
            });
        }
    }
    w.drain_fu0(&mut a);
    a.op(Instr::Halt);
    (a.finish().expect("idct kernel assembles"), mem)
}

pub fn extract(mem: &mut FlatMem) -> [i16; 64] {
    let v = crate::harness::get_i16s(mem, layout::OUTPUT, 64);
    v.try_into().unwrap()
}

/// A float IDCT for sanity-checking the fixed-point one.
pub fn float_idct(coeffs: &[i16; 64]) -> [f64; 64] {
    let mut out = [0.0f64; 64];
    for y in 0..8 {
        for x in 0..8 {
            let mut s = 0.0;
            for v in 0..8 {
                for u in 0..8 {
                    let cu = if u == 0 { 1.0 / 2f64.sqrt() } else { 1.0 };
                    let cv = if v == 0 { 1.0 / 2f64.sqrt() } else { 1.0 };
                    s += cu
                        * cv
                        * coeffs[v * 8 + u] as f64
                        * ((2 * x + 1) as f64 * u as f64 * std::f64::consts::PI / 16.0).cos()
                        * ((2 * y + 1) as f64 * v as f64 * std::f64::consts::PI / 16.0).cos();
                }
            }
            out[y * 8 + x] = s / 4.0;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{measure, run_func};
    use majc_isa::XorShift64;

    fn workload(seed: u64) -> [i16; 64] {
        let mut rng = XorShift64::new(seed);
        let mut c = [0i16; 64];
        c[0] = rng.next_i16(1000);
        // Sparse AC coefficients, like real dequantised blocks.
        for _ in 0..12 {
            c[rng.next_range(64)] = rng.next_i16(300);
        }
        c
    }

    #[test]
    fn matches_reference_bit_exactly() {
        for seed in 1..5 {
            let coeffs = workload(seed);
            let (prog, mem) = build(&coeffs);
            let mut out = run_func(&prog, mem);
            assert_eq!(extract(&mut out), reference(&coeffs), "seed {seed}");
        }
    }

    #[test]
    fn close_to_float_idct() {
        let coeffs = workload(9);
        let fixed = reference(&coeffs);
        let float = float_idct(&coeffs);
        for i in 0..64 {
            // The output carries a x8... scale: pass shifts divide by
            // 2^(13-2) and 2^(13+2+3), and the 1-D transforms gain
            // sqrt(8)^2 total... compare against float/1 with tolerance 2.
            assert!(
                (fixed[i] as f64 - float[i]).abs() <= 2.0,
                "coeff {i}: fixed {} vs float {:.2}",
                fixed[i],
                float[i]
            );
        }
    }

    #[test]
    fn cycles_near_paper_304() {
        let coeffs = workload(3);
        let (prog, mem) = build(&coeffs);
        let cycles = measure(&prog, mem);
        assert!((200..=600).contains(&cycles), "8x8 IDCT took {cycles} cycles (paper: 304)");
    }
}
