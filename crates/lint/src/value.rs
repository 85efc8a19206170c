//! Constant and value-range propagation.
//!
//! The abstract value of a register is [`Val`]: unknown, an exact 32-bit
//! constant, or a signed interval. Constants are folded with *bit-exact*
//! semantics by running the instruction through the simulators' own
//! [`majc_core::exec_slot`] on a scratch register file — the analysis
//! cannot disagree with execution on a fold because it *is* the execution,
//! which is what lets every constant it emits survive the validation gate,
//! S.15 multiplies and byte shuffles included. Intervals use conservative
//! rules for the handful of ops where a useful bound is easy to justify
//! (add/sub, saturating add/sub, masks, shifts, compares, `lzd`).
//!
//! Interval bounds produced by `join` snap outward to a fixed threshold
//! set, so ascending chains are finite and the worklist engine terminates;
//! transfer outputs may carry exact bounds (growth only happens through
//! joins).
//!
//! Branch conditions refine values along outgoing edges: the taken edge of
//! `br.eq g0` knows `g0 == 0`, the fall edge knows `g0 != 0`. A refinement
//! that empties an interval proves the edge infeasible, which is where the
//! always/never-taken diagnostics come from.

use std::cell::RefCell;

use majc_core::{exec_slot, RegFile, WriteSet};
use majc_isa::{AluOp, Cond, Instr, Program, Reg, Src};
use majc_mem::FlatMem;

use crate::cfg::{Cfg, Edge};
use crate::diag::{Diag, Kind, Severity};
use crate::engine::{solve, Dataflow, Dir};
use crate::facts::{BranchFact, ConstFact, RangeFact};

/// Abstract value of one register.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Val {
    /// Any bit pattern.
    Top,
    /// Exactly these 32 bits.
    Const(u32),
    /// As a signed 32-bit integer, within `lo..=hi` (never the full range —
    /// that normalizes to `Top` — and never a singleton, which is `Const`).
    Range(i32, i32),
}

/// Bounds that joins snap to: powers-of-16-ish magnitudes plus the values
/// that matter to branch refinement (-1, 0, 1). Any ascending chain of
/// joined intervals visits at most this many distinct bounds per side.
const THRESH: [i32; 14] =
    [i32::MIN, -65536, -4096, -256, -16, -1, 0, 1, 16, 256, 4096, 65535, 65536, i32::MAX];

fn snap_down(v: i32) -> i32 {
    THRESH.iter().rev().copied().find(|&t| t <= v).unwrap_or(i32::MIN)
}

fn snap_up(v: i32) -> i32 {
    THRESH.iter().copied().find(|&t| t >= v).unwrap_or(i32::MAX)
}

/// Normalize a raw interval into a `Val` (no snapping).
fn from_bounds(lo: i32, hi: i32) -> Val {
    if lo == hi {
        Val::Const(lo as u32)
    } else if lo == i32::MIN && hi == i32::MAX {
        Val::Top
    } else {
        Val::Range(lo, hi)
    }
}

/// The signed interval a value is known to lie in (full range for `Top`).
fn bounds(v: Val) -> (i32, i32) {
    match v {
        Val::Top => (i32::MIN, i32::MAX),
        Val::Const(c) => (c as i32, c as i32),
        Val::Range(lo, hi) => (lo, hi),
    }
}

/// Lattice join with widening: exact when the operands agree, otherwise the
/// snapped convex hull.
pub(crate) fn join_val(a: Val, b: Val) -> Val {
    if a == b {
        return a;
    }
    let (alo, ahi) = bounds(a);
    let (blo, bhi) = bounds(b);
    let lo = alo.min(blo);
    let hi = ahi.max(bhi);
    // Only widen bounds the hull actually moved; a stable side keeps its
    // (possibly exact, transfer-produced) bound.
    let lo = if lo == alo { lo } else { snap_down(lo) };
    let hi = if hi == ahi { hi } else { snap_up(hi) };
    from_bounds(lo, hi)
}

/// Bit-exact fold: when an instruction is pure (no memory, no control
/// transfer, no possible trap) and every register it reads is a known
/// constant, execute it for real on a scratch register file and push the
/// defined registers' values, as `as_val(value)`, onto `out`. False (and
/// nothing pushed) when the fold does not apply.
pub(crate) fn fold_exec<V>(
    ins: &Instr,
    pc: u32,
    pkt_bytes: u32,
    lookup: impl Fn(Reg) -> Option<u32>,
    as_val: impl Fn(u32) -> V,
    out: &mut Vec<(Reg, V)>,
) -> bool {
    fold_regs(ins, pc, pkt_bytes, lookup).is_some_and(|regs| {
        // Read back through the register file: a def the instruction
        // skipped (e.g. an untaken cmove, whose old value we seeded from
        // `uses`) still reports its exact post-instruction value.
        out.extend(ins.defs().iter().map(|r| (r, as_val(regs.get(r)))));
        true
    })
}

/// [`fold_exec`]'s execution: the register file after running `ins` on
/// its constant operands, or `None` when the fold does not apply.
fn fold_regs(
    ins: &Instr,
    pc: u32,
    pkt_bytes: u32,
    lookup: impl Fn(Reg) -> Option<u32>,
) -> Option<RegFile> {
    if ins.is_mem() || ins.is_control() {
        return None;
    }
    // Div/Rem trap on a zero divisor; fold only a provably non-zero one.
    if let Instr::Div { rs2, .. } | Instr::Rem { rs2, .. } = *ins {
        if lookup(rs2)? == 0 {
            return None;
        }
    }
    let mut regs = RegFile::new();
    for r in ins.uses().iter() {
        regs.set(r, lookup(r)?);
    }
    let mut ws = WriteSet::default();
    let mut mem = FlatMem::new();
    // Pure instructions cannot trap once the divisor check passed.
    exec_slot(ins, &regs, &mut ws, &mut mem, pc, pkt_bytes).ok()?;
    ws.apply(&mut regs);
    Some(regs)
}

/// The abstract register file: the registers known better than ⊤, sorted
/// by register. Every register without an entry is ⊤, and no entry holds
/// ⊤, so the representation is canonical.
#[derive(Default)]
pub(crate) struct ValFact(Vec<(Reg, Val)>);

impl Clone for ValFact {
    fn clone(&self) -> ValFact {
        ValFact(self.0.clone())
    }

    fn clone_from(&mut self, src: &ValFact) {
        self.0.clone_from(&src.0);
    }
}

impl ValFact {
    fn get(&self, r: Reg) -> Val {
        self.0.binary_search_by_key(&r, |e| e.0).map_or(Val::Top, |i| self.0[i].1)
    }

    fn set(&mut self, r: Reg, v: Val) {
        match (self.0.binary_search_by_key(&r, |e| e.0), v) {
            (Ok(i), Val::Top) => {
                self.0.remove(i);
            }
            (Ok(i), v) => self.0[i].1 = v,
            (Err(_), Val::Top) => {}
            (Err(i), v) => self.0.insert(i, (r, v)),
        }
    }

    /// Pointwise [`join_val`]; true if `self` changed. ⊤ absorbs, so only
    /// registers known on both sides can keep an entry: the join is an
    /// intersection of the two sorted lists.
    fn join(&mut self, other: &ValFact) -> bool {
        let mut changed = false;
        let mut j = 0;
        self.0.retain_mut(|(r, v)| {
            while j < other.0.len() && other.0[j].0 < *r {
                j += 1;
            }
            let next = match other.0.get(j) {
                Some(&(o, ov)) if o == *r => join_val(*v, ov),
                _ => Val::Top,
            };
            changed |= next != *v;
            *v = next;
            next != Val::Top
        });
        changed
    }
}

/// The dataflow instance over [`ValFact`].
pub(crate) struct ValueFlow<'a> {
    prog: &'a Program,
    /// One packet's buffered writes, reused by every transfer.
    writes: RefCell<Vec<(Reg, Val)>>,
}

impl ValueFlow<'_> {
    /// Abstract effect of one slot against the pre-packet fact, appended
    /// to `out`.
    fn eval_ins(
        &self,
        ins: &Instr,
        pc: u32,
        pkt_bytes: u32,
        fact: &ValFact,
        out: &mut Vec<(Reg, Val)>,
    ) {
        let as_const = |r: Reg| match fact.get(r) {
            Val::Const(c) => Some(c),
            _ => None,
        };
        if fold_exec(ins, pc, pkt_bytes, as_const, Val::Const, out) {
            return;
        }
        match *ins {
            Instr::Call { rd, .. } | Instr::Jmpl { rd, .. } => {
                out.push((rd, Val::Const(pc.wrapping_add(pkt_bytes))));
            }
            Instr::Cmp { rd, .. } | Instr::FCmp { rd, .. } | Instr::DCmp { rd, .. } => {
                out.push((rd, Val::Range(0, 1)));
            }
            Instr::Lzd { rd, .. } => out.push((rd, Val::Range(0, 32))),
            Instr::CMove { rd, rs, .. } => out.push((rd, join_val(fact.get(rd), fact.get(rs)))),
            Instr::Pick { rd, rs1, rs2, .. } => {
                out.push((rd, join_val(fact.get(rs1), fact.get(rs2))));
            }
            Instr::Alu { op, rd, rs1, src2 } => {
                out.push((rd, alu_interval(op, fact.get(rs1), src2, fact)));
            }
            _ => out.extend(ins.defs().iter().map(|r| (r, Val::Top))),
        }
    }
}

/// Interval rules for ALU ops whose operands are not all constant.
fn alu_interval(op: AluOp, a: Val, src2: Src, fact: &ValFact) -> Val {
    let b = match src2 {
        Src::Imm(i) => Val::Const(i as i32 as u32),
        Src::Reg(r) => fact.get(r),
    };
    let (alo, ahi) = bounds(a);
    let (blo, bhi) = bounds(b);
    let nonneg = alo >= 0 && blo >= 0;
    match op {
        AluOp::Add => checked(alo as i64 + blo as i64, ahi as i64 + bhi as i64),
        AluOp::Sub => checked(alo as i64 - bhi as i64, ahi as i64 - blo as i64),
        AluOp::AddSat => from_bounds(alo.saturating_add(blo), ahi.saturating_add(bhi)),
        AluOp::SubSat => from_bounds(alo.saturating_sub(bhi), ahi.saturating_sub(blo)),
        // Both operands non-negative: the AND clears bits only.
        AluOp::And if nonneg => from_bounds(0, ahi.min(bhi)),
        // OR/XOR of non-negatives cannot exceed their sum (no carries).
        AluOp::Or | AluOp::Xor if nonneg => {
            from_bounds(0, ((ahi as i64 + bhi as i64).min(i32::MAX as i64)) as i32)
        }
        // `a & !b` keeps a subset of a's bits.
        AluOp::AndNot if alo >= 0 => from_bounds(0, ahi),
        AluOp::Srl => match b {
            // Guaranteed-nonzero shift makes the result a small non-negative.
            Val::Const(c) if c & 31 != 0 => from_bounds(0, (u32::MAX >> (c & 31)) as i32),
            Val::Const(_) => a, // shift by zero is the identity
            _ => Val::Top,
        },
        AluOp::Sra => match b {
            // Arithmetic shift is monotone in the operand.
            Val::Const(c) => from_bounds(alo >> (c & 31), ahi >> (c & 31)),
            _ => Val::Top,
        },
        _ => Val::Top,
    }
}

/// An i64 interval that stayed inside i32 did not wrap.
fn checked(lo: i64, hi: i64) -> Val {
    if lo >= i32::MIN as i64 && hi <= i32::MAX as i64 {
        from_bounds(lo as i32, hi as i32)
    } else {
        Val::Top
    }
}

/// The interval of `v` for which `cond(v)` holds, when it is an interval
/// (`Ne` holds on a punctured set, which intervals cannot express).
fn cond_interval(cond: Cond) -> Option<(i32, i32)> {
    match cond {
        Cond::Eq => Some((0, 0)),
        Cond::Ne => None,
        Cond::Lt => Some((i32::MIN, -1)),
        Cond::Le => Some((i32::MIN, 0)),
        Cond::Gt => Some((1, i32::MAX)),
        Cond::Ge => Some((0, i32::MAX)),
    }
}

fn negate(cond: Cond) -> Cond {
    match cond {
        Cond::Eq => Cond::Ne,
        Cond::Ne => Cond::Eq,
        Cond::Lt => Cond::Ge,
        Cond::Ge => Cond::Lt,
        Cond::Gt => Cond::Le,
        Cond::Le => Cond::Gt,
    }
}

/// Whether `cond` holds for every / no value in the interval.
fn cond_over(cond: Cond, lo: i32, hi: i32) -> (bool, bool) {
    match cond {
        Cond::Eq => (lo == 0 && hi == 0, lo > 0 || hi < 0),
        Cond::Ne => (lo > 0 || hi < 0, lo == 0 && hi == 0),
        Cond::Lt => (hi < 0, lo >= 0),
        Cond::Le => (hi <= 0, lo > 0),
        Cond::Gt => (lo > 0, hi <= 0),
        Cond::Ge => (lo >= 0, hi < 0),
    }
}

impl Dataflow for ValueFlow<'_> {
    type Fact = ValFact;

    fn dir(&self) -> Dir {
        Dir::Forward
    }

    fn boundary(&self) -> ValFact {
        ValFact::default()
    }

    fn join(&self, into: &mut ValFact, other: &ValFact) -> bool {
        into.join(other)
    }

    fn transfer(&self, node: usize, fact: &mut ValFact) {
        let pkt = &self.prog.packets()[node];
        let pc = self.prog.addr_of(node);
        let pb = pkt.len_bytes();
        // All slots read pre-packet state; writes land together afterwards
        // (the WriteSet semantics — last slot wins on a WAW, matching
        // `WriteSet::apply` order).
        let mut writes = self.writes.borrow_mut();
        writes.clear();
        for (_, ins) in pkt.slots() {
            self.eval_ins(ins, pc, pb, fact, &mut writes);
        }
        for &(r, v) in writes.iter() {
            fact.set(r, v);
        }
    }

    fn edge(&self, from: usize, _to: usize, edge: Edge, fact: &mut ValFact) -> bool {
        let Some(&Instr::Br { cond, rs, .. }) = self.prog.packets()[from].control() else {
            return true;
        };
        let refine = match edge {
            Edge::Taken => cond_interval(cond),
            Edge::Fall => cond_interval(negate(cond)),
            Edge::Call => None,
        };
        let Some((clo, chi)) = refine else { return true };
        let (lo, hi) = bounds(fact.get(rs));
        let (lo, hi) = (lo.max(clo), hi.min(chi));
        if lo > hi {
            return false; // condition can never send execution this way
        }
        fact.set(rs, from_bounds(lo, hi));
        true
    }
}

/// Everything the value analysis produced.
pub(crate) struct ValueResults {
    pub consts: Vec<ConstFact>,
    pub ranges: Vec<RangeFact>,
    pub branches: Vec<BranchFact>,
    pub diags: Vec<Diag>,
}

/// Run constant/range propagation. `None` if the engine backstop tripped
/// (no must-facts may be emitted from a partial fixpoint).
pub(crate) fn analyze_values(prog: &Program, cfg: &Cfg, entries: &[u32]) -> Option<ValueResults> {
    let flow = ValueFlow { prog, writes: RefCell::default() };
    let sol = solve(prog, cfg, entries, &flow);
    if !sol.converged {
        return None;
    }
    let mut out = ValueResults {
        consts: Vec::new(),
        ranges: Vec::new(),
        branches: Vec::new(),
        diags: Vec::new(),
    };
    for (i, fact) in sol.facts.iter().enumerate() {
        let Some(fact) = fact else { continue };
        let pkt = &prog.packets()[i];
        // Facts are reported for registers the packet actually reads: that
        // is what a scheduler can use at this point, and it keeps the facts
        // file proportional to the program.
        let mut used: Vec<Reg> = Vec::new();
        for (_, ins) in pkt.slots() {
            for r in ins.uses().iter() {
                if !used.contains(&r) {
                    used.push(r);
                }
            }
        }
        used.sort_by_key(|r| r.index());
        for r in used {
            match fact.get(r) {
                Val::Const(v) => out.consts.push(ConstFact { packet: i, reg: r, value: v }),
                Val::Range(lo, hi) => out.ranges.push(RangeFact { packet: i, reg: r, lo, hi }),
                Val::Top => {}
            }
        }
        if let Some(&Instr::Br { cond, rs, .. }) = pkt.control() {
            let (lo, hi) = bounds(fact.get(rs));
            let (always, never) = cond_over(cond, lo, hi);
            if always || never {
                out.branches.push(BranchFact { packet: i, always });
                let what = if always { "taken" } else { "not taken" };
                out.diags.push(Diag {
                    severity: Severity::Info,
                    kind: if always { Kind::BranchAlwaysTaken } else { Kind::BranchNeverTaken },
                    packet: i,
                    addr: prog.addr_of(i),
                    slot: Some(0),
                    reg: Some(rs),
                    cycles_short: None,
                    message: format!(
                        "branch is {what} on every execution that reaches it ({rs} in [{lo}, {hi}])"
                    ),
                });
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use majc_isa::{Cond, Packet};

    fn setlo(rd: u8, imm: i16) -> Instr {
        Instr::SetLo { rd: Reg::g(rd), imm }
    }

    fn add(rd: u8, rs1: u8, imm: i16) -> Instr {
        Instr::Alu { op: AluOp::Add, rd: Reg::g(rd), rs1: Reg::g(rs1), src2: Src::Imm(imm) }
    }

    fn run(packets: Vec<Packet>) -> ValueResults {
        let p = Program::new(0, packets);
        let cfg = Cfg::build(&p);
        analyze_values(&p, &cfg, &[]).expect("converges")
    }

    #[test]
    fn constants_fold_bit_exactly_through_alu_chains() {
        let r = run(vec![
            Packet::solo(setlo(0, 40)).unwrap(),
            Packet::solo(add(1, 0, 2)).unwrap(),
            Packet::solo(Instr::Alu {
                op: AluOp::Sll,
                rd: Reg::g(2),
                rs1: Reg::g(1),
                src2: Src::Imm(1),
            })
            .unwrap(),
            Packet::solo(add(3, 2, 0)).unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        // Packet 2 reads g1 = 42; packet 3 reads g2 = 84.
        assert!(r.consts.contains(&ConstFact { packet: 2, reg: Reg::g(1), value: 42 }));
        assert!(r.consts.contains(&ConstFact { packet: 3, reg: Reg::g(2), value: 84 }));
    }

    #[test]
    fn simd_multiply_folds_through_the_simulator() {
        // s.15: 0x4000 = 0.5, squared = 0.25 = 0x2000 per lane. The fold
        // runs exec_slot, so whatever the simulator computes is the fact.
        let r = run(vec![
            Packet::solo(setlo(0, 0x4000)).unwrap(),
            Packet::new(&[
                Instr::Nop,
                Instr::PMulS31 { rd: Reg::g(1), rs1: Reg::g(0), rs2: Reg::g(0) },
            ])
            .unwrap(),
            Packet::solo(add(2, 1, 0)).unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        assert!(
            r.consts.iter().any(|f| f.packet == 2 && f.reg == Reg::g(1)),
            "the S.15 product of two constants is a constant"
        );
    }

    #[test]
    fn loop_counter_widens_to_a_range_not_a_wrong_const() {
        // g0 counts 5,4,...,0: a loop the interval lattice cannot pin down.
        let r = run(vec![
            Packet::solo(setlo(0, 5)).unwrap(),
            Packet::solo(add(0, 0, -1)).unwrap(),
            Packet::solo(Instr::Br { cond: Cond::Gt, rs: Reg::g(0), off: -4, hint: true }).unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        assert!(
            !r.consts.iter().any(|f| f.reg == Reg::g(0) && f.packet >= 1),
            "a varying counter must not be reported constant: {:?}",
            r.consts
        );
    }

    #[test]
    fn branch_direction_is_proved_and_refines_edges() {
        // g0 = 7 > 0: the branch is always taken; the fall-through side
        // would know g0 <= 0, which contradicts g0 = 7, so it is infeasible.
        let r = run(vec![
            Packet::solo(setlo(0, 7)).unwrap(),
            Packet::solo(Instr::Br { cond: Cond::Gt, rs: Reg::g(0), off: 8, hint: true }).unwrap(),
            Packet::solo(setlo(1, 1)).unwrap(), // fall side: infeasible
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        assert_eq!(r.branches, vec![BranchFact { packet: 1, always: true }]);
        assert!(r.diags.iter().any(|d| d.kind == Kind::BranchAlwaysTaken));
    }

    #[test]
    fn cmp_results_are_bounded_and_cmove_joins() {
        let r = run(vec![
            Packet::solo(setlo(0, 3)).unwrap(),
            Packet::new(&[
                Instr::Nop,
                Instr::Cmp { cond: Cond::Gt, rd: Reg::g(1), rs1: Reg::g(0), rs2: Reg::g(2) },
            ])
            .unwrap(),
            Packet::solo(Instr::CMove {
                cond: Cond::Ne,
                rc: Reg::g(1),
                rd: Reg::g(0),
                rs: Reg::g(2),
            })
            .unwrap(),
            Packet::solo(add(3, 1, 0)).unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        assert!(
            r.ranges.contains(&RangeFact { packet: 2, reg: Reg::g(1), lo: 0, hi: 1 })
                || r.ranges.contains(&RangeFact { packet: 3, reg: Reg::g(1), lo: 0, hi: 1 }),
            "cmp produces a 0/1 range: {:?}",
            r.ranges
        );
        // After the cmove, g0 is 3-or-g2: no constant fact may survive.
        assert!(!r.consts.iter().any(|f| f.reg == Reg::g(0) && f.packet == 3));
    }

    #[test]
    fn join_widens_to_thresholds_and_terminates() {
        assert_eq!(join_val(Val::Const(1), Val::Const(1)), Val::Const(1));
        assert_eq!(join_val(Val::Const(0), Val::Const(1)), Val::Range(0, 1));
        let w = join_val(Val::Range(0, 1), Val::Range(0, 17));
        assert_eq!(w, Val::Range(0, 256), "moved bound snaps outward");
        assert_eq!(join_val(w, Val::Range(0, 17)), w, "stable after snapping");
        assert_eq!(join_val(Val::Top, Val::Const(3)), Val::Top);
    }

    /// Random `set`/`join` sequences on the sparse fact and on a dense
    /// 224-register model: both must read the same everywhere, agree on
    /// every join's "changed" flag, and the sparse list must stay sorted
    /// with no ⊤ entry.
    #[test]
    fn sparse_fact_matches_a_dense_model() {
        const N: usize = majc_isa::NUM_REGS as usize;
        const POOL: [u8; 9] = [0, 1, 2, 63, 64, 95, 96, 191, 223];
        let reg = |r: usize| Reg::from_index(r as u8).unwrap();
        let mut rng = majc_isa::SplitMix64::new(0x7A1_FAC7);
        let random_val = |rng: &mut majc_isa::SplitMix64| match rng.below(4) {
            0 => Val::Top,
            1 => Val::Const(rng.below(3) as u32),
            2 => {
                let lo = rng.range_i32(-20, 20);
                from_bounds(lo, lo + rng.range_i32(0, 40))
            }
            _ => from_bounds(*rng.pick(&[i32::MIN, -1, 0]), *rng.pick(&[0, 1, i32::MAX])),
        };
        for _ in 0..200 {
            let mut sparse = vec![ValFact::default(); 3];
            let mut dense = vec![[Val::Top; N]; 3];
            for _ in 0..40 {
                let k = rng.index(3);
                if rng.flip() {
                    let r = *rng.pick(&POOL) as usize;
                    let v = random_val(&mut rng);
                    sparse[k].set(reg(r), v);
                    dense[k][r] = v;
                } else {
                    let m = rng.index(3);
                    let src = sparse[m].clone();
                    let changed = sparse[k].join(&src);
                    let other = dense[m];
                    let mut dense_changed = false;
                    for (a, b) in dense[k].iter_mut().zip(other) {
                        let j = join_val(*a, b);
                        dense_changed |= j != *a;
                        *a = j;
                    }
                    assert_eq!(changed, dense_changed, "join changed flag");
                }
                let (s, d) = (&sparse[k], &dense[k]);
                for (r, &v) in d.iter().enumerate() {
                    assert_eq!(s.get(reg(r)), v, "g{r}");
                }
                assert!(s.0.windows(2).all(|w| w[0].0 < w[1].0), "sorted, no duplicates");
                assert!(s.0.iter().all(|e| e.1 != Val::Top), "no ⊤ entry");
            }
        }
    }
}
