//! Memory dependence via symbolic address classes.
//!
//! A register's abstract address is [`Sym`]: unknown, an absolute constant,
//! or *entry-relative* — the value some register held when the program
//! started, plus a folded byte offset. Entry values never change during an
//! execution, so an entry-relative address is a single concrete (if
//! unknown) number per run: two accesses with the same symbolic address
//! **must** alias, two accesses off the same base with disjoint
//! `off..off+bytes` windows **cannot** alias, and everything else *may*
//! alias. That classification is exactly what a packet scheduler needs to
//! reorder loads around stores, and it is validated literally: the
//! simulator replays every claimed effective address.
//!
//! On top of the symbolic solution run two availability-style analyses:
//!
//! * forward: which locations hold a known-unclobbered value here
//!   (redundant-reload detection, store-to-load forwarding included);
//! * backward: which locations are overwritten on every path below before
//!   anything can read them (provably-dead stores). A packet that can trap
//!   makes memory externally observable (the handler or the halted state
//!   sees it), so it clears this set — and program exit does too, because
//!   the test harnesses read memory after `halt`.

use std::cell::RefCell;

use majc_isa::{AluOp, Instr, Off, Program, Reg, Src};

use crate::cfg::Cfg;
use crate::diag::{Diag, Kind, Severity};
use crate::engine::{solve, Dataflow, Dir};
use crate::facts::{AccessKind, AddrBase, AddrFact, AliasClass};
use crate::value::fold_exec;

/// Abstract address value of one register.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Sym {
    /// Unknown.
    Top,
    /// (value of `reg` at program entry) + offset, wrapping.
    Ent(u8, i32),
    /// Exactly this value (kept as the bit pattern, signed view).
    Abs(i32),
}

fn join_sym(a: Sym, b: Sym) -> Sym {
    if a == b {
        a
    } else {
        Sym::Top
    }
}

/// The abstract register file of symbolic addresses: a sorted map over a
/// default. A register without an entry reads as its own entry value,
/// `Ent(r, 0)`, until a synthetic entry (or a join with one) makes the
/// default ⊤. No entry equals the default, so the representation is
/// canonical.
pub(crate) struct SymFact {
    /// Unlisted registers read `Ent(r, 0)` when set, ⊤ when clear.
    entry: bool,
    map: Vec<(Reg, Sym)>,
}

impl Clone for SymFact {
    fn clone(&self) -> SymFact {
        SymFact { entry: self.entry, map: self.map.clone() }
    }

    fn clone_from(&mut self, src: &SymFact) {
        self.entry = src.entry;
        self.map.clone_from(&src.map);
    }
}

impl SymFact {
    /// The real entry: every register holds its entry value.
    fn entry() -> SymFact {
        SymFact { entry: true, map: Vec::new() }
    }

    /// Nothing known.
    fn top() -> SymFact {
        SymFact { entry: false, map: Vec::new() }
    }

    fn default_of(entry: bool, r: Reg) -> Sym {
        if entry {
            Sym::Ent(r.index() as u8, 0)
        } else {
            Sym::Top
        }
    }

    fn get(&self, r: Reg) -> Sym {
        match self.map.binary_search_by_key(&r, |e| e.0) {
            Ok(i) => self.map[i].1,
            Err(_) => SymFact::default_of(self.entry, r),
        }
    }

    fn set(&mut self, r: Reg, v: Sym) {
        let is_default = v == SymFact::default_of(self.entry, r);
        match (self.map.binary_search_by_key(&r, |e| e.0), is_default) {
            (Ok(i), true) => {
                self.map.remove(i);
            }
            (Ok(i), false) => self.map[i].1 = v,
            (Err(_), true) => {}
            (Err(i), false) => self.map.insert(i, (r, v)),
        }
    }

    /// Pointwise [`join_sym`] over the union of both maps; true if `self`
    /// changed. Registers in neither map join the two defaults, which is
    /// the new default. The union is merged in `scratch`, which swaps in
    /// as the new map when it differs.
    fn join(&mut self, other: &SymFact, scratch: &mut Vec<(Reg, Sym)>) -> bool {
        let entry = self.entry && other.entry;
        let map = scratch;
        map.clear();
        let (mut i, mut j) = (0, 0);
        loop {
            let r = match (self.map.get(i), other.map.get(j)) {
                (None, None) => break,
                (Some(a), None) => a.0,
                (None, Some(b)) => b.0,
                (Some(a), Some(b)) => a.0.min(b.0),
            };
            let side = |f: &SymFact, k: &mut usize| match f.map.get(*k) {
                Some(&(q, v)) if q == r => {
                    *k += 1;
                    v
                }
                _ => SymFact::default_of(f.entry, r),
            };
            let v = join_sym(side(self, &mut i), side(other, &mut j));
            if v != SymFact::default_of(entry, r) {
                map.push((r, v));
            }
        }
        let changed = entry != self.entry || *map != self.map;
        if changed {
            self.entry = entry;
            std::mem::swap(&mut self.map, map);
        }
        changed
    }
}

/// The symbolic-address dataflow: a flat lattice per register, so chains
/// have height 2 and the fixpoint is quick even with edge refinement off.
struct SymFlow<'a> {
    prog: &'a Program,
    /// One packet's buffered writes, reused by every transfer.
    writes: RefCell<Vec<(Reg, Sym)>>,
    /// The merge buffer of [`SymFact::join`], reused by every join.
    merged: RefCell<Vec<(Reg, Sym)>>,
}

impl<'a> SymFlow<'a> {
    fn new(prog: &'a Program) -> SymFlow<'a> {
        SymFlow { prog, writes: RefCell::default(), merged: RefCell::default() }
    }
}

impl SymFlow<'_> {
    /// Abstract effect of one slot against the pre-packet fact, appended
    /// to `out`.
    fn eval_ins(
        &self,
        ins: &Instr,
        pc: u32,
        pkt_bytes: u32,
        fact: &SymFact,
        out: &mut Vec<(Reg, Sym)>,
    ) {
        let as_const = |r: Reg| match fact.get(r) {
            Sym::Abs(c) => Some(c as u32),
            _ => None,
        };
        if fold_exec(ins, pc, pkt_bytes, as_const, |v| Sym::Abs(v as i32), out) {
            return;
        }
        match *ins {
            Instr::Call { rd, .. } | Instr::Jmpl { rd, .. } => {
                out.push((rd, Sym::Abs(pc.wrapping_add(pkt_bytes) as i32)));
            }
            Instr::CMove { rd, rs, .. } => out.push((rd, join_sym(fact.get(rd), fact.get(rs)))),
            Instr::Pick { rd, rs1, rs2, .. } => {
                out.push((rd, join_sym(fact.get(rs1), fact.get(rs2))));
            }
            // Base ± constant keeps the symbolic base and folds the offset.
            Instr::Alu { op: AluOp::Add, rd, rs1, src2 } => {
                out.push((rd, sym_add(fact, rs1, src2, false)));
            }
            Instr::Alu { op: AluOp::Sub, rd, rs1, src2 } => {
                out.push((rd, sym_add(fact, rs1, src2, true)));
            }
            _ => out.extend(ins.defs().iter().map(|r| (r, Sym::Top))),
        }
    }
}

fn sym_add(fact: &SymFact, rs1: Reg, src2: Src, sub: bool) -> Sym {
    let b = match src2 {
        Src::Imm(i) => Some(i as i32),
        Src::Reg(r) => match fact.get(r) {
            Sym::Abs(c) => Some(c),
            _ => None,
        },
    };
    let a = fact.get(rs1);
    match (a, b) {
        (Sym::Ent(e, c), Some(k)) => {
            Sym::Ent(e, if sub { c.wrapping_sub(k) } else { c.wrapping_add(k) })
        }
        // Abs ± Abs folds in `fold_exec`; Abs + unknown, or an unknown
        // base, loses the symbol.
        _ => Sym::Top,
    }
}

impl Dataflow for SymFlow<'_> {
    type Fact = SymFact;

    fn dir(&self) -> Dir {
        Dir::Forward
    }

    fn boundary(&self) -> SymFact {
        // At the real entry every register *is* its own entry value.
        SymFact::entry()
    }

    fn synthetic_boundary(&self) -> SymFact {
        // A trap vector or indirect-jump target is entered mid-execution:
        // registers no longer hold their entry values there.
        SymFact::top()
    }

    fn join(&self, into: &mut SymFact, other: &SymFact) -> bool {
        into.join(other, &mut self.merged.borrow_mut())
    }

    fn transfer(&self, node: usize, fact: &mut SymFact) {
        let pkt = &self.prog.packets()[node];
        let pc = self.prog.addr_of(node);
        let pb = pkt.len_bytes();
        let mut writes = self.writes.borrow_mut();
        writes.clear();
        for (_, ins) in pkt.slots() {
            self.eval_ins(ins, pc, pb, fact, &mut writes);
        }
        for &(r, v) in writes.iter() {
            fact.set(r, v);
        }
    }
}

/// A resolved memory location: symbolic start address plus a width.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct MemLoc {
    pub base: AddrBase,
    pub off: i32,
    pub bytes: u32,
}

impl MemLoc {
    /// Could the two locations touch a common byte? Conservative: only a
    /// same-base pair with disjoint windows is provably apart.
    fn may_overlap(self, other: MemLoc) -> bool {
        if self.base != other.base {
            return true;
        }
        let (a0, a1) = (self.off as i64, self.off as i64 + self.bytes as i64);
        let (b0, b1) = (other.off as i64, other.off as i64 + other.bytes as i64);
        a0 < b1 && b0 < a1
    }

    /// Does this location cover every byte of `other`?
    fn covers(self, other: MemLoc) -> bool {
        self.base == other.base
            && self.off as i64 <= other.off as i64
            && self.off as i64 + self.bytes as i64 >= other.off as i64 + other.bytes as i64
    }
}

/// The (at most one — memory is FU0-only) memory access of a packet.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Access {
    pub slot: u8,
    pub kind: AccessKind,
    /// `None`: the address could not be resolved symbolically.
    pub loc: Option<MemLoc>,
}

/// Resolve a base register + symbolic state into an address.
fn loc_of(fact: &SymFact, base: Reg, off_bytes: i32, bytes: u32) -> Option<MemLoc> {
    match fact.get(base) {
        Sym::Ent(e, c) => Some(MemLoc {
            base: AddrBase::Entry(Reg::from_index(e)?),
            off: c.wrapping_add(off_bytes),
            bytes,
        }),
        Sym::Abs(c) => Some(MemLoc { base: AddrBase::Abs, off: c.wrapping_add(off_bytes), bytes }),
        Sym::Top => None,
    }
}

/// Classify packet `i`'s memory access under the symbolic state at its
/// entry. Prefetch and membar touch no architectural data: `None`.
fn classify(prog: &Program, i: usize, fact: &SymFact) -> Option<Access> {
    for (slot, ins) in prog.packets()[i].slots() {
        let (kind, base, off, bytes) = match *ins {
            Instr::Ld { w, base, off, .. } => (AccessKind::Load, base, off, w.bytes()),
            Instr::St { w, base, off, .. } => (AccessKind::Store, base, off, w.bytes()),
            Instr::CSt { base, .. } => (AccessKind::CondStore, base, Off::Imm(0), 4),
            Instr::Cas { base, .. } | Instr::Swap { base, .. } => {
                (AccessKind::Atomic, base, Off::Imm(0), 4)
            }
            _ => continue,
        };
        let loc = match off {
            Off::Imm(k) => loc_of(fact, base, k as i32, bytes),
            // Register offset: resolvable only when the index is absolute.
            Off::Reg(r) => match fact.get(r) {
                Sym::Abs(k) => loc_of(fact, base, k, bytes),
                _ => None,
            },
        };
        return Some(Access { slot, kind, loc });
    }
    None
}

/// Can any slot of packet `i` trap? Pure compute cannot; `div`/`rem` can
/// (zero divisor), unresolved or misaligned memory can, and control can
/// only through targets the CFG already vets.
fn may_trap(prog: &Program, i: usize, access: Option<&Access>) -> bool {
    for (_, ins) in prog.packets()[i].slots() {
        match ins {
            Instr::Div { .. } | Instr::Rem { .. } => return true,
            Instr::Jmpl { .. } | Instr::Rte => return true,
            Instr::Br { off, .. } => {
                let target = prog.addr_of(i).wrapping_add(*off as u32);
                if prog.index_of(target).is_none() {
                    return true;
                }
            }
            Instr::Call { off, .. } => {
                let target = prog.addr_of(i).wrapping_add(*off as u32);
                if prog.index_of(target).is_none() {
                    return true;
                }
            }
            Instr::Ld { pol, .. } if *pol == majc_isa::CachePolicy::NonFaulting => {}
            ins if ins.is_mem() => {
                if matches!(ins, Instr::Prefetch { .. } | Instr::Membar) {
                    continue;
                }
                // The access traps unless provably absolute and aligned.
                match access.and_then(|a| a.loc) {
                    Some(l)
                        if l.base == AddrBase::Abs && (l.off as u32).is_multiple_of(l.bytes) => {}
                    _ => return true,
                }
            }
            _ => {}
        }
    }
    false
}

/// Shared per-program context for the two location analyses.
struct LocCtx<'a> {
    /// Per-packet classified access (needs the symbolic solution).
    accesses: &'a [Option<Access>],
    trap_free: &'a [bool],
}

/// Forward: set of locations whose memory value is known unchanged since a
/// load or store established it. Join is intersection (sorted vectors).
struct Avail<'a>(LocCtx<'a>);

/// Backward: set of locations overwritten on every path below, before any
/// read and before anything that could trap.
struct Overwritten<'a>(LocCtx<'a>);

fn intersect(into: &mut Vec<MemLoc>, other: &[MemLoc]) -> bool {
    let before = into.len();
    into.retain(|x| other.binary_search(x).is_ok());
    into.len() != before
}

fn insert_sorted(set: &mut Vec<MemLoc>, l: MemLoc) {
    if let Err(pos) = set.binary_search(&l) {
        set.insert(pos, l);
    }
}

impl Dataflow for Avail<'_> {
    type Fact = Vec<MemLoc>;

    fn dir(&self) -> Dir {
        Dir::Forward
    }

    fn boundary(&self) -> Vec<MemLoc> {
        Vec::new()
    }

    fn join(&self, into: &mut Vec<MemLoc>, other: &Vec<MemLoc>) -> bool {
        intersect(into, other)
    }

    fn transfer(&self, node: usize, fact: &mut Vec<MemLoc>) {
        let Some(a) = &self.0.accesses[node] else { return };
        match (a.kind, a.loc) {
            (AccessKind::Load, Some(l)) => insert_sorted(fact, l),
            (AccessKind::Load, None) => {}
            (AccessKind::Store, Some(l)) => {
                fact.retain(|x| !x.may_overlap(l));
                // Store-to-load forwarding: the stored location now holds a
                // known value.
                insert_sorted(fact, l);
            }
            // Atomics and conditional stores may write their location; a
            // cas's final value is data-dependent, so nothing becomes
            // available.
            (AccessKind::Atomic | AccessKind::CondStore, Some(l)) => {
                fact.retain(|x| !x.may_overlap(l));
            }
            // An unresolved write may clobber anything.
            (_, None) => fact.clear(),
        }
    }
}

impl Dataflow for Overwritten<'_> {
    type Fact = Vec<MemLoc>;

    fn dir(&self) -> Dir {
        Dir::Backward
    }

    fn boundary(&self) -> Vec<MemLoc> {
        // At exits memory is observable (harnesses read it after halt):
        // nothing below overwrites anything.
        Vec::new()
    }

    fn join(&self, into: &mut Vec<MemLoc>, other: &Vec<MemLoc>) -> bool {
        intersect(into, other)
    }

    fn transfer(&self, node: usize, fact: &mut Vec<MemLoc>) {
        // A possible trap makes memory observable right here.
        if !self.0.trap_free[node] {
            fact.clear();
            return;
        }
        let Some(a) = &self.0.accesses[node] else { return };
        match (a.kind, a.loc) {
            (AccessKind::Store, Some(l)) => insert_sorted(fact, l),
            // Reads-from-memory below the candidate store kill coverage.
            (AccessKind::Load | AccessKind::Atomic, Some(l)) => {
                fact.retain(|x| !x.may_overlap(l));
            }
            (AccessKind::Load | AccessKind::Atomic, None) => fact.clear(),
            // `cst` writes (maybe) and reads nothing: no effect on coverage.
            (AccessKind::CondStore, _) => {}
            (AccessKind::Store, None) => {}
        }
    }
}

/// Everything the alias analyses produced.
pub(crate) struct AliasResults {
    pub addrs: Vec<AddrFact>,
    pub alias_classes: Vec<AliasClass>,
    pub diags: Vec<Diag>,
}

/// Run the symbolic-address stack. `None` if any fixpoint backstop tripped.
pub(crate) fn analyze_aliases(prog: &Program, cfg: &Cfg, entries: &[u32]) -> Option<AliasResults> {
    let sym = solve(prog, cfg, entries, &SymFlow::new(prog));
    if !sym.converged {
        return None;
    }
    let n = prog.len();
    let top = SymFact::top();
    let accesses: Vec<Option<Access>> =
        (0..n).map(|i| classify(prog, i, sym.facts[i].as_ref().unwrap_or(&top))).collect();
    let trap_free: Vec<bool> = (0..n).map(|i| !may_trap(prog, i, accesses[i].as_ref())).collect();

    let avail =
        solve(prog, cfg, entries, &Avail(LocCtx { accesses: &accesses, trap_free: &trap_free }));
    let over = solve(
        prog,
        cfg,
        entries,
        &Overwritten(LocCtx { accesses: &accesses, trap_free: &trap_free }),
    );
    if !avail.converged || !over.converged {
        return None;
    }

    let mut out = AliasResults { addrs: Vec::new(), alias_classes: Vec::new(), diags: Vec::new() };
    for i in 0..n {
        // Address facts only where the symbolic solution actually applies.
        if sym.facts[i].is_none() {
            continue;
        }
        let Some(a) = &accesses[i] else { continue };
        let Some(l) = a.loc else { continue };
        out.addrs.push(AddrFact {
            packet: i,
            slot: a.slot,
            kind: a.kind,
            base: l.base,
            off: l.off,
            bytes: l.bytes,
        });

        match a.kind {
            AccessKind::Load
                if avail.facts[i].as_ref().is_some_and(|f| f.iter().any(|x| x.covers(l))) =>
            {
                out.diags.push(diag_at(
                    prog,
                    i,
                    a.slot,
                    Severity::Info,
                    Kind::RedundantLoad,
                    format!(
                        "reload of {}: the location's value is unchanged since it was \
                         last loaded or stored on every path here",
                        render_loc(l)
                    ),
                ));
            }
            AccessKind::Store
                if trap_free[i]
                    && over.facts[i].as_ref().is_some_and(|f| f.iter().any(|x| x.covers(l))) =>
            {
                out.diags.push(diag_at(
                    prog,
                    i,
                    a.slot,
                    Severity::Warning,
                    Kind::DeadStore,
                    format!(
                        "dead store: all {} bytes at {} are overwritten on every path \
                         before anything can read them",
                        l.bytes,
                        render_loc(l)
                    ),
                ));
            }
            _ => {}
        }
    }

    // Alias classes: accesses that provably start at the same address.
    let mut keyed: Vec<((AddrBase, i32), (usize, u8))> =
        out.addrs.iter().map(|f| ((f.base, f.off), (f.packet, f.slot))).collect();
    keyed.sort();
    let mut k = 0;
    while k < keyed.len() {
        let key = keyed[k].0;
        let mut members: Vec<(usize, u8)> = Vec::new();
        while k < keyed.len() && keyed[k].0 == key {
            members.push(keyed[k].1);
            k += 1;
        }
        if members.len() >= 2 {
            out.alias_classes.push(AliasClass { base: key.0, off: key.1, accesses: members });
        }
    }
    Some(out)
}

fn render_loc(l: MemLoc) -> String {
    match l.base {
        AddrBase::Abs => format!("{:#x}", l.off as u32),
        AddrBase::Entry(r) => format!("entry({r}){:+}", l.off),
    }
}

fn diag_at(
    prog: &Program,
    packet: usize,
    slot: u8,
    severity: Severity,
    kind: Kind,
    message: String,
) -> Diag {
    Diag {
        severity,
        kind,
        packet,
        addr: prog.addr_of(packet),
        slot: Some(slot),
        reg: None,
        cycles_short: None,
        message,
    }
}

/// Cross-CPU shared-address race check: both programs' provably-absolute
/// accesses are intersected; an overlapping pair with at least one plain
/// (non-atomic) write is a race under the paper's shared 4 MB dual-CPU
/// memory. Diagnostics attach to `prog_a`'s packets. The check abstains
/// (empty result) when either program has trap handlers — a handler could
/// retarget bases mid-run and the addresses stop being provable.
pub fn shared_race_check(prog_a: &Program, prog_b: &Program) -> Vec<Diag> {
    let has_rte =
        |p: &Program| p.packets().iter().any(|k| k.slots().any(|(_, i)| matches!(i, Instr::Rte)));
    if has_rte(prog_a) || has_rte(prog_b) {
        return Vec::new();
    }
    let abs = |prog: &Program| -> Option<Vec<(MemLoc, usize, u8, AccessKind)>> {
        let cfg = Cfg::build(prog);
        let sym = solve(prog, &cfg, &[], &SymFlow::new(prog));
        if !sym.converged {
            return None;
        }
        let mut v = Vec::new();
        for i in 0..prog.len() {
            let Some(fact) = &sym.facts[i] else { continue };
            if let Some(a) = classify(prog, i, fact) {
                if let Some(l) = a.loc {
                    if l.base == AddrBase::Abs {
                        v.push((l, i, a.slot, a.kind));
                    }
                }
            }
        }
        Some(v)
    };
    let (Some(aa), Some(bb)) = (abs(prog_a), abs(prog_b)) else { return Vec::new() };

    let writes =
        |k: AccessKind| matches!(k, AccessKind::Store | AccessKind::CondStore | AccessKind::Atomic);
    let mut diags = Vec::new();
    for (la, pa, sa, ka) in &aa {
        for (lb, pb, _sb, kb) in &bb {
            if !la.may_overlap(*lb) {
                continue;
            }
            let racy = (writes(*ka) || writes(*kb))
                && !(matches!(ka, AccessKind::Atomic) && matches!(kb, AccessKind::Atomic));
            if racy && diags.len() < 16 {
                diags.push(diag_at(
                    prog_a,
                    *pa,
                    *sa,
                    Severity::Warning,
                    Kind::SharedRace,
                    format!(
                        "{} of {} races the other CPU's {} at its packet {} \
                         (overlapping shared addresses, not both atomic)",
                        ka.as_str(),
                        render_loc(*la),
                        kb.as_str(),
                        pb
                    ),
                ));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use majc_isa::{CachePolicy, MemWidth, Packet};

    fn setlo(rd: u8, imm: i16) -> Instr {
        Instr::SetLo { rd: Reg::g(rd), imm }
    }

    fn ld(rd: u8, base: u8, off: i16) -> Instr {
        Instr::Ld {
            w: MemWidth::W,
            pol: CachePolicy::Cached,
            rd: Reg::g(rd),
            base: Reg::g(base),
            off: Off::Imm(off),
        }
    }

    fn st(rs: u8, base: u8, off: i16) -> Instr {
        Instr::St {
            w: MemWidth::W,
            pol: CachePolicy::Cached,
            rs: Reg::g(rs),
            base: Reg::g(base),
            off: Off::Imm(off),
        }
    }

    fn run(packets: Vec<Packet>) -> AliasResults {
        let p = Program::new(0, packets);
        let cfg = Cfg::build(&p);
        analyze_aliases(&p, &cfg, &[]).expect("converges")
    }

    #[test]
    fn entry_relative_addresses_fold_offsets() {
        // g0 is an entry base; g1 = g0 + 8; the two loads must-alias.
        let r = run(vec![
            Packet::solo(Instr::Alu {
                op: AluOp::Add,
                rd: Reg::g(1),
                rs1: Reg::g(0),
                src2: Src::Imm(8),
            })
            .unwrap(),
            Packet::solo(ld(2, 0, 8)).unwrap(),
            Packet::solo(ld(3, 1, 0)).unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        assert_eq!(r.alias_classes.len(), 1, "{:?}", r.alias_classes);
        let c = &r.alias_classes[0];
        assert_eq!(c.base, AddrBase::Entry(Reg::g(0)));
        assert_eq!(c.off, 8);
        assert_eq!(c.accesses, vec![(1, 0), (2, 0)]);
        // And the second load is a redundant reload of the first.
        assert!(r.diags.iter().any(|d| d.kind == Kind::RedundantLoad && d.packet == 2));
    }

    #[test]
    fn store_to_load_forwarding_marks_reload_redundant() {
        let r = run(vec![
            Packet::solo(setlo(0, 0x100)).unwrap(),
            Packet::solo(st(1, 0, 0)).unwrap(),
            Packet::solo(ld(2, 0, 0)).unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        assert!(r.diags.iter().any(|d| d.kind == Kind::RedundantLoad && d.packet == 2));
    }

    #[test]
    fn intervening_may_alias_store_blocks_redundancy() {
        // The second store's base is unknown (g9 untouched = entry value of
        // a *different* register): may alias, so the reload is not redundant.
        let r = run(vec![
            Packet::solo(ld(2, 0, 0)).unwrap(),
            Packet::solo(st(1, 9, 0)).unwrap(),
            Packet::solo(ld(3, 0, 0)).unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        assert!(
            !r.diags.iter().any(|d| d.kind == Kind::RedundantLoad),
            "a may-aliasing store must kill availability: {:?}",
            r.diags
        );
    }

    #[test]
    fn dead_store_is_proved_only_when_aligned_and_overwritten() {
        // Both stores hit the same absolute aligned word; the first is dead.
        let r = run(vec![
            Packet::solo(setlo(0, 0x100)).unwrap(),
            Packet::solo(st(1, 0, 0)).unwrap(),
            Packet::solo(st(2, 0, 0)).unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        let dead: Vec<usize> =
            r.diags.iter().filter(|d| d.kind == Kind::DeadStore).map(|d| d.packet).collect();
        assert_eq!(dead, vec![1], "{:?}", r.diags);

        // Same shape with an entry-relative base: alignment is unknowable,
        // the store could trap, memory would be observable — no dead store.
        let r = run(vec![
            Packet::solo(st(1, 0, 0)).unwrap(),
            Packet::solo(st(2, 0, 0)).unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        assert!(
            !r.diags.iter().any(|d| d.kind == Kind::DeadStore),
            "possibly-trapping stores are never dead: {:?}",
            r.diags
        );
    }

    #[test]
    fn load_between_stores_keeps_the_first_alive() {
        let r = run(vec![
            Packet::solo(setlo(0, 0x100)).unwrap(),
            Packet::solo(st(1, 0, 0)).unwrap(),
            Packet::solo(ld(3, 0, 0)).unwrap(),
            Packet::solo(st(2, 0, 0)).unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        assert!(!r.diags.iter().any(|d| d.kind == Kind::DeadStore), "{:?}", r.diags);
    }

    #[test]
    fn cross_cpu_race_on_overlapping_absolute_addresses() {
        let mk = |store: bool| {
            Program::new(
                0,
                vec![
                    Packet::solo(setlo(0, 0x200)).unwrap(),
                    Packet::solo(if store { st(1, 0, 0) } else { ld(1, 0, 0) }).unwrap(),
                    Packet::solo(Instr::Halt).unwrap(),
                ],
            )
        };
        let racy = shared_race_check(&mk(true), &mk(false));
        assert_eq!(racy.len(), 1, "store vs load on one address races: {racy:?}");
        assert_eq!(racy[0].kind, Kind::SharedRace);
        let clean = shared_race_check(&mk(false), &mk(false));
        assert!(clean.is_empty(), "load vs load never races");
    }

    /// Random resets (to the real or a synthetic entry), `set`s and `join`s
    /// on the sparse fact and on a dense 224-register model: both must
    /// read the same everywhere, agree on every join's "changed" flag, and
    /// the sparse map must stay sorted with no entry equal to its default.
    #[test]
    fn sparse_fact_matches_a_dense_model() {
        const N: usize = majc_isa::NUM_REGS as usize;
        const POOL: [u8; 9] = [0, 1, 2, 63, 64, 95, 96, 191, 223];
        let entry: [Sym; N] = std::array::from_fn(|r| Sym::Ent(r as u8, 0));
        let mut rng = majc_isa::SplitMix64::new(0xA11A_5EED);
        let mut merged = Vec::new();
        for _ in 0..200 {
            let mut sparse = [SymFact::entry(), SymFact::top(), SymFact::entry()];
            let mut dense = [entry, [Sym::Top; N], entry];
            for _ in 0..40 {
                let k = rng.index(3);
                match rng.below(8) {
                    0 => {
                        let real = rng.flip();
                        sparse[k] = if real { SymFact::entry() } else { SymFact::top() };
                        dense[k] = if real { entry } else { [Sym::Top; N] };
                    }
                    1..=4 => {
                        let r = *rng.pick(&POOL);
                        let v = match rng.below(4) {
                            0 => Sym::Top,
                            // Often the register's own entry value: the default.
                            1 => Sym::Ent(r, 0),
                            2 => Sym::Ent(*rng.pick(&POOL), rng.range_i32(-1, 1)),
                            _ => Sym::Abs(rng.range_i32(0, 2)),
                        };
                        sparse[k].set(Reg::from_index(r).unwrap(), v);
                        dense[k][r as usize] = v;
                    }
                    _ => {
                        let m = rng.index(3);
                        let src = sparse[m].clone();
                        let changed = sparse[k].join(&src, &mut merged);
                        let other = dense[m];
                        let mut dense_changed = false;
                        for (a, b) in dense[k].iter_mut().zip(other) {
                            let j = join_sym(*a, b);
                            dense_changed |= j != *a;
                            *a = j;
                        }
                        assert_eq!(changed, dense_changed, "join changed flag");
                    }
                }
                let (s, d) = (&sparse[k], &dense[k]);
                for (r, &v) in d.iter().enumerate() {
                    assert_eq!(s.get(Reg::from_index(r as u8).unwrap()), v, "register {r}");
                }
                assert!(s.map.windows(2).all(|w| w[0].0 < w[1].0), "sorted, no duplicates");
                assert!(
                    s.map.iter().all(|&(r, v)| v != SymFact::default_of(s.entry, r)),
                    "no entry equal to the default"
                );
            }
        }
    }
}
