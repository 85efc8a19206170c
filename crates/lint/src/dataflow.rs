//! Register dataflow checks over the packet CFG.
//!
//! * **packet WAW**: two slots of one packet write the same register. The
//!   simulator's write-set applies slots in order so the last writer wins
//!   silently — on real hardware two units drive one destination port.
//! * **use-before-def**: a forward may-be-undefined analysis. All slots of
//!   a packet read the *old* register file (write-sets apply after the
//!   whole packet), so uses are checked before the packet's defs take
//!   effect. Conditional moves only may-define and never clear
//!   undefinedness.
//! * **dead write**: a backward liveness analysis. Exit nodes (halt,
//!   indirect jumps, malformed control) treat every register as live —
//!   harnesses read results out of the register file — so a write is dead
//!   only when every path overwrites it before any read. Pair/group loads
//!   are flagged only when no lane is read: the extra lanes are forced by
//!   the access width, and unread padding (e.g. the w component of a
//!   packed vertex) is deliberate.
//! * **ineffectual packet**: every result of a packet is dead and it has no
//!   memory, control, or trap side effect — a whole issue cycle spent on
//!   nothing.

use majc_isa::{Instr, Packet, Program, Reg, NUM_REGS};

use crate::cfg::Cfg;
use crate::diag::{Diag, Kind, Severity};
use crate::engine::{solve, Dataflow, Dir};

/// A 224-register bitset.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RegSet([u64; 4]);

impl RegSet {
    pub(crate) fn full() -> RegSet {
        let mut s = RegSet::default();
        for r in 0..NUM_REGS as usize {
            s.insert(r);
        }
        s
    }

    #[inline]
    pub(crate) fn insert(&mut self, r: usize) {
        self.0[r / 64] |= 1 << (r % 64);
    }

    #[inline]
    pub(crate) fn remove(&mut self, r: usize) {
        self.0[r / 64] &= !(1 << (r % 64));
    }

    #[inline]
    pub(crate) fn contains(&self, r: usize) -> bool {
        self.0[r / 64] & (1 << (r % 64)) != 0
    }

    /// Remove every member of `other` in place.
    pub(crate) fn subtract(&mut self, other: &RegSet) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a &= !b;
        }
    }

    /// Union in place; true if `self` grew.
    pub(crate) fn union(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }
}

/// Does this instruction write its destinations unconditionally? A
/// conditional move leaves the old value when the predicate fails, so it
/// neither defines a register for undefinedness purposes nor kills a live
/// range.
fn is_strong_def(ins: &Instr) -> bool {
    !matches!(ins, Instr::CMove { .. })
}

fn strong_defs(pkt: &Packet) -> RegSet {
    let mut s = RegSet::default();
    for (_, ins) in pkt.slots() {
        if is_strong_def(ins) {
            for d in ins.defs().iter() {
                s.insert(d.index());
            }
        }
    }
    s
}

fn uses(pkt: &Packet) -> RegSet {
    let mut s = RegSet::default();
    for (_, ins) in pkt.slots() {
        for u in ins.uses().iter() {
            s.insert(u.index());
        }
    }
    s
}

/// Flag same-register writes from two slots of one packet. Returns the
/// set of (packet, reg) pairs flagged so the dead-write pass can skip them.
pub(crate) fn check_packet_waw(prog: &Program, diags: &mut Vec<Diag>) -> Vec<(usize, Reg)> {
    let mut flagged = Vec::new();
    for (i, pkt) in prog.packets().iter().enumerate() {
        let mut writer: [Option<u8>; NUM_REGS as usize] = [None; NUM_REGS as usize];
        for (fu, ins) in pkt.slots() {
            for d in ins.defs().iter() {
                if let Some(first) = writer[d.index()] {
                    diags.push(Diag {
                        severity: Severity::Error,
                        kind: Kind::PacketWaw,
                        packet: i,
                        addr: prog.addr_of(i),
                        slot: Some(fu),
                        reg: Some(d),
                        cycles_short: None,
                        message: format!("slots {first} and {fu} both write {d} in one packet"),
                    });
                    flagged.push((i, d));
                } else {
                    writer[d.index()] = Some(fu);
                }
            }
        }
    }
    flagged
}

/// May-be-undefined as an engine instance: the fact is the set of registers
/// some entry path leaves unwritten; packets kill their strong defs.
struct Undef {
    /// Per packet: the registers it strongly defines.
    kills: Vec<RegSet>,
    entry_undef: RegSet,
}

impl Dataflow for Undef {
    type Fact = RegSet;

    fn dir(&self) -> Dir {
        Dir::Forward
    }

    fn boundary(&self) -> RegSet {
        // A jmpl target or trap vector is no better defined than the entry,
        // so the synthetic boundary (the default) is the same set.
        self.entry_undef
    }

    fn join(&self, into: &mut RegSet, other: &RegSet) -> bool {
        into.union(other)
    }

    fn transfer(&self, node: usize, fact: &mut RegSet) {
        fact.subtract(&self.kills[node]);
    }
}

/// Forward may-be-undefined analysis. `entry_defined == None` assumes every
/// register may be uninitialised at entry; `Some(set)` treats exactly that
/// set as initialised (a harness calling convention).
pub(crate) fn check_use_before_def(
    prog: &Program,
    cfg: &Cfg,
    entry_defined: &[Reg],
    diags: &mut Vec<Diag>,
) {
    if prog.is_empty() {
        return;
    }
    let mut entry_undef = RegSet::full();
    for r in entry_defined {
        entry_undef.remove(r.index());
    }
    let kills = prog.packets().iter().map(strong_defs).collect();
    let sol = solve(prog, cfg, &[], &Undef { kills, entry_undef });

    for (i, undef) in sol.facts.iter().enumerate() {
        let Some(undef) = undef else { continue };
        for (fu, ins) in prog.packets()[i].slots() {
            for u in ins.uses().iter() {
                if undef.contains(u.index()) {
                    diags.push(Diag {
                        severity: Severity::Error,
                        kind: Kind::UseBeforeDef,
                        packet: i,
                        addr: prog.addr_of(i),
                        slot: Some(fu),
                        reg: Some(u),
                        cycles_short: None,
                        message: format!("{u} may be read before any instruction writes it"),
                    });
                }
            }
        }
    }
}

/// Backward liveness; flags unconditional writes that no path can observe.
/// Returns the per-packet `live_in` sets so later passes (the ineffectual
/// packet check) can reuse the solution.
pub(crate) fn check_dead_writes(
    prog: &Program,
    cfg: &Cfg,
    waw: &[(usize, Reg)],
    diags: &mut Vec<Diag>,
) -> Vec<RegSet> {
    let n = prog.len();
    if n == 0 {
        return Vec::new();
    }
    // Per packet, computed once: kill and gen sets, and whether it is an
    // exit (all registers live after it).
    let kill: Vec<RegSet> = prog.packets().iter().map(strong_defs).collect();
    let gen: Vec<RegSet> = prog.packets().iter().map(uses).collect();
    let exit: Vec<bool> = (0..n).map(|i| cfg.is_exit(i, prog)).collect();
    let mut live_in: Vec<RegSet> = vec![RegSet::default(); n];
    let transfer = |i: usize, live_in: &[RegSet]| -> RegSet {
        let mut out = if exit[i] {
            RegSet::full()
        } else {
            let mut s = RegSet::default();
            for &(succ, _) in &cfg.succs[i] {
                s.union(&live_in[succ]);
            }
            s
        };
        out.subtract(&kill[i]);
        out.union(&gen[i]);
        out
    };

    let mut changed = true;
    let mut rounds = 0usize;
    while changed {
        changed = false;
        rounds += 1;
        if rounds > n + NUM_REGS as usize {
            break; // defensive backstop; liveness converges far earlier
        }
        for i in (0..n).rev() {
            let next = transfer(i, &live_in);
            if next != live_in[i] {
                live_in[i] = next;
                changed = true;
            }
        }
    }

    for (i, &is_exit) in exit.iter().enumerate() {
        if !cfg.reachable[i] || is_exit {
            continue;
        }
        let mut live_out = RegSet::default();
        for &(succ, _) in &cfg.succs[i] {
            live_out.union(&live_in[succ]);
        }
        for (fu, ins) in prog.packets()[i].slots() {
            if !is_strong_def(ins) {
                continue;
            }
            let defs = ins.defs();
            // Pair/group loads write every lane the layout forces; an
            // unread padding lane is not a bug. Flag a wide load only when
            // *no* lane is ever read.
            if matches!(ins, Instr::Ld { .. }) && defs.len() > 1 {
                let dead = |d: Reg| !live_out.contains(d.index()) && !waw.contains(&(i, d));
                if defs.iter().all(dead) {
                    let base = defs.iter().next().expect("wide load has defs");
                    diags.push(Diag {
                        severity: Severity::Warning,
                        kind: Kind::DeadWrite,
                        packet: i,
                        addr: prog.addr_of(i),
                        slot: Some(fu),
                        reg: Some(base),
                        cycles_short: None,
                        message: format!(
                            "no lane of the {}-register load at {base} is ever read",
                            defs.len()
                        ),
                    });
                }
                continue;
            }
            for d in defs.iter() {
                if !live_out.contains(d.index()) && !waw.contains(&(i, d)) {
                    diags.push(Diag {
                        severity: Severity::Warning,
                        kind: Kind::DeadWrite,
                        packet: i,
                        addr: prog.addr_of(i),
                        slot: Some(fu),
                        reg: Some(d),
                        cycles_short: None,
                        message: format!("{d} is overwritten on every path before being read"),
                    });
                }
            }
        }
    }
    live_in
}

/// Flag whole packets whose every result is dead: no memory or control
/// effect, nothing that can trap, at least one real instruction, and every
/// written register overwritten on all paths before a read. The packet
/// burns an issue cycle for nothing — usually a leftover from hand-editing
/// a kernel.
pub(crate) fn check_ineffectual(
    prog: &Program,
    cfg: &Cfg,
    live_in: &[RegSet],
    diags: &mut Vec<Diag>,
) {
    for (i, pkt) in prog.packets().iter().enumerate() {
        if !cfg.reachable[i] || cfg.is_exit(i, prog) {
            continue;
        }
        let effectful = pkt.slots().any(|(_, ins)| {
            ins.is_mem() || ins.is_control() || matches!(ins, Instr::Div { .. } | Instr::Rem { .. })
        });
        if effectful || pkt.slots().next().is_none() {
            continue;
        }
        let mut live_out = RegSet::default();
        for &(succ, _) in &cfg.succs[i] {
            live_out.union(&live_in[succ]);
        }
        let all_dead =
            pkt.slots().all(|(_, ins)| ins.defs().iter().all(|d| !live_out.contains(d.index())));
        let writes_something = pkt.slots().any(|(_, ins)| ins.defs().iter().next().is_some());
        if writes_something && all_dead {
            diags.push(Diag {
                severity: Severity::Info,
                kind: Kind::IneffectualPacket,
                packet: i,
                addr: prog.addr_of(i),
                slot: None,
                reg: None,
                cycles_short: None,
                message: "packet computes only values that are dead on every path".into(),
            });
        }
    }
}

/// Flag packets the entry can never reach (skipped when an indirect jump
/// makes reachability unknowable).
pub(crate) fn check_unreachable(prog: &Program, cfg: &Cfg, diags: &mut Vec<Diag>) {
    if cfg.has_indirect {
        return;
    }
    for i in 0..prog.len() {
        if !cfg.reachable[i] {
            diags.push(Diag {
                severity: Severity::Warning,
                kind: Kind::Unreachable,
                packet: i,
                addr: prog.addr_of(i),
                slot: None,
                reg: None,
                cycles_short: None,
                message: "packet is unreachable from the entry".into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use majc_isa::{AluOp, Packet, Src};

    fn add(rd: Reg, rs1: Reg) -> Instr {
        Instr::Alu { op: AluOp::Add, rd, rs1, src2: Src::Imm(1) }
    }

    #[test]
    fn waw_in_one_packet() {
        let p = Program::new(
            0,
            vec![
                Packet::new(&[add(Reg::g(0), Reg::g(1)), add(Reg::g(0), Reg::g(2))]).unwrap(),
                Packet::solo(Instr::Halt).unwrap(),
            ],
        );
        let mut diags = Vec::new();
        let waw = check_packet_waw(&p, &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, Kind::PacketWaw);
        assert_eq!(waw, vec![(0, Reg::g(0))]);
    }

    #[test]
    fn use_before_def_respects_entry_set() {
        let p = Program::new(
            0,
            vec![
                Packet::solo(add(Reg::g(1), Reg::g(0))).unwrap(),
                Packet::solo(Instr::Halt).unwrap(),
            ],
        );
        let cfg = Cfg::build(&p);
        let mut diags = Vec::new();
        check_use_before_def(&p, &cfg, &[], &mut diags);
        assert!(diags.iter().any(|d| d.kind == Kind::UseBeforeDef && d.reg == Some(Reg::g(0))));

        diags.clear();
        check_use_before_def(&p, &cfg, &[Reg::g(0)], &mut diags);
        assert!(diags.is_empty());
    }

    #[test]
    fn dead_write_found_and_conditional_write_spared() {
        let p = Program::new(
            0,
            vec![
                Packet::solo(Instr::SetLo { rd: Reg::g(0), imm: 1 }).unwrap(), // dead
                Packet::solo(Instr::SetLo { rd: Reg::g(0), imm: 2 }).unwrap(),
                Packet::solo(add(Reg::g(1), Reg::g(0))).unwrap(),
                Packet::solo(Instr::Halt).unwrap(),
            ],
        );
        let cfg = Cfg::build(&p);
        let mut diags = Vec::new();
        check_dead_writes(&p, &cfg, &[], &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].packet, 0);
        assert_eq!(diags[0].kind, Kind::DeadWrite);

        // A conditional move between the two writes keeps the first alive
        // (it reads rd) and is itself never a dead write.
        let p2 = Program::new(
            0,
            vec![
                Packet::solo(Instr::SetLo { rd: Reg::g(0), imm: 1 }).unwrap(),
                Packet::solo(Instr::CMove {
                    cond: majc_isa::Cond::Gt,
                    rc: Reg::g(2),
                    rd: Reg::g(0),
                    rs: Reg::g(3),
                })
                .unwrap(),
                Packet::solo(add(Reg::g(1), Reg::g(0))).unwrap(),
                Packet::solo(Instr::Halt).unwrap(),
            ],
        );
        let cfg2 = Cfg::build(&p2);
        let mut diags2 = Vec::new();
        check_dead_writes(&p2, &cfg2, &[], &mut diags2);
        assert!(diags2.is_empty(), "{diags2:?}");
    }

    #[test]
    fn ineffectual_packet_is_flagged_but_memory_is_not() {
        let p = Program::new(
            0,
            vec![
                // Both slots' results die at packet 1's overwrites.
                Packet::new(&[add(Reg::g(0), Reg::g(2)), add(Reg::g(1), Reg::g(2))]).unwrap(),
                Packet::new(&[add(Reg::g(0), Reg::g(3)), add(Reg::g(1), Reg::g(3))]).unwrap(),
                Packet::solo(Instr::Halt).unwrap(),
            ],
        );
        let cfg = Cfg::build(&p);
        let mut diags = Vec::new();
        let live_in = check_dead_writes(&p, &cfg, &[], &mut diags);
        diags.clear();
        check_ineffectual(&p, &cfg, &live_in, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].kind, diags[0].packet), (Kind::IneffectualPacket, 0));
        assert_eq!(diags[0].severity, Severity::Info);

        // A store's value may be dead in registers but the packet still has
        // a memory effect — never ineffectual.
        let p2 = Program::new(
            0,
            vec![
                Packet::solo(Instr::St {
                    w: majc_isa::MemWidth::W,
                    pol: majc_isa::CachePolicy::Cached,
                    rs: Reg::g(0),
                    base: Reg::g(1),
                    off: majc_isa::Off::Imm(0),
                })
                .unwrap(),
                Packet::solo(Instr::Halt).unwrap(),
            ],
        );
        let cfg2 = Cfg::build(&p2);
        let mut d2 = Vec::new();
        let live2 = check_dead_writes(&p2, &cfg2, &[], &mut d2);
        d2.clear();
        check_ineffectual(&p2, &cfg2, &live2, &mut d2);
        assert!(d2.is_empty(), "{d2:?}");
    }
}
