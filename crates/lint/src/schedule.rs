//! Static schedule analysis.
//!
//! Replays the issue model of `majc_core::cycle` symbolically over the
//! packet CFG. Per packet the analysis tracks, relative to that packet's
//! earliest possible issue cycle, how many cycles remain until each
//! register's pending result becomes visible to each of the four consuming
//! functional units — exactly the asymmetric-bypass scoreboard view of
//! paper §3.2 — plus the two structural resources (the non-pipelined FU0
//! divider and the double-precision initiation interval).
//!
//! Pending results split into two families:
//!
//! * **interlocked** producers (loads/atomics and the divide families):
//!   the hardware scoreboard stalls consumers, so an early read only costs
//!   cycles;
//! * **deterministic** producers (1-cycle ops, multiplies, FP): the real
//!   MAJC-5200 does *not* interlock these. A read before the result is
//!   visible to the consuming unit returns stale data — the
//!   *exposed-latency hazard* this pass exists to flag.
//!
//! Join over CFG paths is element-wise max (the hazard-maximising path
//! wins); the lattice is finite (delays are bounded by the largest
//! latency), so the fixpoint terminates. Edge gaps use the *minimum*
//! possible front-end delay (correctly predicted branches), again the
//! hazard-maximising choice.
//!
//! For branch-free, memory-free programs the same model predicts the exact
//! issue cycle of every packet; [`predicted_issue_cycles`] is compared
//! against the cycle simulator's trace in the differential oracle tests.

use majc_core::TimingConfig;
use majc_isa::{Instr, LatClass, Packet, Program, Reg, NUM_REGS};

use crate::cfg::{Cfg, Edge};
use crate::diag::{Diag, Kind, Severity};
use crate::engine::{solve, Dataflow, Dir};

/// Load-to-use cycles assumed for pending load results. This is the
/// `PerfectPort` hit time — the *minimum* the LSU can deliver, which is the
/// hazard-maximising assumption (loads are interlocked, so a longer miss
/// only delays consumers further).
const LOAD_USE: u64 = 2;

/// Pending results of one register: cycles until its value is visible to
/// each consuming FU, per producer family.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Pending {
    reg: Reg,
    /// Deterministic producer.
    det: [u32; 4],
    /// Interlocked producer.
    int: [u32; 4],
}

impl Pending {
    fn is_zero(&self) -> bool {
        self.det == [0; 4] && self.int == [0; 4]
    }
}

/// Pending-result state at a packet boundary, relative to the packet's
/// earliest issue cycle.
///
/// Sparse: only registers with a result still in flight have an entry,
/// sorted by register, and no entry is all zero. Straight-line code keeps a
/// handful of results in flight out of 224 registers, so copying, shifting
/// and joining touch only those.
#[derive(PartialEq, Eq)]
pub(crate) struct State {
    pend: Vec<Pending>,
    /// Cycles until the FU0 divider is free.
    fu0: u32,
    /// Cycles until each FU can start another double-precision op.
    dbl: [u32; 4],
}

impl Clone for State {
    fn clone(&self) -> State {
        State { pend: self.pend.clone(), fu0: self.fu0, dbl: self.dbl }
    }

    /// Reuses `self`'s allocation: the fixpoint copies a state per edge.
    fn clone_from(&mut self, src: &State) {
        self.pend.clone_from(&src.pend);
        self.fu0 = src.fu0;
        self.dbl = src.dbl;
    }
}

impl State {
    pub(crate) fn empty() -> State {
        State { pend: Vec::new(), fu0: 0, dbl: [0; 4] }
    }

    fn pending(&self, r: Reg) -> Option<&Pending> {
        self.pend.binary_search_by_key(&r, |p| p.reg).ok().map(|i| &self.pend[i])
    }

    /// Cycles until `r`'s deterministic-latency result is visible to `fu`.
    fn det(&self, r: Reg, fu: u8) -> u32 {
        self.pending(r).map_or(0, |p| p.det[fu as usize])
    }

    /// Cycles until `r`'s interlocked result is visible to `fu`.
    fn int(&self, r: Reg, fu: u8) -> u32 {
        self.pending(r).map_or(0, |p| p.int[fu as usize])
    }

    /// A new producer of `r` whose result reaches FU `f` after `vis[f]`
    /// cycles; it replaces whatever was pending for `r`.
    fn set(&mut self, r: Reg, interlocked: bool, vis: [u32; 4]) {
        let (det, int) = if interlocked { ([0; 4], vis) } else { (vis, [0; 4]) };
        let p = Pending { reg: r, det, int };
        match (self.pend.binary_search_by_key(&r, |p| p.reg), p.is_zero()) {
            (Ok(i), false) => self.pend[i] = p,
            (Ok(i), true) => {
                self.pend.remove(i);
            }
            (Err(i), false) => self.pend.insert(i, p),
            (Err(_), true) => {}
        }
    }

    /// Element-wise max join (a merge of the two sorted lists); returns
    /// true if `self` changed.
    fn join(&mut self, other: &State) -> bool {
        let mut changed = raise(&mut self.fu0, other.fu0);
        for f in 0..4 {
            changed |= raise(&mut self.dbl[f], other.dbl[f]);
        }
        let mut i = 0;
        for o in &other.pend {
            while i < self.pend.len() && self.pend[i].reg < o.reg {
                i += 1;
            }
            match self.pend.get_mut(i) {
                Some(p) if p.reg == o.reg => {
                    for f in 0..4 {
                        changed |= raise(&mut p.det[f], o.det[f]);
                        changed |= raise(&mut p.int[f], o.int[f]);
                    }
                }
                _ => {
                    self.pend.insert(i, *o);
                    changed = true;
                }
            }
            i += 1;
        }
        changed
    }

    /// Re-base the state `by` cycles later (crossing an edge); results that
    /// become visible everywhere drop out.
    pub(crate) fn shift(&mut self, by: u32) {
        self.pend.retain_mut(|p| {
            for x in p.det.iter_mut().chain(p.int.iter_mut()) {
                *x = x.saturating_sub(by);
            }
            !p.is_zero()
        });
        self.fu0 = self.fu0.saturating_sub(by);
        for f in 0..4 {
            self.dbl[f] = self.dbl[f].saturating_sub(by);
        }
    }
}

/// `*a = max(*a, b)`; true if `a` grew.
fn raise(a: &mut u32, b: u32) -> bool {
    let grew = b > *a;
    if grew {
        *a = b;
    }
    grew
}

/// One deterministic-latency violation found while transferring a packet.
pub(crate) struct Stall {
    pub slot: u8,
    pub reg: Reg,
    pub cycles_short: u64,
}

/// Symbolically issue `pkt` against `state`, mutating it into the state
/// just after issue (still relative to the packet's entry base). Returns
/// the issue offset and any deterministic-latency stalls.
pub(crate) fn transfer(
    state: &mut State,
    pkt: &Packet,
    timing: &TimingConfig,
) -> (u32, Vec<Stall>) {
    // Hardware-enforced constraints: interlocked operands + structural.
    let mut hw = 0u32;
    for (fu, ins) in pkt.slots() {
        for r in ins.uses().iter() {
            hw = hw.max(state.int(r, fu));
        }
        match ins.lat_class() {
            LatClass::IDiv => hw = hw.max(state.fu0),
            LatClass::FpDouble => hw = hw.max(state.dbl[fu as usize]),
            _ => {}
        }
    }

    // Deterministic operands: on the modelled (scoreboarded) machine these
    // also stall; on the paper-literal machine a read before visibility is
    // an exposed-latency hazard. `hw` is when the exposed machine would
    // issue, so anything pending past it is read early there.
    let mut stalls = Vec::new();
    let mut t = hw;
    for (fu, ins) in pkt.slots() {
        for r in ins.uses().iter() {
            let pend = state.det(r, fu);
            if pend > hw {
                stalls.push(Stall { slot: fu, reg: r, cycles_short: u64::from(pend - hw) });
            }
            t = t.max(pend);
        }
    }

    // Scoreboard update, slot order (later slots overwrite earlier ones,
    // matching the simulator's write-set semantics).
    for (fu, ins) in pkt.slots() {
        let class = ins.lat_class();
        match class {
            LatClass::IDiv => state.fu0 = t + timing.idiv_lat as u32,
            LatClass::FpDouble => state.dbl[fu as usize] = t + timing.dbl_ii as u32,
            _ => {}
        }
        let mut vis = [0u32; 4];
        for (cfu, v) in (0..4u8).zip(&mut vis) {
            *v = match class {
                LatClass::Load => t + LOAD_USE as u32,
                _ => t + timing.latency(class) as u32 + timing.xfu_delay(fu, cfu) as u32,
            };
        }
        for d in ins.defs().iter() {
            state.set(d, class.is_interlocked(), vis);
        }
    }

    (t, stalls)
}

/// Minimum cycles between issuing `pkt` and issuing across `edge`.
pub(crate) fn edge_gap(edge: Edge, timing: &TimingConfig) -> u32 {
    1 + match edge {
        Edge::Fall => 0,
        Edge::Taken | Edge::Call => timing.taken_bubble as u32,
    }
}

/// A packet-entry state plus the issue offset the packet's own transfer
/// found, which the outgoing edges re-base by.
struct Timed {
    state: State,
    issue: u32,
}

impl Clone for Timed {
    fn clone(&self) -> Timed {
        Timed { state: self.state.clone(), issue: self.issue }
    }

    fn clone_from(&mut self, src: &Timed) {
        self.state.clone_from(&src.state);
        self.issue = src.issue;
    }
}

/// The schedule fixpoint as an engine instance. The lattice is finite
/// (delays are bounded by the largest latency) and the join is a max, so
/// it terminates; an indirect-jump target starts with nothing pending.
struct Sched<'a> {
    prog: &'a Program,
    timing: &'a TimingConfig,
}

impl Dataflow for Sched<'_> {
    type Fact = Timed;

    fn dir(&self) -> Dir {
        Dir::Forward
    }

    fn boundary(&self) -> Timed {
        Timed { state: State::empty(), issue: 0 }
    }

    fn join(&self, into: &mut Timed, other: &Timed) -> bool {
        into.state.join(&other.state)
    }

    fn transfer(&self, node: usize, fact: &mut Timed) {
        fact.issue = transfer(&mut fact.state, &self.prog.packets()[node], self.timing).0;
    }

    fn edge(&self, _from: usize, _to: usize, edge: Edge, fact: &mut Timed) -> bool {
        fact.state.shift(fact.issue + edge_gap(edge, self.timing));
        true
    }
}

/// Run the schedule fixpoint and emit latency findings.
///
/// `exposed` selects the hardware contract: `true` reports deterministic
/// early reads as [`Kind::ExposedLatency`] errors (paper-literal pipeline,
/// no interlock); `false` reports them as [`Kind::ScheduleStall`] info
/// notes (the modelled machine's scoreboard covers them).
pub(crate) fn check(
    prog: &Program,
    cfg: &Cfg,
    timing: &TimingConfig,
    exposed: bool,
    diags: &mut Vec<Diag>,
) {
    // Trap-vector entries are not seeded: the check covers code reached
    // from the entry or, with an indirect jump, from every packet.
    let sol = solve(prog, cfg, &[], &Sched { prog, timing });

    // One reporting pass over every analysed packet.
    for (i, f) in sol.facts.iter().enumerate() {
        let Some(f) = f else { continue };
        let mut s = f.state.clone();
        let (_, stalls) = transfer(&mut s, &prog.packets()[i], timing);
        for st in stalls {
            let (severity, kind, verb) = if exposed {
                (Severity::Error, Kind::ExposedLatency, "is read")
            } else {
                (Severity::Info, Kind::ScheduleStall, "stalls the packet")
            };
            diags.push(Diag {
                severity,
                kind,
                packet: i,
                addr: prog.addr_of(i),
                slot: Some(st.slot),
                reg: Some(st.reg),
                cycles_short: Some(st.cycles_short),
                message: format!(
                    "{} {} {} cycle{} before its deterministic-latency producer is visible to FU{}",
                    st.reg,
                    verb,
                    st.cycles_short,
                    if st.cycles_short == 1 { "" } else { "s" },
                    st.slot
                ),
            });
        }
    }
}

/// Exact per-packet issue cycles for a straight-line program, or `None` if
/// the program is not statically predictable (memory operations, or any
/// control transfer other than a final `halt`).
///
/// On predictable programs this reproduces `majc_core::cycle::CycleSim`
/// issue-for-issue under `PerfectPort` and a single context — the
/// differential-oracle tests assert exactly that.
pub fn predicted_issue_cycles(prog: &Program, timing: &TimingConfig) -> Option<Vec<u64>> {
    let n = prog.len();
    for (i, pkt) in prog.packets().iter().enumerate() {
        for (_, ins) in pkt.slots() {
            if ins.is_mem() {
                return None;
            }
        }
        match pkt.control() {
            None => {}
            Some(Instr::Halt) if i + 1 == n => {}
            Some(_) => return None,
        }
    }

    let mut avail = vec![[0u64; 4]; NUM_REGS as usize];
    let mut fu0_free = 0u64;
    let mut dbl_free = [0u64; 4];
    let mut ready = timing.front_latency;
    let mut last_issue = 0u64;
    let mut out = Vec::with_capacity(n);
    for pkt in prog.packets() {
        let mut t = ready.max(last_issue + 1);
        for (fu, ins) in pkt.slots() {
            for r in ins.uses().iter() {
                t = t.max(avail[r.index()][fu as usize]);
            }
            match ins.lat_class() {
                LatClass::IDiv => t = t.max(fu0_free),
                LatClass::FpDouble => t = t.max(dbl_free[fu as usize]),
                _ => {}
            }
        }
        for (fu, ins) in pkt.slots() {
            let class = ins.lat_class();
            match class {
                LatClass::IDiv => fu0_free = t + timing.idiv_lat,
                LatClass::FpDouble => dbl_free[fu as usize] = t + timing.dbl_ii,
                _ => {}
            }
            for d in ins.defs().iter() {
                for cfu in 0..4u8 {
                    avail[d.index()][cfu as usize] =
                        t + timing.latency(class) + timing.xfu_delay(fu, cfu);
                }
            }
        }
        ready = t + 1;
        last_issue = t;
        out.push(t);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use majc_isa::{AluOp, Reg, Src};

    fn prog(pkts: Vec<Packet>) -> Program {
        Program::new(0, pkts)
    }

    fn add(rd: Reg, rs1: Reg) -> Instr {
        Instr::Alu { op: AluOp::Add, rd, rs1, src2: Src::Imm(1) }
    }

    #[test]
    fn fp_chain_flags_exposed_reads() {
        // fadd g0 then read g0 on FU1 next packet: 4-cycle producer, read
        // 3 cycles early on exposed hardware.
        let p = prog(vec![
            Packet::new(&[
                Instr::Nop,
                Instr::FAdd { rd: Reg::g(0), rs1: Reg::g(1), rs2: Reg::g(2) },
            ])
            .unwrap(),
            Packet::new(&[Instr::Nop, add(Reg::g(3), Reg::g(0))]).unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        let cfg = Cfg::build(&p);
        let mut diags = Vec::new();
        check(&p, &cfg, &TimingConfig::default(), true, &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, Kind::ExposedLatency);
        assert_eq!(diags[0].cycles_short, Some(3));
        assert_eq!(diags[0].packet, 1);
    }

    #[test]
    fn interlocked_divide_is_not_a_hazard() {
        let p = prog(vec![
            Packet::solo(Instr::Div { rd: Reg::g(0), rs1: Reg::g(1), rs2: Reg::g(2) }).unwrap(),
            Packet::solo(add(Reg::g(3), Reg::g(0))).unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        let cfg = Cfg::build(&p);
        let mut diags = Vec::new();
        check(&p, &cfg, &TimingConfig::default(), true, &mut diags);
        assert!(diags.is_empty(), "scoreboarded divide must not be flagged: {diags:?}");
    }

    #[test]
    fn loop_carried_hazard_found_via_fixpoint() {
        // Loop body: fmul writes g0, back-edge, read g0 at loop head one
        // packet later — only hazardous around the back edge.
        let p = prog(vec![
            Packet::new(&[Instr::Nop, add(Reg::g(3), Reg::g(0))]).unwrap(),
            Packet::new(&[
                Instr::Nop,
                Instr::FMul { rd: Reg::g(0), rs1: Reg::g(1), rs2: Reg::g(2) },
            ])
            .unwrap(),
            Packet::solo(Instr::Br {
                cond: majc_isa::Cond::Gt,
                rs: Reg::g(4),
                // Packets 0 and 1 are 8 bytes each: back to packet 0.
                off: -16,
                hint: true,
            })
            .unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        let cfg = Cfg::build(&p);
        let mut diags = Vec::new();
        check(&p, &cfg, &TimingConfig::default(), true, &mut diags);
        assert!(
            diags.iter().any(|d| d.kind == Kind::ExposedLatency && d.packet == 0),
            "back-edge hazard must be found: {diags:?}"
        );
    }

    #[test]
    fn predictable_program_schedule() {
        let timing = TimingConfig::default();
        let p = prog(vec![
            Packet::solo(add(Reg::g(0), Reg::g(0))).unwrap(),
            Packet::solo(add(Reg::g(1), Reg::g(0))).unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        let cycles = predicted_issue_cycles(&p, &timing).unwrap();
        let fl = timing.front_latency;
        assert_eq!(cycles, vec![fl, fl + 1, fl + 2]);

        // Memory or interior control makes a program unpredictable.
        let p2 =
            prog(vec![Packet::solo(Instr::Membar).unwrap(), Packet::solo(Instr::Halt).unwrap()]);
        assert!(predicted_issue_cycles(&p2, &timing).is_none());
    }

    /// Random `set`/`shift`/`join` sequences on the sparse state and on a
    /// dense 224-register model: both must read the same everywhere, agree
    /// on every join's "changed" flag, and the sparse list must stay sorted
    /// with no all-zero entry.
    #[test]
    fn sparse_state_matches_a_dense_model() {
        const N: usize = NUM_REGS as usize;
        #[derive(Clone)]
        struct Dense {
            det: [[u32; 4]; N],
            int: [[u32; 4]; N],
            fu0: u32,
            dbl: [u32; 4],
        }
        impl Dense {
            fn cells(&mut self) -> impl Iterator<Item = &mut u32> {
                let regs = self.det.iter_mut().chain(self.int.iter_mut()).flatten();
                regs.chain(std::iter::once(&mut self.fu0)).chain(self.dbl.iter_mut())
            }
        }
        let agree = |s: &State, d: &Dense| {
            for r in 0..N {
                let reg = Reg::from_index(r as u8).unwrap();
                for fu in 0..4u8 {
                    assert_eq!(s.det(reg, fu), d.det[r][fu as usize], "det {reg} fu{fu}");
                    assert_eq!(s.int(reg, fu), d.int[r][fu as usize], "int {reg} fu{fu}");
                }
            }
            assert_eq!((s.fu0, s.dbl), (d.fu0, d.dbl));
            assert!(s.pend.windows(2).all(|w| w[0].reg < w[1].reg), "sorted, no duplicates");
            assert!(s.pend.iter().all(|p| !p.is_zero()), "no all-zero entry");
        };
        const POOL: [u8; 9] = [0, 1, 2, 63, 64, 95, 96, 191, 223];
        let mut rng = majc_isa::SplitMix64::new(0x5C4E_D01E);
        for _ in 0..200 {
            let empty = Dense { det: [[0; 4]; N], int: [[0; 4]; N], fu0: 0, dbl: [0; 4] };
            let mut sparse = vec![State::empty(); 3];
            let mut dense = vec![empty; 3];
            for _ in 0..40 {
                let k = rng.index(3);
                match rng.below(4) {
                    0 => {
                        let r = *rng.pick(&POOL);
                        let mut vis = [0u32; 4];
                        if rng.below(4) != 0 {
                            vis.iter_mut().for_each(|v| *v = rng.below(6) as u32);
                        }
                        let interlocked = rng.flip();
                        sparse[k].set(Reg::from_index(r).unwrap(), interlocked, vis);
                        let d = &mut dense[k];
                        let (hot, cold) = if interlocked {
                            (&mut d.int, &mut d.det)
                        } else {
                            (&mut d.det, &mut d.int)
                        };
                        hot[r as usize] = vis;
                        cold[r as usize] = [0; 4];
                    }
                    1 => {
                        let by = rng.below(4) as u32;
                        sparse[k].shift(by);
                        dense[k].cells().for_each(|x| *x = x.saturating_sub(by));
                    }
                    2 => {
                        let m = rng.index(3);
                        let src = sparse[m].clone();
                        let changed = sparse[k].join(&src);
                        let mut other = dense[m].clone();
                        let mut dense_changed = false;
                        for (a, b) in dense[k].cells().zip(other.cells()) {
                            dense_changed |= *b > *a;
                            *a = (*a).max(*b);
                        }
                        assert_eq!(changed, dense_changed, "join changed flag");
                    }
                    _ => {
                        let (fu0, f, d) = (rng.below(5) as u32, rng.index(4), rng.below(5) as u32);
                        sparse[k].fu0 = fu0;
                        sparse[k].dbl[f] = d;
                        dense[k].fu0 = fu0;
                        dense[k].dbl[f] = d;
                    }
                }
                agree(&sparse[k], &dense[k]);
            }
        }
    }
}
