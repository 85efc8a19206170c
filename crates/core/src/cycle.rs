//! Cycle-accurate model of one MAJC-5200 CPU.
//!
//! The pipeline (paper §3.2, Figure 2): Fetch (32-byte aligned I-cache
//! read), Align (2-bit header decode), Instruction Buffer, Decode (branch
//! prediction), Register Read, per-FU Execute pipelines, Trap/Write-back.
//! The machine is in-order; "only the non-deterministic loads and long
//! latency instructions are interlocked through a score-boarding
//! mechanism" — every other latency is deterministic and compiler-visible.
//!
//! The model issues one packet per cycle. For each packet it computes the
//! issue cycle from: front-end readiness (I-cache, redirects), the
//! scoreboard (per-register availability *as seen by each consuming
//! functional unit*, which is how the asymmetric bypass network of §3.2 is
//! expressed), and structural limits (the non-pipelined FU0 divider, the
//! double-precision initiation interval, LSU buffers, D-cache MSHRs, the
//! per-CPU cache port). Architectural execution happens at issue.
//!
//! Vertical micro-threading (paper §2) is modelled as N hardware contexts
//! sharing the pipeline and LSU: when the running context would stall on a
//! long-latency load, the machine switches to another ready context for a
//! small penalty.
//!
//! Every fact the issue logic needs about a packet is static: its width,
//! each slot's latency class and use/def register indices, slot 0's memory
//! operation, and its control kind. [`CpuCore`] issues from the program's
//! one decoded image, a [`Translation`] it builds (uncached) when it is
//! constructed, beside which it keeps each slot's latency class and
//! use/def indices (the functional engine never reads them, so cached
//! translations do not carry them): each step borrows the packet's facts and
//! executes the packet's micro-ops through the same handlers and per-packet
//! helper as the translated functional engine, buffering its register
//! writes in one reused [`WriteSet`]. The interpreter
//! ([`crate::exec::exec_slot`]) shares none of this and stays the
//! independent semantic oracle the engines are fuzzed against. The
//! config-dependent part of the scoreboard update — result latency plus
//! bypass-network delay, per (latency class, producer FU, consumer FU) — is
//! a per-core table filled at construction.
//!
//! The pipeline state lives in [`CpuCore`], which talks to *any* memory
//! system through the [`MemPort`] interface — the core never owns the
//! memory. Instruction lines come from a direct [`MemPort::fetch_line`]
//! call (an I-fetch is never rejected, never faults and never completes
//! out of order); only the LSU's data accesses are tagged transactions.
//! [`CycleSim`] is the standalone pairing of one core with an owned port;
//! the SoC instead owns two cores plus the shared `ChipMem` and lends each
//! core a port view during its step.
//!
//! Observability: the core is generic over a [`TraceSink`] (default
//! [`NullSink`], which compiles the instrumentation away). Each issue gap
//! is decomposed exactly — `pre` readiness wait + context-switch penalty +
//! I-fetch wait + operand wait + bypass wait + structural waits telescope
//! to `t_issue - t_prev_issue - 1` — so the per-reason totals in
//! [`CycleStats::stall_by_reason`] reconcile with the coarse stall
//! counters and can never exceed total cycles.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use majc_isa::{Instr, LatClass, Program, RegList, NUM_REGS};
use majc_mem::{DKind, DPolicy};

use crate::config::{TimingConfig, TrapPolicy};
use crate::events::{Event, NullSink, PacketStalls, RedirectKind, StallReason, TraceSink};
use crate::exec::{Flow, Trap};
use crate::lsu::{Lsu, LsuStall};
use crate::predictor::Gshare;
use crate::regfile::{RegFile, WriteSet};
use crate::stats::CycleStats;
use crate::trap::{SimError, TrapRegs};
use crate::txn::MemPort;
use crate::xlate::{Ctrl, MemOp, Translation, XPacket};

/// One hardware context (micro-thread).
struct Ctx {
    regs: RegFile,
    pc: u32,
    /// Earliest cycle this context can issue its next packet.
    ready: u64,
    /// What pushed `ready` into the future (stall attribution for the gap
    /// the next packet observes); `None` for the initial pipeline fill.
    ready_cause: Option<StallReason>,
    /// Scoreboard: cycle at which each register is available to each
    /// consuming FU (bypass-network view).
    avail: Vec<[u64; 4]>,
    /// Per register, the earliest of its `avail` views: when the operand
    /// would be ready to its best-bypassed FU (bypass-wait attribution).
    best: Vec<u64>,
    halted: bool,
    /// Trap registers latched by precise delivery.
    trap: TrapRegs,
}

impl Ctx {
    fn new(pc: u32, ready: u64) -> Ctx {
        Ctx {
            regs: RegFile::new(),
            pc,
            ready,
            ready_cause: None,
            avail: vec![[0; 4]; NUM_REGS as usize],
            best: vec![0; NUM_REGS as usize],
            halted: false,
            trap: TrapRegs::default(),
        }
    }
}

/// One slot's static issue facts (paper §3.2: every latency but the
/// scoreboarded ones is compiler-visible), stored parallel to the
/// translation's micro-ops.
#[derive(Clone, Copy)]
struct SlotFacts {
    class: LatClass,
    uses: RegList,
    defs: RegList,
}

/// Cycles from a packet's issue until a result is visible, by (latency
/// class, producer FU, consumer FU): `latency(class) + xfu_delay(fu, cfu)`.
type ReadyOffsets = [[[u64; 4]; 4]; LatClass::ALL.len()];

/// The ready-offset table of `cfg`, built once per core so that the
/// scoreboard update costs one row read per slot.
fn ready_offsets(cfg: &TimingConfig) -> ReadyOffsets {
    let mut table = [[[0; 4]; 4]; LatClass::ALL.len()];
    for class in LatClass::ALL {
        for (fu, row) in table[class as usize].iter_mut().enumerate() {
            for (cfu, off) in row.iter_mut().enumerate() {
                *off = cfg.latency(class) + cfg.xfu_delay(fu as u8, cfu as u8);
            }
        }
    }
    table
}

/// The pipeline state of one CPU, independent of any memory system.
///
/// Every stepping method takes the memory port as an argument, so a core
/// can run against an owned [`crate::LocalMemSys`]/[`crate::PerfectPort`]
/// (via [`CycleSim`]) or against a per-step view of shared chip memory
/// (the SoC) without any aliasing.
pub struct CpuCore<S: TraceSink = NullSink> {
    cfg: TimingConfig,
    /// The program's decoded image: micro-ops and packet-level facts.
    xl: Translation,
    /// Each micro-op's issue facts, indexed like the image's micro-ops.
    facts: Vec<SlotFacts>,
    /// `cfg`'s result-ready offsets (see [`ready_offsets`]).
    ready_off: ReadyOffsets,
    /// The issuing packet's buffered register writes, cleared per packet.
    ws: WriteSet,
    /// Which D-cache port this CPU drives (0 or 1).
    cpu: usize,
    contexts: Vec<Ctx>,
    active: usize,
    lsu: Lsu,
    gshare: Gshare,
    /// Non-pipelined FU0 divider busy-until.
    fu0_free: u64,
    /// Double-precision initiation interval per FU.
    dbl_free: [u64; 4],
    last_issue: u64,
    pub stats: CycleStats,
    /// Receives the typed event stream (see [`crate::events`]).
    pub sink: S,
}

impl CpuCore {
    /// Construct bound to D-cache port `cpu` (0 for a standalone core).
    ///
    /// `prog` may be an owned [`Program`] or an [`Arc<Program>`]; the farm
    /// shares one read-only image across many cores.
    pub fn new(prog: impl Into<Arc<Program>>, cfg: TimingConfig, cpu: usize) -> CpuCore {
        CpuCore::with_sink(prog, cfg, cpu, NullSink)
    }
}

impl<S: TraceSink> CpuCore<S> {
    /// Construct with an explicit event sink.
    pub fn with_sink(
        prog: impl Into<Arc<Program>>,
        cfg: TimingConfig,
        cpu: usize,
        sink: S,
    ) -> CpuCore<S> {
        let prog = prog.into();
        let n = cfg.threading.contexts.max(1);
        let contexts = (0..n).map(|_| Ctx::new(prog.base(), cfg.front_latency)).collect();
        let xl = Translation::build(prog);
        let mut facts = Vec::with_capacity(xl.uop_count());
        for (_fu, ins) in xl.program().packets().iter().flat_map(|p| p.slots()) {
            facts.push(SlotFacts { class: ins.lat_class(), uses: ins.uses(), defs: ins.defs() });
        }
        CpuCore {
            lsu: Lsu::new(cfg.load_buf, cfg.store_buf),
            gshare: Gshare::new(cfg.predictor),
            ready_off: ready_offsets(&cfg),
            cfg,
            facts,
            xl,
            ws: WriteSet::default(),
            cpu,
            contexts,
            active: 0,
            fu0_free: 0,
            dbl_free: [0; 4],
            last_issue: 0,
            stats: CycleStats::default(),
            sink,
        }
    }

    pub fn config(&self) -> &TimingConfig {
        &self.cfg
    }

    /// Override the trap policy after construction. On the dual-CPU chip
    /// the two CPUs run disjoint programs, so each needs its own vector.
    pub fn set_trap_policy(&mut self, policy: TrapPolicy) {
        self.cfg.trap_policy = policy;
    }

    pub fn program(&self) -> &Program {
        self.xl.program()
    }

    /// Point context `i` at a different entry address (micro-threading).
    pub fn set_context_pc(&mut self, i: usize, pc: u32) {
        self.contexts[i].pc = pc;
        self.contexts[i].halted = false;
    }

    /// Architectural registers of context `i` (context 0 by default).
    pub fn regs(&self, i: usize) -> &RegFile {
        &self.contexts[i].regs
    }

    pub fn regs_mut(&mut self, i: usize) -> &mut RegFile {
        &mut self.contexts[i].regs
    }

    /// Trap registers of context `i` (latched by precise trap delivery).
    pub fn trap_regs(&self, i: usize) -> &TrapRegs {
        &self.contexts[i].trap
    }

    /// Capture context `i`'s complete architectural state (registers, PC,
    /// halted flag, trap registers) at the current packet boundary.
    pub fn capture(&self, i: usize) -> crate::snapshot::CpuSnap {
        let c = &self.contexts[i];
        crate::snapshot::CpuSnap::capture(&c.regs, c.pc, c.halted, c.trap)
    }

    /// Restore context `i`'s architectural state from a capture. Timing
    /// state (scoreboard, predictor, LSU, caches) is *not* part of the
    /// architecture: restore into a freshly built core, whose cold
    /// pipeline re-fills exactly as a fresh machine would.
    pub fn restore_context(&mut self, i: usize, snap: &crate::snapshot::CpuSnap) {
        let c = &mut self.contexts[i];
        snap.apply_regs(&mut c.regs);
        c.pc = snap.pc;
        c.halted = snap.halted;
        c.trap = snap.trap;
    }

    /// Current PC of context `i`.
    pub fn pc(&self, i: usize) -> u32 {
        self.contexts[i].pc
    }

    /// PCs of every non-halted context (hang diagnostics).
    pub fn stuck_pcs(&self) -> Vec<u32> {
        self.contexts.iter().filter(|c| !c.halted).map(|c| c.pc).collect()
    }

    pub fn lsu_stats(&self) -> &crate::lsu::LsuStats {
        &self.lsu.stats
    }

    pub fn predictor_stats(&self) -> &crate::predictor::PredictorStats {
        &self.gshare.stats
    }

    pub fn halted(&self) -> bool {
        self.contexts.iter().all(|c| c.halted)
    }

    /// Fold the port's per-level counters plus this core's LSU buffer
    /// peaks into `stats.mem`. Called when a run finishes (the counters
    /// are cumulative snapshots, so calling it repeatedly is harmless).
    pub fn merge_mem_stats(&mut self, port: &dyn MemPort) {
        let mut m = port.level_stats(self.cpu);
        m.load_buf_peak = self.lsu.stats.load_buf_peak;
        m.store_buf_peak = self.lsu.stats.store_buf_peak;
        self.stats.mem = m;
    }

    /// Fetch the 32-byte instruction line at `line`: a direct call on the
    /// port, which never rejects or faults an instruction fetch.
    fn ifetch(&mut self, port: &mut dyn MemPort, at: u64, line: u32) -> u64 {
        let (done, served) = port.fetch_line(at, self.cpu, line);
        self.sink.emit(&Event::Fetch { cpu: self.cpu as u8, line, at, done, served });
        done
    }

    /// Pick the context to issue from: stay on the active one unless it is
    /// halted or another context is ready substantially earlier.
    fn pick_ctx(&self) -> Option<usize> {
        let runnable = |i: usize| !self.contexts[i].halted;
        if self.contexts.len() == 1 {
            return runnable(0).then_some(0);
        }
        let best_other = (0..self.contexts.len())
            .filter(|&i| i != self.active && runnable(i))
            .min_by_key(|&i| self.contexts[i].ready);
        if !runnable(self.active) {
            return best_other;
        }
        if let Some(o) = best_other {
            let t = &self.cfg.threading;
            if self.contexts[o].ready + t.switch_penalty + t.switch_min_gain
                < self.contexts[self.active].ready
            {
                return Some(o);
            }
        }
        Some(self.active)
    }

    /// Deliver `trap`, raised by the packet at `pc`, at cycle `t`.
    ///
    /// Under [`TrapPolicy::Halt`] (or on a double trap, which would lose
    /// the latched state) the trap surfaces to the caller. Under
    /// [`TrapPolicy::Vector`] the cause/PCs are latched, fetch redirects to
    /// the vector (a full front-end refill, like a mispredict), and `npc`
    /// becomes the `rte` resume point: the faulting packet itself for
    /// squashed (pre-commit) faults, its successor for post-commit traps.
    fn deliver(
        &mut self,
        ci: usize,
        trap: Trap,
        pc: u32,
        npc: u32,
        t: u64,
    ) -> Result<(), SimError> {
        let TrapPolicy::Vector { base } = self.cfg.trap_policy else {
            return Err(trap.into());
        };
        let ctx = &mut self.contexts[ci];
        if ctx.trap.active {
            return Err(trap.into());
        }
        ctx.trap.latch(trap, pc, npc);
        ctx.pc = base;
        ctx.ready = t + 1 + self.cfg.mispredict_penalty;
        ctx.ready_cause = Some(StallReason::Trap);
        let cause = ctx.trap.cause;
        self.stats.traps += 1;
        self.sink.emit(&Event::TrapDeliver {
            cpu: self.cpu as u8,
            ctx: ci as u8,
            pc,
            vector: base,
            cause,
            at: t,
        });
        Ok(())
    }

    /// Emit the squash record for a packet discarded pre-commit at `t`
    /// (call right after a successful `deliver`, which latched the cause).
    fn note_squash(&mut self, ci: usize, pc: u32, t: u64) {
        let cause = self.contexts[ci].trap.cause;
        self.sink.emit(&Event::Squash { cpu: self.cpu as u8, ctx: ci as u8, pc, at: t, cause });
    }

    /// Issue one packet against `port`. `Ok(true)` while running,
    /// `Ok(false)` when all contexts have halted.
    pub fn step_on(&mut self, port: &mut dyn MemPort) -> Result<bool, SimError> {
        for _spin in 0..64 {
            let Some(ci) = self.pick_ctx() else { return Ok(false) };
            let switch = ci != self.active;
            if switch {
                self.stats.context_switches += 1;
                self.sink.emit(&Event::CtxSwitch {
                    cpu: self.cpu as u8,
                    from: self.active as u8,
                    to: ci as u8,
                    at: self.last_issue + 1,
                });
            }
            self.active = ci;

            let pc = self.contexts[ci].pc;
            let Some(idx) = self.program().index_of(pc) else {
                let t0 = self.contexts[ci].ready;
                self.deliver(ci, Trap::BadPc { pc, target: pc }, pc, pc, t0)?;
                self.note_squash(ci, pc, t0);
                return Ok(!self.halted());
            };
            let &XPacket { width, mem: mem_op, ctrl, bytes: pkt_bytes, .. } = self.xl.packet(idx);

            // The issue gap this packet inherits from how its context's
            // readiness was set (redirect penalty, trap refill, barrier,
            // parked context). Consumed even if this attempt parks below.
            let pre = self.contexts[ci].ready.saturating_sub(self.last_issue + 1);
            let pre_cause = self.contexts[ci].ready_cause.take();

            // ---- front end ----
            let mut base = self.contexts[ci].ready.max(self.last_issue + 1);
            let switch_wait = if switch { self.cfg.threading.switch_penalty } else { 0 };
            base += switch_wait;
            let fetch_at = base.saturating_sub(self.cfg.front_latency);
            let line = pc & !31;
            let last_line = (pc + pkt_bytes - 1) & !31;
            let mut fetched = self.ifetch(port, fetch_at, line);
            if last_line != line {
                fetched = fetched.max(self.ifetch(port, fetch_at, last_line));
            }
            let after_fetch = base.max(fetched + self.cfg.front_latency);
            let ifetch_wait = after_fetch - base;
            self.stats.front_stall_cycles += ifetch_wait;
            self.stats.stall_by_reason[StallReason::IFetch.idx()] += ifetch_wait;

            // ---- scoreboard: operand readiness per consuming FU ----
            // `t` is the real issue bound (each operand as seen by its
            // consuming FU); `t_best` is the counterfactual bound if every
            // operand were consumed by its best-bypassed FU. The difference
            // is wait attributable to bypass-network distance.
            let mut t = after_fetch;
            let mut t_best = after_fetch;
            let mut slot_wait = [0u32; 4];
            let (avail, best) = (&self.contexts[ci].avail, &self.contexts[ci].best);
            let slots = &self.facts[self.xl.packet(idx).span()];
            for (fu, slot) in slots.iter().enumerate() {
                let mut slot_ready = after_fetch;
                for &r in slot.uses.indices() {
                    slot_ready = slot_ready.max(avail[r as usize][fu]);
                    t_best = t_best.max(best[r as usize]);
                }
                slot_wait[fu] = (slot_ready - after_fetch) as u32;
                t = t.max(slot_ready);
            }
            let operand_wait = t - after_fetch;
            let bypass_wait = t - t_best;

            // Micro-threading: if this context is about to stall on a long
            // wait and another context could run, block it and switch.
            if self.contexts.len() > 1 && operand_wait > self.cfg.threading.switch_min_gain {
                let other_ready = (0..self.contexts.len())
                    .filter(|&i| i != ci && !self.contexts[i].halted)
                    .map(|i| self.contexts[i].ready)
                    .min();
                if let Some(o) = other_ready {
                    if o + self.cfg.threading.switch_penalty < t {
                        self.contexts[ci].ready = t;
                        self.contexts[ci].ready_cause = Some(StallReason::CtxSwitch);
                        continue; // re-pick; min-ready context will win
                    }
                }
            }
            self.stats.data_stall_cycles += operand_wait;
            self.stats.stall_by_reason[StallReason::Operand.idx()] += operand_wait - bypass_wait;
            self.stats.stall_by_reason[StallReason::Bypass.idx()] += bypass_wait;

            // ---- structural hazards ----
            let before_fu = t;
            for (fu, slot) in slots.iter().enumerate() {
                match slot.class {
                    LatClass::IDiv => t = t.max(self.fu0_free),
                    LatClass::FpDouble => t = t.max(self.dbl_free[fu]),
                    _ => {}
                }
            }
            let fu_wait = t - before_fu;
            self.stats.stall_by_reason[StallReason::FuStructural.idx()] += fu_wait;

            // ---- memory operation (slot 0 only) ----
            let mut load_avail: Option<u64> = None;
            let mut mem_wait = 0u64;
            if mem_op != MemOp::None {
                let ins = *self.xl.slot0(idx);
                let before = t;
                match self.issue_mem(port, ci, &ins, pc, &mut t) {
                    Ok(v) => load_avail = v,
                    // A data error detected at issue: the packet has not
                    // executed, so squashing it is trivially precise.
                    Err(SimError::Trap(trap)) => {
                        self.deliver(ci, trap, pc, pc, t)?;
                        self.note_squash(ci, pc, t);
                        self.last_issue = t;
                        self.stats.cycles = t + 1;
                        return Ok(!self.halted());
                    }
                    Err(hang) => return Err(hang),
                }
                mem_wait = t - before;
                self.stats.mem_stall_cycles += mem_wait;
                self.stats.stall_by_reason[StallReason::LsuStructural.idx()] += mem_wait;
            }

            // ---- architectural execution at issue ----
            let ctx = &mut self.contexts[ci];
            let run = self.xl.exec_packet(idx, pc, &ctx.regs, &mut self.ws, port.mem());
            if let Some(trap) = run.trap {
                // Every trapping instruction is FU0-only, and slot 0
                // executes first: nothing has committed, so discarding the
                // write set squashes the whole packet precisely. `rte`
                // resumes at the squashed packet to re-execute it.
                self.deliver(ci, trap, pc, pc, t)?;
                self.note_squash(ci, pc, t);
                self.last_issue = t;
                self.stats.cycles = t + 1;
                return Ok(!self.halted());
            }
            self.ws.apply(&mut ctx.regs);
            let flow = run.flow;

            // ---- scoreboard update ----
            let ctx = &mut self.contexts[ci];
            for (fu, slot) in self.facts[self.xl.packet(idx).span()].iter().enumerate() {
                match slot.class {
                    LatClass::IDiv => self.fu0_free = t + self.cfg.idiv_lat,
                    LatClass::FpDouble => self.dbl_free[fu] = t + self.cfg.dbl_ii,
                    _ => {}
                }
                if slot.defs.is_empty() {
                    continue;
                }
                let ready = if slot.class == LatClass::Load {
                    // Loads/atomics: data returns through the LSU, same for
                    // every consumer.
                    [load_avail.unwrap_or(t + self.cfg.latency(LatClass::Load)); 4]
                } else {
                    self.ready_off[slot.class as usize][fu].map(|off| t + off)
                };
                let min = *ready.iter().min().expect("4 FU views");
                for &d in slot.defs.indices() {
                    ctx.avail[d as usize] = ready;
                    ctx.best[d as usize] = min;
                }
            }

            // ---- control flow & next-issue readiness ----
            let mut next_ready = t + 1;
            let mut redirect: Option<RedirectKind> = None;
            match ctrl {
                Ctrl::Br { hint } => {
                    let taken = matches!(flow, Flow::Taken(_));
                    let pred = self.gshare.predict(pc, hint);
                    self.gshare.update(pc, taken, pred);
                    if pred == taken {
                        next_ready = t + 1 + if taken { self.cfg.taken_bubble } else { 0 };
                        if taken {
                            redirect = Some(RedirectKind::TakenBranch);
                        }
                    } else {
                        self.stats.mispredicts += 1;
                        next_ready = t + 1 + self.cfg.mispredict_penalty;
                        redirect = Some(RedirectKind::Mispredict);
                    }
                }
                Ctrl::Call => {
                    next_ready = t + 1 + self.cfg.taken_bubble;
                    redirect = Some(RedirectKind::Call);
                }
                Ctrl::Jmpl => {
                    next_ready = t + 1 + self.cfg.mispredict_penalty;
                    redirect = Some(RedirectKind::Jmpl);
                }
                Ctrl::Rte => {
                    next_ready = t + 1 + self.cfg.mispredict_penalty;
                    redirect = Some(RedirectKind::Rte);
                }
                Ctrl::None => {}
            }
            let mut next_cause: Option<StallReason> = None;
            if let Some(kind) = redirect {
                let penalty = next_ready - (t + 1);
                if penalty > 0 {
                    next_cause = Some(StallReason::Redirect);
                }
                self.sink.emit(&Event::Redirect {
                    cpu: self.cpu as u8,
                    ctx: ci as u8,
                    pc,
                    at: t,
                    kind,
                    penalty,
                });
            }
            if mem_op == MemOp::Membar {
                let quiesce = self.lsu.quiesce_time();
                if quiesce > next_ready {
                    next_ready = quiesce;
                    next_cause = Some(StallReason::Membar);
                }
            }

            self.contexts[ci].ready = next_ready;
            self.contexts[ci].ready_cause = next_cause;
            match flow {
                Flow::Next => self.contexts[ci].pc = pc + pkt_bytes,
                Flow::Taken(tgt) => {
                    if self.program().index_of(tgt).is_none() {
                        // The branch packet committed before the Trap stage
                        // caught the bad target: resume past it.
                        self.deliver(ci, Trap::BadPc { pc, target: tgt }, pc, pc + pkt_bytes, t)?;
                    } else {
                        self.contexts[ci].pc = tgt;
                    }
                }
                Flow::Rte => {
                    let tr = self.contexts[ci].trap;
                    if tr.active {
                        self.contexts[ci].trap.active = false;
                        self.contexts[ci].pc = tr.tnpc;
                    } else {
                        self.deliver(ci, Trap::BadRte { pc }, pc, pc + pkt_bytes, t)?;
                    }
                }
                Flow::Halt => self.contexts[ci].halted = true,
            }

            // ---- accounting ----
            self.last_issue = t;
            self.stats.cycles = t + 1;
            self.stats.packets += 1;
            self.stats.instrs += width as u64;
            self.stats.width_hist[width as usize - 1] += 1;
            match mem_op {
                MemOp::Load => self.stats.loads += 1,
                MemOp::Store => self.stats.stores += 1,
                MemOp::Prefetch => self.stats.prefetches += 1,
                MemOp::Membar | MemOp::None => {}
            }
            self.stats.branch = self.gshare.stats;
            if pre > 0 {
                if let Some(cause) = pre_cause {
                    self.stats.stall_by_reason[cause.idx()] += pre;
                }
            }
            if switch_wait > 0 {
                self.stats.stall_by_reason[StallReason::CtxSwitch.idx()] += switch_wait;
            }
            let stalls = PacketStalls {
                pre: pre as u32,
                pre_cause,
                ctx_switch: switch_wait as u32,
                ifetch: ifetch_wait as u32,
                operand: (operand_wait - bypass_wait) as u32,
                bypass: bypass_wait as u32,
                fu_structural: fu_wait as u32,
                lsu_structural: mem_wait as u32,
                slot_wait,
            };
            self.sink.emit(&Event::Issue {
                cpu: self.cpu as u8,
                ctx: ci as u8,
                pc,
                at: t,
                width,
                stalls,
            });
            debug_assert!(
                self.stats.stall_attribution_consistent(),
                "stall attribution diverged from aggregate counters at pc {pc:#x}"
            );
            return Ok(!self.halted());
        }
        // 64 consecutive context switches without an issue: livelock.
        Err(SimError::Hang { at: self.stats.cycles, pcs: self.stuck_pcs() })
    }

    /// Issue slot 0's memory operation through the LSU, advancing `t` over
    /// structural stalls. Returns the data-available cycle for loads.
    fn issue_mem(
        &mut self,
        port: &mut dyn MemPort,
        ci: usize,
        ins: &Instr,
        pc: u32,
        t: &mut u64,
    ) -> Result<Option<u64>, SimError> {
        // The architectural address: recompute cheaply from register state.
        let regs = &self.contexts[ci].regs;
        use majc_isa::{Instr::*, Off};
        let (addr, kind, pol) = match *ins {
            Ld { base, off, pol, .. } | St { base, off, pol, .. } => {
                let a = match off {
                    Off::Imm(i) => regs.get(base).wrapping_add(i as i32 as u32),
                    Off::Reg(r) => regs.get(base).wrapping_add(regs.get(r)),
                };
                let pol = match pol {
                    majc_isa::CachePolicy::Cached => DPolicy::Cached,
                    majc_isa::CachePolicy::NonCached => DPolicy::NonCached,
                    majc_isa::CachePolicy::NonAllocating => DPolicy::NonAllocating,
                    majc_isa::CachePolicy::NonFaulting => DPolicy::Cached,
                };
                let kind = if matches!(ins, Ld { .. }) { DKind::Load } else { DKind::Store };
                (a, kind, pol)
            }
            CSt { base, .. } => (regs.get(base), DKind::Store, DPolicy::Cached),
            Prefetch { base, off } => {
                let a = regs.get(base).wrapping_add(off as i32 as u32) & !31;
                self.lsu.prefetch(*t, a, port, self.cpu, &mut self.sink);
                return Ok(None);
            }
            Cas { base, .. } | Swap { base, .. } => {
                (regs.get(base), DKind::Atomic, DPolicy::Cached)
            }
            _ => return Ok(None),
        };
        for _ in 0..RETRY_BOUND {
            let (lsu, cpu, sink) = (&mut self.lsu, self.cpu, &mut self.sink);
            let res = match kind {
                DKind::Load => lsu.load(*t, addr, pol, port, cpu, sink),
                DKind::Store => lsu.store(*t, addr, pol, port, cpu, sink).map(|_| 0),
                _ => lsu.atomic(*t, addr, port, cpu, sink),
            };
            match res {
                Ok(avail) => return Ok((kind != DKind::Store).then_some(avail)),
                Err(LsuStall::Retry { retry_at }) => *t = retry_at.max(*t + 1),
                Err(LsuStall::DataError) => return Err(Trap::DataError { pc, addr }.into()),
            }
        }
        Err(SimError::Hang { at: *t, pcs: vec![pc] })
    }

    /// Run against `port` until halt or `max_packets`; returns the cycle
    /// count. The configured cycle watchdog converts a runaway run into a
    /// structured [`SimError::Hang`] diagnosis instead of spinning forever.
    /// `stats.mem` is refreshed from the port when the run ends.
    pub fn run_on(&mut self, port: &mut dyn MemPort, max_packets: u64) -> Result<u64, SimError> {
        let res = self.run_inner(port, max_packets);
        self.merge_mem_stats(port);
        res
    }

    fn run_inner(&mut self, port: &mut dyn MemPort, max_packets: u64) -> Result<u64, SimError> {
        let start = self.stats.packets;
        while self.stats.packets - start < max_packets {
            if self.stats.cycles > self.cfg.max_cycles {
                return Err(SimError::Hang { at: self.stats.cycles, pcs: self.stuck_pcs() });
            }
            if !self.step_on(port)? {
                break;
            }
        }
        Ok(self.stats.cycles)
    }
}

/// The cycle-accurate simulator for one standalone CPU: a [`CpuCore`]
/// paired with the memory system it owns. Dereferences to the core, so
/// pipeline state (`stats`, `sink`, register accessors, ...) reads the
/// same as on [`CpuCore`] itself.
pub struct CycleSim<P: MemPort, S: TraceSink = NullSink> {
    core: CpuCore<S>,
    /// The memory system this CPU drives.
    pub port: P,
}

impl<P: MemPort> CycleSim<P> {
    pub fn new(prog: impl Into<Arc<Program>>, port: P, cfg: TimingConfig) -> CycleSim<P> {
        Self::on_port(prog, port, cfg, 0)
    }

    /// Construct bound to D-cache port `cpu`.
    pub fn on_port(
        prog: impl Into<Arc<Program>>,
        port: P,
        cfg: TimingConfig,
        cpu: usize,
    ) -> CycleSim<P> {
        CycleSim { core: CpuCore::new(prog, cfg, cpu), port }
    }
}

impl<P: MemPort, S: TraceSink> CycleSim<P, S> {
    /// Construct with an explicit event sink.
    pub fn with_sink(
        prog: impl Into<Arc<Program>>,
        port: P,
        cfg: TimingConfig,
        sink: S,
    ) -> CycleSim<P, S> {
        CycleSim { core: CpuCore::with_sink(prog, cfg, 0, sink), port }
    }

    /// Issue one packet. `Ok(true)` while running, `Ok(false)` when all
    /// contexts have halted.
    pub fn step(&mut self) -> Result<bool, SimError> {
        self.core.step_on(&mut self.port)
    }

    /// Run until halt or `max_packets`; returns the cycle count.
    pub fn run(&mut self, max_packets: u64) -> Result<u64, SimError> {
        self.core.run_on(&mut self.port, max_packets)
    }
}

impl<P: MemPort, S: TraceSink> Deref for CycleSim<P, S> {
    type Target = CpuCore<S>;

    fn deref(&self) -> &CpuCore<S> {
        &self.core
    }
}

impl<P: MemPort, S: TraceSink> DerefMut for CycleSim<P, S> {
    fn deref_mut(&mut self) -> &mut CpuCore<S> {
        &mut self.core
    }
}

/// Structural-stall retries per memory operation before the machine is
/// declared hung (a retry always advances time, so a correct program never
/// gets near this).
const RETRY_BOUND: u32 = 1_000_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::MemSink;
    use crate::memsys::{LocalMemSys, PerfectPort};
    use majc_isa::{AluOp, CachePolicy, Cond, MemWidth, Off, Packet, Reg, Src};

    fn alu(rd: Reg, rs1: Reg, imm: i16) -> Instr {
        Instr::Alu { op: AluOp::Add, rd, rs1, src2: Src::Imm(imm) }
    }

    fn prog(pkts: Vec<Packet>) -> Program {
        Program::new(0, pkts)
    }

    fn run_perfect(p: Program) -> CycleSim<PerfectPort> {
        let mut sim = CycleSim::new(p, PerfectPort::new(), TimingConfig::default());
        sim.run(1_000_000).unwrap();
        sim
    }

    #[test]
    fn ready_offsets_are_latency_plus_bypass_delay() {
        use crate::config::BypassModel;
        for bypass in [BypassModel::Majc, BypassModel::Full, BypassModel::WbOnly] {
            let cfg = TimingConfig { bypass, ..Default::default() };
            let table = ready_offsets(&cfg);
            for class in LatClass::ALL {
                assert_eq!(LatClass::ALL[class as usize], class, "ALL is in declaration order");
                for fu in 0..4u8 {
                    for cfu in 0..4u8 {
                        assert_eq!(
                            table[class as usize][fu as usize][cfu as usize],
                            cfg.latency(class) + cfg.xfu_delay(fu, cfu),
                            "{bypass:?} {class:?} FU{fu} -> FU{cfu}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn independent_packets_issue_every_cycle() {
        let mut pkts: Vec<Packet> =
            (0..10).map(|i| Packet::solo(alu(Reg::g(i), Reg::g(i), 1)).unwrap()).collect();
        pkts.push(Packet::solo(Instr::Halt).unwrap());
        let sim = run_perfect(prog(pkts));
        // 11 packets, 1/cycle after the pipeline fills.
        assert_eq!(sim.stats.packets, 11);
        let fill = TimingConfig::default().front_latency;
        assert_eq!(sim.stats.cycles, fill + 11);
    }

    #[test]
    fn single_cycle_dependency_chain() {
        // Dependent adds on the same FU: still 1 IPC (1-cycle latency).
        let mut pkts: Vec<Packet> =
            (0..10).map(|_| Packet::solo(alu(Reg::g(0), Reg::g(0), 1)).unwrap()).collect();
        pkts.push(Packet::solo(Instr::Halt).unwrap());
        let sim = run_perfect(prog(pkts));
        assert_eq!(sim.regs(0).get(Reg::g(0)), 10);
        let fill = TimingConfig::default().front_latency;
        assert_eq!(sim.stats.cycles, fill + 11);
        assert_eq!(sim.stats.data_stall_cycles, 0);
    }

    #[test]
    fn fp_dependency_chain_stalls_four_cycles() {
        // fadd chain on FU1: each must wait 4 cycles for the previous.
        let mut pkts: Vec<Packet> = (0..5)
            .map(|_| {
                Packet::new(&[
                    Instr::Nop,
                    Instr::FAdd { rd: Reg::g(0), rs1: Reg::g(0), rs2: Reg::g(2) },
                ])
                .unwrap()
            })
            .collect();
        pkts.push(Packet::solo(Instr::Halt).unwrap());
        let sim = run_perfect(prog(pkts));
        // Issues at fill, fill+4, fill+8, ... 4 stalls of 3 cycles.
        assert_eq!(sim.stats.data_stall_cycles, 4 * 3);
    }

    #[test]
    fn bypass_fu0_fu1_is_free_but_fu2_pays_one() {
        let cfg = TimingConfig::default();
        // FU0 add, consumed by FU1 next packet: no stall.
        let p1 = prog(vec![
            Packet::solo(alu(Reg::g(0), Reg::g(1), 1)).unwrap(),
            Packet::new(&[
                Instr::Nop,
                Instr::Alu { op: AluOp::Add, rd: Reg::g(2), rs1: Reg::g(0), src2: Src::Imm(0) },
            ])
            .unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        let mut s1 = CycleSim::new(p1, PerfectPort::new(), cfg);
        s1.run(100).unwrap();
        assert_eq!(s1.stats.data_stall_cycles, 0, "FU0->FU1 complete bypass");

        // Same but consumer on FU2: one extra cycle.
        let p2 = prog(vec![
            Packet::solo(alu(Reg::g(0), Reg::g(1), 1)).unwrap(),
            Packet::new(&[
                Instr::Nop,
                Instr::Nop,
                Instr::Alu { op: AluOp::Add, rd: Reg::g(2), rs1: Reg::g(0), src2: Src::Imm(0) },
            ])
            .unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        let mut s2 = CycleSim::new(p2, PerfectPort::new(), cfg);
        s2.run(100).unwrap();
        assert_eq!(s2.stats.data_stall_cycles, 1, "FU0->FU2 is one cycle late");
        // The extra cycle is bypass distance, not operand production.
        assert_eq!(s2.stats.stall_by_reason[StallReason::Bypass.idx()], 1);
        assert_eq!(s2.stats.stall_by_reason[StallReason::Operand.idx()], 0);
    }

    #[test]
    fn load_to_use_is_two_cycles() {
        let p = prog(vec![
            Packet::solo(Instr::SetLo { rd: Reg::g(0), imm: 0x100 }).unwrap(),
            Packet::solo(Instr::Ld {
                w: MemWidth::W,
                pol: CachePolicy::Cached,
                rd: Reg::g(1),
                base: Reg::g(0),
                off: Off::Imm(0),
            })
            .unwrap(),
            Packet::solo(alu(Reg::g(2), Reg::g(1), 1)).unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        let sim = run_perfect(p);
        // Consumer waits load_use(2) - 1 extra cycle beyond back-to-back.
        assert_eq!(sim.stats.data_stall_cycles, 1);
    }

    #[test]
    fn loop_with_predictor() {
        // 100-iteration loop: the back edge predicts well; expect ~1 packet
        // per 2+taken_bubble cycles steady state (2 packets + bubble).
        let body = Packet::solo(alu(Reg::g(0), Reg::g(0), -1)).unwrap();
        let br =
            Packet::solo(Instr::Br { cond: Cond::Gt, rs: Reg::g(0), off: -4, hint: true }).unwrap();
        let p = prog(vec![
            Packet::solo(Instr::SetLo { rd: Reg::g(0), imm: 100 }).unwrap(),
            body,
            br,
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        let sim = run_perfect(p);
        assert_eq!(sim.regs(0).get(Reg::g(0)), 0);
        assert!(sim.stats.mispredicts <= 3, "mispredicts {}", sim.stats.mispredicts);
        assert!(sim.predictor_stats().accuracy() > 0.95);
    }

    #[test]
    fn idiv_is_non_pipelined() {
        let mut pkts: Vec<Packet> = Vec::new();
        pkts.push(Packet::solo(Instr::SetLo { rd: Reg::g(1), imm: 100 }).unwrap());
        pkts.push(Packet::solo(Instr::SetLo { rd: Reg::g(2), imm: 3 }).unwrap());
        for i in 0..3u8 {
            pkts.push(
                Packet::solo(Instr::Div { rd: Reg::g(10 + i), rs1: Reg::g(1), rs2: Reg::g(2) })
                    .unwrap(),
            );
        }
        pkts.push(Packet::solo(Instr::Halt).unwrap());
        let sim = run_perfect(prog(pkts));
        let cfg = TimingConfig::default();
        // Divides serialize on the FU0 divider: ~idiv_lat apart.
        assert!(
            sim.stats.cycles >= 2 * cfg.idiv_lat,
            "cycles {} should reflect non-pipelined divide",
            sim.stats.cycles
        );
        // The serialization is attributed to the FU-structural bucket.
        assert!(
            sim.stats.stall_by_reason[StallReason::FuStructural.idx()] >= cfg.idiv_lat,
            "divider stalls must be attributed"
        );
    }

    #[test]
    fn cache_misses_cost_real_time() {
        // Walk 4 KB strided by line: every load misses in a cold cache.
        let mut pkts = vec![Packet::solo(Instr::SetLo { rd: Reg::g(0), imm: 0 }).unwrap()];
        for _ in 0..64 {
            pkts.push(
                Packet::solo(Instr::Ld {
                    w: MemWidth::W,
                    pol: CachePolicy::Cached,
                    rd: Reg::g(1),
                    base: Reg::g(0),
                    off: Off::Imm(0),
                })
                .unwrap(),
            );
            pkts.push(Packet::solo(alu(Reg::g(0), Reg::g(0), 32)).unwrap());
        }
        pkts.push(Packet::solo(Instr::Halt).unwrap());
        let p = prog(pkts);
        let mut dram_sim =
            CycleSim::new(p.clone(), LocalMemSys::majc5200(), TimingConfig::default());
        dram_sim.run(10_000).unwrap();
        let mut perfect_sim = CycleSim::new(p, PerfectPort::new(), TimingConfig::default());
        perfect_sim.run(10_000).unwrap();
        assert!(
            dram_sim.stats.cycles > perfect_sim.stats.cycles,
            "dram {} vs perfect {}",
            dram_sim.stats.cycles,
            perfect_sim.stats.cycles
        );
        let m = dram_sim.stats.mem;
        assert!(m.dcache_misses >= 64, "cold walk must miss every line: {m:?}");
        assert!(m.dram_busy_cycles > 0);
    }

    #[test]
    fn nonblocking_overlaps_independent_misses() {
        // Four independent miss loads then use all: overlapping MSHRs beat
        // serial misses. Compare against a 1-MSHR configuration.
        fn build() -> Program {
            let mut pkts = vec![Packet::solo(Instr::SetLo { rd: Reg::g(0), imm: 0 }).unwrap()];
            for i in 0..4u8 {
                // Distinct 4 KB-apart addresses.
                pkts.push(
                    Packet::solo(Instr::SetLo { rd: Reg::g(10 + i), imm: (i as i16 + 1) * 4096 })
                        .unwrap(),
                );
            }
            for i in 0..4u8 {
                pkts.push(
                    Packet::solo(Instr::Ld {
                        w: MemWidth::W,
                        pol: CachePolicy::Cached,
                        rd: Reg::g(20 + i),
                        base: Reg::g(10 + i),
                        off: Off::Imm(0),
                    })
                    .unwrap(),
                );
            }
            // Consume all four.
            let mut sum = Packet::solo(alu(Reg::g(30), Reg::g(20), 0)).unwrap();
            pkts.push(sum);
            sum = Packet::solo(alu(Reg::g(30), Reg::g(21), 0)).unwrap();
            pkts.push(sum);
            sum = Packet::solo(alu(Reg::g(30), Reg::g(22), 0)).unwrap();
            pkts.push(sum);
            sum = Packet::solo(alu(Reg::g(30), Reg::g(23), 0)).unwrap();
            pkts.push(sum);
            pkts.push(Packet::solo(Instr::Halt).unwrap());
            Program::new(0, pkts)
        }
        let mut wide = CycleSim::new(build(), LocalMemSys::majc5200(), TimingConfig::default());
        wide.run(10_000).unwrap();
        assert!(wide.stats.mem.mshr_high_water >= 2, "misses must overlap");

        let mut narrow_mem = LocalMemSys::majc5200();
        narrow_mem.dcache =
            majc_mem::DCache::new(majc_mem::DCacheConfig { mshrs: 1, ..Default::default() });
        let mut narrow = CycleSim::new(build(), narrow_mem, TimingConfig::default());
        narrow.run(10_000).unwrap();
        assert!(
            wide.stats.cycles < narrow.stats.cycles,
            "4 MSHRs {} must beat 1 MSHR {}",
            wide.stats.cycles,
            narrow.stats.cycles
        );
    }

    #[test]
    fn microthreading_hides_misses() {
        // Two contexts, each walking its own cold 8 KB region: switching
        // on misses should beat a single context... run the same program
        // with 1 vs 2 contexts and compare per-context throughput.
        fn walker() -> Program {
            let mut pkts = vec![Packet::solo(Instr::SetLo { rd: Reg::g(0), imm: 0 }).unwrap()];
            // Loop: load; addr += 32; count down.
            pkts.push(Packet::solo(Instr::SetLo { rd: Reg::g(2), imm: 64 }).unwrap());
            let body = Packet::solo(Instr::Ld {
                w: MemWidth::W,
                pol: CachePolicy::Cached,
                rd: Reg::g(1),
                base: Reg::g(0),
                off: Off::Imm(0),
            })
            .unwrap();
            pkts.push(body);
            pkts.push(Packet::solo(alu(Reg::g(3), Reg::g(1), 1)).unwrap()); // use the load
            pkts.push(Packet::solo(alu(Reg::g(0), Reg::g(0), 32)).unwrap());
            pkts.push(Packet::solo(alu(Reg::g(2), Reg::g(2), -1)).unwrap());
            pkts.push(
                Packet::solo(Instr::Br { cond: Cond::Gt, rs: Reg::g(2), off: -16, hint: true })
                    .unwrap(),
            );
            pkts.push(Packet::solo(Instr::Halt).unwrap());
            Program::new(0, pkts)
        }
        let mut single = CycleSim::new(walker(), LocalMemSys::majc5200(), TimingConfig::default());
        single.run(100_000).unwrap();

        let mut cfg2 = TimingConfig::default();
        cfg2.threading.contexts = 2;
        cfg2.threading.switch_min_gain = 6;
        let mut dual = CycleSim::new(walker(), LocalMemSys::majc5200(), cfg2);
        // Second context walks a disjoint region.
        dual.regs_mut(1).set(Reg::g(0), 0x10_0000);
        // Contexts share one PC space; context 1 starts at base too but its
        // own g0 was just overridden... it will be reset by SetLo. Instead
        // start context 1 past the initializers.
        let skip = dual.program().addr_of(2);
        dual.set_context_pc(1, skip);
        dual.regs_mut(1).set(Reg::g(2), 64);
        dual.regs_mut(1).set(Reg::g(0), 0x10_0000);
        dual.run(200_000).unwrap();

        // Dual contexts executed ~2x the packets; cycles should be much
        // less than 2x the single-context time.
        assert!(dual.stats.context_switches > 0, "switching must engage");
        let per_packet_single = single.stats.cycles as f64 / single.stats.packets as f64;
        let per_packet_dual = dual.stats.cycles as f64 / dual.stats.packets as f64;
        assert!(
            per_packet_dual < per_packet_single * 0.9,
            "microthreading should improve throughput: {per_packet_dual:.2} vs {per_packet_single:.2}"
        );
    }

    #[test]
    fn sink_records_issues() {
        let p = prog(vec![
            Packet::solo(alu(Reg::g(0), Reg::g(0), 1)).unwrap(),
            Packet::solo(Instr::Halt).unwrap(),
        ]);
        let mut sim = CycleSim::with_sink(
            p,
            PerfectPort::new(),
            TimingConfig::default(),
            MemSink::unbounded(),
        );
        sim.run(100).unwrap();
        let issues: Vec<(u32, u64)> = sim
            .sink
            .events()
            .iter()
            .filter_map(|e| match *e {
                Event::Issue { pc, at, .. } => Some((pc, at)),
                _ => None,
            })
            .collect();
        assert_eq!(issues.len(), 2);
        assert_eq!(issues[0].0, 0);
        assert!(issues[1].1 > issues[0].1);
    }

    #[test]
    fn sink_captures_issue_events_with_matching_attribution() {
        // fadd chain: data stalls must show up both in the aggregate
        // counter and, identically, in the per-packet Issue events.
        let mut pkts: Vec<Packet> = (0..5)
            .map(|_| {
                Packet::new(&[
                    Instr::Nop,
                    Instr::FAdd { rd: Reg::g(0), rs1: Reg::g(0), rs2: Reg::g(2) },
                ])
                .unwrap()
            })
            .collect();
        pkts.push(Packet::solo(Instr::Halt).unwrap());
        let mut sim = CycleSim::with_sink(
            prog(pkts),
            PerfectPort::new(),
            TimingConfig::default(),
            MemSink::unbounded(),
        );
        sim.run(100).unwrap();
        let stats = sim.stats;
        let events = sim.sink.take();
        let mut by_reason = [0u64; crate::events::NUM_STALL_REASONS];
        let mut issues = 0;
        for ev in &events {
            if let Event::Issue { stalls, .. } = ev {
                issues += 1;
                for (bucket, add) in by_reason.iter_mut().zip(stalls.by_reason()) {
                    *bucket += add;
                }
            }
        }
        assert_eq!(issues, 6);
        assert_eq!(by_reason, stats.stall_by_reason, "events must mirror the counters");
        assert_eq!(
            by_reason[StallReason::Operand.idx()] + by_reason[StallReason::Bypass.idx()],
            stats.data_stall_cycles
        );
        assert!(stats.stall_attribution_consistent());
    }
}
