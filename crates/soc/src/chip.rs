//! The MAJC-5200 chip: two CPUs sharing the dual-ported data cache,
//! per-CPU instruction caches, and the crossbar to memory (paper Figure 1).
//!
//! "Coupled with the synchronization instructions, this shared data cache
//! provides a powerful, very low overhead communication between the two
//! CPUs" (paper §3.2) — coherence is a property of sharing one physical
//! cache, so the model needs no protocol.
//!
//! Ownership is strictly tree-shaped: [`Majc5200`] owns both [`CpuCore`]s
//! *and* the shared [`ChipMem`]; while a core steps, the chip lends it
//! `&mut ChipMem`, which implements the [`MemPort`] transaction trait.
//! The cores never hold a reference into the chip between steps, so there
//! is no aliasing and no `NonNull` — the borrow checker proves the sharing
//! discipline the old raw-pointer port only asserted in a comment.
//!
//! The D-cache is dual-ported: each CPU drives its own port, and two
//! same-cycle accesses proceed in parallel *unless* they touch the same
//! line and at least one writes — then the chip arbiter serializes them
//! (CPU ordering ties break toward the earlier-submitted request). The
//! conflict ledger below models exactly that case and counts it in
//! [`MemLevelStats::dport_conflicts`].

use std::collections::VecDeque;
use std::sync::Arc;

use majc_core::{
    Completion, CpuCore, CpuSnap, Event, MemLevelStats, MemPort, MemReq, MemResp, NullSink, Reject,
    Served, SimError, TimingConfig, TraceSink,
};
use majc_isa::Program;
use majc_mem::{DCache, DKind, DStall, FaultEvent, FaultPlan, FaultSite, FlatMem, ICache};

use crate::crossbar::{Crossbar, Routed, Source};

/// How many cycles a data access can be pushed back by same-line conflicts
/// before the arbiter gives up looking (two ports, so one bump normally
/// clears the collision; the bound only guards degenerate ledgers).
const ARB_BOUND: u32 = 64;

/// Chip-level arbitration counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChipMemStats {
    /// Same-cycle same-line D-cache port collisions (with a writer
    /// involved) that the arbiter had to serialize.
    pub dport_conflicts: u64,
}

/// The memory-side state shared by both CPUs.
pub struct ChipMem {
    pub icaches: [ICache; 2],
    pub dcache: DCache,
    pub xbar: Crossbar,
    pub mem: FlatMem,
    pub stats: ChipMemStats,
    /// Recent granted data-port accesses `(cycle, cpu, line, write)` — the
    /// dual-port conflict ledger.
    ledger: VecDeque<(u64, usize, u32, bool)>,
    /// Latest data-request submit time per CPU (monotonic per CPU); the
    /// ledger is pruned below the minimum, where no future grant can land.
    port_time: [u64; 2],
}

impl ChipMem {
    pub fn new(mem: FlatMem) -> ChipMem {
        ChipMem {
            icaches: [ICache::default(), ICache::default()],
            dcache: DCache::default(),
            xbar: Crossbar::new(),
            mem,
            stats: ChipMemStats::default(),
            ledger: VecDeque::new(),
            port_time: [0; 2],
        }
    }

    /// Arm deterministic fault injection at every chip-level site: both
    /// I-caches, the shared D-cache, the crossbar arbiter, and the DRDRAM
    /// channel behind it.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for ic in &mut self.icaches {
            ic.fault = plan.injector(FaultSite::ICacheParity);
        }
        self.dcache.fault = plan.injector(FaultSite::DCacheParity);
        self.xbar.fault = plan.injector(FaultSite::XbarNack);
        self.xbar.dram.fault = plan.injector(FaultSite::DramTransfer);
    }

    /// Every fault injected so far, across all armed sites, in a stable
    /// site order — borrowed, no allocation (the deterministic injection
    /// trace the soak loop polls every iteration).
    pub fn fault_events_iter(&self) -> impl Iterator<Item = &FaultEvent> + '_ {
        self.icaches
            .iter()
            .map(|ic| ic.fault.as_ref())
            .chain([
                self.dcache.fault.as_ref(),
                self.xbar.fault.as_ref(),
                self.xbar.dram.fault.as_ref(),
            ])
            .flatten()
            .flat_map(|f| f.events.iter())
    }

    /// End a measurement epoch: complete every outstanding D-cache fill,
    /// rewind the DRDRAM channel clock, and clear the arbitration ledger —
    /// tags stay warm, so a fresh pair of cores re-running the same
    /// programs measures steady-state (all-hit) timing.
    pub fn new_epoch(&mut self) {
        self.dcache.drain(&mut Routed { xbar: &mut self.xbar, src: Source::CpuD });
        self.xbar.dram.reset_time();
        self.ledger.clear();
        self.port_time = [0; 2];
    }

    /// Arbitrate CPU `cpu`'s data access to `line` wanted at `now`: scan
    /// the ledger for a same-cycle access from the *other* port to the same
    /// line with a writer involved, bumping the grant a cycle per collision
    /// (reads on both ports share the line freely — it is dual-ported).
    fn arbitrate(&mut self, now: u64, cpu: usize, line: u32, write: bool) -> u64 {
        let mut grant = now;
        for _ in 0..ARB_BOUND {
            let clash = self
                .ledger
                .iter()
                .any(|&(at, c, l, w)| at == grant && c != cpu && l == line && (w || write));
            if !clash {
                break;
            }
            self.stats.dport_conflicts += 1;
            grant += 1;
        }
        grant
    }

    fn prune_ledger(&mut self) {
        let horizon = self.port_time[0].min(self.port_time[1]);
        while self.ledger.front().is_some_and(|&(at, ..)| at < horizon) {
            self.ledger.pop_front();
        }
    }

    /// Arm the opt-in chip-level record logs (crossbar grants, DRDRAM
    /// spans) so [`ChipMem::drain_events`] has something to harvest.
    pub fn enable_logs(&mut self) {
        self.xbar.log = Some(Vec::new());
        self.xbar.dram.log = Some(Vec::new());
    }

    /// Convert and clear the armed record logs — plus every injected fault
    /// so far — into trace events, sorted by timestamp. Call once, after
    /// the run; merging with each CPU sink's stream gives the full
    /// chip-level timeline.
    pub fn drain_events(&mut self) -> Vec<Event> {
        let mut out: Vec<Event> = Vec::new();
        if let Some(log) = &mut self.xbar.log {
            out.extend(std::mem::take(log).into_iter().map(|r| Event::XbarGrant {
                src: r.src,
                at: r.at,
                done: r.done,
                addr: r.addr,
                bytes: r.bytes,
                write: r.write,
                nacks: r.nacks,
            }));
        }
        if let Some(log) = &mut self.xbar.dram.log {
            out.extend(std::mem::take(log).into_iter().map(Event::from_dram_span));
        }
        out.extend(self.fault_events_iter().map(Event::from_fault));
        out.sort_by_key(Event::timestamp);
        out
    }
}

/// A stepping core borrows the whole chip as its port: plain `&mut`,
/// proven unique by the borrow checker.
impl MemPort for ChipMem {
    fn mem(&mut self) -> &mut FlatMem {
        &mut self.mem
    }

    /// Fetch CPU `cpu`'s instruction line `line` through its own I-cache.
    fn fetch_line(&mut self, now: u64, cpu: usize, line: u32) -> (u64, Served) {
        let cpu = cpu & 1;
        let src = if cpu == 0 { Source::Cpu0I } else { Source::Cpu1I };
        self.icaches[cpu].fetch(now, line, &mut Routed { xbar: &mut self.xbar, src })
    }

    fn submit(&mut self, now: u64, req: MemReq) -> Result<MemResp, Reject> {
        let cpu = usize::from(req.cpu) & 1;
        let write = matches!(req.kind, DKind::Store | DKind::Atomic);
        let line = self.dcache.line_addr(req.addr);
        // Prefetches are non-binding: they never contend for a port slot
        // and never appear in the ledger.
        let grant = if req.kind == DKind::Prefetch {
            now
        } else {
            self.port_time[cpu] = self.port_time[cpu].max(now);
            self.prune_ledger();
            self.arbitrate(now, cpu, line, write)
        };
        let res = self.dcache.access(
            grant,
            cpu,
            req.addr,
            req.kind,
            req.policy,
            &mut Routed { xbar: &mut self.xbar, src: Source::CpuD },
        );
        let served = self.dcache.last_served;
        let completion = match res {
            Ok(at) => {
                if req.kind != DKind::Prefetch {
                    self.ledger.push_back((grant, cpu, line, write));
                }
                Completion::Done { at }
            }
            // No ledger entry: a rejected request never occupied the port.
            Err(DStall::MshrFull) => return Err(Reject { retry_at: now + 1 }),
            Err(DStall::DataError) => {
                // The faulting access did occupy its port slot.
                self.ledger.push_back((grant, cpu, line, write));
                Completion::Fault
            }
        };
        Ok(MemResp { completion, served })
    }

    /// Per-level counters as seen by `cpu`: cache numbers are per-CPU,
    /// crossbar/DRDRAM numbers are chip-wide (the channel is shared).
    fn level_stats(&self, cpu: usize) -> MemLevelStats {
        let ic = self.icaches[cpu & 1].stats();
        MemLevelStats {
            icache_hits: ic.hits,
            icache_misses: ic.misses,
            dcache_hits: self.dcache.port_hits[cpu & 1],
            dcache_misses: self.dcache.port_misses[cpu & 1],
            mshr_high_water: self.dcache.mshr_high_water as u64,
            xbar_grants: self.xbar.total_grants(),
            xbar_retries: self.xbar.total_retries(),
            dram_busy_cycles: self.xbar.dram.stats.busy_cycles,
            dport_conflicts: self.stats.dport_conflicts,
            ..Default::default()
        }
    }
}

/// The whole chip: both CPU cores plus the shared memory side. Generic
/// over the per-CPU trace sink; with the default [`NullSink`] the
/// instrumentation compiles away.
pub struct Majc5200<S: TraceSink = NullSink> {
    pub cpu: [CpuCore<S>; 2],
    chip: ChipMem,
    /// Chip-level watchdog budget (from [`TimingConfig::max_cycles`]).
    max_cycles: u64,
}

/// The complete architectural state of the chip at a quiesce point: both
/// CPUs' context-0 state plus the shared memory image. This is what a
/// checkpoint serializes — a restored chip replays bit-identically (the
/// micro-architecture re-fills cold, the architecture continues exactly).
#[derive(Clone)]
pub struct ChipState {
    pub cpus: [CpuSnap; 2],
    pub mem: FlatMem,
}

impl Majc5200 {
    /// Build with one program per CPU over a shared memory image. Each
    /// program may be an owned [`Program`] or an [`Arc<Program>`]
    /// (shared read-only images across a simulation farm).
    pub fn new<P: Into<Arc<Program>>>(progs: [P; 2], mem: FlatMem, cfg: TimingConfig) -> Majc5200 {
        Majc5200::with_sinks(progs, mem, cfg, [NullSink, NullSink])
    }

    /// Rebuild a chip from a captured [`ChipState`]: fresh timing state
    /// (cold caches, reset predictors), restored architectural state. The
    /// programs may differ from the captured run's — that is how a long
    /// phase-structured run is split across farm workers.
    pub fn resume<P: Into<Arc<Program>>>(
        progs: [P; 2],
        state: &ChipState,
        cfg: TimingConfig,
    ) -> Majc5200 {
        let mut chip = Majc5200::new(progs, state.mem.clone(), cfg);
        for (core, snap) in chip.cpu.iter_mut().zip(&state.cpus) {
            core.restore_context(0, snap);
        }
        chip
    }
}

impl<S: TraceSink> Majc5200<S> {
    /// Build with one trace sink per CPU (chip-level events are harvested
    /// separately via [`ChipMem::drain_events`]).
    pub fn with_sinks<P: Into<Arc<Program>>>(
        progs: [P; 2],
        mem: FlatMem,
        cfg: TimingConfig,
        sinks: [S; 2],
    ) -> Majc5200<S> {
        let [p0, p1] = progs;
        let [s0, s1] = sinks;
        Majc5200 {
            cpu: [CpuCore::with_sink(p0, cfg, 0, s0), CpuCore::with_sink(p1, cfg, 1, s1)],
            chip: ChipMem::new(mem),
            max_cycles: cfg.max_cycles,
        }
    }

    pub fn chip(&self) -> &ChipMem {
        &self.chip
    }

    pub fn chip_mut(&mut self) -> &mut ChipMem {
        &mut self.chip
    }

    /// Arm deterministic fault injection at every memory-side site.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        self.chip.apply_fault_plan(plan);
    }

    /// Capture the chip's architectural state (both CPUs' context 0 plus
    /// the shared memory). Call at a quiesce point — both CPUs at a
    /// packet boundary, typically after [`Majc5200::run`] returns — so
    /// no in-flight pipeline state is lost.
    pub fn capture_arch(&self) -> ChipState {
        ChipState {
            cpus: [self.cpu[0].capture(0), self.cpu[1].capture(0)],
            mem: self.chip.mem.clone(),
        }
    }

    /// The PCs of all CPUs still executing — the hang diagnosis.
    fn stuck_pcs(&self) -> Vec<u32> {
        self.cpu.iter().filter(|c| !c.halted()).map(|c| c.pc(0)).collect()
    }

    /// Step both CPUs in loose lockstep (always advance the one that is
    /// behind in simulated time) until both halt or `max_packets` packets
    /// have issued chip-wide. A CPU that runs past the configured
    /// `max_cycles` budget surfaces as a structured [`SimError::Hang`]
    /// carrying the PCs of every CPU still executing. Both CPUs'
    /// `stats.mem` snapshots are refreshed when the run ends.
    pub fn run(&mut self, max_packets: u64) -> Result<(u64, u64), SimError> {
        let res = self.run_inner(max_packets);
        for core in &mut self.cpu {
            core.merge_mem_stats(&self.chip);
        }
        res?;
        Ok((self.cpu[0].stats.cycles, self.cpu[1].stats.cycles))
    }

    fn run_inner(&mut self, max_packets: u64) -> Result<(), SimError> {
        let mut issued = 0u64;
        while issued < max_packets {
            let h0 = self.cpu[0].halted();
            let h1 = self.cpu[1].halted();
            let pick = match (h0, h1) {
                (true, true) => break,
                (true, false) => 1,
                (false, true) => 0,
                (false, false) => usize::from(self.cpu[1].stats.cycles < self.cpu[0].stats.cycles),
            };
            let cycle = self.cpu[pick].stats.cycles;
            if cycle > self.max_cycles {
                return Err(SimError::Hang { at: cycle, pcs: self.stuck_pcs() });
            }
            self.cpu[pick].step_on(&mut self.chip)?;
            issued += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use majc_asm::Asm;
    use majc_isa::{AluOp, CachePolicy, Cond, Instr, MemWidth, Off, Reg, Src};

    const FLAG: u32 = 0x0002_0000;
    const DATA: u32 = 0x0002_0040;

    fn producer() -> Program {
        let mut a = Asm::new(0);
        a.set32(Reg::g(0), DATA);
        a.set32(Reg::g(1), 0xBEEF);
        a.set32(Reg::g(2), FLAG);
        // A little warm-up delay so the consumer reaches its spin loop.
        a.set32(Reg::g(3), 50);
        a.label("delay");
        a.op(Instr::Alu { op: AluOp::Sub, rd: Reg::g(3), rs1: Reg::g(3), src2: Src::Imm(1) });
        a.br(Cond::Gt, Reg::g(3), "delay", true);
        a.op(Instr::St {
            w: MemWidth::W,
            pol: CachePolicy::Cached,
            rs: Reg::g(1),
            base: Reg::g(0),
            off: Off::Imm(0),
        });
        a.op(Instr::Membar);
        a.op(Instr::SetLo { rd: Reg::g(4), imm: 1 });
        a.op(Instr::St {
            w: MemWidth::W,
            pol: CachePolicy::Cached,
            rs: Reg::g(4),
            base: Reg::g(2),
            off: Off::Imm(0),
        });
        a.op(Instr::Halt);
        a.finish().unwrap()
    }

    fn consumer() -> Program {
        // Placed after the producer's image so both programs coexist.
        let mut a = Asm::new(0x4000);
        a.set32(Reg::g(0), DATA);
        a.set32(Reg::g(2), FLAG);
        a.label("spin");
        a.op(Instr::Ld {
            w: MemWidth::W,
            pol: CachePolicy::Cached,
            rd: Reg::g(3),
            base: Reg::g(2),
            off: Off::Imm(0),
        });
        a.br(Cond::Eq, Reg::g(3), "spin", false);
        a.op(Instr::Ld {
            w: MemWidth::W,
            pol: CachePolicy::Cached,
            rd: Reg::g(4),
            base: Reg::g(0),
            off: Off::Imm(0),
        });
        a.op(Instr::St {
            w: MemWidth::W,
            pol: CachePolicy::Cached,
            rs: Reg::g(4),
            base: Reg::g(0),
            off: Off::Imm(4),
        });
        a.op(Instr::Halt);
        a.finish().unwrap()
    }

    #[test]
    fn shared_dcache_flag_passing() {
        let mut chip =
            Majc5200::new([producer(), consumer()], FlatMem::new(), TimingConfig::default());
        chip.run(1_000_000).unwrap();
        assert!(chip.cpu[0].halted() && chip.cpu[1].halted());
        let mem = &mut chip.chip_mut().mem;
        assert_eq!(mem.read_u32(DATA), 0xBEEF);
        assert_eq!(mem.read_u32(DATA + 4), 0xBEEF, "consumer saw the produced value");
        // Communication is through the shared cache: one cache, no
        // invalidation traffic, and both CPUs hit the same line.
        assert!(chip.chip().dcache.stats().hits > 0);
    }

    #[test]
    fn atomics_arbitrate_between_cpus() {
        // Both CPUs CAS-increment a shared counter 50 times each.
        fn incrementer(base: u32) -> Program {
            let mut a = Asm::new(base);
            a.set32(Reg::g(0), FLAG); // counter address
            a.set32(Reg::g(1), 50);
            a.label("retry");
            a.op(Instr::Ld {
                w: MemWidth::W,
                pol: CachePolicy::Cached,
                rd: Reg::g(2),
                base: Reg::g(0),
                off: Off::Imm(0),
            });
            a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(3), rs1: Reg::g(2), src2: Src::Imm(1) });
            // cas: g2 holds expected; on success old==expected.
            a.op(Instr::Cas { rd: Reg::g(2), base: Reg::g(0), rs: Reg::g(3) });
            a.op(Instr::Alu { op: AluOp::Sub, rd: Reg::g(4), rs1: Reg::g(3), src2: Src::Imm(1) });
            a.op(Instr::Alu {
                op: AluOp::Sub,
                rd: Reg::g(4),
                rs1: Reg::g(4),
                src2: Src::Reg(Reg::g(2)),
            });
            a.br(Cond::Ne, Reg::g(4), "retry", false); // lost the race: retry
            a.op(Instr::Alu { op: AluOp::Sub, rd: Reg::g(1), rs1: Reg::g(1), src2: Src::Imm(1) });
            a.br(Cond::Gt, Reg::g(1), "retry", true);
            a.op(Instr::Halt);
            a.finish().unwrap()
        }
        let mut chip = Majc5200::new(
            [incrementer(0), incrementer(0x4000)],
            FlatMem::new(),
            TimingConfig::default(),
        );
        chip.run(10_000_000).unwrap();
        assert!(chip.cpu[0].halted() && chip.cpu[1].halted());
        assert_eq!(chip.chip_mut().mem.read_u32(FLAG), 100, "all increments must land");
        // Both CPUs hammer the same counter line with CAS writes: the
        // dual-port arbiter must have had collisions to serialize.
        assert!(chip.cpu[0].stats.mem.dport_conflicts > 0, "same-line CAS traffic must collide");
    }

    #[test]
    fn dual_cpu_throughput_scales() {
        // Two independent compute loops: chip finishes both in about the
        // time one CPU takes for one (compute-bound, no sharing).
        fn spin(base: u32, n: i16) -> Program {
            let mut a = Asm::new(base);
            a.op(Instr::SetLo { rd: Reg::g(0), imm: n });
            a.label("l");
            a.pack(&[
                Instr::Alu { op: AluOp::Sub, rd: Reg::g(0), rs1: Reg::g(0), src2: Src::Imm(1) },
                Instr::FMAdd { rd: Reg::l(1, 0), rs1: Reg::g(2), rs2: Reg::g(3) },
            ]);
            a.br(Cond::Gt, Reg::g(0), "l", true);
            a.op(Instr::Halt);
            a.finish().unwrap()
        }
        // Baseline: one CPU doing the work, the other halting immediately.
        fn halt_now(base: u32) -> Program {
            let mut a = Asm::new(base);
            a.op(Instr::Halt);
            a.finish().unwrap()
        }
        let mut solo = Majc5200::new(
            [spin(0, 2000), halt_now(0x4000)],
            FlatMem::new(),
            TimingConfig::default(),
        );
        let (s0, _) = solo.run(10_000_000).unwrap();
        let mut chip = Majc5200::new(
            [spin(0, 2000), spin(0x4000, 2000)],
            FlatMem::new(),
            TimingConfig::default(),
        );
        let (c0, c1) = chip.run(10_000_000).unwrap();
        let slower = c0.max(c1);
        // Separate I-caches and no shared data: running both should cost
        // at most a sliver more than running one.
        assert!((slower as f64) < s0 as f64 * 1.25, "dual-CPU {slower} vs single {s0}: no scaling");
        assert_eq!(chip.cpu[0].stats.mem.dport_conflicts, 0, "no data traffic, no collisions");
    }

    #[test]
    fn rejected_requests_leave_no_trace_in_the_chip() {
        use majc_mem::DPolicy;
        let mut m = ChipMem::new(FlatMem::new());
        let req =
            |cpu: u8, addr: u32| MemReq { cpu, addr, kind: DKind::Load, policy: DPolicy::Cached };
        for i in 0..4u32 {
            let r = m.submit(0, req((i & 1) as u8, i * 0x1000)).unwrap();
            assert_eq!(r.served, Served::Miss);
            assert!(matches!(r.completion, Completion::Done { at } if at > 0));
        }
        assert_eq!((m.dcache.outstanding(), m.ledger.len()), (4, 4));
        assert_eq!(m.submit(0, req(1, 0x9000)), Err(Reject { retry_at: 1 }));
        assert_eq!(m.dcache.outstanding(), 4, "a rejected request occupies no MSHR");
        assert_eq!(m.ledger.len(), 4, "and no slot in the port ledger");
    }
}
