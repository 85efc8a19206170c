//! Structured observability: typed pipeline/memory events and the sinks
//! that receive them.
//!
//! The cycle model is instrumented with a [`TraceSink`] type parameter.
//! Every interesting micro-architectural occurrence — a packet issuing
//! with its per-reason stall breakdown, a memory transaction resolving
//! against the hierarchy, a redirect, a squash, a fault — is emitted as a
//! typed [`Event`]. With the default [`NullSink`] the emit calls inline to
//! nothing and the simulator behaves exactly as before; with a
//! [`MemSink`] the full event stream is captured, and `crate::perfetto`
//! exports it as a Chrome/Perfetto trace.
//!
//! Determinism contract: the simulators are deterministic, so the same
//! program + configuration + seed produces an identical event stream
//! (see `crates/core/tests/observability.rs`). Deep components that the
//! core cannot reach generically (the crossbar, the DRDRAM channel, the
//! DTE) keep opt-in record logs which are converted to `Event`s once,
//! after the run (`LocalMemSys::drain_events`, `ChipMem::drain_events`).

use std::collections::VecDeque;

pub use majc_mem::Served;
use majc_mem::{DKind, DramSpanRec, FaultEvent, FaultSite};

/// Number of stall-attribution buckets in [`StallReason`].
pub const NUM_STALL_REASONS: usize = 9;

/// Where a lost cycle went. Buckets refine the three coarse
/// [`crate::CycleStats`] counters: `IFetch` mirrors `front_stall_cycles`,
/// `Operand + Bypass` mirrors `data_stall_cycles`, `LsuStructural` mirrors
/// `mem_stall_cycles`; the rest attribute inter-packet gaps those counters
/// never saw (redirects, trap refills, context switches, barriers).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StallReason {
    /// Waiting on the I-cache / front-end refill.
    IFetch,
    /// Scoreboard interlock: an operand was not yet produced.
    Operand,
    /// Operand was produced but the consuming FU had to wait an extra
    /// cycle for the cross-unit bypass network to carry it.
    Bypass,
    /// LSU structural limits: buffers, MSHRs, the cache port.
    LsuStructural,
    /// Non-pipelined FU0 divider / double-precision initiation interval.
    FuStructural,
    /// Fetch redirect: taken-branch bubble, mispredict, jmpl/rte resolve.
    Redirect,
    /// Precise trap delivery (front-end refill to the vector).
    Trap,
    /// Vertical micro-threading context-switch penalty.
    CtxSwitch,
    /// Memory barrier waiting for the LSU to quiesce.
    Membar,
}

impl StallReason {
    pub const ALL: [StallReason; NUM_STALL_REASONS] = [
        StallReason::IFetch,
        StallReason::Operand,
        StallReason::Bypass,
        StallReason::LsuStructural,
        StallReason::FuStructural,
        StallReason::Redirect,
        StallReason::Trap,
        StallReason::CtxSwitch,
        StallReason::Membar,
    ];

    /// Bucket index into `[u64; NUM_STALL_REASONS]` arrays.
    pub const fn idx(self) -> usize {
        self as usize
    }

    pub const fn name(self) -> &'static str {
        match self {
            StallReason::IFetch => "ifetch",
            StallReason::Operand => "operand",
            StallReason::Bypass => "bypass",
            StallReason::LsuStructural => "lsu-structural",
            StallReason::FuStructural => "fu-structural",
            StallReason::Redirect => "redirect",
            StallReason::Trap => "trap",
            StallReason::CtxSwitch => "ctx-switch",
            StallReason::Membar => "membar",
        }
    }
}

/// Per-packet stall breakdown carried by [`Event::Issue`]. All fields are
/// cycle counts; their sum telescopes to the full gap between this packet's
/// issue and the previous one (minus the one productive issue cycle), so
/// summing over packets can never exceed total cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PacketStalls {
    /// Wait inherited from how this context's readiness was set (redirect
    /// penalty, trap refill, barrier, a parked context), measured against
    /// the previous issue.
    pub pre: u32,
    /// What set the readiness `pre` waits on; `None` for unattributed
    /// waits (initial pipeline fill).
    pub pre_cause: Option<StallReason>,
    /// Context-switch penalty paid entering this packet.
    pub ctx_switch: u32,
    /// Front-end wait on the I-cache.
    pub ifetch: u32,
    /// Scoreboard wait for operands, best-FU view.
    pub operand: u32,
    /// Extra wait because the consuming FU sits farther on the bypass
    /// network than the best-placed one.
    pub bypass: u32,
    /// Non-pipelined divider / double-precision initiation interval.
    pub fu_structural: u32,
    /// LSU buffer/MSHR/port wait for this packet's memory operation.
    pub lsu_structural: u32,
    /// Operand wait observed by each consuming FU slot (attribution by
    /// functional unit; max over the slot's source registers).
    pub slot_wait: [u32; 4],
}

impl PacketStalls {
    /// Total attributed stall cycles of this packet (including `pre` even
    /// when its cause is unknown).
    pub fn total(&self) -> u64 {
        self.pre as u64
            + self.ctx_switch as u64
            + self.ifetch as u64
            + self.operand as u64
            + self.bypass as u64
            + self.fu_structural as u64
            + self.lsu_structural as u64
    }

    /// Per-reason buckets, mirroring exactly what the simulator adds to
    /// [`crate::CycleStats::stall_by_reason`]: `pre` only counts when its
    /// cause is known.
    pub fn by_reason(&self) -> [u64; NUM_STALL_REASONS] {
        let mut out = [0u64; NUM_STALL_REASONS];
        if let Some(cause) = self.pre_cause {
            out[cause.idx()] += self.pre as u64;
        }
        out[StallReason::CtxSwitch.idx()] += self.ctx_switch as u64;
        out[StallReason::IFetch.idx()] += self.ifetch as u64;
        out[StallReason::Operand.idx()] += self.operand as u64;
        out[StallReason::Bypass.idx()] += self.bypass as u64;
        out[StallReason::FuStructural.idx()] += self.fu_structural as u64;
        out[StallReason::LsuStructural.idx()] += self.lsu_structural as u64;
        out
    }
}

/// What redirected the front end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RedirectKind {
    /// Correctly predicted taken branch (taken bubble only).
    TakenBranch,
    Mispredict,
    /// Call: target known at decode.
    Call,
    /// Register-indirect jump, resolves in execute.
    Jmpl,
    /// Return-from-trap, resolves in the trap stage.
    Rte,
}

impl RedirectKind {
    pub const fn name(self) -> &'static str {
        match self {
            RedirectKind::TakenBranch => "taken-branch",
            RedirectKind::Mispredict => "mispredict",
            RedirectKind::Call => "call",
            RedirectKind::Jmpl => "jmpl",
            RedirectKind::Rte => "rte",
        }
    }
}

/// Which LSU structural resource bounced a memory operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryReason {
    LoadBuf,
    StoreBuf,
    Mshr,
}

impl RetryReason {
    pub const fn name(self) -> &'static str {
        match self {
            RetryReason::LoadBuf => "load-buf",
            RetryReason::StoreBuf => "store-buf",
            RetryReason::Mshr => "mshr",
        }
    }
}

/// One typed observability event. Timestamps are simulated cycles.
///
/// Packet issue and commit coincide in this model (architectural execution
/// happens at issue; see `cycle.rs`), so there is no separate commit
/// event — [`Event::Issue`] is both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// One instruction-line fetch transaction.
    Fetch { cpu: u8, line: u32, at: u64, done: u64, served: Served },
    /// A packet issued (and committed) with its stall attribution.
    Issue { cpu: u8, ctx: u8, pc: u32, at: u64, width: u8, stalls: PacketStalls },
    /// A packet was squashed pre-commit by a precise trap.
    Squash { cpu: u8, ctx: u8, pc: u32, at: u64, cause: u32 },
    /// Precise trap delivery: fetch redirected to the vector.
    TrapDeliver { cpu: u8, ctx: u8, pc: u32, vector: u32, cause: u32, at: u64 },
    /// Front-end redirect (branch/call/jmpl/rte) costing `penalty` cycles.
    Redirect { cpu: u8, ctx: u8, pc: u32, at: u64, kind: RedirectKind, penalty: u64 },
    /// Vertical micro-threading switched contexts.
    CtxSwitch { cpu: u8, from: u8, to: u8, at: u64 },
    /// One LSU data transaction: submitted `at`, resolved `done`, served
    /// by the hierarchy as `served`. `fault` marks a data-error completion.
    MemTxn {
        cpu: u8,
        tag: u64,
        addr: u32,
        kind: DKind,
        served: Served,
        at: u64,
        done: u64,
        fault: bool,
    },
    /// The LSU had to re-present a memory operation (structural stall).
    MemRetry { cpu: u8, addr: u32, at: u64, retry_at: u64, reason: RetryReason },
    /// A crossbar grant: arbitration won at `at`, transfer done at `done`.
    XbarGrant { src: u8, at: u64, done: u64, addr: u32, bytes: u32, write: bool, nacks: u32 },
    /// DRDRAM data-channel occupancy span.
    DramSpan { start: u64, done: u64, addr: u32, bytes: u32, write: bool },
    /// One DTE DMA descriptor completing.
    Dma { start: u64, done: u64, bytes: u32 },
    /// An injected fault landed at a memory-side site.
    Fault { site: FaultSite, seq: u64, at: u64, addr: u32 },
}

impl Event {
    /// The cycle this event is anchored at (span events: their start).
    pub fn timestamp(&self) -> u64 {
        match *self {
            Event::Fetch { at, .. }
            | Event::Issue { at, .. }
            | Event::Squash { at, .. }
            | Event::TrapDeliver { at, .. }
            | Event::Redirect { at, .. }
            | Event::CtxSwitch { at, .. }
            | Event::MemTxn { at, .. }
            | Event::MemRetry { at, .. }
            | Event::XbarGrant { at, .. }
            | Event::Fault { at, .. } => at,
            Event::DramSpan { start, .. } | Event::Dma { start, .. } => start,
        }
    }

    /// Convert a memory-side fault record.
    pub fn from_fault(ev: &FaultEvent) -> Event {
        Event::Fault { site: ev.site, seq: ev.seq, at: ev.now, addr: ev.addr }
    }

    /// Convert a DRDRAM busy-span record.
    pub fn from_dram_span(r: DramSpanRec) -> Event {
        let DramSpanRec { start, done, addr, bytes, write } = r;
        Event::DramSpan { start, done, addr, bytes, write }
    }
}

pub(crate) fn dkind_name(kind: DKind) -> &'static str {
    match kind {
        DKind::Load => "load",
        DKind::Store => "store",
        DKind::Prefetch => "prefetch",
        DKind::Atomic => "atomic",
    }
}

/// Receiver of the event stream. The cycle model is generic over this, so
/// the [`NullSink`] path monomorphises to the uninstrumented simulator.
pub trait TraceSink {
    fn emit(&mut self, ev: &Event);
}

/// Discards everything; the default sink. Every `emit` call inlines to
/// nothing, so instrumented code compiles to the previous behaviour.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn emit(&mut self, _ev: &Event) {}
}

/// In-memory sink: unbounded, or a ring buffer keeping the newest `cap`
/// events (older ones counted in `dropped`).
#[derive(Clone, Debug, Default)]
pub struct MemSink {
    cap: Option<usize>,
    buf: VecDeque<Event>,
    dropped: u64,
}

impl MemSink {
    /// Keep every event.
    pub fn unbounded() -> MemSink {
        MemSink::default()
    }

    /// Ring buffer: keep only the newest `cap` events.
    pub fn with_capacity(cap: usize) -> MemSink {
        MemSink { cap: Some(cap.max(1)), buf: VecDeque::with_capacity(cap.max(1)), dropped: 0 }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Borrow the captured events in emission order.
    pub fn events(&mut self) -> &[Event] {
        self.buf.make_contiguous();
        self.buf.as_slices().0
    }

    /// Take the captured events, leaving the sink empty.
    pub fn take(&mut self) -> Vec<Event> {
        self.dropped = 0;
        std::mem::take(&mut self.buf).into()
    }
}

impl TraceSink for MemSink {
    fn emit(&mut self, ev: &Event) {
        if let Some(cap) = self.cap {
            if self.buf.len() >= cap {
                self.buf.pop_front();
                self.dropped += 1;
            }
        }
        self.buf.push_back(*ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_reason_indices_are_dense() {
        for (i, r) in StallReason::ALL.iter().enumerate() {
            assert_eq!(r.idx(), i);
        }
    }

    #[test]
    fn packet_stalls_total_matches_buckets_plus_unattributed_pre() {
        let s = PacketStalls {
            pre: 5,
            pre_cause: Some(StallReason::Redirect),
            ctx_switch: 3,
            ifetch: 2,
            operand: 4,
            bypass: 1,
            fu_structural: 6,
            lsu_structural: 7,
            slot_wait: [0; 4],
        };
        assert_eq!(s.total(), 28);
        assert_eq!(s.by_reason().iter().sum::<u64>(), 28);
        let unattr = PacketStalls { pre_cause: None, ..s };
        assert_eq!(unattr.total(), 28, "total counts pre regardless of cause");
        assert_eq!(unattr.by_reason().iter().sum::<u64>(), 23, "buckets only count known causes");
    }

    #[test]
    fn mem_sink_ring_drops_oldest() {
        let mut s = MemSink::with_capacity(2);
        for at in 0..5u64 {
            s.emit(&Event::CtxSwitch { cpu: 0, from: 0, to: 1, at });
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        assert_eq!(s.events()[0].timestamp(), 3);
    }
}
