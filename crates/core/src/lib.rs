//! # majc-core
//!
//! CPU models for the MAJC-5200:
//!
//! * [`FuncSim`] — the instruction-accurate (functional) simulator;
//! * [`CycleSim`] — the cycle-accurate pipeline model: 7-stage in-order
//!   front end, per-FU latencies, the asymmetric bypass network, gshare
//!   branch prediction, the non-blocking LSU (5 loads / 8 stores / 4
//!   outstanding misses), and vertical micro-threading;
//! * [`exec`] — the architectural semantics shared by both simulators;
//! * [`MemPort`] — the request/response transaction interface to the
//!   memory system ([`txn`]), with standalone ([`LocalMemSys`]) and ideal
//!   ([`PerfectPort`]) implementations; the SoC crate supplies the
//!   dual-CPU shared-cache implementation.
//!
//! Both simulators execute the same [`exec`] semantics, so they cannot
//! diverge architecturally; the cycle model only adds time.

pub mod config;
pub mod cycle;
pub mod diff;
pub mod engine;
pub mod events;
pub mod exec;
pub mod func_sim;
pub mod json;
pub mod lsu;
pub mod memsys;
pub mod perfetto;
pub mod predictor;
pub mod profile;
pub mod regfile;
pub mod snapshot;
pub mod stats;
pub mod trap;
pub mod txn;
pub mod xlate;

pub use config::{BypassModel, ThreadingConfig, TimingConfig, TrapPolicy};
pub use cycle::{CpuCore, CycleSim};
pub use engine::ExecEngine;
pub use events::{
    Event, MemSink, NullSink, PacketStalls, RedirectKind, RetryReason, Served, StallReason,
    TraceSink, NUM_STALL_REASONS,
};
pub use exec::{branch_taken, exec_slot, Flow, MemEffect, SlotOutcome, Trap};
pub use func_sim::{FuncSim, FuncStats};
pub use lsu::{Lsu, LsuStall, LsuStats};
pub use memsys::{Backend, LocalMemSys, PerfectPort};
pub use perfetto::{export as export_perfetto, validate as validate_perfetto, TraceDoc};
pub use predictor::{Gshare, PredictorConfig, PredictorStats};
pub use profile::{intervals, profile, IntervalSample, PcProfile, Profile};
pub use regfile::{RegFile, WriteSet};
pub use snapshot::{CpuSnap, CPU_SNAP_BYTES};
pub use stats::CycleStats;
pub use trap::{SimError, TrapRegs};
pub use txn::{Completion, MemLevelStats, MemPort, MemReq, MemResp, Reject};
pub use xlate::{
    global_xlate_cache, Translation, XlateCache, XlateCacheStats, XlateSim, XLATE_CACHE_CAP,
};
