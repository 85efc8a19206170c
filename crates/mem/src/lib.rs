//! # majc-mem
//!
//! The MAJC-5200 memory subsystem (paper §3.1-§3.2):
//!
//! * [`FlatMem`] — the architectural backing store (data);
//! * [`TagArray`] — generic set-associative tags with true LRU (timing);
//! * [`ICache`] — per-CPU 16 KB 2-way instruction cache;
//! * [`DCache`] — the *shared, coherent, dual-ported* 16 KB 4-way data
//!   cache with a four-entry MSHR file, non-binding prefetch, and the
//!   cached / non-cached / non-allocating access policies of §4;
//! * [`Dram`] — the direct Rambus (DRDRAM) channel, 1.6 GB/s peak;
//! * [`PerfectMem`] — an ideal backend for the paper's "without memory
//!   effects" measurements;
//! * [`MemBackend`] — the trait over which caches reach the next level, so
//!   the SoC crate can interpose its crossbar.
//!
//! Design note: data and timing are deliberately separated. All
//! architectural state lives in [`FlatMem`]; caches and DRAM model tags and
//! cycles only. This keeps the two CPUs' shared D-cache coherent by
//! construction — mirroring the real chip, where coherence is a property of
//! sharing one physical cache rather than of a protocol.

pub mod dcache;
pub mod dram;
pub mod fault;
pub mod flat;
pub mod icache;
pub mod snapshot;
pub mod tags;

pub use dcache::{DCache, DCacheConfig, DKind, DPolicy, DStall, Served};
pub use dram::{Dram, DramConfig, DramSpanRec, DramStats, MemBackend, PerfectMem};
pub use fault::{FaultEvent, FaultInjector, FaultPlan, FaultSite};
pub use flat::{FlatMem, MemDiff};
pub use icache::{ICache, ICacheConfig};
pub use majc_isa::{fnv1a, fnv1a_extend};
pub use snapshot::SnapError;
pub use tags::{CacheStats, TagArray, Victim};
