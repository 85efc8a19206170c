//! # majc-obs
//!
//! A dependency-free metrics and span layer for the service stack
//! (`majc-serve`, the simulation farm, the experiments harness). Two
//! building blocks:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and fixed-bucket
//!   histograms, each registered under a [`Class`]: `Det` metrics carry
//!   only architectural dimensions (packets, cycles, queue positions,
//!   retry counts) and render byte-identically for any thread count or
//!   wall-clock schedule; `Wall` metrics (latencies, drain rates,
//!   process-global cache state) live in a separate, explicitly
//!   non-deterministic section of the same snapshot.
//! * [`JobSpan`] — one record per job covering the full request
//!   lifecycle (accept → queue wait → worker service → reply), kept in a
//!   bounded [`SpanLog`]; each span renders as one JSON line
//!   ([`JobSpan::to_jsonl`]), and `majc-serve` renders span sets as
//!   Perfetto timelines through `majc_core::perfetto::TraceDoc`.
//!
//! The crate is intentionally std-only — CI gates that it stays that
//! way — so every layer of the stack can depend on it without cycles.

pub mod metrics;
pub mod span;

pub use metrics::{Class, Counter, Gauge, Histogram, MetricValue, MetricsRegistry, Snapshot};
pub use span::{JobSpan, SpanLog};
