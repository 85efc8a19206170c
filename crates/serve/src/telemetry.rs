//! The daemon's observability surface: one [`Telemetry`] per server
//! owning a `majc_obs::MetricsRegistry` and a bounded span log, plus the
//! Perfetto renderer that turns job spans into a timeline the same UI
//! opens next to cycle traces.
//!
//! ## Determinism split
//!
//! Metrics registered [`Class::Det`] carry only architectural
//! dimensions — job counts by kind and outcome, packets, cycles, queue
//! depth at admission under a serial client. Their snapshot section is
//! byte-identical for identical job streams and is what CI `cmp`-gates.
//! Everything schedule- or clock-dependent — wait/service latencies,
//! the derived busy backoff, span accounting, and the *process-global*
//! translation-cache counters (which depend on whatever else the
//! process ran first) — is registered [`Class::Wall`] and renders under
//! the separate `"nondeterministic"` key.

use std::sync::Arc;
use std::time::Instant;

use majc_core::{global_xlate_cache, TraceDoc};
use majc_obs::{Class, Counter, Gauge, Histogram, JobSpan, MetricsRegistry, Snapshot, SpanLog};

use majc_core::json::quote;

/// Spans kept in memory per server; beyond this they are dropped and
/// counted (`spans.dropped` in the wall section).
pub const SPAN_LOG_CAP: usize = 8192;

/// Upper bounds (µs) for wait/service histograms: 50µs .. 10s.
pub const US_BOUNDS: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 10_000_000,
];

/// Upper bounds for the queue-depth-at-admission histogram.
pub const DEPTH_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128];

/// Upper bounds for per-job packet/cycle histograms.
pub const WORK_BOUNDS: &[u64] =
    &[0, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 16_777_216];

/// Per-server metrics registry, span log, and the microsecond epoch all
/// timestamps are relative to.
pub struct Telemetry {
    pub registry: Arc<MetricsRegistry>,
    pub spans: SpanLog,
    epoch: Instant,
    // Deterministic (architectural) instruments.
    jobs_total: Counter,
    packets_total: Counter,
    cycles_total: Counter,
    depth_at_accept: Histogram,
    packets_per_job: Histogram,
    cycles_per_job: Histogram,
    // Wall-clock instruments.
    queue_wait_us: Histogram,
    /// Worker service time of every retired job; its count and sum are
    /// the drain rate behind the derived `busy` backoff.
    pub service_us: Histogram,
    pub retry_after_ms: Gauge,
    pub queue_highwater: Gauge,
    span_drops: Counter,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new(SPAN_LOG_CAP)
    }
}

impl Telemetry {
    pub fn new(span_cap: usize) -> Telemetry {
        let registry = Arc::new(MetricsRegistry::new());
        let r = &registry;
        Telemetry {
            jobs_total: r.counter("jobs.total", Class::Det),
            packets_total: r.counter("engine.packets.total", Class::Det),
            cycles_total: r.counter("engine.cycles.total", Class::Det),
            depth_at_accept: r.histogram("queue.depth_at_accept", Class::Det, DEPTH_BOUNDS),
            packets_per_job: r.histogram("engine.packets.per_job", Class::Det, WORK_BOUNDS),
            cycles_per_job: r.histogram("engine.cycles.per_job", Class::Det, WORK_BOUNDS),
            queue_wait_us: r.histogram("queue.wait_us", Class::Wall, US_BOUNDS),
            service_us: r.histogram("worker.service_us", Class::Wall, US_BOUNDS),
            retry_after_ms: r.gauge("busy.retry_after_ms", Class::Wall),
            queue_highwater: r.gauge("queue.depth_highwater", Class::Wall),
            span_drops: r.counter("spans.dropped", Class::Wall),
            spans: SpanLog::new(span_cap),
            epoch: Instant::now(),
            registry,
        }
    }

    /// Microseconds since this server's telemetry epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Account one retired job: metric fan-out plus the span log.
    pub fn record_job(&self, span: JobSpan) {
        self.jobs_total.inc();
        self.registry.counter(&format!("jobs.kind.{}", span.kind), Class::Det).inc();
        self.registry.counter(&format!("jobs.outcome.{}", span.outcome), Class::Det).inc();
        self.depth_at_accept.observe(span.queue_depth_at_accept);
        if span.outcome == "ok" {
            self.packets_total.add(span.packets);
            self.cycles_total.add(span.cycles);
            self.packets_per_job.observe(span.packets);
            self.cycles_per_job.observe(span.cycles);
        }
        self.queue_wait_us.observe(span.queue_wait_us());
        self.service_us.observe(span.service_us());
        if !self.spans.record(span) {
            self.span_drops.inc();
        }
    }

    /// Snapshot the registry, refreshing the process-global translation
    /// cache gauges first (wall class: the global cache's counters
    /// depend on process history, not just this server's job stream).
    pub fn snapshot(&self) -> Snapshot {
        let xs = global_xlate_cache().stats();
        self.registry.gauge("xlate.hits", Class::Wall).set(xs.hits);
        self.registry.gauge("xlate.misses", Class::Wall).set(xs.misses);
        self.registry.gauge("xlate.evictions", Class::Wall).set(xs.evictions);
        self.registry.gauge("xlate.resident", Class::Wall).set(xs.resident as u64);
        self.registry.snapshot()
    }
}

/// Render job spans as a Chrome/Perfetto `trace_event` document: an
/// `admission-queue` track holds the queue-wait slice of every job, one
/// track per worker respawn generation holds its service slices, and a
/// `reply` instant marks each response hand-off. 1µs of span time is
/// 1µs of trace time; passing `majc_core::validate_perfetto` is part of
/// the test suite.
pub fn spans_to_perfetto(spans: &[JobSpan]) -> String {
    const PID: u64 = 1;
    const TID_QUEUE: u64 = 0;
    const TID_WORKER_BASE: u64 = 10;
    let mut doc = TraceDoc::with_capacity(spans.len() * 3);
    doc.name_process(PID, "majc-serve");
    doc.name_thread(PID, TID_QUEUE, "admission-queue");
    for s in spans {
        let args = format!(
            "\"seq\":{},\"id\":{},\"kind\":{},\"depth_at_accept\":{}",
            s.seq,
            quote(&s.id),
            quote(&s.kind),
            s.queue_depth_at_accept
        );
        doc.complete(PID, TID_QUEUE, "queue.wait", s.accept_us, s.queue_wait_us().max(1), &args);
        let tid = TID_WORKER_BASE + s.worker_gen;
        doc.name_thread(PID, tid, &format!("worker.gen{}", s.worker_gen));
        let exec_args = format!(
            "\"seq\":{},\"outcome\":{},\"packets\":{},\"cycles\":{},\"xlate_hit\":{}",
            s.seq,
            quote(&s.outcome),
            s.packets,
            s.cycles,
            match s.xlate_hit {
                None => "null".to_string(),
                Some(h) => h.to_string(),
            }
        );
        let name = format!("exec.{}", s.kind);
        doc.complete(PID, tid, &name, s.start_us, s.service_us().max(1), &exec_args);
        let reply = if s.killed { "reply.worker_killed" } else { "reply" };
        doc.instant(PID, tid, reply, s.end_us.max(s.start_us + 1), &format!("\"seq\":{}", s.seq));
    }
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64, gen: u64, outcome: &str) -> JobSpan {
        JobSpan {
            seq,
            id: format!("j{seq}"),
            kind: "simulate".into(),
            worker_gen: gen,
            queue_depth_at_accept: seq % 3,
            accept_us: seq * 100,
            start_us: seq * 100 + 40,
            end_us: seq * 100 + 90,
            outcome: outcome.into(),
            packets: 1000 + seq,
            cycles: 0,
            xlate_hit: Some(seq > 0),
            killed: outcome == "failed",
        }
    }

    #[test]
    fn record_job_splits_det_and_wall_sections() {
        let t = Telemetry::new(16);
        t.record_job(span(0, 0, "ok"));
        t.record_job(span(1, 2, "failed"));
        let snap = t.snapshot();
        let det = snap.det_json();
        assert!(det.contains("\"jobs.total\":2"));
        assert!(det.contains("\"jobs.outcome.ok\":1"));
        assert!(det.contains("\"jobs.kind.simulate\":2"));
        assert!(!det.contains("wait_us"), "latencies stay out of the det section");
        assert!(!det.contains("xlate."), "global-cache state stays out of the det section");
        let full = snap.to_json();
        assert!(full.contains("\"queue.wait_us\""));
        assert!(full.contains("\"xlate.hits\""));
        assert_eq!(t.spans.len(), 2);
    }

    #[test]
    fn packets_count_only_successful_jobs() {
        let t = Telemetry::new(16);
        t.record_job(span(0, 0, "ok"));
        t.record_job(span(1, 0, "rejected"));
        let snap = t.snapshot();
        assert_eq!(snap.get("engine.packets.total").unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn span_overflow_is_counted_not_lost_silently() {
        let t = Telemetry::new(1);
        t.record_job(span(0, 0, "ok"));
        t.record_job(span(1, 0, "ok"));
        let snap = t.snapshot();
        assert_eq!(snap.get("spans.dropped").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn perfetto_doc_shows_queue_and_engine_stages() {
        let spans: Vec<JobSpan> = vec![span(0, 0, "ok"), span(1, 1, "ok"), span(2, 3, "failed")];
        let doc = spans_to_perfetto(&spans);
        majc_core::validate_perfetto(&doc).expect("valid trace_event document");
        assert!(doc.contains("\"queue.wait\""));
        assert!(doc.contains("\"exec.simulate\""));
        assert!(doc.contains("\"worker.gen3\""), "respawn generations get their own track");
        assert!(doc.contains("\"reply.worker_killed\""));
        assert!(doc.contains("\"admission-queue\""));
        assert_eq!(spans_to_perfetto(&spans), doc, "export is deterministic");
    }
}
