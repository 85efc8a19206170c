//! Per-job lifecycle spans.
//!
//! A [`JobSpan`] covers one request end to end: accepted off the socket
//! (queue depth at entry), popped by a worker (queue wait), executed
//! (engine counters — packets, cycles, translation-cache hit), replied.
//! Timestamps are microseconds since the owning process's telemetry
//! epoch — wall-clock data, never part of a deterministic report.
//!
//! Spans accumulate in a bounded [`SpanLog`] (overflow is counted, not
//! silently dropped); each renders as one JSON line via
//! [`JobSpan::to_jsonl`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::json_str;

/// One job's lifecycle, as recorded by the worker that retired it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpan {
    /// Server-side execution sequence number (the chaos plan's domain).
    pub seq: u64,
    /// Caller-chosen correlation id.
    pub id: String,
    /// Job kind: `assemble`, `lint`, `simulate`, `fuzz`.
    pub kind: String,
    /// Respawn generation of the worker that ran the job (0-based; a
    /// generation above `workers - 1` means a chaos respawn served it).
    pub worker_gen: u64,
    /// Queue depth observed at admission, before this job was pushed.
    pub queue_depth_at_accept: u64,
    /// Accepted off the socket (µs since telemetry epoch).
    pub accept_us: u64,
    /// Popped by a worker — service begins.
    pub start_us: u64,
    /// Response handed to the connection writer.
    pub end_us: u64,
    /// Terminal status: `ok`, `failed`, `rejected`, or `killed`.
    pub outcome: String,
    /// Packets retired by the engine (0 for non-simulation jobs).
    pub packets: u64,
    /// Cycles consumed (0 for functional-engine and non-sim jobs).
    pub cycles: u64,
    /// Translation-cache outcome for func-engine simulations.
    pub xlate_hit: Option<bool>,
    /// True when a seeded chaos kill took the worker during this job.
    pub killed: bool,
}

impl JobSpan {
    /// Time spent queued before a worker picked the job up.
    pub fn queue_wait_us(&self) -> u64 {
        self.start_us.saturating_sub(self.accept_us)
    }

    /// Time spent in the worker (parse, translate, execute, reply).
    pub fn service_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// One JSON object, no trailing newline.
    pub fn to_jsonl(&self) -> String {
        let xlate = match self.xlate_hit {
            None => "null".to_string(),
            Some(hit) => hit.to_string(),
        };
        format!(
            "{{\"seq\":{},\"id\":{},\"kind\":{},\"worker_gen\":{},\
             \"queue_depth_at_accept\":{},\"accept_us\":{},\"start_us\":{},\"end_us\":{},\
             \"queue_wait_us\":{},\"service_us\":{},\"outcome\":{},\"packets\":{},\
             \"cycles\":{},\"xlate_hit\":{},\"killed\":{}}}",
            self.seq,
            json_str(&self.id),
            json_str(&self.kind),
            self.worker_gen,
            self.queue_depth_at_accept,
            self.accept_us,
            self.start_us,
            self.end_us,
            self.queue_wait_us(),
            self.service_us(),
            json_str(&self.outcome),
            self.packets,
            self.cycles,
            xlate,
            self.killed
        )
    }
}

/// Bounded in-memory span store. Once full, further spans are dropped
/// and counted — observability must never become the memory leak.
#[derive(Debug)]
pub struct SpanLog {
    cap: usize,
    spans: Mutex<Vec<JobSpan>>,
    dropped: AtomicU64,
}

impl SpanLog {
    pub fn new(cap: usize) -> SpanLog {
        SpanLog { cap, spans: Mutex::new(Vec::new()), dropped: AtomicU64::new(0) }
    }

    /// Record a span; returns false (and counts) once the log is full.
    pub fn record(&self, span: JobSpan) -> bool {
        let mut spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        if spans.len() >= self.cap {
            drop(spans);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        spans.push(span);
        true
    }

    pub fn len(&self) -> usize {
        self.spans.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy of everything recorded so far, sorted by execution seq so
    /// exports are stable regardless of worker retirement order.
    pub fn snapshot(&self) -> Vec<JobSpan> {
        let mut spans = self.spans.lock().unwrap_or_else(|p| p.into_inner()).clone();
        spans.sort_by_key(|s| s.seq);
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64) -> JobSpan {
        JobSpan {
            seq,
            id: format!("job-{seq}"),
            kind: "simulate".into(),
            worker_gen: 1,
            queue_depth_at_accept: 2,
            accept_us: 100,
            start_us: 250,
            end_us: 900,
            outcome: "ok".into(),
            packets: 4096,
            cycles: 0,
            xlate_hit: Some(true),
            killed: false,
        }
    }

    #[test]
    fn jsonl_round_trips_every_field() {
        let line = span(7).to_jsonl();
        assert_eq!(
            line,
            "{\"seq\":7,\"id\":\"job-7\",\"kind\":\"simulate\",\"worker_gen\":1,\
             \"queue_depth_at_accept\":2,\"accept_us\":100,\"start_us\":250,\"end_us\":900,\
             \"queue_wait_us\":150,\"service_us\":650,\"outcome\":\"ok\",\"packets\":4096,\
             \"cycles\":0,\"xlate_hit\":true,\"killed\":false}"
        );
        let mut none = span(8);
        none.xlate_hit = None;
        assert!(none.to_jsonl().contains("\"xlate_hit\":null"));
    }

    #[test]
    fn wait_and_service_never_underflow() {
        let mut s = span(1);
        s.start_us = 50; // clock observed out of order
        assert_eq!(s.queue_wait_us(), 0);
        assert_eq!(s.service_us(), 850);
    }

    #[test]
    fn log_bounds_and_counts_drops() {
        let log = SpanLog::new(2);
        assert!(log.record(span(2)));
        assert!(log.record(span(1)));
        assert!(!log.record(span(3)));
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        let seqs: Vec<u64> = log.snapshot().iter().map(|s| s.seq).collect();
        assert_eq!(seqs, [1, 2], "snapshot sorts by seq");
    }
}
