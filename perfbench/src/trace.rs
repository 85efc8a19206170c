//! In-memory spans recorded by the benchmark around its own calls into
//! each layer. Nothing inside the program is instrumented: a span covers
//! one public call (`majc_asm::assemble`, `CycleSim::run`, ...) made from
//! the benchmark, so tracing adds two clock reads per layer call and
//! nothing else.

use std::fmt::Write as _;
use std::time::Instant;

/// Name of the span that covers one whole op; the layer spans it contains
/// share its id.
pub const OP: &str = "op";

/// Op id carried by spans recorded during setup, outside any op.
pub const SETUP: u64 = u64::MAX;

/// Layer span names: one per public call the benchmark wraps.
pub const ASSEMBLE: &str = "asm.assemble";
pub const LINT: &str = "lint.lint";
pub const TRANSLATE: &str = "core.xlate.translate";
pub const XLATE_EXEC: &str = "core.xlate.exec";
pub const INTERP_RUN: &str = "core.interp.run";
pub const CYCLE_RUN: &str = "core.cycle.run";
pub const SERVE_SIMULATE: &str = "serve.simulate";
pub const SERVE_ASSEMBLE: &str = "serve.assemble";

/// One recorded interval, in nanoseconds since the tracer was created.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The op this span belongs to ([`SETUP`] outside ops).
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times ops always, and records spans only while on.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// Id of the op in progress.
    cur: u64,
    next: u64,
    pub spans: Vec<Span>,
    /// Packets committed by the setup's traced interpreter reference runs.
    pub interp_packets: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            cur: SETUP,
            next: 0,
            spans: Vec::new(),
            interp_packets: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Run one op and return its host time in ns. The closure must hold
    /// exactly the calls that make up the op: inputs are prepared before
    /// it and outputs checked after it, untimed.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> (u64, T) {
        self.cur = self.next;
        self.next += 1;
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if self.on {
            let start_ns = self.since_epoch(start);
            let end_ns = self.since_epoch(end);
            self.spans.push(Span { name: OP, op: self.cur, start_ns, end_ns });
        }
        self.cur = SETUP;
        (end.duration_since(start).as_nanos() as u64, out)
    }

    /// Record a span named `name` around `f` (one call into a layer).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let span = Span {
            name,
            op: self.cur,
            start_ns: self.since_epoch(start),
            end_ns: self.since_epoch(end),
        };
        self.spans.push(span);
        out
    }

    /// Every span as JSON lines; layer spans name the op span that
    /// caused them as their parent.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let (op, parent) = match (s.op, s.name) {
                (SETUP, _) => ("null".to_string(), "null"),
                (id, OP) => (id.to_string(), "null"),
                (id, _) => (id.to_string(), "\"op\""),
            };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{op},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_but_still_times_ops() {
        let mut tr = Tracer::new(false);
        let (ns, v) = tr.op(|tr| tr.span("x", || 7));
        assert_eq!(v, 7);
        assert!(ns < 1_000_000_000);
        assert!(tr.spans.is_empty());
    }

    #[test]
    fn layer_spans_share_their_op_id() {
        let mut tr = Tracer::new(true);
        tr.span("setup", || ());
        tr.op(|tr| {
            tr.span("a", || ());
            tr.span("b", || ());
        });
        let ids: Vec<_> = tr.spans.iter().map(|s| (s.name, s.op)).collect();
        assert_eq!(ids, [("setup", SETUP), ("a", 0), ("b", 0), (OP, 0)]);
        let op = tr.spans[3];
        assert!(tr.spans[1..3].iter().all(|s| s.start_ns >= op.start_ns && s.end_ns <= op.end_ns));
        assert!(tr.spans_jsonl().lines().nth(1).unwrap().contains("\"parent\":\"op\""));
    }
}
