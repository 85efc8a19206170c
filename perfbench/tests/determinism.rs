//! Determinism self-test: two runs of one seed must simulate exactly the
//! same work, and the traced run must do exactly the work of the untraced
//! one. This is the guard that a change meant only to speed up a
//! simulator left every simulated statistic identical.
//!
//! Each run here is three setups with their warm-up rounds plus the
//! shortest measured run, so the tests need an optimized build:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::time::Instant;

use perfbench::harness::{run, Counts, Outcome, Settings, PER_LAYER};
use perfbench::trace::{self, OP};

fn once(workload: &str, seed: u64, trace: bool) -> Outcome {
    let s = Settings { workload: workload.to_string(), seed, seconds: 0.0, trace };
    run(&s, Instant::now(), |tr| perfbench::setup(workload, seed, tr)).expect("setup succeeds")
}

/// Same seed twice untraced, then traced: identical work per round, no
/// failed op, and spans around every layer the workload calls.
fn check(workload: &str, layers: &[&str]) {
    let a = once(workload, 7, false);
    let b = once(workload, 7, false);
    let t = once(workload, 7, true);
    for o in [&a, &b, &t] {
        assert!(
            o.correct && o.failed == 0,
            "{workload}: {} of {} ops failed",
            o.failed,
            o.attempted
        );
    }
    assert_ne!(a.round, Counts::default(), "{workload}: a round simulates work");
    assert_eq!(a.round, b.round, "{workload}: same seed, same simulated work");
    assert_eq!(a.round, t.round, "{workload}: tracing changed the simulated work");
    assert_eq!(a.round_len, t.round_len);
    // Every measured op of the traced run matched the warm-up's counts, and
    // half of its rounds were traced.
    assert_eq!(t.rounds % 2, 0);
    assert!(a.attempted as usize >= perfbench::harness::MIN_OPS);
    let ops = t.tracer.spans.iter().filter(|s| s.name == OP).count();
    assert_eq!(ops * 2, t.attempted as usize, "{workload}: one op span per traced op");
    for layer in layers {
        assert!(t.tracer.spans.iter().any(|s| s.name == *layer), "{workload}: no {layer} span");
    }
    let names: Vec<&str> = t.metrics.iter().map(|m| m.0).collect();
    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names, expected, "{workload}: a traced run prints every per-layer metric");
    let e2e: Vec<&str> = a.metrics.iter().map(|m| m.0).collect();
    assert_eq!(e2e, ["setup_s", "ops_per_s", "op_p50_ms", "op_p99_ms", "peak_rss_mib"]);
    assert!(a.metrics.iter().all(|m| m.1 > 0.0), "{workload}: end-to-end metrics are never 0");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "needs --release")]
fn cycle_suite_is_deterministic() {
    check("cycle_suite", &[trace::CYCLE_RUN, trace::INTERP_RUN]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "needs --release")]
fn cycle_stream_is_deterministic() {
    check("cycle_stream", &[trace::CYCLE_RUN, trace::INTERP_RUN]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "needs --release")]
fn corpus_verify_is_deterministic() {
    check("corpus_verify", &[trace::ASSEMBLE, trace::LINT, trace::TRANSLATE, trace::XLATE_EXEC]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "needs --release")]
fn serve_rtt_is_deterministic() {
    check("serve_rtt", &[trace::SERVE_SIMULATE, trace::SERVE_ASSEMBLE, trace::INTERP_RUN]);
}

#[test]
fn unknown_workload_is_refused() {
    assert!(perfbench::setup("no_such_workload", 1, &mut trace::Tracer::new(false)).is_err());
}
