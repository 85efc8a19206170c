//! The measurement loop shared by every workload: repeated setup, a
//! verified warm-up round, then whole rounds of ops until the run time is
//! spent, with each op checked against its reference and its simulated
//! work compared with the warm-up's.

use std::collections::BTreeMap;
use std::time::Instant;

use majc_core::CycleStats;

use crate::trace::{self, Tracer, OP, SETUP};

/// Deterministic simulated work of one op, or a sum over ops. The same
/// seed gives the same counts on every run, traced or not; a change that
/// only speeds up the simulator must leave them identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub cycles: u64,
    pub packets: u64,
    pub instrs: u64,
    pub data_stall: u64,
    pub mem_stall: u64,
    pub front_stall: u64,
    pub branch_lookups: u64,
    pub mispredicts: u64,
    pub icache_hits: u64,
    pub icache_misses: u64,
    pub dcache_hits: u64,
    pub dcache_misses: u64,
    pub dram_busy: u64,
    /// A high-water mark: combined by max, not by sum.
    pub mshr_high_water: u64,
    /// Packets committed on the translated engine (or by a serve job).
    pub xlate_packets: u64,
    pub uops: u64,
    pub specialized_uops: u64,
}

impl Counts {
    /// The cycle model's counters after (part of) a run.
    pub fn from_cycle(s: &CycleStats) -> Counts {
        Counts {
            cycles: s.cycles,
            packets: s.packets,
            instrs: s.instrs,
            data_stall: s.data_stall_cycles,
            mem_stall: s.mem_stall_cycles,
            front_stall: s.front_stall_cycles,
            branch_lookups: s.branch.lookups,
            mispredicts: s.mispredicts,
            icache_hits: s.mem.icache_hits,
            icache_misses: s.mem.icache_misses,
            dcache_hits: s.mem.dcache_hits,
            dcache_misses: s.mem.dcache_misses,
            dram_busy: s.mem.dram_busy_cycles,
            mshr_high_water: s.mem.mshr_high_water,
            ..Counts::default()
        }
    }

    fn zip(&self, o: &Counts, f: impl Fn(u64, u64) -> u64) -> Counts {
        Counts {
            cycles: f(self.cycles, o.cycles),
            packets: f(self.packets, o.packets),
            instrs: f(self.instrs, o.instrs),
            data_stall: f(self.data_stall, o.data_stall),
            mem_stall: f(self.mem_stall, o.mem_stall),
            front_stall: f(self.front_stall, o.front_stall),
            branch_lookups: f(self.branch_lookups, o.branch_lookups),
            mispredicts: f(self.mispredicts, o.mispredicts),
            icache_hits: f(self.icache_hits, o.icache_hits),
            icache_misses: f(self.icache_misses, o.icache_misses),
            dcache_hits: f(self.dcache_hits, o.dcache_hits),
            dcache_misses: f(self.dcache_misses, o.dcache_misses),
            dram_busy: f(self.dram_busy, o.dram_busy),
            mshr_high_water: self.mshr_high_water.max(o.mshr_high_water),
            xlate_packets: f(self.xlate_packets, o.xlate_packets),
            uops: f(self.uops, o.uops),
            specialized_uops: f(self.specialized_uops, o.specialized_uops),
        }
    }

    pub fn add(&mut self, o: &Counts) {
        *self = self.zip(o, |a, b| a + b);
    }

    /// Work done between two snapshots of cumulative counters; the
    /// high-water mark stays the later snapshot's.
    pub fn since(&self, earlier: &Counts) -> Counts {
        let mut d = self.zip(earlier, |a, b| a - b);
        d.mshr_high_water = self.mshr_high_water;
        d
    }
}

/// One executed op.
pub struct Op {
    /// Host time of the op's layer calls, from [`Tracer::op`].
    pub ns: u64,
    /// The output matched its reference: no trap, hang, refusal or
    /// mismatch.
    pub ok: bool,
    pub counts: Counts,
    /// The op sequence wraps after this op.
    pub end_of_round: bool,
}

/// A workload after setup: an endless, fixed sequence of ops in rounds.
pub trait Workload {
    fn op(&mut self, tr: &mut Tracer) -> Op;

    /// Per-layer metrics only the workload can read (server-side spans),
    /// called once after the measured loop.
    fn layer_metrics(&mut self, _out: &mut Metrics) {}
}

pub type Metrics = BTreeMap<&'static str, f64>;

/// How to run one workload.
pub struct Settings {
    pub workload: String,
    pub seed: u64,
    /// Minimum measured time; the run ends on the first round boundary
    /// after it.
    pub seconds: f64,
    pub trace: bool,
}

/// Full setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Minimum timed ops per run, so that at least ten lie beyond the p99.
pub const MIN_OPS: usize = 1100;

/// Timed ops per host-speed calibration (see [`calibrate`]).
const CAL_EVERY: usize = 8;

/// Calibrations on each side of an op's own that its host-speed factor
/// is the median of.
const CAL_REACH: usize = 1;

/// Calibrations after each setup.
const SETUP_CALS: usize = 8;

/// [`calibrate`]'s time in ns on the development host when no other
/// tenant loads its cores. It sets the unit of the host-time metrics (ms
/// at that host speed) and cancels out of any comparison between commits.
pub const CAL_REF_NS: f64 = 80_000.0;

/// Result of one run.
pub struct Outcome {
    pub correct: bool,
    /// Timed ops, which is also the latency sample count.
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`: the end-to-end metrics untraced, the
    /// per-layer metrics traced.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Simulated work of one round, from the warm-up.
    pub round: Counts,
    pub round_len: usize,
    pub rounds: u64,
    /// [`EndToEnd::host_slowdown`] of an untraced run, 0 for a traced one.
    pub host_slowdown: f64,
    pub tracer: Tracer,
}

/// Every per-layer metric with its unit. A traced run prints all of them;
/// a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.cycle.ns_per_sim_cycle", "ns/cycle"),
    ("core.cycle.ipc", "instr/cycle"),
    ("core.cycle.sim_cycles", "cycles"),
    ("core.cycle.packets", "packets"),
    ("core.cycle.stall_share.data", "ratio"),
    ("core.cycle.stall_share.mem", "ratio"),
    ("core.cycle.stall_share.front", "ratio"),
    ("core.cycle.run_share", "ratio"),
    ("core.predictor.mispredicts", "count"),
    ("core.predictor.mispredict_ratio", "ratio"),
    ("mem.icache.hit_ratio", "ratio"),
    ("mem.dcache.hit_ratio", "ratio"),
    ("mem.dcache.misses", "count"),
    ("mem.dram.busy_share", "ratio"),
    ("core.lsu.mshr_high_water", "count"),
    ("core.interp.ns_per_packet", "ns/packet"),
    ("asm.assemble_ms", "ms"),
    ("asm.assemble_share", "ratio"),
    ("lint.lint_ms", "ms"),
    ("lint.lint_share", "ratio"),
    ("core.xlate.translate_ms", "ms"),
    ("core.xlate.translate_share", "ratio"),
    ("core.xlate.specialized_ratio", "ratio"),
    ("core.xlate.uops", "count"),
    ("core.xlate.packets", "packets"),
    ("core.xlate.exec_ns_per_packet", "ns/packet"),
    ("core.xlate.exec_share", "ratio"),
    ("core.xlate.cache_hit_ratio", "ratio"),
    ("serve.rtt_ms.simulate", "ms"),
    ("serve.rtt_ms.assemble", "ms"),
    ("serve.service_us.simulate", "us"),
    ("serve.service_us.assemble", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.prog_cache_hits", "count"),
    ("serve.jobs.ok", "count"),
    ("serve.jobs.failed", "count"),
    ("serve.jobs.rejected", "count"),
    ("bench.self_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Nearest-rank quantile of sorted samples.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median_f(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set (VmHWM) of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One round's op count, host time and mode.
struct Round {
    ops: u64,
    ns: u64,
    traced: bool,
}

/// Set up [`SETUP_REPS`] times (the first from `process_start`), warm up,
/// and measure. `setup` builds the workload's inputs and references.
pub fn run(
    s: &Settings,
    process_start: Instant,
    setup: impl Fn(&mut Tracer) -> Result<Box<dyn Workload>, String>,
) -> Result<Outcome, String> {
    let mut tr = Tracer::new(s.trace);
    let mut cal_state = 0x9E37_79B9_7F4A_7C15;
    let mut setup_s = Vec::new();
    let mut ready: Option<(Box<dyn Workload>, Vec<Counts>, u64)> = None;
    for rep in 0..SETUP_REPS {
        // Tear the previous setup down (a server shuts down) untimed.
        drop(ready.take());
        let start = if rep == 0 { process_start } else { Instant::now() };
        // Setup's own layer calls (the interpreter references) are traced;
        // the warm-up round is not, so traced ops are measured ops only.
        tr.set_on(s.trace);
        let mut w = setup(&mut tr)?;
        tr.set_on(false);
        let (refs, warm_failed) = warm_up(&mut *w, &mut tr);
        let secs = start.elapsed().as_secs_f64();
        // The host's speed just after the setup stands in for its speed
        // during it: the setup is fixed work, so it cannot be calibrated
        // between its steps.
        let mut c: Vec<f64> = (0..SETUP_CALS).map(|_| calibrate(&mut cal_state) as f64).collect();
        setup_s.push(secs * CAL_REF_NS / median_f(&mut c));
        ready = Some((w, refs, warm_failed));
    }
    let (mut w, refs, warm_failed) = ready.expect("at least one setup ran");
    let round = refs.iter().fold(Counts::default(), |mut acc, c| {
        acc.add(c);
        acc
    });

    // Op times in run order. Kept compact so the run's length barely
    // moves RSS.
    let mut lat: Vec<u32> = Vec::with_capacity(1 << 20);
    let mut cal: Vec<u32> = Vec::with_capacity(1 << 16);
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced = Counts::default();
    let (mut attempted, mut failed) = (0u64, warm_failed);
    let start = Instant::now();
    loop {
        // A traced run alternates untraced and traced rounds, so the two
        // see the same host conditions and the difference is the tracing
        // overhead.
        let on = s.trace && rounds.len() % 2 == 1;
        tr.set_on(on);
        let mut r = Round { ops: 0, ns: 0, traced: on };
        loop {
            if lat.len().is_multiple_of(CAL_EVERY) {
                cal.push(u32::try_from(calibrate(&mut cal_state)).unwrap_or(u32::MAX));
            }
            let op = w.op(&mut tr);
            let expect = refs.get(r.ops as usize);
            r.ops += 1;
            r.ns += op.ns;
            attempted += 1;
            lat.push(u32::try_from(op.ns).unwrap_or(u32::MAX));
            if !op.ok || expect != Some(&op.counts) {
                failed += 1;
            }
            if on {
                traced.add(&op.counts);
            }
            if op.end_of_round || r.ops as usize > refs.len() {
                break;
            }
        }
        if r.ops as usize != refs.len() {
            failed += 1;
        }
        rounds.push(r);
        // A traced run ends after as many traced rounds as untraced ones.
        let done = start.elapsed().as_secs_f64() >= s.seconds
            && lat.len() >= MIN_OPS
            && (!s.trace || rounds.len().is_multiple_of(2));
        if done {
            break;
        }
    }
    tr.set_on(false);

    let mut metrics = Vec::new();
    let mut host_slowdown = 0.0;
    if s.trace {
        let per_op = |traced_rounds: bool| {
            let mut v: Vec<f64> = rounds
                .iter()
                .filter(|r| r.traced == traced_rounds)
                .map(|r| r.ns as f64 / r.ops as f64)
                .collect();
            median_f(&mut v)
        };
        let overhead = ratio(per_op(true), per_op(false)) - 1.0;
        let mut m = layer_metrics(&tr, &traced, &round, overhead);
        w.layer_metrics(&mut m);
        for &(name, unit) in PER_LAYER {
            let v = m.get(name).copied().unwrap_or(0.0);
            metrics.push((name, if v.is_finite() { v } else { 0.0 }, unit));
        }
    } else {
        // Read before the statistics allocate, so RSS is the workload's.
        let rss = peak_rss_mib();
        let e = end_to_end(&lat, &cal);
        metrics.push(("setup_s", median_f(&mut setup_s), "s"));
        metrics.push(("ops_per_s", e.ops_per_s, "1/s"));
        metrics.push(("op_p50_ms", e.p50_ms, "ms"));
        metrics.push(("op_p99_ms", e.p99_ms, "ms"));
        metrics.push(("peak_rss_mib", rss, "MiB"));
        host_slowdown = e.host_slowdown;
    }
    drop(w);
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        round,
        round_len: refs.len(),
        rounds: rounds.len() as u64,
        host_slowdown,
        tracer: tr,
    })
}

/// Host-time statistics of an untraced run.
#[derive(Debug)]
pub struct EndToEnd {
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Median calibration time over [`CAL_REF_NS`]: 1 on a quiet host,
    /// 1.5 on one 1.5x slower.
    pub host_slowdown: f64,
}

/// Fixed integer work that no code of the program runs: eight independent
/// multiply-rotate chains that keep the core's ALUs busy. The host's slow
/// phases most likely come from other tenants sharing the physical cores,
/// and this loop slows with them much as the simulators do; a program
/// change cannot alter it. Returns its host time in ns.
pub fn calibrate(state: &mut u64) -> u64 {
    let start = Instant::now();
    let mut s: [u64; 8] = std::array::from_fn(|i| *state ^ i as u64);
    for _ in 0..25_000 {
        for v in &mut s {
            *v = v.rotate_left(7).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (*v >> 3);
        }
    }
    *state = std::hint::black_box(s.iter().fold(0, |a, b| a ^ b));
    start.elapsed().as_nanos() as u64
}

/// `ops_per_s`, `op_p50_ms` and `op_p99_ms` from op times in run order
/// and the calibration times taken before every [`CAL_EVERY`]th op.
///
/// Each op's time is divided by its host-speed factor: the median of the
/// calibration times within [`CAL_REACH`] of its own, over [`CAL_REF_NS`].
/// The metrics are then the ops per second of op time and the p50 and
/// p99 over all ops of the run. The factor comes only from the
/// calibration loop, so a program slowdown, whether it covers the run or
/// builds up over it, shows in full.
pub fn end_to_end(lat: &[u32], cal: &[u32]) -> EndToEnd {
    let mut factors: Vec<f64> = (0..cal.len())
        .map(|j| {
            let mut near: Vec<f64> = cal
                [j.saturating_sub(CAL_REACH)..(j + CAL_REACH + 1).min(cal.len())]
                .iter()
                .map(|&ns| f64::from(ns))
                .collect();
            median_f(&mut near) / CAL_REF_NS
        })
        .collect();
    let mut op_ns: Vec<u64> = lat
        .iter()
        .enumerate()
        .map(|(i, &ns)| (f64::from(ns) / factors.get(i / CAL_EVERY).copied().unwrap_or(1.0)) as u64)
        .collect();
    op_ns.sort_unstable();
    let total_s = op_ns.iter().sum::<u64>() as f64 / 1e9;
    EndToEnd {
        ops_per_s: ratio(op_ns.len() as f64, total_s),
        p50_ms: quantile(&op_ns, 0.50) as f64 / 1e6,
        p99_ms: quantile(&op_ns, 0.99) as f64 / 1e6,
        host_slowdown: median_f(&mut factors),
    }
}

/// Run one verified round untimed and keep each op's counts as the
/// reference every later round must reproduce exactly.
fn warm_up(w: &mut dyn Workload, tr: &mut Tracer) -> (Vec<Counts>, u64) {
    let mut refs = Vec::new();
    let mut failed = 0;
    loop {
        let op = w.op(tr);
        failed += u64::from(!op.ok);
        refs.push(op.counts);
        if op.end_of_round {
            return (refs, failed);
        }
    }
}

/// Per-layer metrics from the traced rounds' spans and counts. Counts
/// named per round come from the warm-up and repeat exactly.
fn layer_metrics(tr: &Tracer, traced: &Counts, round: &Counts, overhead: f64) -> Metrics {
    let mut total: BTreeMap<&str, u64> = BTreeMap::new();
    let mut per_op: BTreeMap<(&str, u64), u64> = BTreeMap::new();
    let mut setup_total: BTreeMap<&str, u64> = BTreeMap::new();
    for sp in &tr.spans {
        if sp.op == SETUP {
            *setup_total.entry(sp.name).or_default() += sp.ns();
        } else {
            *total.entry(sp.name).or_default() += sp.ns();
            *per_op.entry((sp.name, sp.op)).or_default() += sp.ns();
        }
    }
    let t = |name: &str| total.get(name).copied().unwrap_or(0) as f64;
    let op_ns = t(OP);
    let share = |name: &str| ratio(t(name), op_ns);
    let p50_ms = |name: &str| {
        let mut v: Vec<u64> =
            per_op.iter().filter(|((n, _), _)| *n == name).map(|(_, &ns)| ns).collect();
        v.sort_unstable();
        quantile(&v, 0.5) as f64 / 1e6
    };
    let c = traced;
    let cyc = c.cycles as f64;
    let layers: u64 = total.iter().filter(|(n, _)| **n != OP).map(|(_, v)| v).sum();

    let mut m = Metrics::new();
    m.insert("core.cycle.ns_per_sim_cycle", ratio(t(trace::CYCLE_RUN), cyc));
    m.insert("core.cycle.ipc", ratio(c.instrs as f64, cyc));
    m.insert("core.cycle.sim_cycles", round.cycles as f64);
    m.insert("core.cycle.packets", round.packets as f64);
    m.insert("core.cycle.stall_share.data", ratio(c.data_stall as f64, cyc));
    m.insert("core.cycle.stall_share.mem", ratio(c.mem_stall as f64, cyc));
    m.insert("core.cycle.stall_share.front", ratio(c.front_stall as f64, cyc));
    m.insert("core.cycle.run_share", share(trace::CYCLE_RUN));
    m.insert("core.predictor.mispredicts", round.mispredicts as f64);
    m.insert(
        "core.predictor.mispredict_ratio",
        ratio(c.mispredicts as f64, c.branch_lookups as f64),
    );
    m.insert(
        "mem.icache.hit_ratio",
        ratio(c.icache_hits as f64, (c.icache_hits + c.icache_misses) as f64),
    );
    m.insert(
        "mem.dcache.hit_ratio",
        ratio(c.dcache_hits as f64, (c.dcache_hits + c.dcache_misses) as f64),
    );
    m.insert("mem.dcache.misses", round.dcache_misses as f64);
    m.insert("mem.dram.busy_share", ratio(c.dram_busy as f64, cyc));
    m.insert("core.lsu.mshr_high_water", c.mshr_high_water as f64);
    m.insert(
        "core.interp.ns_per_packet",
        ratio(
            setup_total.get(trace::INTERP_RUN).copied().unwrap_or(0) as f64,
            tr.interp_packets as f64,
        ),
    );
    m.insert("asm.assemble_ms", p50_ms(trace::ASSEMBLE));
    m.insert("asm.assemble_share", share(trace::ASSEMBLE));
    m.insert("lint.lint_ms", p50_ms(trace::LINT));
    m.insert("lint.lint_share", share(trace::LINT));
    m.insert("core.xlate.translate_ms", p50_ms(trace::TRANSLATE));
    m.insert("core.xlate.translate_share", share(trace::TRANSLATE));
    m.insert("core.xlate.specialized_ratio", ratio(c.specialized_uops as f64, c.uops as f64));
    m.insert("core.xlate.uops", round.uops as f64);
    m.insert("core.xlate.packets", round.xlate_packets as f64);
    m.insert("core.xlate.exec_ns_per_packet", ratio(t(trace::XLATE_EXEC), c.xlate_packets as f64));
    m.insert("core.xlate.exec_share", share(trace::XLATE_EXEC));
    m.insert("serve.rtt_ms.simulate", p50_ms(trace::SERVE_SIMULATE));
    m.insert("serve.rtt_ms.assemble", p50_ms(trace::SERVE_ASSEMBLE));
    m.insert("bench.self_share", ratio(op_ns - layers as f64, op_ns));
    m.insert("trace.overhead_share", overhead);
    m
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    /// 192 calibration intervals of ops of 1, 2 and 3 ms in turn, with op
    /// `i`'s time multiplied by `slow(i)`, and the calibrations taken on
    /// the same host.
    fn ops(slow: impl Fn(usize) -> f64) -> Vec<u32> {
        (0..192 * CAL_EVERY).map(|i| ((1 + i % 3) as f64 * 1e6 * slow(i)) as u32).collect()
    }

    fn cals(slow: impl Fn(usize) -> f64) -> Vec<u32> {
        (0..192).map(|j| (CAL_REF_NS * slow(j * CAL_EVERY)) as u32).collect()
    }

    fn raw(lat: &[u32]) -> (f64, f64, f64) {
        let mut v: Vec<u64> = lat.iter().map(|&ns| u64::from(ns)).collect();
        v.sort_unstable();
        let rate = v.len() as f64 * 1e9 / v.iter().sum::<u64>() as f64;
        (rate, quantile(&v, 0.5) as f64 / 1e6, quantile(&v, 0.99) as f64 / 1e6)
    }

    fn close(e: &EndToEnd, (ops_per_s, p50_ms, p99_ms): (f64, f64, f64)) {
        let ok = (e.ops_per_s - ops_per_s).abs() < 1e-6
            && (e.p50_ms - p50_ms).abs() < 1e-6
            && (e.p99_ms - p99_ms).abs() < 1e-6;
        assert!(ok, "{e:?} != {ops_per_s}/s, p50 {p50_ms}, p99 {p99_ms}");
    }

    #[test]
    fn a_slowdown_that_builds_up_over_the_run_shows_in_full() {
        // On a steady host the program slows from 1.0x to 2.0x over the
        // run: the metrics are the raw ones, 1.5x slower on average.
        let ramp = |i: usize| 1.0 + i as f64 / (192 * CAL_EVERY) as f64;
        let lat = ops(ramp);
        let e = end_to_end(&lat, &cals(|_| 1.0));
        close(&e, raw(&lat));
        assert!((raw(&ops(|_| 1.0)).0 / e.ops_per_s - 1.5).abs() < 0.01, "{e:?}");
    }

    #[test]
    fn a_host_slowdown_is_divided_out_by_the_calibration() {
        // The host runs 1.5x slower in the second half of the run; so do
        // the program and the calibration loop.
        let slow = |i: usize| if i < 96 * CAL_EVERY { 1.0 } else { 1.5 };
        let e = end_to_end(&ops(slow), &cals(slow));
        close(&e, raw(&ops(|_| 1.0)));
        assert!((e.host_slowdown - 1.25).abs() < 1e-6, "{e:?}");
    }

    #[test]
    fn counts_combine_high_water_by_max() {
        let a = Counts { cycles: 10, mshr_high_water: 3, ..Counts::default() };
        let b = Counts { cycles: 4, mshr_high_water: 5, ..Counts::default() };
        let mut s = a;
        s.add(&b);
        assert_eq!((s.cycles, s.mshr_high_water), (14, 5));
        let d = s.since(&a);
        assert_eq!((d.cycles, d.mshr_high_water), (4, 5));
    }
}
