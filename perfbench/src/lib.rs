//! A steady end-to-end and per-layer benchmark of the MAJC-5200
//! reproduction. Four workloads drive the repository's crates through
//! their public functions; every op is checked against a reference
//! computed in setup. See `perfbench/README.md` for the op definitions,
//! the work per op and which metric each layer should move.

mod corpus;
mod cycle;
pub mod harness;
mod serve;
pub mod trace;

use std::sync::Arc;

use majc_core::FuncSim;
use majc_gen::SelfCheck;
use majc_isa::Program;
use majc_mem::FlatMem;
use majc_serve::arch_digest;

use harness::Workload;
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["cycle_suite", "cycle_stream", "corpus_verify", "serve_rtt"];

/// Packet budget of every run to halt; far above the longest program, so
/// reaching it means a hang.
pub(crate) const BUDGET: u64 = 200_000_000;

/// Build workload `name`'s inputs and references from `seed`.
pub fn setup(name: &str, seed: u64, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    match name {
        "cycle_suite" => cycle::cycle_suite(seed, tr),
        "cycle_stream" => cycle::cycle_stream(tr),
        "corpus_verify" => Ok(corpus::corpus_verify(seed)),
        "serve_rtt" => serve::serve_rtt(seed, tr),
        _ => Err(format!("unknown workload `{name}`; expected one of {WORKLOADS:?}")),
    }
}

/// The interpreter's reference run: final architectural digest and
/// packets committed. Generated programs must also meet their
/// self-check here, or the reference itself is wrong.
pub(crate) fn interp_reference(
    name: &str,
    prog: &Arc<Program>,
    mem: &FlatMem,
    check: Option<SelfCheck>,
    tr: &mut Tracer,
) -> Result<(String, u64), String> {
    let mut fs = FuncSim::new(Arc::clone(prog), mem.clone());
    let packets = tr
        .span(trace::INTERP_RUN, || fs.run_to_halt(BUDGET))
        .map_err(|e| format!("{name}: interpreter reference failed: {e}"))?;
    if tr.is_on() {
        tr.interp_packets += packets;
    }
    if let Some(k) = check {
        if majc_kernels::suite::result_digest(&mut fs.mem, k) != k.expect {
            return Err(format!("{name}: interpreter run misses its self-check"));
        }
    }
    Ok((arch_digest(&fs.capture(), &fs.mem), packets))
}
