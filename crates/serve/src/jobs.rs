//! Job execution: every request kind, mapped onto the toolchain crates.
//!
//! Execution is pure with respect to the daemon: a job takes a spec and
//! produces a [`Status`], never touching connection or queue state, so
//! the worker can wrap the whole thing in `catch_unwind` and a crashing
//! job (or a chaos-injected worker kill) still yields exactly one
//! response. Deadlines are deterministic *simulated-work* budgets —
//! packets on the functional engine, cycles on the cycle engine via the
//! PR 2 watchdog — never wall clock, so a given job fails or succeeds
//! identically on any host.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use majc_core::diff::diff_run;
use majc_core::{
    global_xlate_cache, CycleSim, LocalMemSys, SimError, TimingConfig, Translation, XlateCache,
    XlateSim,
};
use majc_isa::{gen, Program, SplitMix64};
use majc_mem::{fnv1a, fnv1a_extend, FaultPlan, FlatMem};

use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::proto::{Engine, JobSpec, SimSpec, Status, Val};

/// Shared read-mostly execution context: the kernel table, the
/// digest-keyed program cache, and the checkpoint store.
pub struct ExecCtx {
    kernels: HashMap<String, (Arc<Program>, FlatMem)>,
    prog_cache: Mutex<HashMap<u64, Arc<Program>>>,
    pub checkpoints: CheckpointStore,
    /// Assemble requests served from the program cache.
    pub cache_hits: AtomicU64,
    /// Translation cache for func-engine jobs: `None` uses the
    /// process-wide cache (daemon default); a private cache isolates
    /// counters from process history, which is what makes the E15
    /// deterministic metrics report possible.
    xlate: Option<Arc<XlateCache>>,
}

impl Default for ExecCtx {
    fn default() -> ExecCtx {
        ExecCtx::new()
    }
}

impl ExecCtx {
    /// Load the canonical kernel suite — plus one generated corpus
    /// program per family, so `simulate` jobs can name irregular
    /// workloads the same way they name DSP kernels — and empty caches.
    pub fn new() -> ExecCtx {
        let kernels = majc_kernels::suite::cases()
            .into_iter()
            .chain(majc_kernels::suite::corpus_cases(1))
            .map(|c| (c.name, (c.prog, c.mem)))
            .collect();
        ExecCtx {
            kernels,
            prog_cache: Mutex::new(HashMap::new()),
            checkpoints: CheckpointStore::new(),
            cache_hits: AtomicU64::new(0),
            xlate: None,
        }
    }

    /// An [`ExecCtx`] whose func-engine jobs translate through `cache`
    /// instead of the process-wide one.
    pub fn with_xlate_cache(cache: Arc<XlateCache>) -> ExecCtx {
        ExecCtx { xlate: Some(cache), ..ExecCtx::new() }
    }

    /// Translate through the private cache when configured, else the
    /// process-wide one; the bool is this request's hit/miss.
    fn translate(&self, prog: &Arc<Program>) -> (Arc<Translation>, bool) {
        match &self.xlate {
            Some(cache) => cache.translate_counted(prog),
            None => global_xlate_cache().translate_counted(prog),
        }
    }

    /// Kernel names the `simulate` job accepts, sorted.
    pub fn kernel_names(&self) -> Vec<String> {
        let mut names: Vec<_> = self.kernels.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Assemble source, memoized on `key`, the source's FNV-1a digest.
    /// The bool reports a cache hit.
    fn assemble_cached(&self, source: &str, key: u64) -> Result<(Arc<Program>, bool), String> {
        {
            let cache = self.prog_cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(prog) = cache.get(&key) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(prog), true));
            }
        }
        let prog = Arc::new(majc_asm::assemble(source).map_err(|e| e.to_string())?);
        self.prog_cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, Arc::clone(&prog));
        Ok((prog, false))
    }

    /// Run one job to a terminal status. `fault_seed` arms the chaos
    /// fault plan on cycle-engine memory systems.
    pub fn execute(&self, spec: &JobSpec, fault_seed: Option<u64>) -> Status {
        match spec {
            JobSpec::Assemble { source } => self.run_assemble(source),
            JobSpec::Lint { source, strict } => self.run_lint(source, *strict),
            JobSpec::Simulate(sim) => self.run_simulate(sim, fault_seed),
            JobSpec::Fuzz { seed, budget } => run_fuzz(*seed, *budget),
        }
    }

    /// The response `digest` is the program cache's key, hashed once.
    fn run_assemble(&self, source: &str) -> Status {
        let digest = fnv1a(source.as_bytes());
        match self.assemble_cached(source, digest) {
            Err(e) => Status::Failed { kind: "asm".into(), detail: e },
            Ok((prog, cached)) => Status::Ok(vec![
                ("packets".into(), Val::U64(prog.len() as u64)),
                ("digest".into(), Val::Str(format!("{digest:016x}"))),
                ("cached".into(), Val::Bool(cached)),
            ]),
        }
    }

    fn run_lint(&self, source: &str, strict: bool) -> Status {
        let prog = match self.assemble_cached(source, fnv1a(source.as_bytes())) {
            Err(e) => return Status::Failed { kind: "asm".into(), detail: e },
            Ok((prog, _)) => prog,
        };
        let opts = if strict {
            majc_lint::LintOptions::strict()
        } else {
            majc_lint::LintOptions::default()
        };
        let report = majc_lint::lint(&prog, &opts);
        Status::Ok(vec![
            ("errors".into(), Val::U64(report.count(majc_lint::Severity::Error) as u64)),
            ("warnings".into(), Val::U64(report.count(majc_lint::Severity::Warning) as u64)),
            ("notes".into(), Val::U64(report.count(majc_lint::Severity::Info) as u64)),
            ("clean".into(), Val::Bool(report.is_clean())),
        ])
    }

    /// Resolve the program image and initial memory for a simulate job.
    fn resolve(&self, sim: &SimSpec) -> Result<(Arc<Program>, FlatMem), Status> {
        if let Some(name) = &sim.kernel {
            match self.kernels.get(name.as_str()) {
                Some((prog, mem)) => Ok((Arc::clone(prog), mem.clone())),
                None => Err(Status::Rejected { reason: format!("unknown kernel `{name}`") }),
            }
        } else if let Some(src) = &sim.source {
            match self.assemble_cached(src, fnv1a(src.as_bytes())) {
                Ok((prog, _)) => Ok((prog, FlatMem::new())),
                Err(e) => Err(Status::Failed { kind: "asm".into(), detail: e }),
            }
        } else {
            Err(Status::Failed {
                kind: "bad_request".into(),
                detail: "simulate needs `kernel` or `source`".into(),
            })
        }
    }

    fn run_simulate(&self, sim: &SimSpec, fault_seed: Option<u64>) -> Status {
        let (prog, mut mem) = match self.resolve(sim) {
            Ok(pm) => pm,
            Err(status) => return status,
        };
        // A resume swaps in the checkpointed memory image and CPU context;
        // the program image still comes from the spec.
        let snap = match &sim.resume {
            None => None,
            Some(id) => match self.checkpoints.get(id) {
                None => {
                    return Status::Failed {
                        kind: "bad_request".into(),
                        detail: format!("unknown checkpoint `{id}`"),
                    }
                }
                Some(ckpt) => {
                    mem = ckpt.mem.clone();
                    Some(ckpt.cpus[0].clone())
                }
            },
        };
        match sim.engine {
            Engine::Func => self.run_func(prog, mem, snap.as_ref(), sim),
            Engine::Cycle => {
                if sim.checkpoint {
                    return Status::Failed {
                        kind: "bad_request".into(),
                        detail: "checkpoint requires the func engine (packet-boundary quiesce)"
                            .into(),
                    };
                }
                run_cycle(prog, mem, snap.as_ref(), sim, fault_seed)
            }
        }
    }

    /// Func-engine jobs run on the translated engine: bit-identical to
    /// the interpreter (clients see the same packets, digests, and trap
    /// reports) and every resident worker shares the process-wide
    /// translation cache, so a hot kernel is lowered once per daemon, not
    /// once per request.
    fn run_func(
        &self,
        prog: Arc<Program>,
        mem: FlatMem,
        snap: Option<&majc_core::CpuSnap>,
        sim: &SimSpec,
    ) -> Status {
        let (xl, xlate_hit) = self.translate(&prog);
        let mut fs = match snap {
            Some(s) => XlateSim::resume_translated(xl, mem, s),
            None => XlateSim::from_translation(xl, mem),
        };
        if sim.checkpoint {
            // Budget-capped by design: stop at the boundary and snapshot.
            let packets = match fs.run(sim.budget) {
                Ok(n) => n,
                Err(t) => return Status::Failed { kind: "trap".into(), detail: t.to_string() },
            };
            let halted = fs.halted();
            let ckpt = Checkpoint { cpus: vec![fs.capture()], mem: fs.mem.clone() };
            let digest = arch_digest(&fs.capture(), &fs.mem);
            let id = self.checkpoints.insert(ckpt);
            Status::Ok(vec![
                ("packets".into(), Val::U64(packets)),
                ("halted".into(), Val::Bool(halted)),
                ("checkpoint".into(), Val::Str(id)),
                ("digest".into(), Val::Str(digest)),
                ("xlate_hit".into(), Val::Bool(xlate_hit)),
            ])
        } else {
            match fs.run_to_halt(sim.budget) {
                Ok(packets) => Status::Ok(vec![
                    ("packets".into(), Val::U64(packets)),
                    ("halted".into(), Val::Bool(true)),
                    ("digest".into(), Val::Str(arch_digest(&fs.capture(), &fs.mem))),
                    ("xlate_hit".into(), Val::Bool(xlate_hit)),
                ]),
                Err(e) => sim_error(e),
            }
        }
    }
}

fn run_cycle(
    prog: Arc<Program>,
    mem: FlatMem,
    snap: Option<&majc_core::CpuSnap>,
    sim: &SimSpec,
    fault_seed: Option<u64>,
) -> Status {
    let cfg = TimingConfig { max_cycles: sim.budget, ..TimingConfig::default() };
    let mut port = LocalMemSys::majc5200().with_mem(mem);
    if let Some(seed) = fault_seed {
        port.apply_fault_plan(&FaultPlan::soak(seed));
    }
    let mut cs = CycleSim::new(prog, port, cfg);
    if let Some(s) = snap {
        cs.restore_context(0, s);
    }
    match cs.run(u64::MAX) {
        Ok(cycles) => {
            let digest = arch_digest(&cs.capture(0), &cs.port.mem);
            let faults = cs.port.fault_events_iter().count() as u64;
            Status::Ok(vec![
                ("cycles".into(), Val::U64(cycles)),
                ("packets".into(), Val::U64(cs.stats.packets)),
                ("halted".into(), Val::Bool(true)),
                ("faults".into(), Val::U64(faults)),
                ("digest".into(), Val::Str(digest)),
            ])
        }
        Err(e) => sim_error(e),
    }
}

fn sim_error(e: SimError) -> Status {
    let kind = match &e {
        SimError::Hang { .. } => "hang",
        _ => "trap",
    };
    Status::Failed { kind: kind.into(), detail: e.to_string() }
}

/// FNV-1a over the full architectural state: one CPU context plus the
/// canonical memory image. Equal digests mean equal machine states.
///
/// The value is `fnv1a(cpu ‖ mem.to_snapshot())`, computed in one pass
/// without building the snapshot: each payload byte feeds both the outer
/// digest and the snapshot's own trailing digest, which the outer one
/// absorbs last.
pub fn arch_digest(cpu: &majc_core::CpuSnap, mem: &FlatMem) -> String {
    let mut outer = fnv1a(&cpu.to_bytes());
    let mut inner = fnv1a(&[]);
    mem.visit_snapshot_payload(|piece| {
        for byte in piece.chunks(1) {
            outer = fnv1a_extend(outer, byte);
            inner = fnv1a_extend(inner, byte);
        }
    });
    format!("{:016x}", fnv1a_extend(outer, &inner.to_le_bytes()))
}

/// Serve's fuzz stream: [`gen::fuzz_program`] of at most 40 packets,
/// salted apart from the bench fuzzer's stream.
pub fn fuzz_program(seed: u64) -> Program {
    gen::fuzz_program(&mut SplitMix64::new(seed ^ 0xA076_1D64_78BD_642F), 40)
}

/// One differential fuzz case: run the seeded program through the
/// three-way oracle (interpreter, translated engine, cycle model on ideal
/// memory, so timing cannot mask architectural bugs) and report the first
/// divergence. A divergence is a *finding*, not a job failure.
///
/// Every fourth seed draws from the generated irregular-program corpus
/// instead of the random packet stream: pointer chases, VM dispatch, and
/// data-dependent branching reach predictor and memory paths legal random
/// packets never produce, and the corpus adds an oracle the stream lacks
/// — each program's architectural self-check digest.
fn run_fuzz(seed: u64, budget: u64) -> Status {
    let mut fields = Vec::new();
    let (out, check_ok) = if seed % 4 == 3 {
        let families = majc_gen::Family::ALL;
        let family = families[((seed >> 2) % families.len() as u64) as usize];
        let p = majc_gen::generate(family, seed);
        let c = majc_kernels::suite::gen_case(&p);
        let (out, mut interp) = diff_run(c.prog, &c.mem, budget);
        let check_ok = interp.halted()
            && majc_kernels::suite::result_digest(&mut interp.mem, p.check) == p.check.expect;
        fields.push(("family".into(), Val::Str(family.name().into())));
        (out, Some(check_ok))
    } else {
        (diff_run(fuzz_program(seed), &FlatMem::new(), budget).0, None)
    };
    fields.push(("packets".into(), Val::U64(out.packets)));
    fields.push(("cycles".into(), Val::U64(out.cycles)));
    if let Some(ok) = check_ok {
        fields.push(("check_ok".into(), Val::Bool(ok)));
    }
    fields.push(("diverged".into(), Val::Bool(out.divergence.is_some())));
    fields.push(("divergence".into(), Val::Str(out.divergence.unwrap_or_default())));
    Status::Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Status;

    fn ctx() -> ExecCtx {
        ExecCtx::new()
    }

    #[test]
    fn assemble_job_caches_on_source_digest() {
        let c = ctx();
        let src = "setlo g1, 5\nhalt\n";
        let first = c.execute(&JobSpec::Assemble { source: src.into() }, None);
        let again = c.execute(&JobSpec::Assemble { source: src.into() }, None);
        assert_eq!(first.field("cached").and_then(Val::as_bool), Some(false), "{first:?}");
        assert_eq!(again.field("cached").and_then(Val::as_bool), Some(true), "{again:?}");
        assert_eq!(c.cache_hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn bad_source_is_a_structured_failure() {
        let c = ctx();
        let status = c.execute(&JobSpec::Assemble { source: "not an instruction".into() }, None);
        assert!(matches!(status, Status::Failed { ref kind, .. } if kind == "asm"), "{status:?}");
    }

    #[test]
    fn unknown_kernel_is_rejected() {
        let c = ctx();
        let spec = JobSpec::Simulate(SimSpec {
            kernel: Some("warp-core".into()),
            source: None,
            engine: Engine::Func,
            budget: 1000,
            checkpoint: false,
            resume: None,
        });
        assert!(matches!(c.execute(&spec, None), Status::Rejected { .. }));
    }

    #[test]
    fn private_xlate_cache_attributes_hits_per_request() {
        let cache = Arc::new(XlateCache::new(8));
        let c = ExecCtx::with_xlate_cache(Arc::clone(&cache));
        let spec = JobSpec::Simulate(SimSpec {
            kernel: Some("fir".into()),
            source: None,
            engine: Engine::Func,
            budget: 10_000_000,
            checkpoint: false,
            resume: None,
        });
        let hit_of = |status: Status| status.field("xlate_hit").and_then(Val::as_bool);
        assert_eq!(hit_of(c.execute(&spec, None)), Some(false), "cold cache misses");
        assert_eq!(hit_of(c.execute(&spec, None)), Some(true), "second request hits");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "private cache counts only this ctx");
    }

    #[test]
    fn fuzz_cases_execute_and_agree() {
        for seed in 0..8 {
            let status = run_fuzz(seed, 20_000);
            let diverged = status.field("diverged").and_then(Val::as_bool);
            assert_eq!(diverged, Some(false), "fuzz {seed}: {status:?}");
        }
    }

    #[test]
    fn corpus_fuzz_cases_agree_and_self_check() {
        // seed % 4 == 3 routes through the generated corpus; each case
        // must agree across engines AND reproduce its self-check digest.
        for seed in [3u64, 7, 11, 19] {
            let status = run_fuzz(seed, 4_000_000);
            assert!(status.field("family").and_then(Val::as_str).is_some(), "{seed}: {status:?}");
            let get = |k: &str| status.field(k).and_then(Val::as_bool);
            assert_eq!(get("diverged"), Some(false), "seed {seed} diverged");
            assert_eq!(get("check_ok"), Some(true), "seed {seed} failed its self-check");
        }
    }

    #[test]
    fn kernel_table_includes_corpus_programs() {
        let names = ctx().kernel_names();
        assert!(names.iter().any(|n| n == "fir"));
        assert!(
            names.iter().any(|n| n.starts_with("list-")),
            "corpus programs should be addressable by name: {names:?}"
        );
    }
}
