//! Cycle-model workloads on the MAJC-5200 memory system with cold caches:
//! whole programs whose data fits the caches (`cycle_suite`) and slices
//! of the two streaming image kernels, which live in the miss path
//! (`cycle_stream`).

use std::sync::Arc;

use majc_core::{CycleSim, LocalMemSys, TimingConfig};
use majc_gen::SelfCheck;
use majc_isa::Program;
use majc_kernels::suite::{self, SuiteCase};
use majc_mem::FlatMem;
use majc_serve::arch_digest;

use crate::harness::{Counts, Op, Workload};
use crate::trace::{Tracer, CYCLE_RUN};
use crate::{interp_reference, BUDGET};

/// Generated programs per family in `cycle_suite`'s seeded slice: enough
/// that the slice's total work varies little from seed to seed.
pub const SUITE_CORPUS_PER_FAMILY: usize = 62;

/// Packets one `cycle_stream` op advances.
pub const STREAM_SLICE: u64 = 10_000;

/// A program with its input image and the interpreter's final digest
/// and packet count.
struct Case {
    prog: Arc<Program>,
    mem: FlatMem,
    check: Option<SelfCheck>,
    digest: String,
    packets: u64,
}

fn referenced(cases: Vec<SuiteCase>, tr: &mut Tracer) -> Result<Vec<Case>, String> {
    cases
        .into_iter()
        .map(|c| {
            let (digest, packets) = interp_reference(&c.name, &c.prog, &c.mem, c.check, tr)?;
            Ok(Case { prog: c.prog, mem: c.mem, check: c.check, digest, packets })
        })
        .collect()
}

type Sim = CycleSim<LocalMemSys>;

fn new_sim(prog: &Arc<Program>, mem: FlatMem) -> Sim {
    CycleSim::new(Arc::clone(prog), LocalMemSys::majc5200().with_mem(mem), TimingConfig::default())
}

/// The halted machine's state equals the interpreter's, and a generated
/// program also meets its self-check.
fn matches(c: &Case, sim: &mut Sim) -> bool {
    sim.halted()
        && arch_digest(&sim.capture(0), &sim.port.mem) == c.digest
        && c.check.is_none_or(|k| suite::result_digest(&mut sim.port.mem, k) == k.expect)
}

/// One op runs one program from reset to halt.
pub struct CycleSuite {
    cases: Vec<Case>,
    next: usize,
}

/// The 16 fast DSP kernels (fixed suite seeds) plus a corpus slice drawn
/// from `seed`.
pub fn cycle_suite(seed: u64, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    let mut cases = suite::fast_cases();
    cases.extend(majc_gen::corpus(SUITE_CORPUS_PER_FAMILY, seed).iter().map(suite::gen_case));
    Ok(Box::new(CycleSuite { cases: referenced(cases, tr)?, next: 0 }))
}

impl Workload for CycleSuite {
    fn op(&mut self, tr: &mut Tracer) -> Op {
        let c = &self.cases[self.next];
        self.next = (self.next + 1) % self.cases.len();
        let mem = c.mem.clone();
        let (ns, (mut sim, res)) = tr.op(|tr| {
            let mut sim = new_sim(&c.prog, mem);
            let res = tr.span(CYCLE_RUN, || sim.run(BUDGET));
            (sim, res)
        });
        let ok = res.is_ok() && matches(c, &mut sim);
        Op { ns, ok, counts: Counts::from_cycle(&sim.stats), end_of_round: self.next == 0 }
    }
}

/// One op advances the current image kernel by [`STREAM_SLICE`] packets;
/// a halted kernel is checked and the other one restarts from reset. A
/// kernel still running after the interpreter's packet count has hung:
/// its op fails and the other kernel restarts as well.
pub struct CycleStream {
    cases: Vec<Case>,
    cur: usize,
    sim: Sim,
}

/// `convolve` and `colorconv` with their fixed suite inputs; no seed.
pub fn cycle_stream(tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    let mut cases = suite::cases();
    cases.retain(|c| c.heavy);
    let cases = referenced(cases, tr)?;
    let sim = new_sim(&cases[0].prog, cases[0].mem.clone());
    Ok(Box::new(CycleStream { cases, cur: 0, sim }))
}

impl Workload for CycleStream {
    fn op(&mut self, tr: &mut Tracer) -> Op {
        let before = Counts::from_cycle(&self.sim.stats);
        let sim = &mut self.sim;
        let (ns, res) = tr.op(|tr| tr.span(CYCLE_RUN, || sim.run(STREAM_SLICE)));
        let counts = Counts::from_cycle(&self.sim.stats).since(&before);
        let hung = self.sim.stats.packets >= self.cases[self.cur].packets && !self.sim.halted();
        let mut ok = res.is_ok() && !hung;
        let mut end_of_round = false;
        if !ok || self.sim.halted() {
            ok = ok && matches(&self.cases[self.cur], &mut self.sim);
            self.cur = (self.cur + 1) % self.cases.len();
            end_of_round = self.cur == 0;
            let next = &self.cases[self.cur];
            self.sim = new_sim(&next.prog, next.mem.clone());
        }
        Op { ns, ok, counts, end_of_round }
    }
}
