//! The toolchain chain on generated programs no cache has seen:
//! assemble, lint, translate on a cold private cache, execute, self-check.

use std::sync::Arc;

use majc_core::{XlateCache, XlateSim};
use majc_gen::SelfCheck;
use majc_kernels::suite::result_digest;
use majc_lint::{LintOptions, Severity};
use majc_mem::FlatMem;

use crate::harness::{Counts, Op, Workload};
use crate::trace::{Tracer, ASSEMBLE, LINT, TRANSLATE, XLATE_EXEC};
use crate::BUDGET;

/// Generated programs per family in the pool: 7 × 62 = 434 per round,
/// enough that the slowest 1% of ops spans several programs and the p99
/// varies little from seed to seed.
pub const POOL_PER_FAMILY: usize = 62;

struct Source {
    asm: String,
    mem: FlatMem,
    check: SelfCheck,
}

/// One op takes the next pool program through the whole chain.
pub struct CorpusVerify {
    pool: Vec<Source>,
    next: usize,
}

/// The pool is generated from `seed`; each program's reference is the
/// generator's own self-check.
pub fn corpus_verify(seed: u64) -> Box<dyn Workload> {
    let pool = majc_gen::corpus(POOL_PER_FAMILY, seed)
        .into_iter()
        .map(|p| {
            let mut mem = FlatMem::new();
            for (base, bytes) in &p.sections {
                mem.write(*base, bytes);
            }
            Source { asm: p.asm, mem, check: p.check }
        })
        .collect();
    Box::new(CorpusVerify { pool, next: 0 })
}

impl Workload for CorpusVerify {
    fn op(&mut self, tr: &mut Tracer) -> Op {
        let src = &self.pool[self.next];
        self.next = (self.next + 1) % self.pool.len();
        let end_of_round = self.next == 0;
        let mem = src.mem.clone();
        let (ns, out) = tr.op(|tr| {
            let prog = Arc::new(tr.span(ASSEMBLE, || majc_asm::assemble(&src.asm)).ok()?);
            let report = tr.span(LINT, || majc_lint::lint(&prog, &LintOptions::default()));
            let cache = XlateCache::new(1);
            let xl = tr.span(TRANSLATE, || cache.translate(&prog));
            let mut sim = XlateSim::from_translation(Arc::clone(&xl), mem);
            let res = tr.span(XLATE_EXEC, || sim.run_to_halt(BUDGET));
            Some((report, xl, sim, res))
        });
        let Some((report, xl, mut sim, res)) = out else {
            return Op { ns, ok: false, counts: Counts::default(), end_of_round };
        };
        let ok = report.count(Severity::Error) == 0
            && res.is_ok()
            && result_digest(&mut sim.mem, src.check) == src.check.expect;
        let counts = Counts {
            xlate_packets: res.unwrap_or(0),
            uops: xl.uop_count() as u64,
            specialized_uops: xl.specialized_uops() as u64,
            ..Counts::default()
        };
        Op { ns, ok, counts, end_of_round }
    }
}
