//! Generic worklist dataflow engine over the packet CFG.
//!
//! Every analysis in this crate is an instance of the same fixpoint
//! computation: facts flow along CFG edges (forward or backward), merge at
//! join points through a lattice join, and are transformed by each packet's
//! transfer function until nothing changes. [`Dataflow`] captures exactly
//! that contract and [`solve`] runs it, so an analysis only supplies its
//! lattice — the traversal, seeding (entry packet, trap vectors, the
//! everything-is-an-entry degradation forced by indirect jumps) and
//! termination bookkeeping live here once.
//!
//! Conventions:
//!
//! * the solution holds, per packet, the fact at the packet's entry point
//!   *in the analysis direction*: the program point just before the packet
//!   for a forward analysis, just after it for a backward one;
//! * `None` means the solver never reached the packet — the implicit top
//!   element that is the identity of every join;
//! * [`Dataflow::edge`] can refine a fact crossing an edge (e.g. a branch
//!   condition constraining a register on the taken side) and can declare
//!   the edge infeasible by returning `false`;
//! * termination requires the usual lattice conditions: finite ascending
//!   chains and a monotone transfer. A defensive iteration backstop guards
//!   against bugs; if it ever trips, [`Solution::converged`] is false and
//!   callers must not emit must-facts from the partial result.

use majc_isa::Program;

use crate::cfg::{Cfg, Edge};

/// Which way facts flow.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    Forward,
    Backward,
}

/// One dataflow analysis: a lattice of facts plus the packet transfer.
pub trait Dataflow {
    type Fact: Clone;

    fn dir(&self) -> Dir;

    /// Fact at the real boundary: the entry packet for a forward analysis,
    /// every exit packet for a backward one.
    fn boundary(&self) -> Self::Fact;

    /// Fact seeded at synthesized entry points — trap vectors, and every
    /// packet when an indirect jump makes any packet a potential entry.
    /// Defaults to [`Dataflow::boundary`]; analyses whose boundary fact
    /// encodes entry-specific knowledge (e.g. symbolic entry register
    /// values) must override this with their top element.
    fn synthetic_boundary(&self) -> Self::Fact {
        self.boundary()
    }

    /// Join `other` into `into`; return true iff `into` changed.
    fn join(&self, into: &mut Self::Fact, other: &Self::Fact) -> bool;

    /// Apply packet `node`'s effect to a fact, in the analysis direction.
    fn transfer(&self, node: usize, fact: &mut Self::Fact);

    /// Refine a fact crossing `edge` from `from` to `to` (both in the
    /// analysis direction). Returning `false` marks the edge infeasible
    /// and stops propagation across it.
    fn edge(&self, _from: usize, _to: usize, _edge: Edge, _fact: &mut Self::Fact) -> bool {
        true
    }
}

/// The fixpoint: per-packet facts plus a convergence flag.
pub struct Solution<F> {
    /// Fact at each packet's analysis-entry point; `None` = unreached.
    pub facts: Vec<Option<F>>,
    /// False only if the defensive iteration backstop tripped; partial
    /// facts are then still sound *upper* approximations of reachability
    /// but must not back any must-claim.
    pub converged: bool,
}

impl<F: Clone> Solution<F> {
    /// The fact after also applying `node`'s own transfer — the packet's
    /// analysis-exit point.
    pub fn after<A: Dataflow<Fact = F>>(&self, a: &A, node: usize) -> Option<F> {
        self.facts[node].clone().map(|mut f| {
            a.transfer(node, &mut f);
            f
        })
    }
}

/// Run `a` to fixpoint over the packet CFG. `entries` are the extra
/// entry-point byte addresses (trap vectors) from the lint options.
pub fn solve<A: Dataflow>(prog: &Program, cfg: &Cfg, entries: &[u32], a: &A) -> Solution<A::Fact> {
    let n = prog.len();
    let mut facts: Vec<Option<A::Fact>> = Vec::new();
    facts.resize_with(n, || None);
    if n == 0 {
        return Solution { facts, converged: true };
    }

    // Successor lists in the analysis direction.
    let mut preds: Vec<Vec<(usize, Edge)>> = Vec::new();
    if a.dir() == Dir::Backward {
        preds.resize_with(n, Vec::new);
        for (i, es) in cfg.succs.iter().enumerate() {
            for &(s, e) in es {
                preds[s].push((i, e));
            }
        }
    }
    let succs = if a.dir() == Dir::Forward { &cfg.succs } else { &preds };

    let mut work = Worklist { stack: Vec::new(), queued: vec![false; n] };
    let absorb = |i: usize, f: &A::Fact, facts: &mut Vec<Option<A::Fact>>, work: &mut Worklist| {
        let grew = match &mut facts[i] {
            Some(e) => a.join(e, f),
            e @ None => {
                *e = Some(f.clone());
                true
            }
        };
        if grew {
            work.push(i);
        }
    };

    // Seed the boundary.
    match a.dir() {
        Dir::Forward => {
            absorb(0, &a.boundary(), &mut facts, &mut work);
            let synth = a.synthetic_boundary();
            for &addr in entries {
                if let Some(t) = prog.index_of(addr) {
                    absorb(t, &synth, &mut facts, &mut work);
                }
            }
            if cfg.has_indirect {
                for i in 0..n {
                    absorb(i, &synth, &mut facts, &mut work);
                }
            }
        }
        Dir::Backward => {
            // Exits are the packets with no static successors (halt, rte,
            // indirect jumps, malformed control).
            let b = a.boundary();
            for i in 0..n {
                if cfg.succs[i].is_empty() {
                    absorb(i, &b, &mut facts, &mut work);
                }
            }
        }
    }

    // Chaotic iteration. The backstop is defensive: a well-formed lattice
    // converges long before it (see the module docs). `cur` and `out` are
    // scratch facts reused across pops, so the loop copies facts without
    // allocating once their buffers have grown.
    let mut iterations = 0usize;
    let mut converged = true;
    let mut cur: Option<A::Fact> = None;
    let mut out: Option<A::Fact> = None;
    while let Some(i) = work.pop() {
        iterations += 1;
        if iterations > n.saturating_mul(4096) {
            converged = false;
            break;
        }
        let Some(fi) = &facts[i] else { continue };
        let f = copy_into(&mut cur, fi);
        a.transfer(i, f);
        for &(s, e) in &succs[i] {
            let g = copy_into(&mut out, f);
            if a.edge(i, s, e, g) {
                absorb(s, g, &mut facts, &mut work);
            }
        }
    }

    Solution { facts, converged }
}

/// The LIFO worklist, with a flag per packet saying whether it is on the
/// stack: a packet whose fact grows again while it waits is not pushed
/// twice, and the test is O(1). The visit order is part of the result:
/// widening joins (value ranges) can settle on a different fixpoint
/// under a different order.
struct Worklist {
    stack: Vec<usize>,
    queued: Vec<bool>,
}

impl Worklist {
    fn push(&mut self, i: usize) {
        if !self.queued[i] {
            self.queued[i] = true;
            self.stack.push(i);
        }
    }

    fn pop(&mut self) -> Option<usize> {
        let i = self.stack.pop()?;
        self.queued[i] = false;
        Some(i)
    }
}

/// `src` copied into the scratch slot, reusing its buffers when it holds
/// a fact already.
fn copy_into<'s, F: Clone>(slot: &'s mut Option<F>, src: &F) -> &'s mut F {
    match slot {
        Some(x) => {
            x.clone_from(src);
            x
        }
        None => slot.insert(src.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use majc_isa::{AluOp, Cond, Instr, Packet, Reg, Src};

    /// Forward reaching-count analysis: how many packets at most precede
    /// each packet along any path, saturated at a cap (finite lattice).
    struct Depth;
    impl Dataflow for Depth {
        type Fact = usize;
        fn dir(&self) -> Dir {
            Dir::Forward
        }
        fn boundary(&self) -> usize {
            0
        }
        fn join(&self, into: &mut usize, other: &usize) -> bool {
            let next = (*into).max(*other);
            let changed = next != *into;
            *into = next;
            changed
        }
        fn transfer(&self, _i: usize, f: &mut usize) {
            *f = (*f + 1).min(64);
        }
    }

    #[test]
    fn forward_reaches_fixpoint_through_a_loop() {
        let p = Program::new(
            0,
            vec![
                Packet::solo(Instr::Alu {
                    op: AluOp::Add,
                    rd: Reg::g(0),
                    rs1: Reg::g(0),
                    src2: Src::Imm(1),
                })
                .unwrap(),
                Packet::solo(Instr::Br { cond: Cond::Gt, rs: Reg::g(0), off: -4, hint: true })
                    .unwrap(),
                Packet::solo(Instr::Halt).unwrap(),
            ],
        );
        let cfg = Cfg::build(&p);
        let sol = solve(&p, &cfg, &[], &Depth);
        assert!(sol.converged);
        // The loop saturates every packet at the cap.
        assert_eq!(sol.facts[0], Some(64));
        assert_eq!(sol.facts[2], Some(64));
        assert_eq!(sol.after(&Depth, 2), Some(64));
    }

    #[test]
    fn backward_seeds_exits() {
        let p = Program::new(
            0,
            vec![
                Packet::solo(Instr::Alu {
                    op: AluOp::Add,
                    rd: Reg::g(0),
                    rs1: Reg::g(0),
                    src2: Src::Imm(1),
                })
                .unwrap(),
                Packet::solo(Instr::Halt).unwrap(),
            ],
        );
        struct Hops;
        impl Dataflow for Hops {
            type Fact = usize;
            fn dir(&self) -> Dir {
                Dir::Backward
            }
            fn boundary(&self) -> usize {
                0
            }
            fn join(&self, into: &mut usize, other: &usize) -> bool {
                let next = (*into).max(*other);
                let changed = next != *into;
                *into = next;
                changed
            }
            fn transfer(&self, _i: usize, f: &mut usize) {
                *f += 1;
            }
        }
        let cfg = Cfg::build(&p);
        let sol = solve(&p, &cfg, &[], &Hops);
        assert_eq!(sol.facts[1], Some(0), "exit packet holds the boundary fact");
        assert_eq!(sol.facts[0], Some(1), "one transfer away from the exit");
    }
}
