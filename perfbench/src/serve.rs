//! The serve round trip: an in-process `majc-serve` with one worker,
//! driven over one loopback connection in a closed loop with one request
//! in flight. Three func-engine `simulate` jobs ride with every
//! `assemble` job of disassembled source.

use std::collections::HashMap;

use majc_kernels::suite;
use majc_serve::{
    start, Client, CounterSnapshot, Engine, JobSpec, Request, Response, ServeConfig, ServerHandle,
    SimSpec, Status, Val,
};

use crate::harness::{quantile, ratio, Counts, Metrics, Op, Workload};
use crate::trace::{Tracer, SERVE_ASSEMBLE, SERVE_SIMULATE};
use crate::{interp_reference, BUDGET};

/// `simulate` requests per program per round; each program also gets one
/// `assemble` request.
const SIMULATES_PER_PROGRAM: usize = 3;

/// One request of the round with the response fields it must return.
struct Slot {
    spec: JobSpec,
    span: &'static str,
    packets: u64,
    digest: String,
}

/// A traced op, matched with its server-side span after the run.
struct TracedOp {
    id: String,
    span: &'static str,
    rtt_ns: u64,
    packets: u64,
}

pub struct ServeRtt {
    server: Option<ServerHandle>,
    client: Option<Client>,
    round: Vec<Slot>,
    next: usize,
    seq: u64,
    /// The warm-up round is done: every program is translated and every
    /// source cached, so each later response must report a cache hit.
    warmed: bool,
    /// Server counters when the warm-up ended.
    after_warm_up: CounterSnapshot,
    traced: Vec<TracedOp>,
    traced_rounds: u64,
    traced_sims: u64,
    traced_xlate_hits: u64,
    traced_prog_cache_hits: u64,
}

/// Start the server, compute every response's reference locally, and
/// order the round's requests by `seed`.
pub fn serve_rtt(seed: u64, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    let cfg = ServeConfig { workers: 1, queue_depth: 4, chaos: None };
    let server = start(0, cfg).map_err(|e| format!("serve_rtt: cannot start server: {e}"))?;
    let client =
        Client::connect(server.addr()).map_err(|e| format!("serve_rtt: cannot connect: {e}"))?;
    // The server's program table minus the two megacycle image kernels.
    let mut cases = suite::fast_cases();
    cases.extend(suite::corpus_cases(1));
    let mut round = Vec::new();
    for c in &cases {
        let (digest, packets) = interp_reference(&c.name, &c.prog, &c.mem, c.check, tr)?;
        let sim = SimSpec {
            kernel: Some(c.name.clone()),
            source: None,
            engine: Engine::Func,
            budget: BUDGET,
            checkpoint: false,
            resume: None,
        };
        for _ in 0..SIMULATES_PER_PROGRAM {
            let spec = JobSpec::Simulate(sim.clone());
            round.push(Slot { spec, span: SERVE_SIMULATE, packets, digest: digest.clone() });
        }
        let source = majc_asm::program_to_string(&c.prog);
        let packets = majc_asm::assemble(&source)
            .map_err(|e| format!("{}: disassembly does not reassemble: {e}", c.name))?
            .len() as u64;
        if packets != c.prog.len() as u64 {
            return Err(format!("{}: disassembly reassembles to {packets} packets", c.name));
        }
        let digest = format!("{:016x}", majc_mem::fnv1a(source.as_bytes()));
        round.push(Slot {
            spec: JobSpec::Assemble { source },
            span: SERVE_ASSEMBLE,
            packets,
            digest,
        });
    }
    let mut rng = majc_gen::Rng::new(seed);
    for i in (1..round.len()).rev() {
        round.swap(i, rng.below(i as u64 + 1) as usize);
    }
    Ok(Box::new(ServeRtt {
        server: Some(server),
        client: Some(client),
        round,
        next: 0,
        seq: 0,
        warmed: false,
        after_warm_up: CounterSnapshot::default(),
        traced: Vec::new(),
        traced_rounds: 0,
        traced_sims: 0,
        traced_xlate_hits: 0,
        traced_prog_cache_hits: 0,
    }))
}

fn field_bool(r: &Response, name: &str) -> Option<bool> {
    match r.field(name) {
        Some(Val::Bool(b)) => Some(*b),
        _ => None,
    }
}

impl Workload for ServeRtt {
    fn op(&mut self, tr: &mut Tracer) -> Op {
        let slot = &self.round[self.next];
        self.next = (self.next + 1) % self.round.len();
        self.seq += 1;
        let id = self.seq.to_string();
        let req = Request::Job { id: id.clone(), spec: slot.spec.clone() };
        let client = self.client.as_mut().expect("the client lives until drop");
        let (ns, resp) = tr.op(|tr| tr.span(slot.span, || client.request(&req)));

        // A `busy`, `rejected` or `failed` status, a transport error or
        // any field off its reference fails the op.
        let cache_hit = match slot.span {
            SERVE_SIMULATE => "xlate_hit",
            _ => "cached",
        };
        let (ok, hit) = match &resp {
            Ok(r) if r.id == id && matches!(r.status, Status::Ok(_)) => {
                let hit = field_bool(r, cache_hit) == Some(true);
                let ok = r.field("packets").and_then(Val::as_u64) == Some(slot.packets)
                    && r.field("digest").and_then(Val::as_str) == Some(slot.digest.as_str())
                    && (slot.span == SERVE_ASSEMBLE || field_bool(r, "halted") == Some(true))
                    && (hit || !self.warmed);
                (ok, hit)
            }
            _ => (false, false),
        };
        let counts = match slot.span {
            SERVE_SIMULATE => Counts { xlate_packets: slot.packets, ..Counts::default() },
            _ => Counts::default(),
        };
        if tr.is_on() {
            self.traced.push(TracedOp { id, span: slot.span, rtt_ns: ns, packets: slot.packets });
            if slot.span == SERVE_SIMULATE {
                self.traced_sims += 1;
                self.traced_xlate_hits += u64::from(hit);
            } else {
                self.traced_prog_cache_hits += u64::from(hit);
            }
        }
        let end_of_round = self.next == 0;
        if end_of_round {
            if !self.warmed {
                self.after_warm_up = self.server.as_ref().expect("server runs").counters();
            }
            self.warmed = true;
            self.traced_rounds += u64::from(tr.is_on());
        }
        Op { ns, ok, counts, end_of_round }
    }

    /// Server-side numbers from the `JobSpan`s the server exports (the
    /// first `SPAN_LOG_CAP` jobs it ran), matched to traced ops by id.
    fn layer_metrics(&mut self, out: &mut Metrics) {
        let server = self.server.as_ref().expect("server runs");
        let spans = server.job_spans();
        let by_id: HashMap<&str, _> = spans.iter().map(|s| (s.id.as_str(), s)).collect();
        let (mut sim_us, mut asm_us, mut wait_us, mut overhead_ns) =
            (vec![], vec![], vec![], vec![]);
        let (mut sim_service_ns, mut sim_packets) = (0u64, 0u64);
        for op in &self.traced {
            let Some(js) = by_id.get(op.id.as_str()) else { continue };
            let service = js.service_us();
            if op.span == SERVE_SIMULATE {
                sim_us.push(service);
                sim_service_ns += service * 1000;
                sim_packets += op.packets;
            } else {
                asm_us.push(service);
            }
            wait_us.push(js.queue_wait_us());
            overhead_ns.push(op.rtt_ns.saturating_sub(service * 1000));
        }
        let p50 = |v: &mut Vec<u64>| {
            v.sort_unstable();
            quantile(v, 0.5) as f64
        };
        out.insert("serve.service_us.simulate", p50(&mut sim_us));
        out.insert("serve.service_us.assemble", p50(&mut asm_us));
        out.insert("serve.queue_wait_us", p50(&mut wait_us));
        out.insert("serve.overhead_us", p50(&mut overhead_ns) / 1e3);
        // Worker service time per packet of func-engine jobs: translated
        // execution plus the job's dispatch inside the worker.
        out.insert(
            "core.xlate.exec_ns_per_packet",
            ratio(sim_service_ns as f64, sim_packets as f64),
        );
        out.insert(
            "core.xlate.cache_hit_ratio",
            ratio(self.traced_xlate_hits as f64, self.traced_sims as f64),
        );
        out.insert(
            "serve.prog_cache_hits",
            ratio(self.traced_prog_cache_hits as f64, self.traced_rounds as f64),
        );
        let now = server.counters();
        let w = &self.after_warm_up;
        out.insert("serve.jobs.ok", (now.ok - w.ok) as f64);
        out.insert("serve.jobs.failed", (now.failed - w.failed) as f64);
        let refused = |c: &CounterSnapshot| c.rejected + c.busy + c.drain_rejected;
        out.insert("serve.jobs.rejected", (refused(&now) - refused(w)) as f64);
    }
}

impl Drop for ServeRtt {
    /// Close the connection, then drain the server and join its threads.
    fn drop(&mut self) {
        drop(self.client.take());
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
