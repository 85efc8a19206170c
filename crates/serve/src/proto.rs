//! The majc-serve wire protocol: one JSON object per line, both ways.
//!
//! A client writes one request object per line; the server writes one
//! response object per line. Responses carry the request's `id` and are
//! *not* ordered — a `busy` rejection for a later request can arrive
//! before the result of an earlier in-flight job — so clients that
//! pipeline must match on `id`. Encoding and decoding live together here
//! so the round trip is testable in one place; parsing reuses the
//! in-tree [`majc_core::json`] recursive-descent parser (the workspace
//! has no registry dependencies).
//!
//! Integers ride in JSON numbers, which the parser holds as `f64`:
//! values are exact up to 2^53, which bounds seeds and budgets. The
//! decoder rejects anything negative, fractional, or beyond that.

use majc_core::json::{parse, quote, Json};

/// Largest integer a JSON `f64` number carries exactly.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53

/// Which simulator executes a `simulate` job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Instruction-accurate [`majc_core::FuncSim`]; the budget counts
    /// packets.
    Func,
    /// Cycle-accurate [`majc_core::CycleSim`] over the real cache/DRDRAM
    /// model; the budget counts cycles.
    Cycle,
}

impl Engine {
    pub fn name(self) -> &'static str {
        match self {
            Engine::Func => "func",
            Engine::Cycle => "cycle",
        }
    }
}

/// A `simulate` job: a named suite kernel or assembled source, run under
/// a deadline budget, optionally checkpointing or resuming.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimSpec {
    /// Named kernel from the canonical suite (`majc_kernels::suite`).
    pub kernel: Option<String>,
    /// Assembly source text (exclusive with `kernel`).
    pub source: Option<String>,
    pub engine: Engine,
    /// Deadline: packets (func) or cycles (cycle). A program still
    /// running at the deadline is a structured `hang` failure — unless
    /// `checkpoint` asked for exactly that.
    pub budget: u64,
    /// Stop at the budget boundary and store a checkpoint instead of
    /// failing. Func engine only: a packet boundary is a quiesce point.
    pub checkpoint: bool,
    /// Checkpoint id to restore before running.
    pub resume: Option<String>,
}

/// One unit of queued work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobSpec {
    /// Assemble source text; returns the packet count and image digest.
    Assemble {
        source: String,
    },
    /// Statically verify source text with majc-lint.
    Lint {
        source: String,
        strict: bool,
    },
    Simulate(SimSpec),
    /// Differential fuzz case: seeded program, three-way compare
    /// (interpreter, translated engine, cycle model).
    Fuzz {
        seed: u64,
        budget: u64,
    },
}

impl JobSpec {
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Assemble { .. } => "assemble",
            JobSpec::Lint { .. } => "lint",
            JobSpec::Simulate(_) => "simulate",
            JobSpec::Fuzz { .. } => "fuzz",
        }
    }
}

/// One request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    Job {
        id: String,
        spec: JobSpec,
    },
    /// Snapshot of the server's counters, plus a `metrics` payload
    /// field carrying the full [`majc_obs`] registry snapshot as a JSON
    /// string (deterministic and wall-clock sections) — the live
    /// introspection verb.
    Stats {
        id: String,
    },
    /// Begin graceful drain: in-flight jobs finish, queued jobs are
    /// rejected, the acceptor closes. The protocol-level equivalent of
    /// SIGTERM (which a dependency-free daemon cannot trap portably).
    Shutdown {
        id: String,
    },
}

impl Request {
    pub fn id(&self) -> &str {
        match self {
            Request::Job { id, .. } | Request::Stats { id } | Request::Shutdown { id } => id,
        }
    }

    /// Encode as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"id\":{}", quote(self.id())));
        match self {
            Request::Stats { .. } => s.push_str(",\"kind\":\"stats\""),
            Request::Shutdown { .. } => s.push_str(",\"kind\":\"shutdown\""),
            Request::Job { spec, .. } => {
                s.push_str(&format!(",\"kind\":{}", quote(spec.kind())));
                match spec {
                    JobSpec::Assemble { source } => {
                        s.push_str(&format!(",\"source\":{}", quote(source)));
                    }
                    JobSpec::Lint { source, strict } => {
                        s.push_str(&format!(",\"source\":{},\"strict\":{strict}", quote(source)));
                    }
                    JobSpec::Fuzz { seed, budget } => {
                        s.push_str(&format!(",\"seed\":{seed},\"budget\":{budget}"));
                    }
                    JobSpec::Simulate(sim) => {
                        s.push_str(&format!(
                            ",\"engine\":{},\"budget\":{}",
                            quote(sim.engine.name()),
                            sim.budget
                        ));
                        if let Some(k) = &sim.kernel {
                            s.push_str(&format!(",\"kernel\":{}", quote(k)));
                        }
                        if let Some(src) = &sim.source {
                            s.push_str(&format!(",\"source\":{}", quote(src)));
                        }
                        if sim.checkpoint {
                            s.push_str(",\"checkpoint\":true");
                        }
                        if let Some(r) = &sim.resume {
                            s.push_str(&format!(",\"resume\":{}", quote(r)));
                        }
                    }
                }
            }
        }
        s.push('}');
        s
    }

    /// Decode one line. Errors are human-readable and become a `failed`
    /// response with kind `bad_request`.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let v = parse(line).map_err(|e| format!("malformed json: {e}"))?;
        let id = str_field(&v, "id")?;
        let kind = str_field(&v, "kind")?;
        let req = match kind.as_str() {
            "stats" => Request::Stats { id },
            "shutdown" => Request::Shutdown { id },
            "assemble" => {
                Request::Job { id, spec: JobSpec::Assemble { source: str_field(&v, "source")? } }
            }
            "lint" => Request::Job {
                id,
                spec: JobSpec::Lint {
                    source: str_field(&v, "source")?,
                    strict: opt_bool(&v, "strict")?.unwrap_or(false),
                },
            },
            "fuzz" => Request::Job {
                id,
                spec: JobSpec::Fuzz {
                    seed: u64_field(&v, "seed")?,
                    budget: u64_field(&v, "budget")?,
                },
            },
            "simulate" => {
                let engine = match str_field(&v, "engine")?.as_str() {
                    "func" => Engine::Func,
                    "cycle" => Engine::Cycle,
                    other => return Err(format!("unknown engine `{other}`")),
                };
                let spec = SimSpec {
                    kernel: opt_str(&v, "kernel")?,
                    source: opt_str(&v, "source")?,
                    engine,
                    budget: u64_field(&v, "budget")?,
                    checkpoint: opt_bool(&v, "checkpoint")?.unwrap_or(false),
                    resume: opt_str(&v, "resume")?,
                };
                if spec.kernel.is_some() == spec.source.is_some() && spec.resume.is_none() {
                    return Err(
                        "simulate needs exactly one of `kernel`/`source` (or `resume`)".into()
                    );
                }
                Request::Job { id, spec: JobSpec::Simulate(spec) }
            }
            other => return Err(format!("unknown kind `{other}`")),
        };
        Ok(req)
    }
}

/// A typed payload value in an `ok` response.
#[derive(Clone, Debug, PartialEq)]
pub enum Val {
    U64(u64),
    Str(String),
    Bool(bool),
}

impl Val {
    fn encode(&self) -> String {
        match self {
            Val::U64(n) => n.to_string(),
            Val::Str(s) => quote(s),
            Val::Bool(b) => b.to_string(),
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Val::U64(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Val::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// How a request ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Status {
    /// Completed; payload fields are kind-specific.
    Ok(Vec<(String, Val)>),
    /// Admission queue full — retry after the stated backoff. The job
    /// never entered the queue.
    Busy { retry_after_ms: u64 },
    /// Deterministically refused (draining, drained, unknown kernel...).
    Rejected { reason: String },
    /// The job ran and failed: `kind` is machine-readable (`hang`,
    /// `trap`, `parse`, `bad_request`, `worker_killed`), `detail` human.
    Failed { kind: String, detail: String },
}

impl Status {
    /// Payload field by name, if this is an `ok`.
    pub fn field(&self, name: &str) -> Option<&Val> {
        match self {
            Status::Ok(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// One response line.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Mirrors the request id; empty when the request was unparseable.
    pub id: String,
    pub status: Status,
}

impl Response {
    pub fn ok(id: &str, payload: Vec<(String, Val)>) -> Response {
        Response { id: id.to_string(), status: Status::Ok(payload) }
    }

    pub fn failed(id: &str, kind: &str, detail: impl Into<String>) -> Response {
        Response {
            id: id.to_string(),
            status: Status::Failed { kind: kind.to_string(), detail: detail.into() },
        }
    }

    pub fn rejected(id: &str, reason: &str) -> Response {
        Response { id: id.to_string(), status: Status::Rejected { reason: reason.to_string() } }
    }

    /// Payload field by name, if this is an `ok`.
    pub fn field(&self, name: &str) -> Option<&Val> {
        self.status.field(name)
    }

    pub fn to_line(&self) -> String {
        let id = if self.id.is_empty() { "null".to_string() } else { quote(&self.id) };
        match &self.status {
            Status::Ok(fields) => {
                let mut s = format!("{{\"id\":{id},\"status\":\"ok\"");
                for (k, v) in fields {
                    s.push_str(&format!(",{}:{}", quote(k), v.encode()));
                }
                s.push('}');
                s
            }
            Status::Busy { retry_after_ms } => {
                format!("{{\"id\":{id},\"status\":\"busy\",\"retry_after_ms\":{retry_after_ms}}}")
            }
            Status::Rejected { reason } => {
                format!("{{\"id\":{id},\"status\":\"rejected\",\"reason\":{}}}", quote(reason))
            }
            Status::Failed { kind, detail } => format!(
                "{{\"id\":{id},\"status\":\"failed\",\"error\":{},\"detail\":{}}}",
                quote(kind),
                quote(detail)
            ),
        }
    }

    pub fn parse_line(line: &str) -> Result<Response, String> {
        let v = parse(line).map_err(|e| format!("malformed json: {e}"))?;
        let id = match v.get("id") {
            Some(Json::Null) | None => String::new(),
            Some(Json::Str(s)) => s.clone(),
            Some(other) => return Err(format!("bad id: {other:?}")),
        };
        let status = str_field(&v, "status")?;
        let status = match status.as_str() {
            "busy" => Status::Busy { retry_after_ms: u64_field(&v, "retry_after_ms")? },
            "rejected" => Status::Rejected { reason: str_field(&v, "reason")? },
            "failed" => {
                Status::Failed { kind: str_field(&v, "error")?, detail: str_field(&v, "detail")? }
            }
            "ok" => {
                let Json::Obj(members) = &v else { return Err("response is not an object".into()) };
                let mut fields = Vec::new();
                for (k, val) in members {
                    if k == "id" || k == "status" {
                        continue;
                    }
                    let val = match val {
                        Json::Bool(b) => Val::Bool(*b),
                        Json::Str(s) => Val::Str(s.clone()),
                        Json::Num(n) => Val::U64(exact_u64(*n).ok_or_else(|| {
                            format!("payload field `{k}` is not an exact u64: {n}")
                        })?),
                        other => return Err(format!("payload field `{k}` unsupported: {other:?}")),
                    };
                    fields.push((k.clone(), val));
                }
                Status::Ok(fields)
            }
            other => return Err(format!("unknown status `{other}`")),
        };
        Ok(Response { id, status })
    }
}

fn exact_u64(n: f64) -> Option<u64> {
    if n.fract() == 0.0 && (0.0..=MAX_EXACT).contains(&n) {
        Some(n as u64)
    } else {
        None
    }
}

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(other) => Err(format!("field `{key}` is not a string: {other:?}")),
        None => Err(format!("missing field `{key}`")),
    }
}

fn opt_str(v: &Json, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(format!("field `{key}` is not a string: {other:?}")),
    }
}

fn opt_bool(v: &Json, key: &str) -> Result<Option<bool>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(other) => Err(format!("field `{key}` is not a bool: {other:?}")),
    }
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(Json::Num(n)) => {
            exact_u64(*n).ok_or_else(|| format!("field `{key}` is not an exact u64: {n}"))
        }
        Some(other) => Err(format!("field `{key}` is not a number: {other:?}")),
        None => Err(format!("missing field `{key}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_req(r: Request) {
        let line = r.to_line();
        assert_eq!(Request::parse_line(&line).unwrap(), r, "line: {line}");
    }

    fn round_trip_resp(r: Response) {
        let line = r.to_line();
        assert_eq!(Response::parse_line(&line).unwrap(), r, "line: {line}");
    }

    #[test]
    fn requests_round_trip() {
        round_trip_req(Request::Job {
            id: "a-1".into(),
            spec: JobSpec::Assemble { source: "halt ; \"quoted\"\nnop".into() },
        });
        round_trip_req(Request::Job {
            id: "b".into(),
            spec: JobSpec::Lint { source: "halt".into(), strict: true },
        });
        round_trip_req(Request::Job {
            id: "c".into(),
            spec: JobSpec::Fuzz { seed: 0x1F_FFFF_FFFF_FFFF, budget: 20_000 },
        });
        round_trip_req(Request::Job {
            id: "d".into(),
            spec: JobSpec::Simulate(SimSpec {
                kernel: Some("fir".into()),
                source: None,
                engine: Engine::Cycle,
                budget: 1_000_000,
                checkpoint: false,
                resume: None,
            }),
        });
        round_trip_req(Request::Job {
            id: "e".into(),
            spec: JobSpec::Simulate(SimSpec {
                kernel: None,
                source: None,
                engine: Engine::Func,
                budget: 500,
                checkpoint: true,
                resume: Some("00ab".into()),
            }),
        });
        round_trip_req(Request::Stats { id: "s".into() });
        round_trip_req(Request::Shutdown { id: "x".into() });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_resp(Response::ok(
            "a",
            vec![
                ("packets".into(), Val::U64(12)),
                ("digest".into(), Val::Str("00ff".into())),
                ("halted".into(), Val::Bool(true)),
            ],
        ));
        round_trip_resp(Response { id: "b".into(), status: Status::Busy { retry_after_ms: 7 } });
        round_trip_resp(Response::rejected("c", "draining"));
        round_trip_resp(Response::failed("d", "hang", "budget exhausted at pc 0x104"));
        round_trip_resp(Response::failed("", "parse", "malformed json"));
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        for bad in ["", "{", "[1,2]", "{\"id\":3,\"kind\":\"stats\"}", "{\"id\":\"x\"}",
            "{\"id\":\"x\",\"kind\":\"simulate\",\"engine\":\"func\",\"budget\":1.5,\"kernel\":\"fir\"}",
            "{\"id\":\"x\",\"kind\":\"warp\"}"]
        {
            assert!(Request::parse_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn simulate_requires_exactly_one_program_source() {
        let both = "{\"id\":\"x\",\"kind\":\"simulate\",\"engine\":\"func\",\"budget\":5,\
                    \"kernel\":\"fir\",\"source\":\"halt\"}";
        let neither = "{\"id\":\"x\",\"kind\":\"simulate\",\"engine\":\"func\",\"budget\":5}";
        assert!(Request::parse_line(both).is_err());
        assert!(Request::parse_line(neither).is_err());
        // ...unless resuming a checkpoint, which carries its own program
        // context from the original job.
        let resume = "{\"id\":\"x\",\"kind\":\"simulate\",\"engine\":\"func\",\"budget\":5,\
                      \"kernel\":\"fir\",\"resume\":\"ab\"}";
        assert!(Request::parse_line(resume).is_ok());
    }
}
