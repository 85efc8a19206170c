//! The memory-transaction layer between the CPU cores and the memory
//! hierarchy.
//!
//! The core's LSU presents tagged data requests ([`MemReq`]) on its port;
//! the memory system answers with tagged responses ([`MemResp`]) that the
//! LSU matches against its load/store buffers. The interface is a
//! handshake, not a timestamp oracle: a port may *reject* a request for
//! one cycle ([`Reject`], e.g. no free MSHR), and every accepted request
//! produces exactly one response carrying the completion cycle — or a
//! fault.
//!
//! Simulated time is logical (event-driven), so implementations resolve a
//! request's completion cycle while it is being accepted rather than
//! replaying every intervening idle cycle; the response still travels
//! through the per-CPU response queue and is matched by tag, which is what
//! preserves out-of-order miss returns and gives the SoC a seam to
//! arbitrate its two D-cache ports (see `majc_soc::ChipMem`).
//!
//! Instruction fetch is not a transaction: an I-cache line fetch is never
//! rejected, never faults and never completes out of order, so
//! [`MemPort::fetch_line`] resolves it with a direct call.

use majc_mem::{DKind, DPolicy, FlatMem, Served};

/// Transaction identifier, unique per CPU. Only the LSU issues
/// transactions (see [`crate::lsu::Lsu`]), so one tag space and one
/// response queue per CPU serve its data port.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Tag(pub u64);

/// One data request, as presented on the CPU's data-cache port.
#[derive(Clone, Copy, Debug)]
pub struct MemReq {
    /// Requesting CPU (selects the D-cache port and the response queue).
    pub cpu: u8,
    pub addr: u32,
    pub kind: DKind,
    pub policy: DPolicy,
    pub tag: Tag,
}

/// How an accepted request finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Completion {
    /// Data available (loads) / globally performed (stores) at `at`.
    Done { at: u64 },
    /// The access hit a line whose only copy of the data was lost (dirty
    /// parity error): the core must take a precise data-error trap.
    Fault,
}

/// The response to one accepted request.
#[derive(Clone, Copy, Debug)]
pub struct MemResp {
    pub tag: Tag,
    pub cpu: u8,
    pub kind: DKind,
    pub completion: Completion,
    /// Which level of the hierarchy satisfied the access (observability
    /// only — timing is fully captured by `completion`).
    pub served: Served,
}

/// A request the port could not accept this cycle (structural: no free
/// MSHR). The requester re-presents it no earlier than `retry_at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reject {
    pub retry_at: u64,
}

/// Per-level memory-hierarchy counters, snapshotted into
/// [`crate::CycleStats::mem`] when a run finishes. All counters are
/// cumulative over the port's lifetime; on the SoC the crossbar/DRDRAM
/// numbers are chip-wide (shared), while the cache numbers are this CPU's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemLevelStats {
    /// This CPU's I-cache hits/misses.
    pub icache_hits: u64,
    pub icache_misses: u64,
    /// This CPU's D-cache port hits/misses.
    pub dcache_hits: u64,
    pub dcache_misses: u64,
    /// Most MSHRs ever simultaneously in flight.
    pub mshr_high_water: u64,
    /// Most load-buffer entries ever simultaneously in flight (LSU).
    pub load_buf_peak: u64,
    /// Most store-buffer entries ever simultaneously in flight (LSU).
    pub store_buf_peak: u64,
    /// Crossbar grants issued (standalone: backend requests).
    pub xbar_grants: u64,
    /// Crossbar grants dropped and re-arbitrated (injected NACKs;
    /// standalone: DRDRAM transfer retries).
    pub xbar_retries: u64,
    /// Cycles the DRDRAM data channel was occupied.
    pub dram_busy_cycles: u64,
    /// Same-cycle same-line D-cache port conflicts serialized by the chip
    /// arbiter (SoC only; always 0 standalone).
    pub dport_conflicts: u64,
}

impl MemLevelStats {
    pub fn icache_hit_rate(&self) -> f64 {
        rate(self.icache_hits, self.icache_misses)
    }

    pub fn dcache_hit_rate(&self) -> f64 {
        rate(self.dcache_hits, self.dcache_misses)
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// What the pipeline needs from the memory system: architectural data,
/// instruction-line fetch, and the request/response data interface.
///
/// Contract: `submit` either rejects (structural, retry later) or queues
/// exactly one response retrievable via `pop_resp` for the request's CPU.
/// Responses for one CPU arrive in completion order of the *port*
/// (requests resolve as they are accepted), which is not program order
/// when misses return out of order — the LSU matches by tag, never by
/// position.
pub trait MemPort {
    /// The architectural backing store.
    fn mem(&mut self) -> &mut FlatMem;
    /// Fetch the 32-byte instruction line at `line` for `cpu` at cycle
    /// `now`: the cycle the line is available and the level that served
    /// it. Never rejected and never faulting (I-cache parity recovery is
    /// internal to the cache).
    fn fetch_line(&mut self, now: u64, cpu: usize, line: u32) -> (u64, Served);
    /// Present data request `req` on the port at cycle `now`.
    fn submit(&mut self, now: u64, req: MemReq) -> Result<(), Reject>;
    /// Next pending response for `cpu`, if any.
    fn pop_resp(&mut self, cpu: usize) -> Option<MemResp>;
    /// Snapshot of the per-level counters as seen by `cpu`.
    fn level_stats(&self, cpu: usize) -> MemLevelStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rates() {
        let s = MemLevelStats { dcache_hits: 3, dcache_misses: 1, ..Default::default() };
        assert!((s.dcache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.icache_hit_rate(), 0.0, "no accesses, no rate");
    }
}
