//! The memory-transaction layer between the CPU cores and the memory
//! hierarchy.
//!
//! The core's LSU presents data requests ([`MemReq`]) on its port, and the
//! port answers each one directly. The interface is a handshake, not a
//! timestamp oracle: a port may *reject* a request for one cycle
//! ([`Reject`], e.g. no free MSHR), and every accepted request comes back
//! as its [`MemResp`], carrying the completion cycle — or a fault.
//!
//! Simulated time is logical (event-driven), so every port resolves a
//! request's completion cycle while it is being accepted rather than
//! replaying every intervening idle cycle, and returns the response from
//! the same call. Out-of-order miss returns need no response queue: each
//! LSU buffer entry keeps its own completion cycle and retires when that
//! cycle passes, whatever order the requests were accepted in. The SoC
//! arbitrates its two D-cache ports inside the same call (see
//! `majc_soc::ChipMem`).
//!
//! Instruction fetch is not a transaction: an I-cache line fetch is never
//! rejected, never faults and never completes out of order, so
//! [`MemPort::fetch_line`] resolves it with a direct call.

use majc_mem::{DKind, DPolicy, FlatMem, Served};

/// One data request, as presented on the CPU's data-cache port.
#[derive(Clone, Copy, Debug)]
pub struct MemReq {
    /// Requesting CPU (selects the D-cache port).
    pub cpu: u8,
    pub addr: u32,
    pub kind: DKind,
    pub policy: DPolicy,
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

impl Completion {
    /// The completion cycle, or `None` for a fault.
    pub fn done(self) -> Option<u64> {
        match self {
            Completion::Done { at } => Some(at),
            Completion::Fault => None,
        }
    }
}

/// The response to one accepted request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemResp {
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
/// Contract: `submit` either rejects (structural, retry later; the
/// request left no trace in the port) or accepts the request and returns
/// its one response. Completion cycles of successive requests need not
/// increase — a hit accepted after a miss completes first — so the
/// requester orders work by each response's completion cycle, never by
/// the order of the calls.
pub trait MemPort {
    /// The architectural backing store.
    fn mem(&mut self) -> &mut FlatMem;
    /// Fetch the 32-byte instruction line at `line` for `cpu` at cycle
    /// `now`: the cycle the line is available and the level that served
    /// it. Never rejected and never faulting (I-cache parity recovery is
    /// internal to the cache).
    fn fetch_line(&mut self, now: u64, cpu: usize, line: u32) -> (u64, Served);
    /// Present data request `req` on the port at cycle `now`.
    fn submit(&mut self, now: u64, req: MemReq) -> Result<MemResp, Reject>;
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
