//! The load/store unit.
//!
//! Paper §3.2: "The LSU aggressively implements a non-blocking memory
//! subsystem ... It provides buffering for up to five loads and eight
//! stores. It allows a maximum of four cache misses without blocking the
//! execution and handles out-of-order data returns. Non-faulting prefetch
//! instructions ... are also queued in LSU. Support for memory barrier and
//! atomic instructions ... is also part of the LSU unit."
//!
//! The four-miss limit lives in the D-cache MSHR file ([`majc_mem::DCache`]);
//! this module models the load/store buffers, the CPU's single cache port,
//! store draining, and barrier semantics. Each operation is one transaction
//! on the [`MemPort`]: the LSU submits a [`MemReq`], and the port either
//! rejects it (structural, retried) or returns its
//! [`MemResp`](crate::txn::MemResp). Each buffer entry keeps the completion
//! cycle of its response and retires when that cycle passes, so entries
//! leave in completion order, not issue order — which is how out-of-order
//! miss returns are modeled.
//!
//! Every operation takes the caller's [`TraceSink`]: transaction lifecycles
//! ([`Event::MemTxn`]) and structural bounces ([`Event::MemRetry`]) are
//! emitted here. Each submit attempt takes the next tag, which names the
//! transaction in the trace.

use majc_mem::{DKind, DPolicy, Served};

use crate::events::{Event, RetryReason, TraceSink};
use crate::txn::{MemPort, MemReq, Reject};

/// First LSU transaction tag. The LSU is the only issuer of tags, so any
/// base would do; this one keeps the tags in recorded traces stable.
const LSU_TAG_BASE: u64 = 1 << 63;

/// LSU counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LsuStats {
    pub loads: u64,
    pub stores: u64,
    pub prefetches: u64,
    pub atomics: u64,
    /// Issue attempts rejected for a full load buffer.
    pub load_buf_stalls: u64,
    /// Issue attempts rejected for a full store buffer.
    pub store_buf_stalls: u64,
    /// Issue attempts rejected because the cache had no free MSHR.
    pub mshr_stalls: u64,
    /// Most load-buffer entries ever simultaneously in flight.
    pub load_buf_peak: u64,
    /// Most store-buffer entries ever simultaneously in flight.
    pub store_buf_peak: u64,
}

/// Why a memory operation could not complete this cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LsuStall {
    /// Structural stall: retry no earlier than `retry_at`.
    Retry { retry_at: u64 },
    /// The access hit a line whose only copy of the data was lost (dirty
    /// parity error); the core must take a data-error trap.
    DataError,
}

/// Timing state of one CPU's LSU.
#[derive(Clone, Debug)]
pub struct Lsu {
    load_buf: usize,
    store_buf: usize,
    /// Completion cycles of in-flight loads (out-of-order returns: entries
    /// retire individually as their data arrives).
    loads: Vec<u64>,
    /// Completion cycles of stores drained to the cache but not yet
    /// globally performed.
    stores: Vec<u64>,
    /// Next cycle the CPU's data-cache port is free.
    port_next: u64,
    /// Next transaction tag (LSU space).
    next_tag: u64,
    pub stats: LsuStats,
}

impl Lsu {
    pub fn new(load_buf: usize, store_buf: usize) -> Lsu {
        Lsu {
            load_buf,
            store_buf,
            loads: Vec::with_capacity(load_buf),
            stores: Vec::with_capacity(store_buf),
            port_next: 0,
            next_tag: LSU_TAG_BASE,
            stats: LsuStats::default(),
        }
    }

    fn reap(&mut self, now: u64) {
        self.loads.retain(|&done| done > now);
        self.stores.retain(|&done| done > now);
    }

    /// Outstanding loads (for microthreading decisions and tests).
    pub fn loads_in_flight(&self) -> usize {
        self.loads.len()
    }

    pub fn stores_in_flight(&self) -> usize {
        self.stores.len()
    }

    /// The tag naming the next submit attempt.
    fn fresh_tag(&mut self) -> u64 {
        self.next_tag += 1;
        self.next_tag - 1
    }

    /// Issue a load at cycle `t`. Returns the cycle its data is available.
    pub fn load<S: TraceSink>(
        &mut self,
        t: u64,
        addr: u32,
        pol: DPolicy,
        port: &mut dyn MemPort,
        cpu: usize,
        sink: &mut S,
    ) -> Result<u64, LsuStall> {
        self.reap(t);
        if self.loads.len() >= self.load_buf {
            self.stats.load_buf_stalls += 1;
            // Retry when the earliest outstanding load returns.
            let retry = first_free(&self.loads, t);
            return Err(bounce(sink, cpu, addr, t, retry, RetryReason::LoadBuf));
        }
        self.load_like(t.max(self.port_next), addr, DKind::Load, pol, port, cpu, sink)
    }

    /// Submit a load or an atomic at port cycle `at` and enter it in the
    /// load buffer. Returns the cycle its data is available.
    #[allow(clippy::too_many_arguments)]
    fn load_like<S: TraceSink>(
        &mut self,
        at: u64,
        addr: u32,
        kind: DKind,
        pol: DPolicy,
        port: &mut dyn MemPort,
        cpu: usize,
        sink: &mut S,
    ) -> Result<u64, LsuStall> {
        let tag = self.fresh_tag();
        match port.submit(at, MemReq { cpu: cpu as u8, addr, kind, policy: pol }) {
            Ok(resp) => {
                let avail = resp.completion.done();
                emit_txn(sink, cpu, tag, addr, kind, at, resp.served, avail);
                let avail = avail.ok_or(LsuStall::DataError)?;
                self.port_next = at + 1;
                self.loads.push(avail);
                if kind == DKind::Atomic {
                    self.stats.atomics += 1;
                } else {
                    self.stats.loads += 1;
                }
                self.stats.load_buf_peak = self.stats.load_buf_peak.max(self.loads.len() as u64);
                Ok(avail)
            }
            Err(Reject { retry_at }) => {
                self.stats.mshr_stalls += 1;
                Err(bounce(sink, cpu, addr, at, retry_at, RetryReason::Mshr))
            }
        }
    }

    /// Issue a store at cycle `t`: it enters the store buffer and drains to
    /// the cache as soon as the port allows. Returns the drain-completion
    /// cycle (used only for barriers; stores never block dependents).
    pub fn store<S: TraceSink>(
        &mut self,
        t: u64,
        addr: u32,
        pol: DPolicy,
        port: &mut dyn MemPort,
        cpu: usize,
        sink: &mut S,
    ) -> Result<u64, LsuStall> {
        self.reap(t);
        if self.stores.len() >= self.store_buf {
            self.stats.store_buf_stalls += 1;
            let retry = first_free(&self.stores, t);
            return Err(bounce(sink, cpu, addr, t, retry, RetryReason::StoreBuf));
        }
        // Drain: first port slot after issue.
        let mut at = (t + 1).max(self.port_next);
        for _ in 0..100_000 {
            let tag = self.fresh_tag();
            match port.submit(at, MemReq { cpu: cpu as u8, addr, kind: DKind::Store, policy: pol })
            {
                Ok(resp) => {
                    let done = resp.completion.done().map(|d| d.max(at));
                    emit_txn(sink, cpu, tag, addr, DKind::Store, at, resp.served, done);
                    let done = done.ok_or(LsuStall::DataError)?;
                    self.port_next = at + 1;
                    self.stores.push(done);
                    self.stats.stores += 1;
                    self.stats.store_buf_peak =
                        self.stats.store_buf_peak.max(self.stores.len() as u64);
                    return Ok(done);
                }
                Err(Reject { retry_at }) => {
                    bounce(sink, cpu, addr, at, retry_at, RetryReason::Mshr);
                    at = retry_at.max(at + 1);
                }
            }
        }
        // A drain starved this long means the memory system is wedged;
        // surface it as a stall so the core's watchdog can diagnose a hang.
        Err(LsuStall::Retry { retry_at: at })
    }

    /// Issue an atomic at cycle `t`. Atomics are ordering points: all older
    /// stores drain first; the result returns like a load.
    pub fn atomic<S: TraceSink>(
        &mut self,
        t: u64,
        addr: u32,
        port: &mut dyn MemPort,
        cpu: usize,
        sink: &mut S,
    ) -> Result<u64, LsuStall> {
        let ordered = self.quiesce_time().max(t);
        self.reap(ordered);
        let at = ordered.max(self.port_next);
        self.load_like(at, addr, DKind::Atomic, DPolicy::Cached, port, cpu, sink)
    }

    /// Queue a non-faulting prefetch; never stalls the pipeline.
    pub fn prefetch<S: TraceSink>(
        &mut self,
        t: u64,
        addr: u32,
        port: &mut dyn MemPort,
        cpu: usize,
        sink: &mut S,
    ) {
        let at = t.max(self.port_next);
        self.stats.prefetches += 1;
        // Dropped silently on structural conflicts (non-binding), and
        // nothing waits on one that was accepted.
        let tag = self.fresh_tag();
        let req = MemReq { cpu: cpu as u8, addr, kind: DKind::Prefetch, policy: DPolicy::Cached };
        if let Ok(resp) = port.submit(at, req) {
            self.port_next = at + 1;
            let done = resp.completion.done();
            emit_txn(sink, cpu, tag, addr, DKind::Prefetch, at, resp.served, done);
        }
    }

    /// Cycle by which every outstanding load and store completes — the
    /// memory-barrier wait condition.
    pub fn quiesce_time(&self) -> u64 {
        self.loads.iter().chain(self.stores.iter()).copied().max().unwrap_or(0)
    }
}

/// When a full buffer frees an entry: its earliest completion, after `t`.
fn first_free(buf: &[u64], t: u64) -> u64 {
    buf.iter().copied().min().unwrap_or(t + 1).max(t + 1)
}

/// Report a structural bounce at `at` and return it as a stall.
fn bounce<S: TraceSink>(
    sink: &mut S,
    cpu: usize,
    addr: u32,
    at: u64,
    retry_at: u64,
    reason: RetryReason,
) -> LsuStall {
    sink.emit(&Event::MemRetry { cpu: cpu as u8, addr, at, retry_at, reason });
    LsuStall::Retry { retry_at }
}

/// Report one accepted transaction: `done` is its completion cycle, or
/// `None` for a fault (reported as completing at `at`).
#[allow(clippy::too_many_arguments)]
fn emit_txn<S: TraceSink>(
    sink: &mut S,
    cpu: usize,
    tag: u64,
    addr: u32,
    kind: DKind,
    at: u64,
    served: Served,
    done: Option<u64>,
) {
    sink.emit(&Event::MemTxn {
        cpu: cpu as u8,
        tag,
        addr,
        kind,
        served,
        at,
        done: done.unwrap_or(at),
        fault: done.is_none(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::NullSink;
    use crate::memsys::LocalMemSys;

    fn port() -> LocalMemSys {
        LocalMemSys::majc5200()
    }

    #[test]
    fn load_buffer_limit_is_five() {
        let mut lsu = Lsu::new(5, 8);
        let mut p = port();
        // Misses to distinct lines; first four occupy MSHRs.
        for i in 0..4 {
            lsu.load(0, i * 0x1000, DPolicy::Cached, &mut p, 0, &mut NullSink).unwrap();
        }
        assert_eq!(lsu.loads_in_flight(), 4);
        // Fifth load: MSHRs are full (cache-level), so it stalls even
        // though a load-buffer slot is free.
        let e = lsu.load(0, 4 * 0x1000, DPolicy::Cached, &mut p, 0, &mut NullSink).unwrap_err();
        assert!(matches!(e, LsuStall::Retry { retry_at } if retry_at > 0));
        assert_eq!(lsu.stats.mshr_stalls, 1);
        assert_eq!(lsu.loads_in_flight(), 4, "the bounced load holds no buffer entry");
        assert_eq!(p.dcache.outstanding(), 4, "nor an MSHR");
    }

    #[test]
    fn entries_retire_in_completion_order() {
        let mut lsu = Lsu::new(5, 8);
        let mut p = port();
        let warm = lsu.load(0, 0, DPolicy::Cached, &mut p, 0, &mut NullSink).unwrap();
        let t = warm + 1;
        // A miss, then a hit issued after it that returns first.
        let miss = lsu.load(t, 0x4000, DPolicy::Cached, &mut p, 0, &mut NullSink).unwrap();
        let hit = lsu.load(t, 4, DPolicy::Cached, &mut p, 0, &mut NullSink).unwrap();
        assert!(hit < miss, "hit {hit} returns before miss {miss}");
        lsu.reap(hit);
        assert_eq!(lsu.loads_in_flight(), 1, "only the miss is still in flight");
        assert_eq!(lsu.quiesce_time(), miss);
        lsu.reap(miss);
        assert_eq!(lsu.loads_in_flight(), 0);
    }

    #[test]
    fn five_hits_fill_the_load_buffer() {
        let mut lsu = Lsu::new(5, 8);
        let mut p = port();
        // Warm one line, then issue 5 hits in the same cycle window.
        let warm = lsu.load(0, 0, DPolicy::Cached, &mut p, 0, &mut NullSink).unwrap();
        let t = warm + 1;
        for k in 0..5 {
            lsu.load(t, 4 * k, DPolicy::Cached, &mut p, 0, &mut NullSink).unwrap();
        }
        assert_eq!(lsu.loads_in_flight(), 5);
        let e = lsu.load(t, 24, DPolicy::Cached, &mut p, 0, &mut NullSink).unwrap_err();
        assert!(matches!(e, LsuStall::Retry { retry_at } if retry_at > t));
        assert_eq!(lsu.stats.load_buf_stalls, 1);
        assert_eq!(lsu.stats.load_buf_peak, 5);
    }

    #[test]
    fn store_buffer_limit_is_eight() {
        let mut lsu = Lsu::new(5, 8);
        let mut p = port();
        // Stores to distinct lines keep long completion times (misses).
        let mut stalled = false;
        for k in 0..12 {
            match lsu.store(0, k * 0x1000, DPolicy::Cached, &mut p, 0, &mut NullSink) {
                Ok(_) => {}
                Err(_) => {
                    stalled = true;
                    break;
                }
            }
        }
        assert!(stalled, "store buffer must fill");
        assert!(lsu.stores_in_flight() <= 8);
        assert!(lsu.stats.store_buf_peak <= 8);
    }

    #[test]
    fn quiesce_covers_everything() {
        let mut lsu = Lsu::new(5, 8);
        let mut p = port();
        let l = lsu.load(0, 0x100, DPolicy::Cached, &mut p, 0, &mut NullSink).unwrap();
        let s = lsu.store(0, 0x2000, DPolicy::Cached, &mut p, 0, &mut NullSink).unwrap();
        assert_eq!(lsu.quiesce_time(), l.max(s));
    }

    #[test]
    fn port_serializes_accesses() {
        let mut lsu = Lsu::new(5, 8);
        let mut p = port();
        // Warm the line so both loads hit.
        let warm = lsu.load(0, 0, DPolicy::Cached, &mut p, 0, &mut NullSink).unwrap();
        let t = warm + 1;
        let a = lsu.load(t, 0, DPolicy::Cached, &mut p, 0, &mut NullSink).unwrap();
        let b = lsu.load(t, 4, DPolicy::Cached, &mut p, 0, &mut NullSink).unwrap();
        assert_eq!(b, a + 1, "one port: second same-cycle load is a cycle later");
    }

    #[test]
    fn transactions_and_retries_are_reported() {
        use crate::events::MemSink;
        let mut lsu = Lsu::new(5, 8);
        let mut p = port();
        let mut sink = MemSink::unbounded();
        for i in 0..4 {
            lsu.load(0, i * 0x1000, DPolicy::Cached, &mut p, 0, &mut sink).unwrap();
        }
        // Fifth miss bounces off the full MSHR file.
        lsu.load(0, 4 * 0x1000, DPolicy::Cached, &mut p, 0, &mut sink).unwrap_err();
        let events = sink.take();
        let txns = events.iter().filter(|e| matches!(e, Event::MemTxn { .. })).count();
        assert_eq!(txns, 4);
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::MemRetry { reason: RetryReason::Mshr, .. })));
        // Tags come from the LSU space and count up.
        let tags: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::MemTxn { tag, .. } => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(tags, (LSU_TAG_BASE..LSU_TAG_BASE + 4).collect::<Vec<_>>());
        // The bounced attempt took a tag too: the next transaction follows it.
        lsu.load(lsu.quiesce_time(), 0x40, DPolicy::Cached, &mut p, 0, &mut sink).unwrap();
        assert!(matches!(sink.take()[..], [Event::MemTxn { tag, .. }] if tag == LSU_TAG_BASE + 5));
    }
}
