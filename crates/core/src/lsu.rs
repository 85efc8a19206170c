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
//! store draining, and barrier semantics. Each operation is a tagged
//! transaction on the [`MemPort`]: the LSU submits a [`MemReq`], the port
//! either rejects it (structural, retried) or answers with a [`MemResp`]
//! that the LSU matches by tag against its buffers — entries retire
//! individually as their completion cycle passes, which is how out-of-order
//! miss returns are modeled.
//!
//! Every operation takes the caller's [`TraceSink`]: transaction lifecycles
//! ([`Event::MemTxn`]) and structural bounces ([`Event::MemRetry`]) are
//! emitted here, keyed by the same tags the buffers match on.

use majc_mem::{DKind, DPolicy};

use crate::events::{Event, RetryReason, TraceSink};
use crate::txn::{MemPort, MemReq, MemResp, Reject, Tag};

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

/// One outstanding transaction in a load/store buffer.
#[derive(Clone, Copy, Debug)]
struct InFlight {
    #[allow(dead_code)] // identifies the entry in traces/debugging
    tag: Tag,
    /// Completion cycle carried by the matched response.
    done: u64,
}

/// Timing state of one CPU's LSU.
#[derive(Clone, Debug)]
pub struct Lsu {
    load_buf: usize,
    store_buf: usize,
    /// In-flight loads (out-of-order returns: entries retire individually
    /// as their data arrives).
    loads: Vec<InFlight>,
    /// Stores drained to the cache but not yet globally performed.
    stores: Vec<InFlight>,
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

    fn fresh_tag(&mut self) -> Tag {
        let t = self.next_tag;
        self.next_tag += 1;
        Tag(t)
    }

    fn reap(&mut self, now: u64) {
        self.loads.retain(|e| e.done > now);
        self.stores.retain(|e| e.done > now);
    }

    /// Outstanding loads (for microthreading decisions and tests).
    pub fn loads_in_flight(&self) -> usize {
        self.loads.len()
    }

    pub fn stores_in_flight(&self) -> usize {
        self.stores.len()
    }

    /// Drain the response queue until the reply tagged `want` arrives.
    /// Unclaimed prefetch replies encountered on the way are dropped (they
    /// are non-binding); anything else unclaimed is a port-protocol bug.
    fn collect(&mut self, port: &mut dyn MemPort, cpu: usize, want: Tag) -> MemResp {
        loop {
            let resp = port.pop_resp(cpu).expect("accepted request must produce a response");
            if resp.tag == want {
                return resp;
            }
            debug_assert_eq!(
                resp.kind,
                DKind::Prefetch,
                "only prefetch responses may go unclaimed"
            );
        }
    }

    fn data_req(&mut self, cpu: usize, addr: u32, kind: DKind, policy: DPolicy) -> MemReq {
        MemReq { cpu: cpu as u8, addr, kind, policy, tag: self.fresh_tag() }
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
            let retry = self.loads.iter().map(|e| e.done).min().unwrap_or(t + 1).max(t + 1);
            sink.emit(&Event::MemRetry {
                cpu: cpu as u8,
                addr,
                at: t,
                retry_at: retry,
                reason: RetryReason::LoadBuf,
            });
            return Err(LsuStall::Retry { retry_at: retry });
        }
        let at = t.max(self.port_next);
        let req = self.data_req(cpu, addr, DKind::Load, pol);
        match port.submit(at, req) {
            Ok(()) => {
                let resp = self.collect(port, cpu, req.tag);
                match resp.completion {
                    crate::txn::Completion::Done { at: avail } => {
                        self.port_next = at + 1;
                        self.loads.push(InFlight { tag: req.tag, done: avail });
                        self.stats.loads += 1;
                        self.stats.load_buf_peak =
                            self.stats.load_buf_peak.max(self.loads.len() as u64);
                        sink.emit(&Event::MemTxn {
                            cpu: cpu as u8,
                            tag: req.tag.0,
                            addr,
                            kind: DKind::Load,
                            served: resp.served,
                            at,
                            done: avail,
                            fault: false,
                        });
                        Ok(avail)
                    }
                    crate::txn::Completion::Fault => {
                        sink.emit(&Event::MemTxn {
                            cpu: cpu as u8,
                            tag: req.tag.0,
                            addr,
                            kind: DKind::Load,
                            served: resp.served,
                            at,
                            done: at,
                            fault: true,
                        });
                        Err(LsuStall::DataError)
                    }
                }
            }
            Err(Reject { retry_at }) => {
                self.stats.mshr_stalls += 1;
                sink.emit(&Event::MemRetry {
                    cpu: cpu as u8,
                    addr,
                    at,
                    retry_at,
                    reason: RetryReason::Mshr,
                });
                Err(LsuStall::Retry { retry_at })
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
            let retry = self.stores.iter().map(|e| e.done).min().unwrap_or(t + 1).max(t + 1);
            sink.emit(&Event::MemRetry {
                cpu: cpu as u8,
                addr,
                at: t,
                retry_at: retry,
                reason: RetryReason::StoreBuf,
            });
            return Err(LsuStall::Retry { retry_at: retry });
        }
        // Drain: first port slot after issue.
        let mut at = (t + 1).max(self.port_next);
        for _ in 0..100_000 {
            let req = self.data_req(cpu, addr, DKind::Store, pol);
            match port.submit(at, req) {
                Ok(()) => {
                    let resp = self.collect(port, cpu, req.tag);
                    match resp.completion {
                        crate::txn::Completion::Done { at: done } => {
                            self.port_next = at + 1;
                            let done = done.max(at);
                            self.stores.push(InFlight { tag: req.tag, done });
                            self.stats.stores += 1;
                            self.stats.store_buf_peak =
                                self.stats.store_buf_peak.max(self.stores.len() as u64);
                            sink.emit(&Event::MemTxn {
                                cpu: cpu as u8,
                                tag: req.tag.0,
                                addr,
                                kind: DKind::Store,
                                served: resp.served,
                                at,
                                done,
                                fault: false,
                            });
                            return Ok(done);
                        }
                        crate::txn::Completion::Fault => {
                            sink.emit(&Event::MemTxn {
                                cpu: cpu as u8,
                                tag: req.tag.0,
                                addr,
                                kind: DKind::Store,
                                served: resp.served,
                                at,
                                done: at,
                                fault: true,
                            });
                            return Err(LsuStall::DataError);
                        }
                    }
                }
                Err(Reject { retry_at }) => {
                    sink.emit(&Event::MemRetry {
                        cpu: cpu as u8,
                        addr,
                        at,
                        retry_at,
                        reason: RetryReason::Mshr,
                    });
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
        let req = self.data_req(cpu, addr, DKind::Atomic, DPolicy::Cached);
        match port.submit(at, req) {
            Ok(()) => {
                let resp = self.collect(port, cpu, req.tag);
                match resp.completion {
                    crate::txn::Completion::Done { at: avail } => {
                        self.port_next = at + 1;
                        self.loads.push(InFlight { tag: req.tag, done: avail });
                        self.stats.atomics += 1;
                        self.stats.load_buf_peak =
                            self.stats.load_buf_peak.max(self.loads.len() as u64);
                        sink.emit(&Event::MemTxn {
                            cpu: cpu as u8,
                            tag: req.tag.0,
                            addr,
                            kind: DKind::Atomic,
                            served: resp.served,
                            at,
                            done: avail,
                            fault: false,
                        });
                        Ok(avail)
                    }
                    crate::txn::Completion::Fault => {
                        sink.emit(&Event::MemTxn {
                            cpu: cpu as u8,
                            tag: req.tag.0,
                            addr,
                            kind: DKind::Atomic,
                            served: resp.served,
                            at,
                            done: at,
                            fault: true,
                        });
                        Err(LsuStall::DataError)
                    }
                }
            }
            Err(Reject { retry_at }) => {
                self.stats.mshr_stalls += 1;
                sink.emit(&Event::MemRetry {
                    cpu: cpu as u8,
                    addr,
                    at,
                    retry_at,
                    reason: RetryReason::Mshr,
                });
                Err(LsuStall::Retry { retry_at })
            }
        }
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
        let req = self.data_req(cpu, addr, DKind::Prefetch, DPolicy::Cached);
        // Dropped silently on structural conflicts (non-binding); the reply
        // is consumed and discarded — nothing waits on a prefetch.
        if port.submit(at, req).is_ok() {
            let resp = self.collect(port, cpu, req.tag);
            self.port_next = at + 1;
            let (done, fault) = match resp.completion {
                crate::txn::Completion::Done { at: d } => (d, false),
                crate::txn::Completion::Fault => (at, true),
            };
            sink.emit(&Event::MemTxn {
                cpu: cpu as u8,
                tag: req.tag.0,
                addr,
                kind: DKind::Prefetch,
                served: resp.served,
                at,
                done,
                fault,
            });
        }
    }

    /// Cycle by which every outstanding load and store completes — the
    /// memory-barrier wait condition.
    pub fn quiesce_time(&self) -> u64 {
        self.loads.iter().chain(self.stores.iter()).map(|e| e.done).max().unwrap_or(0)
    }
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
        let first = events.iter().find_map(|e| match e {
            Event::MemTxn { tag, .. } => Some(*tag),
            _ => None,
        });
        assert_eq!(first, Some(LSU_TAG_BASE));
    }
}
