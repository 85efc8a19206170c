//! Standalone (single-CPU) implementations of the memory-transaction port.
//!
//! The SoC crate provides the dual-CPU implementation in which both CPUs
//! share the dual-ported D-cache and reach DRAM through the crossbar;
//! these backends serve a lone core and the idealised "without memory
//! effects" accounting. All of them speak [`MemPort`], so [`crate::CycleSim`]
//! stays generic over the memory system.

use majc_mem::{
    DCache, DCacheConfig, DStall, Dram, DramConfig, FaultEvent, FaultPlan, FaultSite, FlatMem,
    ICache, ICacheConfig, MemBackend, PerfectMem, Served,
};

use crate::events::Event;
use crate::txn::{Completion, MemLevelStats, MemPort, MemReq, MemResp, Reject};

/// Backend selection for the standalone memory system.
///
/// The DRDRAM model is much larger than the ideal one, but a `Backend`
/// is held exactly once per memory system, so boxing would only add an
/// indirection on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Backend {
    /// The DRDRAM channel model.
    Dram(Dram),
    /// Fixed-latency ideal memory (the paper's "without memory effects").
    Perfect(PerfectMem),
}

impl MemBackend for Backend {
    fn backend_read(&mut self, now: u64, addr: u32, bytes: u32) -> u64 {
        match self {
            Backend::Dram(d) => d.backend_read(now, addr, bytes),
            Backend::Perfect(p) => p.backend_read(now, addr, bytes),
        }
    }

    fn backend_write(&mut self, now: u64, addr: u32, bytes: u32) -> u64 {
        match self {
            Backend::Dram(d) => d.backend_write(now, addr, bytes),
            Backend::Perfect(p) => p.backend_write(now, addr, bytes),
        }
    }
}

/// A single CPU's private memory system: its I-cache, the (here
/// single-client) D-cache, a backend, and the flat store.
#[derive(Debug)]
pub struct LocalMemSys {
    pub icache: ICache,
    pub dcache: DCache,
    pub backend: Backend,
    pub mem: FlatMem,
}

impl LocalMemSys {
    /// The MAJC-5200 configuration: 16 KB caches over a 1.6 GB/s DRDRAM.
    pub fn majc5200() -> LocalMemSys {
        LocalMemSys {
            icache: ICache::new(ICacheConfig::default()),
            dcache: DCache::new(DCacheConfig::default()),
            backend: Backend::Dram(Dram::new(DramConfig::default())),
            mem: FlatMem::new(),
        }
    }

    /// Real caches over an idealised zero-latency backend.
    pub fn perfect_dram() -> LocalMemSys {
        LocalMemSys { backend: Backend::Perfect(PerfectMem::default()), ..LocalMemSys::majc5200() }
    }

    pub fn with_mem(mut self, mem: FlatMem) -> LocalMemSys {
        self.mem = mem;
        self
    }

    /// Arm deterministic fault injection at every site this memory system
    /// owns (I-cache and D-cache parity, DRDRAM transfer errors).
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        self.icache.fault = plan.injector(FaultSite::ICacheParity);
        self.dcache.fault = plan.injector(FaultSite::DCacheParity);
        if let Backend::Dram(d) = &mut self.backend {
            d.fault = plan.injector(FaultSite::DramTransfer);
        }
    }

    /// Every fault event injected so far, across all armed sites, in a
    /// stable site order — borrowed, no allocation (the deterministic
    /// injection trace).
    pub fn fault_events_iter(&self) -> impl Iterator<Item = &FaultEvent> + '_ {
        let dram_fault = match &self.backend {
            Backend::Dram(d) => d.fault.as_ref(),
            Backend::Perfect(_) => None,
        };
        [self.icache.fault.as_ref(), self.dcache.fault.as_ref(), dram_fault]
            .into_iter()
            .flatten()
            .flat_map(|f| f.events.iter())
    }

    /// Start a new measurement epoch: caches stay warm, but all in-flight
    /// timing state (outstanding fills, the DRAM channel clock) is
    /// completed/rewound so simulated time can restart at zero.
    pub fn new_epoch(&mut self) {
        self.dcache.drain(&mut self.backend);
        if let Backend::Dram(d) = &mut self.backend {
            d.reset_time();
        }
    }

    /// Turn on the opt-in deep-component logs ([`Self::drain_events`]
    /// harvests them). Only the DRDRAM backend has one here.
    pub fn enable_logs(&mut self) {
        if let Backend::Dram(d) = &mut self.backend {
            d.log = Some(Vec::new());
        }
    }

    /// Harvest the deep-component logs (DRDRAM busy spans, injected
    /// faults) as typed events, sorted by timestamp. Call once, after the
    /// run: span logs are *taken* (subsequent calls return only new spans),
    /// while fault events — owned by the injectors — are copied each time.
    pub fn drain_events(&mut self) -> Vec<Event> {
        let mut out: Vec<Event> = Vec::new();
        if let Backend::Dram(d) = &mut self.backend {
            if let Some(log) = &mut d.log {
                out.extend(std::mem::take(log).into_iter().map(Event::from_dram_span));
            }
        }
        out.extend(self.fault_events_iter().map(Event::from_fault));
        out.sort_by_key(Event::timestamp);
        out
    }
}

impl MemPort for LocalMemSys {
    fn mem(&mut self) -> &mut FlatMem {
        &mut self.mem
    }

    fn fetch_line(&mut self, now: u64, _cpu: usize, line: u32) -> (u64, Served) {
        self.icache.fetch(now, line, &mut self.backend)
    }

    fn submit(&mut self, now: u64, req: MemReq) -> Result<MemResp, Reject> {
        let completion =
            match self.dcache.access(now, 0, req.addr, req.kind, req.policy, &mut self.backend) {
                Ok(at) => Completion::Done { at },
                Err(DStall::MshrFull) => return Err(Reject { retry_at: now + 1 }),
                Err(DStall::DataError) => Completion::Fault,
            };
        Ok(MemResp { completion, served: self.dcache.last_served })
    }

    fn level_stats(&self, _cpu: usize) -> MemLevelStats {
        let ic = self.icache.stats();
        let (grants, retries, busy) = match &self.backend {
            Backend::Dram(d) => {
                (d.stats.reads + d.stats.writes, d.stats.retries, d.stats.busy_cycles)
            }
            Backend::Perfect(_) => (0, 0, 0),
        };
        MemLevelStats {
            icache_hits: ic.hits,
            icache_misses: ic.misses,
            dcache_hits: self.dcache.port_hits[0],
            dcache_misses: self.dcache.port_misses[0],
            mshr_high_water: self.dcache.mshr_high_water as u64,
            xbar_grants: grants,
            xbar_retries: retries,
            dram_busy_cycles: busy,
            ..Default::default()
        }
    }
}

/// A fully ideal memory system: instructions always resident, every data
/// access a `load_use`-cycle hit. This is the strongest form of the
/// paper's "without memory effects" accounting.
#[derive(Debug)]
pub struct PerfectPort {
    pub load_use: u64,
    pub mem: FlatMem,
}

impl PerfectPort {
    pub fn new() -> PerfectPort {
        PerfectPort { load_use: 2, mem: FlatMem::new() }
    }

    pub fn with_mem(mut self, mem: FlatMem) -> PerfectPort {
        self.mem = mem;
        self
    }
}

impl Default for PerfectPort {
    fn default() -> PerfectPort {
        PerfectPort::new()
    }
}

impl MemPort for PerfectPort {
    fn mem(&mut self) -> &mut FlatMem {
        &mut self.mem
    }

    fn fetch_line(&mut self, now: u64, _cpu: usize, _line: u32) -> (u64, Served) {
        (now, Served::Bypass)
    }

    fn submit(&mut self, now: u64, req: MemReq) -> Result<MemResp, Reject> {
        use majc_mem::DKind;
        let at = match req.kind {
            DKind::Load | DKind::Atomic => now + self.load_use,
            DKind::Store | DKind::Prefetch => now,
        };
        Ok(MemResp { completion: Completion::Done { at }, served: Served::Bypass })
    }

    fn level_stats(&self, _cpu: usize) -> MemLevelStats {
        MemLevelStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use majc_mem::{DKind, DPolicy};

    fn req(addr: u32, kind: DKind) -> MemReq {
        MemReq { cpu: 0, addr, kind, policy: DPolicy::Cached }
    }

    fn done(r: Result<MemResp, Reject>) -> u64 {
        r.expect("accepted").completion.done().expect("no fault")
    }

    #[test]
    fn local_memsys_routes_to_caches() {
        let mut m = LocalMemSys::majc5200();
        let (t0, served) = m.fetch_line(0, 0, 0x100);
        assert!(t0 > 0 && served == Served::Miss, "cold I-cache misses");
        assert_eq!(m.fetch_line(t0, 0, 0x100), (t0, Served::Hit), "same line hits");
        let s = m.level_stats(0);
        assert_eq!((s.dcache_hits, s.dcache_misses), (0, 0), "fetches are not data transactions");

        let d0 = done(m.submit(0, req(0x2000, DKind::Load)));
        assert!(d0 > 2);
        assert_eq!(done(m.submit(d0, req(0x2004, DKind::Load))), d0 + 2, "2-cycle load-to-use");
    }

    #[test]
    fn each_accepted_request_returns_its_own_response() {
        let mut m = LocalMemSys::majc5200();
        let a = m.submit(0, req(0x1000, DKind::Load)).unwrap();
        let b = m.submit(0, req(0x2000, DKind::Load)).unwrap();
        assert_eq!((a.served, b.served), (Served::Miss, Served::Miss));
        // The second miss queues behind the first on the DRDRAM channel.
        let (da, db) = (a.completion.done().unwrap(), b.completion.done().unwrap());
        assert!(db > da, "{da} then {db}");
        // A hit accepted after both misses completes before either.
        let h = m.submit(da, req(0x1004, DKind::Load)).unwrap();
        assert_eq!((h.served, h.completion.done()), (Served::Hit, Some(da + 2)));
        assert!(da + 2 < db, "out-of-order return");
    }

    #[test]
    fn mshr_exhaustion_rejects() {
        let mut m = LocalMemSys::majc5200();
        for i in 0..4u32 {
            m.submit(0, req(i * 0x1000, DKind::Load)).unwrap();
        }
        assert_eq!(m.dcache.outstanding(), 4);
        let e = m.submit(0, req(0x9000, DKind::Load)).unwrap_err();
        assert_eq!(e, Reject { retry_at: 1 });
        assert_eq!(m.dcache.outstanding(), 4, "a rejected request occupies no MSHR");
    }

    #[test]
    fn perfect_port_is_flat() {
        let mut p = PerfectPort::new();
        assert_eq!(p.fetch_line(5, 0, 0xFFE0), (5, Served::Bypass));
        assert_eq!(done(p.submit(5, req(0, DKind::Load))), 7);
        assert_eq!(done(p.submit(5, req(0, DKind::Store))), 5);
    }

    #[test]
    fn level_stats_track_the_hierarchy() {
        let mut m = LocalMemSys::majc5200();
        let t = done(m.submit(0, req(0x2000, DKind::Load)));
        done(m.submit(t + 1, req(0x2004, DKind::Load)));
        let s = m.level_stats(0);
        assert_eq!((s.dcache_hits, s.dcache_misses), (1, 1));
        assert_eq!(s.mshr_high_water, 1);
        assert!(s.dram_busy_cycles > 0);
    }
}
