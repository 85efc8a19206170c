//! Deterministic transient-fault injection.
//!
//! Real MAJC-5200 silicon must survive transient faults: parity-protected
//! cache lines, Rambus transfer retries, and arbitration NACKs at the
//! crossbar. This module provides a seeded, fully deterministic fault
//! source so those recovery paths can be exercised end-to-end and the
//! exact same fault sequence replayed from a seed.
//!
//! A [`FaultPlan`] names the sites and their rates; each component owns a
//! [`FaultInjector`] derived from the plan's master seed and the site name,
//! rolls it once per opportunity (fetch, access, transfer, grant), and logs
//! every fault that lands as a [`FaultEvent`]. Because the simulators are
//! deterministic, the same seed reproduces the identical event trace.

use majc_isa::{SplitMix64, XorShift64};

/// Named injection sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Bit flip in an I-cache line, caught by per-line parity on fetch.
    ICacheParity,
    /// Bit flip in a D-cache line, caught by per-line parity on access.
    DCacheParity,
    /// DRDRAM transfer error; the memory controller retries with backoff.
    DramTransfer,
    /// Dropped/NACKed crossbar grant; the requester re-arbitrates.
    XbarNack,
}

impl FaultSite {
    const fn salt(self) -> u64 {
        match self {
            FaultSite::ICacheParity => 0x1C,
            FaultSite::DCacheParity => 0xDC,
            FaultSite::DramTransfer => 0xD7,
            FaultSite::XbarNack => 0x4B,
        }
    }

    pub const fn name(self) -> &'static str {
        match self {
            FaultSite::ICacheParity => "icache-parity",
            FaultSite::DCacheParity => "dcache-parity",
            FaultSite::DramTransfer => "dram-transfer",
            FaultSite::XbarNack => "xbar-nack",
        }
    }
}

/// One fault that actually landed, for audit and replay comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    pub site: FaultSite,
    /// Per-site injection sequence number.
    pub seq: u64,
    /// Simulated cycle of the opportunity the fault landed on.
    pub now: u64,
    /// Address involved (line, transfer, or grant address).
    pub addr: u32,
}

/// A per-site deterministic fault source with an event log.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    site: FaultSite,
    rng: XorShift64,
    /// Inject on roughly one in `rate` opportunities; 0 disables.
    rate: u64,
    seq: u64,
    pub events: Vec<FaultEvent>,
}

impl FaultInjector {
    pub fn new(site: FaultSite, seed: u64, rate: u64) -> FaultInjector {
        // xorshift64 from a SplitMix64-scrambled seed, so nearby seeds
        // diverge and zero is legal.
        let mut scramble = SplitMix64::new(seed ^ site.salt().wrapping_mul(0x9E37_79B9_7F4A_7C15));
        FaultInjector {
            site,
            rng: XorShift64::new(scramble.next_u64() | 1),
            rate,
            seq: 0,
            events: Vec::new(),
        }
    }

    pub fn site(&self) -> FaultSite {
        self.site
    }

    /// Advance the RNG for one opportunity; true when a fault is injected.
    /// Callers that can tell whether the fault *lands* (e.g. the flipped
    /// line was resident) should pair this with [`FaultInjector::record`];
    /// callers where every injection lands can use [`FaultInjector::fires`].
    #[inline]
    pub fn roll(&mut self) -> bool {
        self.rate != 0 && self.rng.next_u64().is_multiple_of(self.rate)
    }

    /// Log a fault that landed.
    pub fn record(&mut self, now: u64, addr: u32) {
        self.events.push(FaultEvent { site: self.site, seq: self.seq, now, addr });
        self.seq += 1;
    }

    /// Roll and, on injection, log the event.
    #[inline]
    pub fn fires(&mut self, now: u64, addr: u32) -> bool {
        let hit = self.roll();
        if hit {
            self.record(now, addr);
        }
        hit
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.seq
    }
}

/// A seeded description of which faults to inject where.
///
/// Rates are "one in N opportunities" (0 disables a site). Per-site RNG
/// streams are derived from the master seed, so enabling one site never
/// perturbs another site's sequence.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    pub seed: u64,
    pub icache_parity: u64,
    pub dcache_parity: u64,
    pub dram_transfer: u64,
    pub xbar_nack: u64,
}

impl FaultPlan {
    /// All sites disabled.
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan { seed, icache_parity: 0, dcache_parity: 0, dram_transfer: 0, xbar_nack: 0 }
    }

    /// Rates aggressive enough that short kernel runs see every site fire.
    pub fn soak(seed: u64) -> FaultPlan {
        FaultPlan { seed, icache_parity: 64, dcache_parity: 64, dram_transfer: 8, xbar_nack: 8 }
    }

    fn rate(&self, site: FaultSite) -> u64 {
        match site {
            FaultSite::ICacheParity => self.icache_parity,
            FaultSite::DCacheParity => self.dcache_parity,
            FaultSite::DramTransfer => self.dram_transfer,
            FaultSite::XbarNack => self.xbar_nack,
        }
    }

    /// The injector for one site, or `None` when the site is disabled.
    pub fn injector(&self, site: FaultSite) -> Option<FaultInjector> {
        let rate = self.rate(site);
        (rate != 0).then(|| FaultInjector::new(site, self.seed, rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_is_deterministic_and_logs() {
        let plan = FaultPlan::soak(7);
        let mut i1 = plan.injector(FaultSite::DramTransfer).unwrap();
        let mut i2 = plan.injector(FaultSite::DramTransfer).unwrap();
        for k in 0..1000u64 {
            assert_eq!(i1.fires(k, k as u32), i2.fires(k, k as u32));
        }
        assert!(i1.injected() > 0, "soak rate must fire within 1000 rolls");
        assert_eq!(i1.events, i2.events);
    }

    #[test]
    fn sites_have_independent_streams() {
        let plan = FaultPlan::soak(7);
        let mut d = plan.injector(FaultSite::DramTransfer).unwrap();
        let mut x = plan.injector(FaultSite::XbarNack).unwrap();
        let dv: Vec<bool> = (0..256).map(|_| d.roll()).collect();
        let xv: Vec<bool> = (0..256).map(|_| x.roll()).collect();
        assert_ne!(dv, xv);
    }

    #[test]
    fn quiet_plan_has_no_injectors() {
        let plan = FaultPlan::quiet(1);
        assert!(plan.injector(FaultSite::ICacheParity).is_none());
    }
}
