//! Per-CPU instruction cache.
//!
//! Each MAJC-5200 CPU has its own two-way set-associative 16 KB instruction
//! cache (paper §3.1); the fetch stage brings in 32-byte-aligned data
//! (§3.2). The front end stalls on a miss, so a single outstanding fill
//! suffices.

use crate::dcache::Served;
use crate::dram::MemBackend;
use crate::fault::FaultInjector;
use crate::tags::{CacheStats, TagArray, Victim};

/// I-cache configuration.
#[derive(Clone, Copy, Debug)]
pub struct ICacheConfig {
    pub size_bytes: usize,
    pub ways: usize,
    pub line_bytes: usize,
    /// Fetch latency on a hit (line available same cycle; the fetch stage
    /// itself is the pipeline cost).
    pub hit_lat: u64,
    /// Cycles from miss detection to the request reaching the backend.
    pub miss_overhead: u64,
}

impl Default for ICacheConfig {
    fn default() -> ICacheConfig {
        ICacheConfig {
            size_bytes: 16 * 1024,
            ways: 2,
            line_bytes: 32,
            hit_lat: 0,
            miss_overhead: 1,
        }
    }
}

/// Instruction-cache timing model (tags only; instructions come from the
/// decoded [`majc-isa` `Program`] image).
#[derive(Clone, Debug)]
pub struct ICache {
    cfg: ICacheConfig,
    tags: TagArray,
    /// Parity bit-flip source (None = fault-free).
    pub fault: Option<FaultInjector>,
}

impl ICache {
    pub fn new(cfg: ICacheConfig) -> ICache {
        ICache { tags: TagArray::new(cfg.size_bytes, cfg.ways, cfg.line_bytes), cfg, fault: None }
    }

    pub fn config(&self) -> &ICacheConfig {
        &self.cfg
    }

    pub fn stats(&self) -> &CacheStats {
        &self.tags.stats
    }

    pub fn line_bytes(&self) -> u32 {
        self.tags.line_bytes()
    }

    /// Fetch the 32-byte line containing `addr`; returns the cycle the
    /// line is available to the aligner and whether it hit or missed.
    pub fn fetch(&mut self, now: u64, addr: u32, backend: &mut dyn MemBackend) -> (u64, Served) {
        // Fault injection: a bit flip lands on the fetched line if it is
        // resident. Instruction lines are always clean, so a parity error
        // is recovered transparently by invalidate-and-refill.
        if let Some(f) = self.fault.as_mut() {
            if f.roll() && self.tags.poison(addr) {
                f.record(now, addr);
            }
        }
        if self.tags.take_parity_error(addr).is_some() {
            self.tags.stats.parity_recoveries += 1;
        }
        if self.tags.access(addr, false) {
            return (now + self.cfg.hit_lat, Served::Hit);
        }
        let line = self.tags.line_addr(addr);
        let done =
            backend.backend_read(now + self.cfg.miss_overhead, line, self.cfg.line_bytes as u32);
        // Instruction lines are never dirty here; should one ever be (a
        // future unified-cache experiment), write it back rather than
        // asserting.
        if let Victim::Dirty(victim) = self.tags.fill(line, false) {
            backend.backend_write(now + self.cfg.miss_overhead, victim, self.cfg.line_bytes as u32);
        }
        (done, Served::Miss)
    }

    /// Cold-start the cache.
    pub fn clear(&mut self) {
        self.tags.clear();
    }
}

impl Default for ICache {
    fn default() -> ICache {
        ICache::new(ICacheConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::PerfectMem;

    #[test]
    fn hit_after_miss() {
        let mut ic = ICache::default();
        let mut p = PerfectMem { latency: 30 };
        let (t, served) = ic.fetch(0, 0x1000, &mut p);
        assert_eq!((t, served), (31, Served::Miss));
        let (t, served) = ic.fetch(t, 0x1010, &mut p); // same 32 B line
        assert_eq!(t, 31, "hit is free beyond the pipeline fetch stage");
        assert_eq!(served, Served::Hit);
        assert_eq!(ic.stats().hits, 1);
        assert_eq!(ic.stats().misses, 1);
    }

    #[test]
    fn parity_error_refills_transparently() {
        use crate::fault::{FaultInjector, FaultSite};
        let mut ic = ICache::default();
        let mut p = PerfectMem { latency: 30 };
        ic.fetch(0, 0x2000, &mut p);
        ic.fault = Some(FaultInjector::new(FaultSite::ICacheParity, 1, 1));
        let (t, _) = ic.fetch(100, 0x2000, &mut p);
        assert_eq!(t, 131, "recovery pays a full refill");
        assert_eq!(ic.stats().parity_recoveries, 1);
        ic.fault = None;
        let (t, _) = ic.fetch(t, 0x2000, &mut p);
        assert_eq!(t, 131, "refilled line hits again");
    }

    #[test]
    fn capacity_eviction() {
        let mut ic = ICache::default();
        let mut p = PerfectMem::default();
        // 16 KB, 2-way, 32 B lines => 256 sets; set stride = 8 KB.
        ic.fetch(0, 0, &mut p);
        ic.fetch(0, 8 * 1024, &mut p);
        ic.fetch(0, 16 * 1024, &mut p); // evicts LRU (addr 0)
        ic.fetch(0, 0, &mut p);
        assert_eq!(ic.stats().misses, 4);
    }
}
