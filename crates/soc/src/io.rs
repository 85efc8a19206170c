//! External interfaces (paper §3.1): the 32-bit/66 MHz PCI controller
//! (264 MB/s), and the North/South UPA ports (64-bit at 250 MHz, 2 GB/s
//! each, 4 GB/s combined).
//!
//! Links are modelled as serial channels with a bytes-per-CPU-cycle rate
//! and an occupancy clock; DMA through them composes link time with the
//! crossbar/DRAM time.

/// A serial link with fixed peak bandwidth.
#[derive(Clone, Debug)]
pub struct Link {
    pub name: &'static str,
    /// Peak bytes per 500 MHz CPU cycle.
    pub bytes_per_cycle: f64,
    free_at: u64,
    pub bytes_moved: u64,
    pub busy_cycles: u64,
}

impl Link {
    /// PCI: 264 MB/s at 500 MHz = 0.528 B/cycle.
    pub fn pci() -> Link {
        Link { name: "PCI", bytes_per_cycle: 0.528, free_at: 0, bytes_moved: 0, busy_cycles: 0 }
    }

    /// One UPA port: 64 bits at 250 MHz = 2 GB/s = 4 B/cycle.
    pub fn upa(name: &'static str) -> Link {
        Link { name, bytes_per_cycle: 4.0, free_at: 0, bytes_moved: 0, busy_cycles: 0 }
    }

    /// Peak bandwidth in GB/s at a core clock.
    pub fn peak_gbps(&self, clock_hz: f64) -> f64 {
        self.bytes_per_cycle * clock_hz / 1e9
    }

    /// Occupy the link for `bytes`; returns the completion cycle.
    pub fn transfer(&mut self, now: u64, bytes: u32) -> u64 {
        let start = now.max(self.free_at);
        let dur = (bytes as f64 / self.bytes_per_cycle).ceil() as u64;
        self.free_at = start + dur;
        self.bytes_moved += bytes as u64;
        self.busy_cycles += dur;
        self.free_at
    }

    /// Achieved bandwidth in bytes/cycle over an elapsed window.
    pub fn achieved(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.bytes_moved as f64 / elapsed as f64
        }
    }

    pub fn reset(&mut self) {
        self.free_at = 0;
        self.bytes_moved = 0;
        self.busy_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_peak_bandwidths() {
        assert!((Link::pci().peak_gbps(500e6) - 0.264).abs() < 1e-3);
        assert!((Link::upa("NUPA").peak_gbps(500e6) - 2.0).abs() < 1e-9);
        // North + South UPA combined: 4.0 GB/s (paper: "up to 4.0 GB/s").
        let combined = Link::upa("NUPA").peak_gbps(500e6) + Link::upa("SUPA").peak_gbps(500e6);
        assert!((combined - 4.0).abs() < 1e-9);
        // Aggregate peak I/O: UPA 4.0 + PCI 0.264 + DRDRAM 1.6 > 4.8 GB/s.
        let aggregate = combined + 0.264 + 1.6;
        assert!(aggregate > 4.8, "paper: more than 4.8 GB/s, got {aggregate}");
    }

    #[test]
    fn link_serialises_transfers() {
        let mut l = Link::upa("NUPA");
        let t1 = l.transfer(0, 64); // 16 cycles
        assert_eq!(t1, 16);
        let t2 = l.transfer(0, 64);
        assert_eq!(t2, 32, "back-to-back transfers queue");
        assert!((l.achieved(32) - 4.0).abs() < 1e-9, "sustains peak");
    }
}
