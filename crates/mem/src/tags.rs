//! Generic set-associative tag array with true-LRU replacement.
//!
//! Timing-only: the array tracks which lines are resident and dirty; data
//! lives in [`crate::FlatMem`].

/// Statistics accumulated by a tag array.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub writebacks: u64,
    /// Clean lines dropped and refilled after a parity error.
    pub parity_recoveries: u64,
}

impl CacheStats {
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Way {
    tag: u32,
    valid: bool,
    dirty: bool,
    /// A transient fault flipped a bit in this line; the next access's
    /// parity check will catch it.
    parity_bad: bool,
    /// LRU timestamp; larger = more recent.
    stamp: u64,
}

/// What a fill displaced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Victim {
    /// Invalid way used; nothing displaced.
    None,
    /// Clean line displaced (silent drop).
    Clean(u32),
    /// Dirty line displaced; the address must be written back.
    Dirty(u32),
}

/// A set-associative tag array.
#[derive(Clone, Debug)]
pub struct TagArray {
    sets: usize,
    ways: usize,
    line_shift: u32,
    data: Vec<Way>,
    tick: u64,
    /// Ways with `parity_bad` set. While it is zero — always, unless a
    /// fault plan is armed — the parity check skips its scan.
    poisoned: usize,
    pub stats: CacheStats,
}

impl TagArray {
    /// `size_bytes` capacity with `ways` associativity and `line_bytes`
    /// lines. All three must be powers of two.
    pub fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> TagArray {
        assert!(size_bytes.is_power_of_two() && line_bytes.is_power_of_two());
        assert!(ways.is_power_of_two() && size_bytes >= ways * line_bytes);
        let sets = size_bytes / (ways * line_bytes);
        TagArray {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            data: vec![Way::default(); sets * ways],
            tick: 0,
            poisoned: 0,
            stats: CacheStats::default(),
        }
    }

    #[inline]
    pub fn line_bytes(&self) -> u32 {
        1 << self.line_shift
    }

    #[inline]
    pub fn sets(&self) -> usize {
        self.sets
    }

    #[inline]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Align an address down to its line.
    #[inline]
    pub fn line_addr(&self, addr: u32) -> u32 {
        addr & !((1u32 << self.line_shift) - 1)
    }

    #[inline]
    fn set_of(&self, addr: u32) -> usize {
        ((addr >> self.line_shift) as usize) & (self.sets - 1)
    }

    #[inline]
    fn tag_of(&self, addr: u32) -> u32 {
        addr >> self.line_shift >> self.sets.trailing_zeros()
    }

    /// Probe for `addr`; on hit, refresh LRU and optionally mark dirty.
    /// Records hit/miss statistics.
    pub fn access(&mut self, addr: u32, write: bool) -> bool {
        let hit = self.touch(addr, write);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Probe without recording statistics (used for retries and merges).
    pub fn probe(&self, addr: u32) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        self.data[set * self.ways..(set + 1) * self.ways].iter().any(|w| w.valid && w.tag == tag)
    }

    fn touch(&mut self, addr: u32, write: bool) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        self.tick += 1;
        let tick = self.tick;
        for w in &mut self.data[set * self.ways..(set + 1) * self.ways] {
            if w.valid && w.tag == tag {
                w.stamp = tick;
                w.dirty |= write;
                return true;
            }
        }
        false
    }

    /// Install the line containing `addr`, evicting the LRU way.
    pub fn fill(&mut self, addr: u32, dirty: bool) -> Victim {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        self.tick += 1;
        let tick = self.tick;
        let base = set * self.ways;
        // Prefer an invalid way.
        if let Some(w) = self.data[base..base + self.ways].iter_mut().find(|w| !w.valid) {
            // An invalidated way may still carry a stale parity flag.
            self.poisoned -= usize::from(w.parity_bad);
            *w = Way { tag, valid: true, dirty, parity_bad: false, stamp: tick };
            return Victim::None;
        }
        // `ways >= 1` is asserted in `new`, so the minimum always exists.
        let lru = self.data[base..base + self.ways]
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.stamp)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let w = &mut self.data[base + lru];
        let victim_addr = (w.tag << self.sets.trailing_zeros() | set as u32) << self.line_shift;
        let victim = if w.dirty {
            self.stats.writebacks += 1;
            Victim::Dirty(victim_addr)
        } else {
            Victim::Clean(victim_addr)
        };
        self.stats.evictions += 1;
        self.poisoned -= usize::from(w.parity_bad);
        *w = Way { tag, valid: true, dirty, parity_bad: false, stamp: tick };
        victim
    }

    /// Drop the line containing `addr` if present, returning whether it was
    /// dirty.
    pub fn invalidate(&mut self, addr: u32) -> Option<bool> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        for w in &mut self.data[set * self.ways..(set + 1) * self.ways] {
            if w.valid && w.tag == tag {
                w.valid = false;
                return Some(w.dirty);
            }
        }
        None
    }

    /// Flip a bit in the line containing `addr` (fault injection). Returns
    /// whether the flip landed on a resident line; the damage is caught by
    /// the parity check on the next access.
    pub fn poison(&mut self, addr: u32) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        for w in &mut self.data[set * self.ways..(set + 1) * self.ways] {
            if w.valid && w.tag == tag {
                self.poisoned += usize::from(!w.parity_bad);
                w.parity_bad = true;
                return true;
            }
        }
        false
    }

    /// Parity check for the line containing `addr`. A bad line is dropped
    /// (caches refill clean lines from memory); returns `Some(dirty)` when
    /// a parity error was consumed — a dirty line's contents are lost, so
    /// callers must escalate that case.
    pub fn take_parity_error(&mut self, addr: u32) -> Option<bool> {
        if self.poisoned == 0 {
            return None;
        }
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        for w in &mut self.data[set * self.ways..(set + 1) * self.ways] {
            if w.valid && w.tag == tag {
                if !w.parity_bad {
                    return None;
                }
                w.valid = false;
                w.parity_bad = false;
                self.poisoned -= 1;
                return Some(w.dirty);
            }
        }
        None
    }

    /// Invalidate everything (cold-start between benchmark runs).
    pub fn clear(&mut self) {
        for w in &mut self.data {
            w.valid = false;
            w.dirty = false;
            w.parity_bad = false;
        }
        self.poisoned = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        // The MAJC-5200 D-cache: 16 KB, 4-way, 32 B lines => 128 sets.
        let t = TagArray::new(16 * 1024, 4, 32);
        assert_eq!(t.sets(), 128);
        assert_eq!(t.line_bytes(), 32);
        // The I-cache: 16 KB, 2-way => 256 sets.
        let t = TagArray::new(16 * 1024, 2, 32);
        assert_eq!(t.sets(), 256);
    }

    #[test]
    fn hit_after_fill() {
        let mut t = TagArray::new(1024, 2, 32);
        assert!(!t.access(0x40, false));
        t.fill(0x40, false);
        assert!(t.access(0x44, false)); // same line
        assert!(!t.access(0x80, false)); // different set? 0x80>>5 = 4, set 4 of 16
        assert_eq!(t.stats.hits, 1);
        assert_eq!(t.stats.misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = TagArray::new(4 * 32 * 2, 2, 32); // 4 sets, 2 ways
        let set_stride = 4 * 32; // addresses mapping to set 0
        t.fill(0, false);
        t.fill(set_stride as u32, false);
        // Touch line 0 so the second line becomes LRU.
        assert!(t.access(0, false));
        let v = t.fill(2 * set_stride as u32, false);
        assert_eq!(v, Victim::Clean(set_stride as u32));
        assert!(t.probe(0));
        assert!(!t.probe(set_stride as u32));
    }

    #[test]
    fn dirty_writeback() {
        let mut t = TagArray::new(64, 2, 32); // 1 set, 2 ways
        t.fill(0, false);
        assert!(t.access(0, true)); // dirty it
        t.fill(32, false);
        let v = t.fill(64, false);
        assert_eq!(v, Victim::Dirty(0));
        assert_eq!(t.stats.writebacks, 1);
    }

    #[test]
    fn parity_poison_and_recovery() {
        let mut t = TagArray::new(1024, 2, 32);
        assert!(!t.poison(0x200), "flip on a non-resident line does not land");
        t.fill(0x200, false);
        assert!(t.poison(0x200));
        assert_eq!(t.take_parity_error(0x200), Some(false), "clean line recoverable");
        assert!(!t.probe(0x200), "bad line dropped");
        assert_eq!(t.take_parity_error(0x200), None);
        // Dirty line: the error reports dirtiness so callers can escalate.
        t.fill(0x200, true);
        assert!(t.poison(0x200));
        assert_eq!(t.take_parity_error(0x200), Some(true));
        // Refilling clears parity state.
        t.fill(0x200, false);
        assert_eq!(t.take_parity_error(0x200), None);
    }

    #[test]
    fn poisoned_count_follows_every_parity_flag() {
        let mut t = TagArray::new(64, 2, 32); // 1 set, 2 ways
        t.fill(0, false);
        t.fill(32, false);
        assert!(t.poison(0) && t.poison(0), "a second flip on a bad line lands too");
        assert_eq!(t.poisoned, 1, "one bad line, counted once");
        // Invalidation keeps the stale flag; refilling the way clears it.
        assert_eq!(t.invalidate(0), Some(false));
        assert_eq!(t.poisoned, 1);
        assert_eq!(t.take_parity_error(0), None, "invalid lines fail no parity check");
        t.fill(64, false);
        assert_eq!(t.poisoned, 0);
        // Eviction of a bad line clears it as well.
        assert!(t.poison(32));
        t.fill(96, false);
        t.fill(128, false);
        assert!(!t.probe(32));
        assert_eq!(t.poisoned, 0);
        assert!(t.poison(96));
        t.clear();
        assert_eq!(t.poisoned, 0);
    }

    #[test]
    fn invalidate() {
        let mut t = TagArray::new(1024, 2, 32);
        t.fill(0x100, true);
        assert_eq!(t.invalidate(0x100), Some(true));
        assert_eq!(t.invalidate(0x100), None);
        assert!(!t.probe(0x100));
    }
}
