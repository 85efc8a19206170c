//! Flat backing store for the simulated physical address space.
//!
//! The simulator separates *data* from *timing*: architectural data always
//! lives here (so the shared D-cache is trivially coherent between the two
//! CPUs, as the real chip's single shared cache was), while the cache and
//! DRAM models track tags and cycle counts only.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
pub(crate) const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Page-number hasher: one multiply by an odd 64-bit constant, then a
/// rotate that brings the well-mixed high product bits down into the low
/// bits the table picks its bucket from. A bare multiply leaves the low
/// bits of `k << s` zero, so page numbers of region bases such as
/// `0x0100_0000` and `0x0200_0000` would share buckets.
///
/// The hash is unkeyed, so a chosen set of addresses could collide on
/// purpose; that is acceptable here because a job's page count is bounded
/// by its packet budget (a packet touches at most a few pages), so the
/// worst case is a slower job, never an unbounded one.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PageHasher(u64);

impl PageHasher {
    /// Picked from 20,000 seeded odd candidates for the best worst-case
    /// spread of page numbers `k << s` (s ≤ 16) over 6 to 12 low bits.
    const MUL: u64 = 0x8EA3_3D6A_E9F2_181D;
}

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, pn: u32) {
        self.0 = (u64::from(pn) ^ self.0).wrapping_mul(PageHasher::MUL).rotate_left(26);
    }
}

/// Sparse, paged 32-bit physical memory.
#[derive(Clone, Debug, Default)]
pub struct FlatMem {
    pages: HashMap<u32, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>,
}

impl FlatMem {
    pub fn new() -> FlatMem {
        FlatMem::default()
    }

    fn page(&mut self, pn: u32) -> &mut [u8; PAGE_SIZE] {
        self.pages.entry(pn).or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Read `buf.len()` bytes starting at `addr` (zero-fill for untouched
    /// memory, which stays unallocated). Wraps at the 4 GiB boundary like
    /// the 32-bit bus would. One page lookup per page the range touches.
    pub fn read(&mut self, addr: u32, buf: &mut [u8]) {
        let mut a = addr;
        let mut rest = buf;
        while !rest.is_empty() {
            let off = (a as usize) & (PAGE_SIZE - 1);
            let (run, tail) = rest.split_at_mut(rest.len().min(PAGE_SIZE - off));
            match self.pages.get(&(a >> PAGE_SHIFT)) {
                Some(p) => run.copy_from_slice(&p[off..off + run.len()]),
                None => run.fill(0),
            }
            a = a.wrapping_add(run.len() as u32);
            rest = tail;
        }
    }

    /// Write `buf` starting at `addr`, one page lookup per page touched.
    pub fn write(&mut self, addr: u32, buf: &[u8]) {
        let mut a = addr;
        let mut rest = buf;
        while !rest.is_empty() {
            let off = (a as usize) & (PAGE_SIZE - 1);
            let (run, tail) = rest.split_at(rest.len().min(PAGE_SIZE - off));
            self.page(a >> PAGE_SHIFT)[off..off + run.len()].copy_from_slice(run);
            a = a.wrapping_add(run.len() as u32);
            rest = tail;
        }
    }

    /// A typed read: one lookup and no run loop when the `N` bytes stay
    /// inside one page, the general [`FlatMem::read`] when they straddle.
    #[inline]
    fn read_n<const N: usize>(&mut self, addr: u32) -> [u8; N] {
        let mut b = [0u8; N];
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + N <= PAGE_SIZE {
            if let Some(p) = self.pages.get(&(addr >> PAGE_SHIFT)) {
                b.copy_from_slice(&p[off..off + N]);
            }
        } else {
            self.read(addr, &mut b);
        }
        b
    }

    /// The typed write matching [`FlatMem::read_n`].
    #[inline]
    fn write_n<const N: usize>(&mut self, addr: u32, b: [u8; N]) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + N <= PAGE_SIZE {
            self.page(addr >> PAGE_SHIFT)[off..off + N].copy_from_slice(&b);
        } else {
            self.write(addr, &b);
        }
    }

    pub fn read_u8(&mut self, addr: u32) -> u8 {
        self.read_n::<1>(addr)[0]
    }

    pub fn read_u16(&mut self, addr: u32) -> u16 {
        u16::from_le_bytes(self.read_n(addr))
    }

    pub fn read_u32(&mut self, addr: u32) -> u32 {
        u32::from_le_bytes(self.read_n(addr))
    }

    pub fn read_u64(&mut self, addr: u32) -> u64 {
        u64::from_le_bytes(self.read_n(addr))
    }

    pub fn write_u8(&mut self, addr: u32, v: u8) {
        self.write_n(addr, [v]);
    }

    pub fn write_u16(&mut self, addr: u32, v: u16) {
        self.write_n(addr, v.to_le_bytes());
    }

    pub fn write_u32(&mut self, addr: u32, v: u32) {
        self.write_n(addr, v.to_le_bytes());
    }

    pub fn write_u64(&mut self, addr: u32, v: u64) {
        self.write_n(addr, v.to_le_bytes());
    }

    /// Write an `f32` in its IEEE bit pattern.
    pub fn write_f32(&mut self, addr: u32, v: f32) {
        self.write_u32(addr, v.to_bits());
    }

    pub fn read_f32(&mut self, addr: u32) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Write an `f64` as a register pair would store it (high word first,
    /// matching the `St L` convention of the simulator).
    pub fn write_f64(&mut self, addr: u32, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    pub fn read_f64(&mut self, addr: u32) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Number of 4 KiB pages touched so far (footprint estimate).
    pub fn pages_touched(&self) -> usize {
        self.pages.len()
    }

    /// Iterate touched pages in arbitrary order (the snapshot serializer
    /// sorts and drops all-zero pages for its canonical form).
    pub(crate) fn pages_iter(&self) -> impl Iterator<Item = (u32, &[u8; PAGE_SIZE])> + '_ {
        self.pages.iter().map(|(&pn, data)| (pn, &**data))
    }

    /// Install a full page image at page number `pn` (snapshot decode).
    pub(crate) fn install_page(&mut self, pn: u32, data: &[u8]) {
        self.page(pn).copy_from_slice(data);
    }

    /// Architectural comparison: the lowest address whose byte differs
    /// between the two images (absent pages read as zero), or `None` when
    /// they are identical. Used to check fault-recovery runs against a
    /// fault-free oracle.
    pub fn first_diff(&self, other: &FlatMem) -> Option<u32> {
        self.first_diff_detail(other).map(|d| d.addr)
    }

    /// [`FlatMem::first_diff`] with both differing byte values attached —
    /// the canonical diff helper every soak/oracle/fuzzer caller shares.
    pub fn first_diff_detail(&self, other: &FlatMem) -> Option<MemDiff> {
        const ZERO: [u8; PAGE_SIZE] = [0u8; PAGE_SIZE];
        let mut pns: Vec<u32> = self.pages.keys().chain(other.pages.keys()).copied().collect();
        pns.sort_unstable();
        pns.dedup();
        for pn in pns {
            let a = self.pages.get(&pn).map(|p| &p[..]).unwrap_or(&ZERO);
            let b = other.pages.get(&pn).map(|p| &p[..]).unwrap_or(&ZERO);
            if let Some(off) = (0..PAGE_SIZE).find(|&i| a[i] != b[i]) {
                return Some(MemDiff {
                    addr: (pn << PAGE_SHIFT) | off as u32,
                    lhs: a[off],
                    rhs: b[off],
                });
            }
        }
        None
    }
}

/// The first byte where two memory images disagree: address plus the
/// value on each side (`lhs` = the receiver of the comparison).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemDiff {
    pub addr: u32,
    pub lhs: u8,
    pub rhs: u8,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_and_round_trip() {
        let mut m = FlatMem::new();
        assert_eq!(m.read_u32(0x1234), 0);
        m.write_u32(0x1234, 0xDEAD_BEEF);
        assert_eq!(m.read_u32(0x1234), 0xDEAD_BEEF);
        assert_eq!(m.read_u8(0x1234), 0xEF); // little endian
        assert_eq!(m.read_u16(0x1236), 0xDEAD);
    }

    #[test]
    fn first_diff_treats_absent_pages_as_zero() {
        let mut a = FlatMem::new();
        let mut b = FlatMem::new();
        assert_eq!(a.first_diff(&b), None);
        a.write_u32(0x5000, 0); // touched but still zero
        assert_eq!(a.first_diff(&b), None, "explicit zeros equal absent pages");
        b.write_u8(0x9002, 7);
        assert_eq!(a.first_diff(&b), Some(0x9002));
        a.write_u8(0x9002, 7);
        assert_eq!(a.first_diff(&b), None);
    }

    #[test]
    fn cross_page_access() {
        let mut m = FlatMem::new();
        let addr = PAGE_SIZE as u32 - 2;
        m.write_u32(addr, 0x0102_0304);
        assert_eq!(m.read_u32(addr), 0x0102_0304);
        assert_eq!(m.pages_touched(), 2);
    }

    #[test]
    fn multi_page_runs_round_trip_and_reads_allocate_nothing() {
        let mut m = FlatMem::new();
        let mut buf = vec![0xAAu8; 3 * PAGE_SIZE];
        m.read(0x0003_0FF0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0), "absent pages read as zero");
        assert_eq!(m.pages_touched(), 0, "reads never allocate");

        let data: Vec<u8> = (0..2 * PAGE_SIZE + 40).map(|i| (i * 7 + 3) as u8).collect();
        m.write(0x0003_0FF0, &data);
        assert_eq!(m.pages_touched(), 4, "a run straddling four pages");
        let mut back = vec![0u8; data.len()];
        m.read(0x0003_0FF0, &mut back);
        assert_eq!(back, data);
        for (i, &b) in data.iter().enumerate().step_by(997) {
            assert_eq!(m.read_u8(0x0003_0FF0 + i as u32), b, "byte {i}");
        }
    }

    /// Distinct values of the low 8 hash bits (the bucket of a 256-slot
    /// table) over the page numbers `k << s`, k < 256.
    fn low_bits_spread(hash: impl Fn(u32) -> u64, s: u32) -> usize {
        let mut seen = [false; 256];
        for k in 0..256u32 {
            seen[(hash(k << s) & 0xFF) as usize] = true;
        }
        seen.iter().filter(|&&b| b).count()
    }

    #[test]
    fn page_hash_spreads_strided_page_numbers_over_the_low_bits() {
        use std::hash::BuildHasher;
        let page_hash = |pn: u32| BuildHasherDefault::<PageHasher>::default().hash_one(pn);
        let bare = |pn: u32| u64::from(pn).wrapping_mul(PageHasher::MUL);
        for s in [0, 4, 8, 12] {
            let spread = low_bits_spread(page_hash, s);
            assert!(spread >= 128, "stride 2^{s}: only {spread} of 256 low-bit values");
        }
        // Without the rotate, a stride of 2^s leaves the low s bits zero.
        assert_eq!(low_bits_spread(bare, 4), 16);
        assert_eq!(low_bits_spread(bare, 8), 1);
        assert_eq!(low_bits_spread(bare, 12), 1);
    }

    #[test]
    fn floats() {
        let mut m = FlatMem::new();
        m.write_f32(64, 3.25);
        assert_eq!(m.read_f32(64), 3.25);
        m.write_f64(128, -1.5e300);
        assert_eq!(m.read_f64(128), -1.5e300);
    }

    #[test]
    fn wraparound() {
        let mut m = FlatMem::new();
        m.write(u32::MAX - 1, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        m.read(u32::MAX - 1, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(m.read_u8(1), 4);
    }
}
