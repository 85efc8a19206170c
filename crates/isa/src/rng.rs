//! The workspace's deterministic PRNGs, for tests and workload generation.
//!
//! The workspace builds without network access to a crate registry, so the
//! `rand` crate is replaced by three small generators. Every reproduced
//! figure is built from one of these streams (`crates/bench/tests/rng_golden.rs`
//! pins them), so their outputs must never change:
//!
//! * [`SplitMix64`] (Steele, Lea & Flood, OOPSLA 2014): passes BigCrush,
//!   seedable from any u64 including 0; randomized tests, synthetic
//!   workloads and the serve load generator. [`mix64`] is its output
//!   finalizer, also used on its own to derive decorrelated seeds.
//! * [`XorShift64`] (Marsaglia's 13/7/17 xorshift): the kernel inputs,
//!   graphics scenes and fault streams.
//! * [`XorShift64Star`] (Vigna's xorshift64*): E15's per-shard job streams.

/// The SplitMix64 golden-ratio increment.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finalizer (no increment): a bijection on u64 that
/// sends nearby inputs to unrelated outputs.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: a tiny full-period 2^64 generator.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seed the generator; every seed (including 0) is valid and produces
    /// a distinct full-period sequence offset.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix64(self.0)
    }

    /// Next 32 uniformly distributed bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, n)`. `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift reduction (Lemire); the bias for n << 2^64 is
        // far below what any test here can observe.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform `usize` in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform `i64` in `[lo, hi)`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi);
        lo + self.below((hi - lo) as u64) as i64
    }

    /// Uniform `i32` in `[lo, hi)`.
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        self.range_i64(lo as i64, hi as i64) as i32
    }

    /// Uniform `i16` in `[lo, hi)`.
    pub fn range_i16(&mut self, lo: i16, hi: i16) -> i16 {
        self.range_i64(lo as i64, hi as i64) as i16
    }

    /// A uniformly random `bool`.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.index(xs.len())]
    }
}

/// Marsaglia's 13/7/17 xorshift64: period 2^64 - 1 over nonzero states.
#[derive(Clone, Debug)]
pub struct XorShift64(u64);

impl XorShift64 {
    /// Seed the generator; 0 (the one fixed point) runs as seed 1.
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64(seed.max(1))
    }

    /// Next 64 bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// The high 32 bits of the next draw.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform float in [-1, 1]: `next_u32() == u32::MAX` gives exactly 1.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u32() as f64 / u32::MAX as f64 * 2.0 - 1.0) as f32
    }

    /// Uniform i16 in [-max, max].
    pub fn next_i16(&mut self, max: i16) -> i16 {
        let span = 2 * max as i64 + 1;
        ((self.next_u64() % span as u64) as i64 - max as i64) as i16
    }

    /// In `0..n` by modulo (n > 0).
    pub fn next_range(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// xorshift64* (Vigna's variant: xorshift state transition, output
/// scrambled by a 64-bit multiply).
#[derive(Clone, Debug)]
pub struct XorShift64Star {
    state: u64,
}

impl XorShift64Star {
    /// Seed the stream; a zero seed (the one fixed point of xorshift) is
    /// remapped to a nonzero constant.
    pub fn new(seed: u64) -> XorShift64Star {
        XorShift64Star { state: if seed == 0 { GOLDEN } else { seed } }
    }

    /// Next 64 bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (n > 0) by rejection-free modulo; fine for the
    /// small ranges E15 draws. Unlike [`SplitMix64::below`], this is
    /// not a multiply-shift reduction: the two yield different values.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_distinct_by_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let mut c = SplitMix64::new(8);
        for _ in 0..64 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, c.next_u64());
        }
    }

    #[test]
    fn known_vector() {
        // Reference values for seed 0 from the published SplitMix64 code.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SplitMix64::new(42);
        for _ in 0..10_000 {
            let v = r.range_i64(-5, 17);
            assert!((-5..17).contains(&v));
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
            assert!(r.index(3) < 3);
        }
        // Both halves of the range are actually hit.
        let mut lo = false;
        let mut hi = false;
        for _ in 0..1000 {
            match r.range_i32(0, 2) {
                0 => lo = true,
                _ => hi = true,
            }
        }
        assert!(lo && hi);
    }
}
