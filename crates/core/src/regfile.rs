//! The 224-entry register file of one MAJC CPU.
//!
//! Registers are 32 bits wide; 64-bit quantities (doubles, `L` loads)
//! occupy even-aligned pairs with the *low* word in the even register,
//! little-endian like the memory image. Single-precision floats live in a
//! register as their IEEE bit pattern.

use majc_isa::{Reg, NUM_REGS};

/// One CPU's architectural register state.
#[derive(Clone)]
pub struct RegFile {
    v: [u32; NUM_REGS as usize],
}

impl Default for RegFile {
    fn default() -> RegFile {
        RegFile { v: [0; NUM_REGS as usize] }
    }
}

impl RegFile {
    pub fn new() -> RegFile {
        RegFile::default()
    }

    #[inline]
    pub fn get(&self, r: Reg) -> u32 {
        self.v[r.index()]
    }

    #[inline]
    pub fn set(&mut self, r: Reg, val: u32) {
        self.v[r.index()] = val;
    }

    #[inline]
    pub fn get_i32(&self, r: Reg) -> i32 {
        self.get(r) as i32
    }

    #[inline]
    pub fn get_f32(&self, r: Reg) -> f32 {
        f32::from_bits(self.get(r))
    }

    #[inline]
    pub fn set_f32(&mut self, r: Reg, val: f32) {
        self.set(r, val.to_bits());
    }

    /// Read the pair `(r, r+1)` as a 64-bit value (low word in `r`).
    #[inline]
    pub fn get_u64(&self, r: Reg) -> u64 {
        let lo = self.v[r.index()] as u64;
        let hi = self.v[r.index() + 1] as u64;
        lo | (hi << 32)
    }

    /// Write the pair `(r, r+1)`.
    #[inline]
    pub fn set_u64(&mut self, r: Reg, val: u64) {
        self.v[r.index()] = val as u32;
        self.v[r.index() + 1] = (val >> 32) as u32;
    }

    #[inline]
    pub fn get_f64(&self, r: Reg) -> f64 {
        f64::from_bits(self.get_u64(r))
    }

    #[inline]
    pub fn set_f64(&mut self, r: Reg, val: f64) {
        self.set_u64(r, val.to_bits());
    }

    /// Raw view for diffing in tests.
    pub fn raw(&self) -> &[u32] {
        &self.v
    }

    /// Read by pre-validated absolute index — the translated engine's fast
    /// path. Indices come from [`Reg::index`] at translation time, so the
    /// bounds check never fires on translated code.
    #[inline]
    pub(crate) fn get_at(&self, i: u8) -> u32 {
        self.v[i as usize]
    }

    /// Read the pair `(i, i+1)` as a 64-bit value — the raw-index twin of
    /// [`RegFile::get_u64`], with identical out-of-range behaviour.
    #[inline]
    pub(crate) fn get_pair_at(&self, i: u8) -> u64 {
        let lo = self.v[i as usize] as u64;
        let hi = self.v[i as usize + 1] as u64;
        lo | (hi << 32)
    }
}

/// Buffered register writes of one packet, applied after every slot has
/// read its operands — VLIW slots of a packet execute in parallel and all
/// observe pre-packet register state.
#[derive(Clone, Copy, Default)]
pub struct WriteSet {
    entries: [(u8, u32); 16],
    len: u8,
}

impl WriteSet {
    #[inline]
    pub fn push(&mut self, r: Reg, val: u32) {
        self.entries[self.len as usize] = (r.index() as u8, val);
        self.len += 1;
    }

    #[inline]
    pub fn push_u64(&mut self, r: Reg, val: u64) {
        self.push(r, val as u32);
        // A pair running off the end of the register file drops its high
        // word rather than panicking on a malformed encoding.
        if let Some(hi) = Reg::from_index(r.index() as u8 + 1) {
            self.push(hi, (val >> 32) as u32);
        }
    }

    #[inline]
    pub fn push_f32(&mut self, r: Reg, val: f32) {
        self.push(r, val.to_bits());
    }

    /// Push by pre-validated absolute index — the translated engine's fast
    /// path. Must only receive indices obtained from [`Reg::index`].
    #[inline]
    pub(crate) fn push_at(&mut self, i: u8, val: u32) {
        self.entries[self.len as usize] = (i, val);
        self.len += 1;
    }

    /// Raw-index twin of [`WriteSet::push_u64`]: identical drop-the-high-
    /// word behaviour when the pair runs off the end of the register file.
    #[inline]
    pub(crate) fn push_pair_at(&mut self, i: u8, val: u64) {
        self.push_at(i, val as u32);
        if (i as u16) + 1 < NUM_REGS {
            self.push_at(i + 1, (val >> 32) as u32);
        }
    }

    #[inline]
    pub fn push_f64(&mut self, r: Reg, val: f64) {
        self.push_u64(r, val.to_bits());
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn iter(&self) -> impl Iterator<Item = (Reg, u32)> + '_ {
        // Indices come from `push`, which only accepts valid registers.
        self.entries[..self.len as usize]
            .iter()
            .filter_map(|&(i, v)| Reg::from_index(i).map(|r| (r, v)))
    }

    /// Apply all buffered writes to the register file, in push order.
    #[inline]
    pub fn apply(&self, regs: &mut RegFile) {
        // Every index came from `Reg::index` (see `push`/`push_at`).
        for &(i, v) in &self.entries[..self.len as usize] {
            regs.v[i as usize] = v;
        }
    }

    pub fn clear(&mut self) {
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut rf = RegFile::new();
        rf.set(Reg::g(10), 0xCAFE_BABE);
        assert_eq!(rf.get(Reg::g(10)), 0xCAFE_BABE);
        assert_eq!(rf.get(Reg::g(11)), 0);
        rf.set_f32(Reg::l(1, 5), -2.5);
        assert_eq!(rf.get_f32(Reg::l(1, 5)), -2.5);
    }

    #[test]
    fn pair_round_trip() {
        let mut rf = RegFile::new();
        rf.set_u64(Reg::g(4), 0x0123_4567_89AB_CDEF);
        assert_eq!(rf.get(Reg::g(4)), 0x89AB_CDEF); // low word in even reg
        assert_eq!(rf.get(Reg::g(5)), 0x0123_4567);
        assert_eq!(rf.get_u64(Reg::g(4)), 0x0123_4567_89AB_CDEF);
        rf.set_f64(Reg::g(6), 6.02214076e23);
        assert_eq!(rf.get_f64(Reg::g(6)), 6.02214076e23);
    }

    #[test]
    fn writeset_defers() {
        let mut rf = RegFile::new();
        rf.set(Reg::g(0), 7);
        let mut ws = WriteSet::default();
        ws.push(Reg::g(0), 99);
        assert_eq!(rf.get(Reg::g(0)), 7, "not yet applied");
        ws.apply(&mut rf);
        assert_eq!(rf.get(Reg::g(0)), 99);
    }

    #[test]
    fn writeset_pairs() {
        let mut rf = RegFile::new();
        let mut ws = WriteSet::default();
        ws.push_f64(Reg::g(2), 1.25);
        ws.apply(&mut rf);
        assert_eq!(rf.get_f64(Reg::g(2)), 1.25);
    }
}
