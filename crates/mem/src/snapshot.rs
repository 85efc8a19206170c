//! Deterministic byte serialization of architectural memory images.
//!
//! A snapshot is the wire/disk form of a [`FlatMem`]: a versioned header,
//! the non-zero pages in ascending page-number order, and a trailing
//! FNV-1a digest over everything before it. The encoding is *canonical* —
//! pages that were touched but hold only zeroes are omitted, exactly as
//! [`FlatMem::first_diff_detail`] treats them — so two architecturally
//! equal images always serialize to identical bytes, whatever access
//! pattern produced them. That property is what lets `majc-serve`
//! checkpoint files be compared with `cmp` and cached by content digest.

use crate::flat::{FlatMem, PAGE_SIZE};
use majc_isa::{fnv1a, fnv1a_extend};

/// Magic + version tag opening every memory snapshot.
pub const MEM_MAGIC: &[u8; 8] = b"MAJCMEM1";

/// Why a snapshot failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// Wrong magic/version, truncated input, or trailing garbage.
    Malformed(String),
    /// The trailing digest does not match the payload (bit rot or a
    /// garbled transfer).
    BadDigest { expect: u64, got: u64 },
}

impl core::fmt::Display for SnapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapError::Malformed(m) => write!(f, "malformed snapshot: {m}"),
            SnapError::BadDigest { expect, got } => {
                write!(f, "snapshot digest mismatch: stored {expect:#018x}, computed {got:#018x}")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Read a little-endian `u32` at `at`, or fail with a truncation error.
pub fn read_u32(bytes: &[u8], at: usize) -> Result<u32, SnapError> {
    bytes
        .get(at..at + 4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .ok_or_else(|| SnapError::Malformed(format!("truncated at byte {at}")))
}

/// Read a little-endian `u64` at `at`.
pub fn read_u64(bytes: &[u8], at: usize) -> Result<u64, SnapError> {
    bytes
        .get(at..at + 8)
        .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
        .ok_or_else(|| SnapError::Malformed(format!("truncated at byte {at}")))
}

impl FlatMem {
    /// Hand the canonical snapshot payload — everything but the trailing
    /// digest — to `piece`, in order: the header, then each non-zero page
    /// (number, then bytes) in ascending page order. The one definition of
    /// the canonical form: [`FlatMem::to_snapshot`] concatenates the
    /// pieces, and a digest can consume them without materialising them.
    pub fn visit_snapshot_payload(&self, mut piece: impl FnMut(&[u8])) {
        let mut pages: Vec<(u32, &[u8; PAGE_SIZE])> =
            self.pages_iter().filter(|(_, data)| data.iter().any(|&b| b != 0)).collect();
        pages.sort_unstable_by_key(|&(pn, _)| pn);
        piece(MEM_MAGIC);
        piece(&(pages.len() as u32).to_le_bytes());
        for (pn, data) in pages {
            piece(&pn.to_le_bytes());
            piece(data);
        }
    }

    /// Serialize to the canonical snapshot form: header, non-zero pages
    /// in ascending page order, trailing FNV-1a digest.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.pages_touched() * (4 + PAGE_SIZE) + 8);
        self.visit_snapshot_payload(|piece| out.extend_from_slice(piece));
        let digest = fnv1a(&out);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }

    /// Decode a snapshot produced by [`FlatMem::to_snapshot`], verifying
    /// the digest and the canonical page ordering.
    pub fn from_snapshot(bytes: &[u8]) -> Result<FlatMem, SnapError> {
        if bytes.len() < MEM_MAGIC.len() + 4 + 8 {
            return Err(SnapError::Malformed("shorter than an empty snapshot".into()));
        }
        if &bytes[..8] != MEM_MAGIC {
            return Err(SnapError::Malformed("bad magic (not a MAJCMEM1 snapshot)".into()));
        }
        let payload_len = bytes.len() - 8;
        let expect = read_u64(bytes, payload_len)?;
        let got = fnv1a(&bytes[..payload_len]);
        if expect != got {
            return Err(SnapError::BadDigest { expect, got });
        }
        let n = read_u32(bytes, 8)? as usize;
        let mut mem = FlatMem::new();
        let mut at = 12;
        let mut last_pn: Option<u32> = None;
        for _ in 0..n {
            let pn = read_u32(bytes, at)?;
            at += 4;
            if last_pn.is_some_and(|p| p >= pn) {
                return Err(SnapError::Malformed(format!("page {pn:#x} out of order")));
            }
            last_pn = Some(pn);
            let data = bytes
                .get(at..at + PAGE_SIZE)
                .ok_or_else(|| SnapError::Malformed(format!("truncated page {pn:#x}")))?;
            at += PAGE_SIZE;
            mem.install_page(pn, data);
        }
        if at != payload_len {
            return Err(SnapError::Malformed(format!("{} trailing bytes", payload_len - at)));
        }
        Ok(mem)
    }

    /// The content digest of the canonical snapshot — its trailer —
    /// computed without building the snapshot.
    pub fn snapshot_digest(&self) -> u64 {
        let mut h = fnv1a(&[]);
        self.visit_snapshot_payload(|piece| h = fnv1a_extend(h, piece));
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_architecturally_identical() {
        let mut m = FlatMem::new();
        m.write_u32(0x1000, 0xDEAD_BEEF);
        m.write(0xFFFF_FFFE, &[1, 2, 3, 4]); // wraps the 4 GiB boundary
        m.write_u64(0x8_0000, 0x0123_4567_89AB_CDEF);
        let bytes = m.to_snapshot();
        let back = FlatMem::from_snapshot(&bytes).unwrap();
        assert_eq!(m.first_diff_detail(&back), None);
    }

    #[test]
    fn canonical_form_ignores_touched_but_zero_pages() {
        let mut a = FlatMem::new();
        a.write_u32(0x2000, 7);
        let mut b = FlatMem::new();
        b.write_u32(0x9000, 0); // touched, still zero
        b.write_u32(0x2000, 7);
        assert_eq!(a.to_snapshot(), b.to_snapshot(), "equal images, equal bytes");
        assert_eq!(a.snapshot_digest(), b.snapshot_digest());
    }

    #[test]
    fn serialization_is_deterministic() {
        let mut m = FlatMem::new();
        // Touch pages in descending order; the snapshot must still sort.
        for pn in (0..32u32).rev() {
            m.write_u8(pn << 12, pn as u8 + 1);
        }
        assert_eq!(m.to_snapshot(), m.clone().to_snapshot());
        let back = FlatMem::from_snapshot(&m.to_snapshot()).unwrap();
        assert_eq!(back.to_snapshot(), m.to_snapshot(), "re-serialization is a fixed point");
        let bytes = m.to_snapshot();
        assert_eq!(m.snapshot_digest(), read_u64(&bytes, bytes.len() - 8).unwrap(), "trailer");
    }

    #[test]
    fn corruption_is_detected() {
        let mut m = FlatMem::new();
        m.write_u32(0x40, 99);
        let mut bytes = m.to_snapshot();
        assert!(matches!(FlatMem::from_snapshot(&bytes[..10]), Err(SnapError::Malformed(_))));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(FlatMem::from_snapshot(&bytes), Err(SnapError::BadDigest { .. })));
        let mut wrong_magic = m.to_snapshot();
        wrong_magic[0] = b'X';
        assert!(matches!(FlatMem::from_snapshot(&wrong_magic), Err(SnapError::Malformed(_))));
    }

    #[test]
    fn empty_memory_snapshots_to_header_only() {
        let m = FlatMem::new();
        let bytes = m.to_snapshot();
        assert_eq!(bytes.len(), 8 + 4 + 8);
        let back = FlatMem::from_snapshot(&bytes).unwrap();
        assert_eq!(back.pages_touched(), 0);
    }
}
