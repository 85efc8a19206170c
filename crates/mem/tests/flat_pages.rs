//! `FlatMem` page-table behaviour seen through its public surface:
//! pages at far-apart region bases, typed accesses across a page edge,
//! and the address order of `first_diff` and the canonical snapshot,
//! which must not depend on the order the page table keeps its pages in.

use majc_mem::FlatMem;

const PAGE: u32 = 4096;

/// Canonical snapshot digest of the image built by
/// `diff_and_snapshot_order_follow_addresses_not_the_table`, recorded
/// while `FlatMem` still keyed its pages with the standard library hasher.
const SNAPSHOT_DIGEST_PIN: u64 = 0x8426_56ee_8c59_33f2;

#[test]
fn region_bases_round_trip() {
    let bases = [0x0100_0000u32, 0x0200_0000, 0x8000_0000, 0xFFFF_F000];
    let mut m = FlatMem::new();
    for (i, &base) in bases.iter().enumerate() {
        m.write_u32(base, 0xA0 + i as u32);
        m.write_u64(base + 0xFF8, 0x1111_0000_0000_0000 * (i as u64 + 1));
    }
    assert_eq!(m.pages_touched(), bases.len());
    for (i, &base) in bases.iter().enumerate() {
        assert_eq!(m.read_u32(base), 0xA0 + i as u32, "{base:#x}");
        assert_eq!(m.read_u64(base + 0xFF8), 0x1111_0000_0000_0000 * (i as u64 + 1));
        assert_eq!(m.read_u32(base + 4), 0, "{base:#x}: rest of the page is zero");
    }
}

#[test]
fn diff_and_snapshot_order_follow_addresses_not_the_table() {
    // Pages written in descending order, with zero-only pages between.
    let mut m = FlatMem::new();
    for pn in (0..64u32).rev() {
        let addr = (pn * 0x0400_0000) | 0x10;
        m.write_u32(addr, if pn % 3 == 0 { 0 } else { pn });
    }
    let mut pns = Vec::new();
    let mut at = 0;
    m.visit_snapshot_payload(|piece| {
        // Header (magic, count), then (page number, page bytes) pairs.
        if at >= 2 && at % 2 == 0 {
            pns.push(u32::from_le_bytes(piece.try_into().unwrap()));
        }
        at += 1;
    });
    let want: Vec<u32> = (0..64u32).filter(|pn| pn % 3 != 0).map(|pn| pn << 14).collect();
    assert_eq!(pns, want, "non-zero pages in ascending page order");
    assert_eq!(m.snapshot_digest(), SNAPSHOT_DIGEST_PIN);

    let mut other = m.clone();
    for pn in [40u32, 7, 63] {
        other.write_u8((pn * 0x0400_0000) | 0x20, 1);
    }
    assert_eq!(m.first_diff(&other), Some((7 * 0x0400_0000) | 0x20), "lowest address");
}

#[test]
fn typed_accesses_straddling_a_page_read_back() {
    let mut m = FlatMem::new();
    let end = 3 * PAGE;
    for back in 1..8u32 {
        let a = end - back;
        m.write_u64(a, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u64(a), 0x0102_0304_0506_0708, "u64 at end-{back}");
        let mut bytes = [0u8; 8];
        m.read(a, &mut bytes);
        assert_eq!(bytes, 0x0102_0304_0506_0708u64.to_le_bytes(), "bytes at end-{back}");
        if back < 4 {
            m.write_u32(a, 0xCAFE_F00D);
            assert_eq!(m.read_u32(a), 0xCAFE_F00D, "u32 at end-{back}");
        }
        if back < 2 {
            m.write_u16(a, 0xBEEF);
            assert_eq!(m.read_u16(a), 0xBEEF, "u16 at end-{back}");
        }
    }
    assert_eq!(m.pages_touched(), 2);
    // Straddling reads of untouched pages read zero and allocate nothing.
    assert_eq!(m.read_u64(7 * PAGE - 3), 0);
    assert_eq!(m.pages_touched(), 2);
}
