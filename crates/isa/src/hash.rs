//! FNV-1a 64: the workspace's one content digest. Program images (the
//! translation cache key), memory snapshots, checkpoints, farm reports
//! and `majc-serve` responses are all stamped with it.

/// FNV-1a over arbitrary bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xCBF2_9CE4_8422_2325, bytes)
}

/// Continue the FNV-1a digest `h` over `bytes`: `fnv1a_extend(fnv1a(a), b)`
/// equals `fnv1a` of `a` followed by `b`, so a digest can be built
/// incrementally without concatenating its parts.
#[inline]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a_extend(fnv1a(b"fo"), b"obar"), fnv1a(b"foobar"));
    }
}
