//! `majc-gen` keeps its own FNV-1a because the crate must stay
//! dependency-free; its self-check digests are compared against
//! `majc_mem::fnv1a` digests of simulated memory. The two copies must be
//! the same function.

use majc_gen::Rng;

#[test]
fn gen_and_mem_fnv1a_agree() {
    // Reference vectors: the offset basis and the published digest of "a".
    assert_eq!(majc_gen::fnv1a(b""), 0xCBF2_9CE4_8422_2325);
    assert_eq!(majc_mem::fnv1a(b""), 0xCBF2_9CE4_8422_2325);
    assert_eq!(majc_gen::fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    assert_eq!(majc_mem::fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);

    let mut rng = Rng::new(0xF1A1);
    for case in 0..256 {
        let len = rng.below(300) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        assert_eq!(majc_gen::fnv1a(&bytes), majc_mem::fnv1a(&bytes), "case {case}, {len} bytes");
    }
}
