//! Pins the random streams every reproduced figure is built from.
//!
//! The kernel inputs (Table 2, Figures 1-2), the graphics scenes, the fault
//! streams and the farm shards all come from in-tree generators. Each
//! generator's first eight `next_u64` values for four seeds, its derived
//! outputs (`next_f32`, `next_i16`, `next_range`, `below`) and the farm's
//! shard seeds are pinned here, so a change to where a generator lives
//! cannot change what it yields.

use majc_bench::farm::shard_seed;
use majc_isa::{SplitMix64, XorShift64, XorShift64Star};

const SEEDS: [u64; 4] = [0, 1, 42, u64::MAX];

fn first8(mut next: impl FnMut() -> u64) -> [u64; 8] {
    std::array::from_fn(|_| next())
}

/// The six generators, built the way their call sites build them.
fn kernels(seed: u64) -> XorShift64 {
    XorShift64::new(seed)
}

fn scene(seed: u64) -> XorShift64 {
    XorShift64::new(seed)
}

fn fault(seed: u64) -> XorShift64 {
    XorShift64::new(SplitMix64::new(seed).next_u64() | 1)
}

fn farm(seed: u64) -> XorShift64Star {
    XorShift64Star::new(seed)
}

fn splitmix(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed)
}

fn gen(seed: u64) -> majc_gen::Rng {
    majc_gen::Rng::new(seed)
}

/// Marsaglia's 13/7/17 xorshift64; seed 0 runs as seed 1.
const XORSHIFT64: [[u64; 8]; 4] = [
    [
        0x0000_0000_4082_2041,
        0x1000_4106_0C01_1441,
        0x9B1E_842F_6E86_2629,
        0xF554_F503_555D_8025,
        0x860C_1FB0_9059_9265,
        0xF6B0_5302_E553_1801,
        0xA246_0108_EBBD_9E71,
        0xC62C_9FC1_14D9_590D,
    ],
    [
        0x0000_0000_4082_2041,
        0x1000_4106_0C01_1441,
        0x9B1E_842F_6E86_2629,
        0xF554_F503_555D_8025,
        0x860C_1FB0_9059_9265,
        0xF6B0_5302_E553_1801,
        0xA246_0108_EBBD_9E71,
        0xC62C_9FC1_14D9_590D,
    ],
    [
        0x0000_000A_9551_4AAA,
        0xA00A_AAFD_F802_02BF,
        0x8B13_399C_D1D1_497A,
        0x283B_88FE_5FDF_F568,
        0x4E91_5FE3_8B34_1082,
        0x8C17_F2B4_3370_1823,
        0x9EC2_FE1A_A5B2_90D3,
        0x9370_F576_EC23_A132,
    ],
    [
        0x0000_0000_3F80_1FC0,
        0x0FFF_BFFE_03FE_EFFF,
        0x070D_C404_C67D_0DE0,
        0x3217_A46F_EEF8_8FFB,
        0x1D10_50F0_5EB1_E024,
        0x9800_1B70_3BB8_0AE4,
        0x1A26_A91D_B373_43F1,
        0xE401_6C3B_CED7_7936,
    ],
];

/// xorshift64 from a SplitMix64-scrambled seed (the fault injector's streams).
const FAULT_XORSHIFT64: [[u64; 8]; 4] = [
    [
        0x6661_260E_8CC5_7DF4,
        0x2ED7_A803_1B23_0A0F,
        0x1383_0DDD_EB20_2FDB,
        0xF16D_FBD5_6F8E_F944,
        0xBF9A_8B06_92AB_35B6,
        0xB4E5_0A0A_CF4F_CE5D,
        0x2306_FA96_3DEB_6681,
        0xD70E_9A63_6781_300C,
    ],
    [
        0x7274_658B_CB6F_4838,
        0xD287_4A86_DF7C_98A8,
        0x4737_03A9_09C3_4B99,
        0xEBA4_2236_54ED_0B4E,
        0x35C8_69A5_27DF_C2D8,
        0x5105_F0B3_F481_CB5D,
        0xBCB2_BDDC_F567_BF8B,
        0x88B2_F411_06FB_F234,
    ],
    [
        0xFB4D_394F_8EAD_BD08,
        0x5ECA_1BF6_459A_A472,
        0x6848_8C8E_0042_CDBA,
        0x8514_5493_9804_66A1,
        0x5821_4E2F_FEA1_E62C,
        0x8037_1359_6820_AEE0,
        0x6EDB_082F_687D_57BD,
        0xBE14_5EF5_47AB_E252,
    ],
    [
        0x311D_6E06_15EE_CE39,
        0xB221_6081_C07B_BDE5,
        0xEB72_6F6E_8D14_93DE,
        0xA4B1_8F12_9DA3_8D79,
        0x6246_38B6_C992_B423,
        0x2495_6C16_653E_F98B,
        0x97E4_3D07_D40B_86B8,
        0x8C77_1D23_D6FF_3FB5,
    ],
];

/// Vigna's xorshift64* (12/25/27, multiply-scrambled output).
const XORSHIFT64_STAR: [[u64; 8]; 4] = [
    [
        0x0D83_B3E2_9A21_487A,
        0x54C4_4C79_F1FE_9D67,
        0xA845_F342_007A_0E78,
        0x7D6E_0B87_8A79_4779,
        0x90D8_D6E5_A10D_D485,
        0x9DE6_CF0F_6D5A_586E,
        0xD566_4048_40A2_AB9D,
        0x674B_FECE_098C_4828,
    ],
    [
        0x47E4_CE4B_896C_DD1D,
        0xABCF_A6A8_E079_651D,
        0xB9D1_0D8F_EB73_1F57,
        0x4DB4_18A0_BB1B_019D,
        0x0E61_99B0_4D5A_A600,
        0xC867_4BCB_42E3_AAD9,
        0xD052_B2D8_D46E_7181,
        0xAC71_8CF8_CE31_398D,
    ],
    [
        0x56CE_4AB7_719B_A3A0,
        0xC841_EB53_EBBB_2DDA,
        0xCA46_6BE0_C998_0276,
        0xF1AC_C733_4A7B_70DF,
        0xC3AF_4DD7_FB90_0A06,
        0xD5F3_0C22_06DF_CEA3,
        0x3447_BE26_F68E_2C72,
        0x7097_7E1B_66B1_0E4F,
    ],
    [
        0xF92C_C9E5_C600_0000,
        0x8FF4_84D8_FD1E_AEE3,
        0x346C_95F3_326F_ABC6,
        0xC556_CC9C_37C5_F2C0,
        0x6C2D_653F_8310_1A07,
        0xDDA7_0B4E_5605_4952,
        0xEB80_2ED3_654A_479D,
        0x7FFA_D94A_AF87_2562,
    ],
];

/// SplitMix64 (Steele, Lea & Flood).
const SPLITMIX64: [[u64; 8]; 4] = [
    [
        0xE220_A839_7B1D_CDAF,
        0x6E78_9E6A_A1B9_65F4,
        0x06C4_5D18_8009_454F,
        0xF88B_B8A8_724C_81EC,
        0x1B39_896A_51A8_749B,
        0x53CB_9F0C_747E_A2EA,
        0x2C82_9ABE_1F45_32E1,
        0xC584_133A_C916_AB3C,
    ],
    [
        0x910A_2DEC_8902_5CC1,
        0xBEEB_8DA1_658E_EC67,
        0xF893_A2EE_FB32_555E,
        0x71C1_8690_EE42_C90B,
        0x71BB_54D8_D101_B5B9,
        0xC34D_0BFF_9015_0280,
        0xE099_EC6C_D736_3CA5,
        0x85E7_BB0F_1227_8575,
    ],
    [
        0xBDD7_3226_2FEB_6E95,
        0x28EF_E333_B266_F103,
        0x4752_6757_130F_9F52,
        0x581C_E1FF_0E4A_E394,
        0x09BC_585A_2448_23F2,
        0xDE44_31FA_3C80_DB06,
        0x37E9_671C_4537_6D5D,
        0xCCF6_35EE_9E9E_2FA4,
    ],
    [
        0xE4D9_7177_1B65_2C20,
        0xE99F_F867_DBF6_82C9,
        0x382F_F84C_B272_81E9,
        0x6D1D_B36C_CBA9_82D2,
        0xB4A0_472E_5780_69AE,
        0xD31D_ADBD_A438_BB33,
        0xF14F_2CF8_0208_3FA5,
        0x405D_A438_A39E_8064,
    ],
];

#[test]
fn next_u64_streams_are_pinned() {
    for (i, &seed) in SEEDS.iter().enumerate() {
        let mut g = kernels(seed);
        assert_eq!(first8(|| g.next_u64()), XORSHIFT64[i], "kernels, seed {seed:#x}");
        let mut g = scene(seed);
        assert_eq!(first8(|| g.next_u64()), XORSHIFT64[i], "scene, seed {seed:#x}");
        let mut g = fault(seed);
        assert_eq!(first8(|| g.next_u64()), FAULT_XORSHIFT64[i], "fault, seed {seed:#x}");
        let mut g = farm(seed);
        assert_eq!(first8(|| g.next_u64()), XORSHIFT64_STAR[i], "farm, seed {seed:#x}");
        let mut g = splitmix(seed);
        assert_eq!(first8(|| g.next_u64()), SPLITMIX64[i], "splitmix, seed {seed:#x}");
        let mut g = gen(seed);
        assert_eq!(first8(|| g.next_u64()), SPLITMIX64[i], "gen, seed {seed:#x}");
    }
}

#[test]
fn derived_outputs_are_pinned() {
    const F32_BITS: [u32; 8] = [
        0xBF80_0000,
        0x3E80_2AAC,
        0x3DB1_339A,
        0xBF2F_88EE,
        0xBEC5_BA80,
        0x3DC1_7F2B,
        0x3E76_17F1,
        0x3E1B_87AC,
    ];
    let mut g = kernels(42);
    assert_eq!(std::array::from_fn(|_| g.next_f32().to_bits()), F32_BITS);
    let mut g = scene(42);
    assert_eq!(std::array::from_fn(|_| g.next_f32().to_bits()), F32_BITS);

    let mut g = kernels(42);
    let u32s: [u32; 8] = std::array::from_fn(|_| g.next_u32());
    assert_eq!(
        u32s,
        [10, 2685053693, 2333292956, 674990334, 1318150115, 2350379700, 2663579162, 2473653622]
    );
    let mut g = kernels(42);
    let i16s: [i16; 8] = std::array::from_fn(|_| g.next_i16(300));
    assert_eq!(i16s, [-182, 127, -44, 190, -252, 178, 284, -140]);
    let mut g = kernels(42);
    let ranges: [usize; 8] = std::array::from_fn(|_| g.next_range(1000));
    assert_eq!(ranges, [674, 471, 954, 736, 162, 427, 75, 114]);

    // The farm's `below` reduces by modulo, SplitMix64's by multiply-shift:
    // the same bound gives different values, and both are pinned.
    let mut g = farm(42);
    let below: [u64; 8] = std::array::from_fn(|_| g.below(1000));
    assert_eq!(below, [600, 498, 846, 735, 678, 875, 562, 223]);
    let mut g = splitmix(42);
    let below: [u64; 8] = std::array::from_fn(|_| g.below(1000));
    assert_eq!(below, [741, 159, 278, 344, 38, 868, 218, 800]);
}

#[test]
fn shard_seeds_are_pinned() {
    let seeds: [u64; 4] = std::array::from_fn(|k| shard_seed(7, k as u64));
    assert_eq!(
        seeds,
        [
            0xF75F_04CB_B5A1_A1DD,
            0xB346_6F8A_7B81_A989,
            0xE831_3FE1_D735_0611,
            0x6D1D_B36C_CBA9_82D2
        ]
    );
}
