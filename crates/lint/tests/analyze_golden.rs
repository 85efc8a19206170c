//! Golden analysis output: the full `analyze` result on a fixed program
//! set, pinned to recorded digests.
//!
//! `reproduce lintfacts` and the hazard corpus check what the analyses
//! claim; this test checks that they keep claiming it. Each line holds
//! the FNV-1a digest of `report.to_json()` followed by `facts.to_json()`
//! under three option sets, so a change to the fact representations, the
//! fixpoint engine or the visit order that moves one diagnostic or one
//! fact anywhere in the set fails `cargo test`. A change that is *meant*
//! to move the output updates the table below and says why.
//!
//! Inputs: every `majc_kernels::suite` case, a `majc-gen` corpus slice,
//! a slice of the differential-fuzz stream (random straight-line, memory
//! and branchy programs) and the lint hazard corpus. Option sets: `LintOptions::default()`,
//! `LintOptions::strict()`, and strict with a trap vector on the middle
//! packet (which withholds must-facts but changes the CFG entries the
//! loop analysis sees).

use std::path::Path;
use std::sync::Arc;

use majc_isa::Program;
use majc_lint::{analyze, LintOptions};

/// Generated programs per family in the pinned corpus slice.
const CORPUS_PER_FAMILY: usize = 3;

/// Programs in the pinned fuzz slice (seeds as `reproduce lintfacts`
/// batch 0 derives them).
const FUZZ_PROGRAMS: u64 = 24;

fn digest(prog: &Program, opts: &LintOptions) -> u64 {
    let a = analyze(prog, opts);
    let mut s = a.report.to_json();
    s.push_str(&a.facts.to_json());
    majc_gen::fnv1a(s.as_bytes())
}

fn line(name: &str, prog: &Program) -> String {
    let vectored =
        LintOptions { trap_vectors: vec![prog.addr_of(prog.len() / 2)], ..LintOptions::strict() };
    format!(
        "{name} {:016x} {:016x} {:016x}",
        digest(prog, &LintOptions::default()),
        digest(prog, &LintOptions::strict()),
        digest(prog, &vectored)
    )
}

fn inputs() -> Vec<(String, Arc<Program>)> {
    let mut out: Vec<(String, Arc<Program>)> =
        majc_kernels::suite::cases().into_iter().map(|c| (c.name, c.prog)).collect();
    for p in majc_gen::corpus(CORPUS_PER_FAMILY, majc_kernels::suite::CORPUS_SEED) {
        let prog = majc_asm::assemble(&p.asm).expect("generated program assembles");
        out.push((p.name, Arc::new(prog)));
    }
    for k in 0..FUZZ_PROGRAMS {
        let seed = majc_bench::farm::shard_seed(0xFA23_5EED, k);
        out.push((format!("fuzz-{k}"), Arc::new(majc_bench::diff::fuzz_program(seed))));
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("hazard corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "s"))
        .collect();
    files.sort();
    for f in files {
        let src = std::fs::read_to_string(&f).expect("corpus file");
        let prog = majc_asm::assemble(&src).expect("corpus program assembles");
        let name = f.file_stem().expect("file stem").to_string_lossy().into_owned();
        out.push((name, Arc::new(prog)));
    }
    out
}

const GOLDEN: &str = "\
biquad 40d5b2f8007867e0 e089fc53f907ee58 9969e01801271cc2
fir dac5c708c2973358 ba244f8c46624266 3397346c6a9514c9
cfir 0e811623a1522fd2 20ff53a74949ade8 15b86cd820077c50
lms 172e70b0a08bd182 630bd5e3fd55ff29 32faec451d65ec7f
maxsearch 0e6dfc78eeb9107a bd345fa72a4e3052 3b4c0795cb1b53bf
fft-radix2 39726e8e1184288c 7cff0afde0e43f8a 7c22b3a6b25a8a4c
fft-radix4 7a7d5364f6901333 ccecba0b68854e33 4d37e7e6f1c8708e
bitrev 20363d75ee791d8f 20363d75ee791d8f 23289c3f664b0707
idct c47552c58ed1a2c7 d81efe95d9f39635 8b1e5d7902d0599a
dct 156e804199895728 91a6ba3f984676fc e780195082219b9f
vld 62e458a67b287bbb ecd2c59aa3972227 af5be6c1cdf8544e
motion 60c89532da56be1d 34ef49c64daff2ef d8e3b7df35469c46
dmatmul 50a4cc154c4d3913 dae9687c09a50c77 d1e8af55b26a2dde
peak-flops d04d6582ea4c16e7 fed77a29904bb9eb 304f202bf43eaeda
peak-ops 8b5a65f53ba5a661 d8750ef6a052d183 acd804962b28870f
transform-light 141db78a65a5cb3f 832e75775a9d7c95 7d8b3dec72bf7131
convolve 9627144ef8b8eb9f ce7f397e3573b72d 0c5c02d67ed3ad30
colorconv d4f250e70b1b6b08 71a7031fc106aeb8 d9db475963afb284
list-8ee4c5be 168296445016038e 0fcfaf4c65e835ed 4b98382e710bcd9c
list-94a66094 1b38415158654cb6 56d1b0b085814a09 4b98382e710bcd9c
list-c42489c9 08ef18cc240f2736 0d2f2292bbca4f39 4b98382e710bcd9c
bst-044aa2c5 9867f0bdf198bb45 9867f0bdf198bb45 0a0d18919a3870e1
bst-6e2ff3a9 665d323e8b0d0041 665d323e8b0d0041 0a0d18919a3870e1
bst-dd0d9ad0 326d97b8d058d5f1 326d97b8d058d5f1 0a0d18919a3870e1
alloc-59cad932 05ded724b26ed307 da34020faf14c533 a9402c8e9c4cf138
alloc-76f84ad0 c08ffd3143d27af1 815bdc1a889a9345 a9402c8e9c4cf138
alloc-0196db60 902a42ff8b2c7dc4 5b131f86552c3618 a9402c8e9c4cf138
vm-dense-addfdbcb 1601ec5e0704924e e092c3ca120a961d 49c26c6d7f60c38c
vm-dense-4bb78935 1601ec5e0704924e e092c3ca120a961d 49c26c6d7f60c38c
vm-dense-495b4540 1601ec5e0704924e e092c3ca120a961d 49c26c6d7f60c38c
vm-sparse-9452de70 fe34d6671640c600 fe34d6671640c600 1f3383bff5e09457
vm-sparse-37f2d8ac 6eb389847c219ccd 6eb389847c219ccd 1f3383bff5e09457
vm-sparse-371566ed 79ab08174649c851 79ab08174649c851 1f3383bff5e09457
calls-28a9c327 cf31ea899625fed5 52450023b876b9d6 4d0a6fd8ae3d59a1
calls-325fb2d9 4a839b8162212aa8 3fe530967a781a55 e92968611fe7f684
calls-3f5dc273 cad2144c28238950 95d205fbd80de30e 75e2abdebde3da39
branchy-70882a1d 382ab69ecb294982 382ab69ecb294982 5a4adf23f6a8b341
branchy-4f03bd8d 1982082f8d44f3ae 1982082f8d44f3ae 5a4adf23f6a8b341
branchy-aa047209 50dc97d276b1ce48 50dc97d276b1ce48 5a4adf23f6a8b341
fuzz-0 73d4cb2a816c371d 5d611a54bb74de0b b8a73d6d8fa4aa1b
fuzz-1 78aa03af30899d2a 035841632c135129 475f6ade20c4b149
fuzz-2 62ef854f0ecc0890 91abca0115f1bddc 57fe939b6a7080f7
fuzz-3 92564d4dfc8e17ab 8ccd667c0e60f9c6 ee76e2de1dbb4731
fuzz-4 95254cb72311ef96 af0821e7508c5bef 2d83f7f711cd0746
fuzz-5 cc4507b52ac3ea3e d3721e11707226f2 04aa6c9127106d20
fuzz-6 769a877a303b6e30 9e288527ba574c54 bdcf09c5da88b957
fuzz-7 e4dc53ce22e48d98 2a18d5cfd2f5217c d512888aeef0eb2b
fuzz-8 531de4187ed82e02 7d3a8f32aa97970e c5dfdcd183b65586
fuzz-9 5f4a7e8dc32e5f67 394fb89adb277c50 9ea2cc199b4c77c1
fuzz-10 78f0cc45a01cdbc8 201726b71c8613eb cdf17c5a0d8f2560
fuzz-11 225e69cc4f2f904c eea1b185654f03d7 c2210594d3e17bad
fuzz-12 021ee77d19f2947b ebc11bbb65e5a450 9fe83fbf3fce99dc
fuzz-13 b40f5f51088a3d80 0077a69cbb808148 357bfa9e517ddec9
fuzz-14 769a877a303b6e30 e8bb16ad8b6f57b5 09037dd3e446cae4
fuzz-15 a1158b858f2573ef 6bca21acf99a4b65 3a2e95056137c8d4
fuzz-16 927504bd1338d15d 15414b8a5ac88a43 9ca85bb6d59f89f9
fuzz-17 e97adc7cdd61a2a6 791509dc11639309 21cadd16d8c40170
fuzz-18 6f501cb625f9b500 bce46da41404f7ac 3201a02ad984e673
fuzz-19 0b02e3349b43b576 c98d3c6d745e10d7 78898e33c7e7ef0e
fuzz-20 fbfd513de4e02841 77701f82faa3e5ae fdead4e810cf087a
fuzz-21 415d220f95639ac0 9521ff08747f1b5c c9e6db8e808fc491
fuzz-22 85f608d48addbbaf 54d0d23dcfcc328e 35452462877325ac
fuzz-23 5c2f19d324f6248c f1073f5d1b010228 9ded3b7ef198b273
clean de1ff74568d359e6 de1ff74568d359e6 b4329112c43e8274
dead-write f08dd969fce519bc f08dd969fce519bc 4bf2a9ce6aae1aac
exposed-cross-fu 99b2fecaaa2abf66 f149ef9c4183bb01 b26875b8ed59a127
exposed-fp-double 3b8c9c8c626759a4 7759d19b60c8da88 d419ee29a7a2381c
exposed-fp-single e8096d603872c264 3390e590bad4de8a f28abb3344088234
exposed-mul 577b20b060da9bc2 5830b116c6553dd9 b3cec705aeb29966
falls-off-end a0aa671d0d020867 a0aa671d0d020867 270d4eeb03241877
packet-waw 0cd2f7825f801366 0cd2f7825f801366 8c6c55c6887d7557
unreachable 43a356dc70258318 43a356dc70258318 1eb198b2d7e2a9db
use-before-def e97adc7cdd61a2a6 911f5e3c24bb2038 2903829874f52923
";

#[test]
fn analyze_output_matches_recorded_digests() {
    let actual: String = inputs().iter().map(|(name, prog)| line(name, prog) + "\n").collect();
    assert_eq!(actual, GOLDEN, "analyze output moved; the actual table is on the left");
}
