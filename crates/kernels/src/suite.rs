//! The canonical scenario suite: every shipped kernel with its fixed
//! deterministic workload (the same xorshift seeds the fault soak has
//! always used), plus the generated irregular-program corpus from
//! `majc-gen`, packaged as one case shape so the soak test, the
//! simulation farm, and the `reproduce` experiments all iterate one list
//! instead of re-declaring workload builders.

use std::sync::Arc;

use majc_gen::{GenProgram, SelfCheck};
use majc_isa::{Program, XorShift64};
use majc_mem::FlatMem;

use crate::*;

/// One ready-to-run scenario: a program image (shareable across farm
/// shards), its input memory, and — for generated corpus programs — the
/// architectural self-check the run must reproduce.
pub struct SuiteCase {
    pub name: String,
    pub prog: Arc<Program>,
    pub mem: FlatMem,
    /// Megacycle image kernels, skipped in debug-mode test runs.
    pub heavy: bool,
    /// Oracle-free postcondition: after a run, the FNV-1a digest of the
    /// checked memory window must equal `check.expect`. `None` for the
    /// hand-written kernels, which are verified against their Rust
    /// reference models instead.
    pub check: Option<SelfCheck>,
}

fn case(name: &str, (prog, mem): (Program, FlatMem), heavy: bool) -> SuiteCase {
    SuiteCase { name: name.to_string(), prog: Arc::new(prog), mem, heavy, check: None }
}

/// Master seed for the canonical generated corpus. Load-bearing like the
/// kernel xorshift seeds: E16, the farm soak, and the CI gates all
/// reproduce these exact programs.
pub const CORPUS_SEED: u64 = 0xC0E5_0A11;

/// Assemble one generated program into a runnable suite case.
pub fn gen_case(p: &GenProgram) -> SuiteCase {
    let prog = majc_asm::assemble(&p.asm)
        .unwrap_or_else(|e| panic!("{}: generated corpus program must assemble: {e}", p.name));
    let mut mem = FlatMem::new();
    for (base, bytes) in &p.sections {
        mem.write(*base, bytes);
    }
    SuiteCase {
        name: p.name.clone(),
        prog: Arc::new(prog),
        mem,
        heavy: false,
        check: Some(p.check),
    }
}

/// The canonical generated corpus: `per_family` programs per family under
/// [`CORPUS_SEED`], assembled and ready to run.
pub fn corpus_cases(per_family: usize) -> Vec<SuiteCase> {
    majc_gen::corpus(per_family, CORPUS_SEED).iter().map(gen_case).collect()
}

/// FNV-1a digest of a case's checked window in `mem` — compare against
/// [`SelfCheck::expect`] after a run.
pub fn result_digest(mem: &mut FlatMem, check: SelfCheck) -> u64 {
    let mut buf = vec![0u8; check.len as usize];
    mem.read(check.addr, &mut buf);
    majc_gen::fnv1a(&buf)
}

/// Every shipped kernel with its fixed workload, fast ones first. The
/// seeds are load-bearing: they reproduce the exact runs CI has always
/// soaked, so cycle counts and fault traces stay comparable release to
/// release.
pub fn cases() -> Vec<SuiteCase> {
    let mut out = Vec::new();

    let c = biquad::Cascade::demo(4);
    let mut rng = XorShift64::new(11);
    let input: Vec<f32> = (0..64).map(|_| rng.next_f32()).collect();
    out.push(case("biquad", biquad::build(&c, &input), false));

    let mut rng = XorShift64::new(12);
    let coeffs: Vec<f32> = (0..fir::TAPS).map(|_| rng.next_f32() * 0.2).collect();
    let xs: Vec<f32> = (0..fir::OUTPUTS + fir::TAPS - 1).map(|_| rng.next_f32()).collect();
    out.push(case("fir", fir::build(&coeffs, &xs), false));

    let mut rng = XorShift64::new(13);
    let cc: Vec<(f32, f32)> =
        (0..cfir::TAPS).map(|_| (rng.next_f32() * 0.2, rng.next_f32() * 0.2)).collect();
    let cx: Vec<(f32, f32)> =
        (0..cfir::OUTPUTS + cfir::TAPS - 1).map(|_| (rng.next_f32(), rng.next_f32())).collect();
    out.push(case("cfir", cfir::build(&cc, &cx), false));

    let mut rng = XorShift64::new(14);
    let w: Vec<f32> = (0..lms::ORDER).map(|_| rng.next_f32() * 0.5).collect();
    let x: Vec<f32> = (0..lms::ORDER).map(|_| rng.next_f32()).collect();
    out.push(case("lms", lms::build(&w, &x, rng.next_f32(), 0.05), false));

    let mut rng = XorShift64::new(15);
    let xs: Vec<f32> = (0..maxsearch::N).map(|_| rng.next_f32() * 100.0).collect();
    out.push(case("maxsearch", maxsearch::build(&xs), false));

    let mut rng = XorShift64::new(16);
    let data: Vec<(f32, f32)> = (0..fft::N).map(|_| (rng.next_f32(), rng.next_f32())).collect();
    let pre2: Vec<(f32, f32)> = (0..fft::N).map(|i| data[bitrev::rev(i)]).collect();
    out.push(case("fft-radix2", fft::build_radix2(&pre2), false));

    let mut rng = XorShift64::new(17);
    let data: Vec<(f32, f32)> = (0..fft::N).map(|_| (rng.next_f32(), rng.next_f32())).collect();
    let pre4: Vec<(f32, f32)> = (0..fft::N).map(|i| data[fft::digit_rev4(i)]).collect();
    out.push(case("fft-radix4", fft::build_radix4(&pre4), false));

    let mut rng = XorShift64::new(18);
    let data: Vec<(f32, f32)> = (0..fft::N).map(|_| (rng.next_f32(), rng.next_f32())).collect();
    out.push(case("bitrev", bitrev::build(&data), false));

    let mut rng = XorShift64::new(19);
    let mut coeffs = [0i16; 64];
    coeffs[0] = rng.next_i16(1000);
    for _ in 0..12 {
        coeffs[rng.next_range(64)] = rng.next_i16(300);
    }
    out.push(case("idct", idct::build(&coeffs), false));

    let mut rng = XorShift64::new(20);
    let px: [i16; 64] = std::array::from_fn(|_| rng.next_i16(255));
    out.push(case("dct", dct::build(&px, &dct::demo_qmatrix(2)), false));

    let blocks = vld::workload(7, 16);
    let (stream, _nsym) = vld::encode(&blocks);
    out.push(case("vld", vld::build(&stream, blocks.len()), false));

    let (frame, cur) = motion::workload(7, 6, -4);
    out.push(case("motion", motion::build(&frame, &cur), false));

    let mut rng = XorShift64::new(21);
    let a: [f64; 64] = std::array::from_fn(|_| rng.next_f32() as f64);
    let b: [f64; 64] = std::array::from_fn(|_| rng.next_f32() as f64);
    out.push(case("dmatmul", dmatmul::build(&a, &b), false));

    let (p, _flops, m) = peak::build_flops(64);
    out.push(case("peak-flops", (p, m), false));

    let (p, _ops, m) = peak::build_ops(64);
    out.push(case("peak-ops", (p, m), false));

    let (mat, light, vs) = transform_light::demo_scene(33);
    out.push(case("transform-light", transform_light::build(&mat, &light, &vs), false));

    // The two 512x512 image kernels run for about a megacycle each.
    let mut rng = XorShift64::new(22);
    let img: Vec<i16> =
        (0..convolve::WIDTH * convolve::HEIGHT).map(|_| rng.next_i16(255).abs()).collect();
    out.push(case("convolve", convolve::build(&img, &convolve::demo_kernel()), true));

    let mut rng = XorShift64::new(23);
    let n = colorconv::WIDTH * colorconv::HEIGHT;
    let r: Vec<i16> = (0..n).map(|_| rng.next_i16(255).abs()).collect();
    let g: Vec<i16> = (0..n).map(|_| rng.next_i16(255).abs()).collect();
    let b: Vec<i16> = (0..n).map(|_| rng.next_i16(255).abs()).collect();
    out.push(case("colorconv", colorconv::build(&r, &g, &b), true));

    out
}

/// The fast subset — everything but the megacycle image kernels.
pub fn fast_cases() -> Vec<SuiteCase> {
    let mut v = cases();
    v.retain(|c| !c.heavy);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_shape_is_stable() {
        let all = cases();
        assert_eq!(all.len(), 18);
        assert_eq!(all.iter().filter(|c| c.heavy).count(), 2);
        let names: Vec<&str> = all.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names[0], "biquad");
        assert!(names.contains(&"fir") && names.contains(&"colorconv"));
        // Names are unique — the farm keys merged reports on them.
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        // Hand-written kernels carry no self-check; the corpus always does.
        assert!(all.iter().all(|c| c.check.is_none()));
    }

    #[test]
    fn corpus_cases_assemble_and_share_the_suite_shape() {
        let corpus = corpus_cases(1);
        assert_eq!(corpus.len(), majc_gen::Family::ALL.len());
        for c in &corpus {
            assert!(c.check.is_some(), "{}: corpus cases must self-check", c.name);
            assert!(!c.heavy);
            assert!(!c.prog.is_empty());
        }
        // Corpus names never collide with kernel names (different alphabets:
        // kernel names contain no hex-seed suffix).
        let kernels = cases();
        for c in &corpus {
            assert!(kernels.iter().all(|k| k.name != c.name));
        }
    }
}
