//! Every program this repository ships — all Table 1/2 kernels and the
//! peak-rate loops (the Table 3 applications compose these same kernels)
//! — must lint clean under the default model. The linter gates real
//! hand-scheduled code, not just toy examples.

use majc_isa::{Program, XorShift64};
use majc_kernels::{
    biquad, bitrev, cfir, colorconv, convolve, dct, dmatmul, fft, fir, idct, lms, maxsearch,
    motion, peak, transform_light, vld,
};
use majc_lint::{lint, LintOptions};

fn corpus() -> Vec<(&'static str, Program)> {
    let mut rng = XorShift64::new(3);
    let mut out: Vec<(&'static str, Program)> = Vec::new();

    let mut coeffs = [0i16; 64];
    coeffs[0] = rng.next_i16(1000);
    for _ in 0..12 {
        coeffs[rng.next_range(64)] = rng.next_i16(300);
    }
    out.push(("idct", idct::build(&coeffs).0));

    let px: [i16; 64] = std::array::from_fn(|_| rng.next_i16(255));
    out.push(("dct", dct::build(&px, &dct::demo_qmatrix(2)).0));

    let blocks = vld::workload(7, 8);
    let (stream, _) = vld::encode(&blocks);
    out.push(("vld", vld::build(&stream, blocks.len()).0));

    let (frame, cur) = motion::workload(7, 6, -4);
    out.push(("motion", motion::build(&frame, &cur).0));

    let img: Vec<i16> =
        (0..convolve::WIDTH * convolve::HEIGHT).map(|_| rng.next_i16(255).abs()).collect();
    out.push(("convolve", convolve::build(&img, &convolve::demo_kernel()).0));

    let n = colorconv::WIDTH * colorconv::HEIGHT;
    let r: Vec<i16> = (0..n).map(|_| rng.next_i16(255).abs()).collect();
    let g: Vec<i16> = (0..n).map(|_| rng.next_i16(255).abs()).collect();
    let b: Vec<i16> = (0..n).map(|_| rng.next_i16(255).abs()).collect();
    out.push(("colorconv", colorconv::build(&r, &g, &b).0));

    let c = biquad::Cascade::demo(4);
    out.push(("biquad", biquad::build(&c, &[0.5f32]).0));

    let coeffs: Vec<f32> = (0..fir::TAPS).map(|_| rng.next_f32() * 0.2).collect();
    let xs: Vec<f32> = (0..fir::OUTPUTS + fir::TAPS - 1).map(|_| rng.next_f32()).collect();
    out.push(("fir", fir::build(&coeffs, &xs).0));

    let cc: Vec<(f32, f32)> =
        (0..cfir::TAPS).map(|_| (rng.next_f32() * 0.2, rng.next_f32() * 0.2)).collect();
    let cx: Vec<(f32, f32)> =
        (0..cfir::OUTPUTS + cfir::TAPS - 1).map(|_| (rng.next_f32(), rng.next_f32())).collect();
    out.push(("cfir", cfir::build(&cc, &cx).0));

    let w: Vec<f32> = (0..lms::ORDER).map(|_| rng.next_f32() * 0.5).collect();
    let x: Vec<f32> = (0..lms::ORDER).map(|_| rng.next_f32()).collect();
    out.push(("lms", lms::build(&w, &x, rng.next_f32(), 0.05).0));

    let xs: Vec<f32> = (0..maxsearch::N).map(|_| rng.next_f32() * 100.0).collect();
    out.push(("maxsearch", maxsearch::build(&xs).0));

    let data: Vec<(f32, f32)> = (0..fft::N).map(|_| (rng.next_f32(), rng.next_f32())).collect();
    let pre2: Vec<(f32, f32)> = (0..fft::N).map(|i| data[bitrev::rev(i)]).collect();
    out.push(("fft_radix2", fft::build_radix2(&pre2).0));
    let pre4: Vec<(f32, f32)> = (0..fft::N).map(|i| data[fft::digit_rev4(i)]).collect();
    out.push(("fft_radix4", fft::build_radix4(&pre4).0));
    out.push(("bitrev", bitrev::build(&data).0));

    let a: [f64; 64] = std::array::from_fn(|i| i as f64 * 0.25 - 8.0);
    let b: [f64; 64] = std::array::from_fn(|i| 1.0 / (i + 1) as f64);
    out.push(("dmatmul", dmatmul::build(&a, &b).0));

    let (m, l, vs) = transform_light::demo_scene(15);
    out.push(("transform_light", transform_light::build(&m, &l, &vs).0));

    out.push(("peak_flops", peak::build_flops(2).0));
    out.push(("peak_ops", peak::build_ops(2).0));

    out
}

#[test]
fn every_shipped_program_lints_clean() {
    let mut checked = 0;
    for (name, prog) in corpus() {
        let r = lint(&prog, &LintOptions::default());
        assert!(r.is_clean(), "kernel `{name}` has lint findings:\n{r}");
        checked += 1;
    }
    assert!(checked >= 18, "corpus shrank: only {checked} programs");
}
