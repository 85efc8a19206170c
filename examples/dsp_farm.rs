//! A telecom DSP-farm scenario (the paper targets "digital voice
//! processing for telecommunications"): run the Table 2 filter kernels as
//! a voice channel's processing chain and report how many concurrent
//! channels one MAJC-5200 CPU sustains.
//!
//! ```sh
//! cargo run --release --example dsp_farm
//! ```

use majc::core::TimingConfig;
use majc::isa::XorShift64;
use majc::kernels::harness::{measure, run_warm, MemModel};
use majc::kernels::{biquad, fir, lms};

fn main() {
    let mut rng = XorShift64::new(5);

    // Per-channel chain at 8 kHz: band-pass (8-biquad cascade), 64-tap
    // adaptive echo canceller segment (LMS), and a 64-tap FIR equaliser
    // processed in 64-sample frames.
    let cascade = biquad::Cascade::demo(3);
    let frame: Vec<f32> = (0..64).map(|_| rng.next_f32()).collect();
    let (p, m) = biquad::build(&cascade, &frame);
    let iir_cycles = measure(&p, m);

    let w: Vec<f32> = (0..lms::ORDER).map(|_| rng.next_f32() * 0.3).collect();
    let x: Vec<f32> = (0..lms::ORDER).map(|_| rng.next_f32()).collect();
    let (p, m) = lms::build(&w, &x, rng.next_f32(), 0.05);
    let lms_cycles = measure(&p, m);

    let coeffs: Vec<f32> = (0..fir::TAPS).map(|_| rng.next_f32() * 0.2).collect();
    let xs: Vec<f32> = (0..fir::OUTPUTS + fir::TAPS - 1).map(|_| rng.next_f32()).collect();
    let (p, m) = fir::build(&coeffs, &xs);
    let fir_cycles = measure(&p, m);

    println!("kernel costs (cycle-accurate, warm caches):");
    println!("  8-biquad IIR, 64 samples : {iir_cycles} cycles");
    println!("  16-tap LMS step          : {lms_cycles} cycles");
    println!("  64-tap FIR, 64 samples   : {fir_cycles} cycles");

    // Frames per second per channel at 8 kHz in 64-sample frames.
    let fps = 8000.0 / 64.0;
    let per_channel = (iir_cycles + fir_cycles) as f64 * fps + lms_cycles as f64 * 8000.0;
    let channels = 500e6 / per_channel;
    println!("\nper-channel load: {:.2} Mcycles/s", per_channel / 1e6);
    println!(
        "one CPU sustains ~{} voice channels ({} per chip)",
        channels as u64,
        2 * channels as u64
    );

    // Show the memory-effects split the paper reports for its DSP rows.
    let (p, m) = fir::build(&coeffs, &xs);
    let dram = run_warm(&p, m.clone(), MemModel::Dram, TimingConfig::default()).stats.cycles;
    let perfect = run_warm(&p, m, MemModel::Perfect, TimingConfig::default()).stats.cycles;
    println!(
        "\nFIR with real memory: {dram} cycles; perfect memory: {perfect} ({}% overhead)",
        (dram as f64 / perfect as f64 - 1.0) * 100.0
    );
}
