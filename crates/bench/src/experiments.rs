//! One function per paper artifact, each regenerating its table/figure
//! (DESIGN.md experiment index E1-E10).

use majc_core::{json::quote, BypassModel, TimingConfig};
use majc_isa::XorShift64;
use majc_kernels::harness::{measure, run_warm, MemModel};
use majc_kernels::{
    biquad, bitrev, cfir, colorconv, convolve, dct, fft, fir, idct, lms, maxsearch, motion, peak,
    transform_light, vld,
};
use majc_mem::FlatMem;
use majc_soc::{Dte, Endpoint, Link};

use crate::report::{save_note, Row, Table};

fn k(v: u64) -> String {
    format!("{v}")
}

/// Worker counts an experiment sweeps when run without `--jobs`.
const SWEEP_JOBS: [usize; 3] = [1, 2, 4];

/// Run an experiment's batch on `n` workers for `jobs: Some(n)`, or once
/// per [`SWEEP_JOBS`] count for `jobs: None`, and assert that every run's
/// deterministic report (the `String` half of `run_batch`'s result) is
/// byte-identical to the first run's. Returns each run with its worker
/// count, in sweep order.
fn sweep<R>(
    jobs: Option<usize>,
    run_batch: impl Fn(usize) -> (String, R),
) -> Vec<(usize, (String, R))> {
    let counts = jobs.map_or(SWEEP_JOBS.to_vec(), |n| vec![n]);
    let runs: Vec<(usize, (String, R))> = counts.into_iter().map(|n| (n, run_batch(n))).collect();
    let (_, (base, _)) = &runs[0];
    for (n, (report, _)) in &runs {
        assert_eq!(report, base, "report must be byte-identical at --jobs {n}");
    }
    runs
}

/// The row a full sweep adds once its `what` compared byte-identical.
fn determinism_row(what: &str) -> Row {
    Row::new("determinism", "byte-identical", "byte-identical", format!("{what} at --jobs 1/2/4"))
}

/// Close a swept experiment's table: the determinism verdict after a full
/// sweep, then the `label` row saying where the deterministic report
/// `file` was saved.
fn report_rows(t: &mut Table, jobs: Option<usize>, label: &str, file: &str, report: &str) {
    let note = match jobs {
        Some(n) => format!("--jobs {n}"),
        None => {
            t.push(determinism_row(&format!("{label}s")));
            String::new()
        }
    };
    t.push(Row::new(label, "-", save_note(file, report), note));
}

/// Run a batch of independent kernel simulations through the simulation
/// farm (each row is a self-contained program + memory image) and emit
/// rows in order.
fn measure_rows(t: &mut Table, jobs: Vec<(String, String, majc_isa::Program, FlatMem, String)>) {
    let farm = crate::farm::Farm::new(crate::farm::Farm::available());
    let rows = farm.run(jobs, |_, (name, paper, prog, mem, note)| {
        let cycles = measure(&prog, mem);
        Row::new(name, paper, format!("{cycles} cycles"), note)
    });
    for r in rows {
        t.push(r);
    }
}

// ------------------------------- E1 -------------------------------

/// Table 1: video/image processing benchmarks.
pub fn table1() -> Table {
    let mut t = Table::new("table1", "Video/Image Processing Benchmarks (per single CPU)");
    let mut rng = XorShift64::new(3);

    let mut coeffs = [0i16; 64];
    coeffs[0] = rng.next_i16(1000);
    for _ in 0..12 {
        coeffs[rng.next_range(64)] = rng.next_i16(300);
    }
    let (p, m) = idct::build(&coeffs);
    t.push(Row::new("8x8 IDCT", "304 cycles", format!("{} cycles", measure(&p, m)), ""));

    let px: [i16; 64] = std::array::from_fn(|_| rng.next_i16(255));
    let (p, m) = dct::build(&px, &dct::demo_qmatrix(2));
    t.push(Row::new(
        "8x8 DCT + Quantization",
        "200 cycles",
        format!("{} cycles", measure(&p, m)),
        "",
    ));

    let blocks = vld::workload(7, 64);
    let (stream, nsym) = vld::encode(&blocks);
    let (p, m) = vld::build(&stream, blocks.len());
    let cyc = measure(&p, m) as f64 / nsym as f64;
    t.push(Row::new(
        "MPEG-2 VLD+IZZ+IQ",
        "27 MSymbols/sec",
        format!("{:.1} MSymbols/sec", 500.0 / cyc),
        format!("{cyc:.1} cyc/sym"),
    ));

    let (frame, cur) = motion::workload(7, 6, -4);
    let (p, m) = motion::build(&frame, &cur);
    t.push(Row::new(
        "Motion Est. / ±16 MV range",
        "3000 cycles",
        format!("{} cycles", measure(&p, m)),
        "",
    ));

    let img: Vec<i16> =
        (0..convolve::WIDTH * convolve::HEIGHT).map(|_| rng.next_i16(255).abs()).collect();
    let (p, m) = convolve::build(&img, &convolve::demo_kernel());
    t.push(Row::new(
        "5x5 Convolution (512x512)",
        "1.65 Mcycles",
        format!("{:.2} Mcycles", measure(&p, m) as f64 / 1e6),
        "500x508 valid region",
    ));

    let n = colorconv::WIDTH * colorconv::HEIGHT;
    let r: Vec<i16> = (0..n).map(|_| rng.next_i16(255).abs()).collect();
    let g: Vec<i16> = (0..n).map(|_| rng.next_i16(255).abs()).collect();
    let b: Vec<i16> = (0..n).map(|_| rng.next_i16(255).abs()).collect();
    let (p, m) = colorconv::build(&r, &g, &b);
    t.push(Row::new(
        "512x512 Color Conversion",
        "0.9 Mcycles",
        format!("{:.2} Mcycles", measure(&p, m) as f64 / 1e6),
        "",
    ));
    t
}

// ------------------------------- E2 -------------------------------

/// Table 2: signal processing benchmarks. The nine kernels are
/// independent simulations, so they run as a Rayon parallel batch.
pub fn table2() -> Table {
    let mut t = Table::new("table2", "Signal Processing Benchmarks (per single CPU)");
    let mut rng = XorShift64::new(9);
    let mut jobs: Vec<(String, String, majc_isa::Program, FlatMem, String)> = Vec::new();
    let job = |name: &str, paper: &str, pm: (majc_isa::Program, FlatMem), note: &str| {
        (name.to_string(), paper.to_string(), pm.0, pm.1, note.to_string())
    };

    let c = biquad::Cascade::demo(4);
    jobs.push(job(
        "Cascade of eight 2nd order Biquads",
        "63 cycles",
        biquad::build(&c, &[0.5f32]),
        "1 sample",
    ));

    let coeffs: Vec<f32> = (0..fir::TAPS).map(|_| rng.next_f32() * 0.2).collect();
    let xs: Vec<f32> = (0..fir::OUTPUTS + fir::TAPS - 1).map(|_| rng.next_f32()).collect();
    jobs.push(job("64-sample, 64-tap FIR", "2757 cycles", fir::build(&coeffs, &xs), ""));

    let input: Vec<f32> = (0..64).map(|_| rng.next_f32()).collect();
    jobs.push(job("64-sample, 16th order IIR", "2021 cycles", biquad::build(&c, &input), ""));

    let cc: Vec<(f32, f32)> =
        (0..cfir::TAPS).map(|_| (rng.next_f32() * 0.2, rng.next_f32() * 0.2)).collect();
    let cx: Vec<(f32, f32)> =
        (0..cfir::OUTPUTS + cfir::TAPS - 1).map(|_| (rng.next_f32(), rng.next_f32())).collect();
    jobs.push(job("64-sample, 64-tap Complex FIR", "8643 cycles", cfir::build(&cc, &cx), ""));

    let w: Vec<f32> = (0..lms::ORDER).map(|_| rng.next_f32() * 0.5).collect();
    let x: Vec<f32> = (0..lms::ORDER).map(|_| rng.next_f32()).collect();
    jobs.push(job(
        "Single Sample, 16th order LMS",
        "64 cycles",
        lms::build(&w, &x, rng.next_f32(), 0.05),
        "",
    ));

    let xs: Vec<f32> = (0..maxsearch::N).map(|_| rng.next_f32() * 100.0).collect();
    jobs.push(job("Max Search, max value in array of 40", "126 cycles", maxsearch::build(&xs), ""));

    let data: Vec<(f32, f32)> = (0..fft::N).map(|_| (rng.next_f32(), rng.next_f32())).collect();
    let pre2: Vec<(f32, f32)> = (0..fft::N).map(|i| data[bitrev::rev(i)]).collect();
    jobs.push(job(
        "Radix-2, 1024-point complex FFT",
        "n/a (OCR loss)",
        fft::build_radix2(&pre2),
        "paper cell lost",
    ));

    let pre4: Vec<(f32, f32)> = (0..fft::N).map(|i| data[fft::digit_rev4(i)]).collect();
    jobs.push(job(
        "Radix-4, 1024-point complex FFT",
        "n/a (OCR loss)",
        fft::build_radix4(&pre4),
        "paper cell lost",
    ));

    jobs.push(job("Bit reversal, 1024-point", "2484 cycles", bitrev::build(&data), ""));

    measure_rows(&mut t, jobs);
    t
}

// ------------------------------- E3 -------------------------------

/// Table 3: application performance.
pub fn table3() -> Table {
    let mut t = Table::new("table3", "Application Performance (single CPU utilization)");
    for r in majc_apps::speech::rows() {
        t.push(Row::new(
            r.name,
            format!("{:.1}% ({:.0}% w/o mem)", r.paper_with_mem, r.paper_without_mem),
            format!("{:.1}% ({:.1}% w/o mem)", r.measured.with_mem, r.measured.without_mem),
            "",
        ));
    }
    let m = majc_apps::mpeg2::row();
    t.push(Row::new(
        "MPEG-2 Video Decode (5Mbps, MP@ML)",
        format!("{:.0}% ({:.0}% w/o mem)", m.paper_with_mem, m.paper_without_mem),
        format!("{:.1}% ({:.1}% w/o mem)", m.measured.with_mem, m.measured.without_mem),
        "",
    ));
    let a = majc_apps::audio::row();
    t.push(Row::new(
        "AC-3, MP2 Audio Decode",
        format!("{:.0}-{:.0}%", a.paper_low, a.paper_high),
        format!("{:.1}% ({:.1}% w/o mem)", a.measured.with_mem, a.measured.without_mem),
        "",
    ));
    for r in majc_apps::imaging::rows() {
        t.push(Row::new(
            r.name,
            format!("{:.0} MB/s", r.paper_mbps),
            format!("{:.1} MB/s ({:.1} w/o mem)", r.measured_mbps, r.measured_mbps_perfect),
            "",
        ));
    }
    let h = majc_apps::h263::row();
    t.push(Row::new(
        "H.263 Codec (128 kbps, 15 fps, CIF)",
        format!("{:.0}%", h.paper_with_mem),
        format!("{:.1}% ({:.1}% w/o mem)", h.measured.with_mem, h.measured.without_mem),
        "",
    ));
    t
}

// ------------------------------- E4 -------------------------------

/// Figure 1 / §3.1: chip interfaces and DMA bandwidths.
pub fn fig1() -> Table {
    let mut t = Table::new("fig1", "Chip I/O (Figure 1 block diagram claims)");
    let clock = 500e6;
    t.push(Row::new(
        "DRDRAM peak",
        "1.6 GB/s",
        format!("{:.2} GB/s", majc_mem::Dram::default().peak_gbps(clock)),
        "16-bit @ 800 MT/s",
    ));
    t.push(Row::new(
        "PCI peak",
        "264 MB/s",
        format!("{:.0} MB/s", Link::pci().peak_gbps(clock) * 1000.0),
        "32-bit @ 66 MHz",
    ));
    t.push(Row::new(
        "North UPA peak",
        "2.0 GB/s",
        format!("{:.1} GB/s", Link::upa("NUPA").peak_gbps(clock)),
        "64-bit @ 250 MHz",
    ));
    t.push(Row::new(
        "South UPA peak",
        "2.0 GB/s",
        format!("{:.1} GB/s", Link::upa("SUPA").peak_gbps(clock)),
        "64-bit @ 250 MHz",
    ));
    let aggregate = 2.0 + 2.0 + 0.264 + 1.6;
    t.push(Row::new(
        "Aggregate peak I/O",
        "> 4.8 GB/s",
        format!("{aggregate:.2} GB/s"),
        "NUPA+SUPA+PCI+DRAM",
    ));

    // Measured DMA transfers through the DTE and crossbar.
    let run = |src: Endpoint, sa: u32, dst: Endpoint, da: u32, len: u32| -> f64 {
        let mut dte = Dte::new();
        let mut xbar = majc_soc::Crossbar::new();
        let mut mem = FlatMem::new();
        dte.transfer(&mut xbar, &mut mem, 0, src, sa, dst, da, len).gbps(clock)
    };
    t.push(Row::new(
        "DTE: DRAM -> SUPA (64 KB)",
        "DRAM-bound (1.6)",
        format!("{:.2} GB/s", run(Endpoint::Dram, 0, Endpoint::Supa, 0, 65536)),
        "measured DMA",
    ));
    t.push(Row::new(
        "DTE: NUPA -> DRAM (64 KB)",
        "DRAM-bound (1.6)",
        format!("{:.2} GB/s", run(Endpoint::Nupa, 0, Endpoint::Dram, 0x10_0000, 65536)),
        "measured DMA",
    ));
    t.push(Row::new(
        "DTE: PCI -> DRAM (16 KB)",
        "PCI-bound (0.26)",
        format!("{:.2} GB/s", run(Endpoint::Pci, 0, Endpoint::Dram, 0x20_0000, 16384)),
        "measured DMA",
    ));
    t.push(Row::new(
        "DTE: NUPA -> SUPA (64 KB)",
        "UPA-bound (2.0)",
        format!("{:.2} GB/s", run(Endpoint::Nupa, 0, Endpoint::Supa, 0, 65536)),
        "measured DMA",
    ));
    t
}

// ------------------------------- E5 -------------------------------

/// Figure 2 / §3.2: CPU pipeline properties.
pub fn fig2() -> Table {
    use majc_asm::Asm;
    use majc_core::{CycleSim, PerfectPort};
    use majc_isa::{AluOp, Cond, Instr, Reg, Src};

    let mut t = Table::new("fig2", "CPU microarchitecture probes (Figure 2 / section 3.2)");

    // Load-to-use: dependent load/add pair vs independent.
    let probe = |dep: bool| -> u64 {
        let mut a = Asm::new(0);
        a.set32(Reg::g(0), 0x1000);
        for _ in 0..64 {
            a.op(Instr::Ld {
                w: majc_isa::MemWidth::W,
                pol: majc_isa::CachePolicy::Cached,
                rd: Reg::g(1),
                base: Reg::g(0),
                off: majc_isa::Off::Imm(0),
            });
            let src = if dep { Reg::g(1) } else { Reg::g(3) };
            a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(2), rs1: src, src2: Src::Imm(1) });
        }
        a.op(Instr::Halt);
        let mut sim =
            CycleSim::new(a.finish().unwrap(), PerfectPort::new(), TimingConfig::default());
        sim.run(100_000).unwrap();
        sim.stats.cycles
    };
    let (depc, indc) = (probe(true), probe(false));
    t.push(Row::new(
        "load-to-use latency",
        "2 cycles",
        format!("{} cycles", 1 + (depc - indc) / 64),
        "dependent minus independent probe",
    ));

    // Bypass: FU0->FU1 free, FU0->FU2 one cycle.
    let xfu = TimingConfig::default();
    t.push(Row::new(
        "bypass FU0<->FU1",
        "0 extra cycles",
        format!("{} extra", xfu.xfu_delay(0, 1)),
        "complete bypass",
    ));
    t.push(Row::new(
        "bypass FU0->FU2/FU3",
        "1 extra cycle",
        format!("{} extra", xfu.xfu_delay(0, 2)),
        "",
    ));

    // gshare on a biased branch mix.
    let mut a = Asm::new(0);
    a.set32(Reg::g(0), 4000);
    a.label("loop");
    a.op(Instr::Alu { op: AluOp::Sub, rd: Reg::g(0), rs1: Reg::g(0), src2: Src::Imm(1) });
    a.op(Instr::Alu { op: AluOp::And, rd: Reg::g(1), rs1: Reg::g(0), src2: Src::Imm(7) });
    a.br(Cond::Ne, Reg::g(1), "skip", true);
    a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(2), rs1: Reg::g(2), src2: Src::Imm(1) });
    a.label("skip");
    a.br(Cond::Gt, Reg::g(0), "loop", true);
    a.op(Instr::Halt);
    let mut sim =
        CycleSim::new(a.finish().unwrap(), majc_core::PerfectPort::new(), TimingConfig::default());
    sim.run(1_000_000).unwrap();
    t.push(Row::new(
        "gshare (4096 entries, 12 history bits)",
        "2-level g-share array",
        format!("{:.1}% accuracy", sim.predictor_stats().accuracy() * 100.0),
        "period-8 pattern + loop branch",
    ));

    // Issue-width histogram of a real kernel (FIR).
    let mut rng = XorShift64::new(9);
    let coeffs: Vec<f32> = (0..fir::TAPS).map(|_| rng.next_f32() * 0.2).collect();
    let xs: Vec<f32> = (0..fir::OUTPUTS + fir::TAPS - 1).map(|_| rng.next_f32()).collect();
    let (p, m) = fir::build(&coeffs, &xs);
    let stats = run_warm(&p, m, MemModel::Dram, TimingConfig::default()).stats;
    t.push(Row::new(
        "issue width histogram (FIR kernel)",
        "1-4 instr packets, 2-bit header",
        format!("{:?}", stats.width_hist),
        format!("mean width {:.2}", stats.mean_width()),
    ));
    t.push(Row::new(
        "packets/cycle (FIR kernel)",
        "<= 1 (in-order)",
        format!("{:.2}", stats.ppc()),
        "",
    ));
    t
}

// ------------------------------- E6 -------------------------------

/// Headline peak rates.
pub fn peak_rates() -> Table {
    let mut t = Table::new("peak", "Peak rates (sections 1/4/6)");
    t.push(Row::new(
        "GFLOPS (analytic)",
        "6.16",
        format!("{:.2}", peak::analytic_gflops(500e6)),
        "2 CPUs x (3 FMA + rsqrt/6)",
    ));
    let f = peak::measure_gflops(500);
    t.push(Row::new(
        "GFLOPS (sustained kernel)",
        "> 6",
        format!("{:.2}", f.chip_rate),
        format!("{:.3} flops/cycle/CPU", f.per_cycle),
    ));
    t.push(Row::new(
        "GOPS 16-bit (analytic)",
        "12.33",
        format!("{:.2}", peak::analytic_gops(500e6)),
        "2 CPUs x (3 dotp + pdiv/6)",
    ));
    let o = peak::measure_gops(500);
    t.push(Row::new(
        "GOPS (sustained kernel)",
        "> 12",
        format!("{:.2}", o.chip_rate),
        format!("{:.3} ops/cycle/CPU", o.per_cycle),
    ));
    t
}

// ------------------------------- E7 -------------------------------

/// Graphics pipeline: 60-90 Mtriangles/s.
pub fn graphics() -> Table {
    let mut t = Table::new("graphics", "Graphics pipeline (section 5: 60-90 Mtri/s)");
    let cpv = transform_light::cycles_per_vertex(126);
    t.push(Row::new(
        "transform+light",
        "-",
        format!("{cpv:.1} cycles/vertex"),
        "measured on the cycle simulator",
    ));
    for (label, strips, len, gpp_rate) in [
        ("long strips", 32usize, 200usize, 4.0f64),
        ("short strips", 200, 12, 4.0),
        ("slow GPP (1 B/cycle)", 32, 200, 1.0),
    ] {
        let scene = majc_gfx::demo_strips(strips, len, 11);
        let c = majc_gfx::compress(&scene, 100.0);
        let cfg = majc_gfx::PipelineConfig {
            cycles_per_vertex: cpv,
            gpp_bytes_per_cycle: gpp_rate,
            tris_per_vertex: c.triangle_count as f64 / c.vertex_count as f64,
            ..Default::default()
        };
        let r = majc_gfx::simulate(&c, &cfg);
        t.push(Row::new(
            format!("GPP pipeline, {label}"),
            "60-90 Mtri/s",
            format!("{:.1} Mtri/s", r.mtris_per_sec),
            format!(
                "cpu util {:.0}%/{:.0}%, ratio {:.1}x",
                r.cpu_util[0] * 100.0,
                r.cpu_util[1] * 100.0,
                c.ratio()
            ),
        ));
    }
    t
}

// ------------------------------- E8 -------------------------------

/// Ablations over the design choices the paper highlights.
pub fn ablations() -> Table {
    let mut t = Table::new("ablations", "Design-choice ablations");
    let mut rng = XorShift64::new(21);

    // Bypass network, on the cross-unit-heavy IDCT dataflow.
    let mut blk = [0i16; 64];
    for _ in 0..12 {
        blk[rng.next_range(64)] = rng.next_i16(300);
    }
    for (label, model) in [
        ("MAJC bypass (FU0<->FU1 free)", BypassModel::Majc),
        ("full bypass (idealised)", BypassModel::Full),
        ("write-back only (no bypass)", BypassModel::WbOnly),
    ] {
        let (p, m) = idct::build(&blk);
        let cfg = TimingConfig { bypass: model, ..Default::default() };
        let c = run_warm(&p, m, MemModel::Dram, cfg).stats.cycles;
        t.push(Row::new(format!("8x8 IDCT, {label}"), "-", k(c), "cycles"));
    }

    // Branch prediction on a data-dependent (period-8) branch pattern that
    // static hints cannot capture.
    {
        use majc_asm::Asm;
        use majc_isa::{AluOp, Cond, Reg, Src};
        fn branchy() -> majc_isa::Program {
            let mut a = Asm::new(0);
            a.set32(Reg::g(0), 4096);
            a.label("loop");
            a.op(Instr::Alu { op: AluOp::Sub, rd: Reg::g(0), rs1: Reg::g(0), src2: Src::Imm(1) });
            a.op(Instr::Alu { op: AluOp::And, rd: Reg::g(1), rs1: Reg::g(0), src2: Src::Imm(3) });
            a.br(Cond::Ne, Reg::g(1), "skip", true);
            a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(2), rs1: Reg::g(2), src2: Src::Imm(1) });
            a.label("skip");
            a.br(Cond::Gt, Reg::g(0), "loop", true);
            a.op(Instr::Halt);
            a.finish().unwrap()
        }
        use majc_isa::Instr;
        for (label, dynamic) in [("gshare (4096 x 12)", true), ("static hints only", false)] {
            let mut cfg = TimingConfig::default();
            cfg.predictor.dynamic = dynamic;
            let mut sim = majc_core::CycleSim::new(branchy(), majc_core::PerfectPort::new(), cfg);
            sim.run(10_000_000).unwrap();
            t.push(Row::new(
                format!("period-4 branch loop, {label}"),
                "-",
                k(sim.stats.cycles),
                format!("{:.1}% accuracy", sim.predictor_stats().accuracy() * 100.0),
            ));
        }
    }

    // Non-blocking memory (MSHR count) on the streaming, prefetching
    // colour conversion.
    let n = colorconv::WIDTH * colorconv::HEIGHT;
    let cr: Vec<i16> = (0..n).map(|_| rng.next_i16(255).abs()).collect();
    let cg: Vec<i16> = (0..n).map(|_| rng.next_i16(255).abs()).collect();
    let cb: Vec<i16> = (0..n).map(|_| rng.next_i16(255).abs()).collect();
    for mshrs in [4usize, 1] {
        let (p, mem) = colorconv::build(&cr, &cg, &cb);
        let mut ms = majc_core::LocalMemSys::majc5200().with_mem(mem);
        ms.dcache = majc_mem::DCache::new(majc_mem::DCacheConfig { mshrs, ..Default::default() });
        let mut sim = majc_core::CycleSim::new(p.clone(), ms, TimingConfig::default());
        sim.run(200_000_000).unwrap();
        let mut port = sim.port;
        port.new_epoch();
        let mut sim = majc_core::CycleSim::new(p, port, TimingConfig::default());
        sim.run(200_000_000).unwrap();
        t.push(Row::new(
            format!("512x512 color conversion, {mshrs} MSHR{}", if mshrs == 1 { "" } else { "s" }),
            if mshrs == 4 { "4 outstanding misses" } else { "-" },
            format!("{:.2} Mcycles", sim.stats.cycles as f64 / 1e6),
            "",
        ));
    }

    // Vertical micro-threading on a pointer-walking (miss-heavy) loop.
    {
        use majc_asm::Asm;
        use majc_isa::{AluOp, Cond, Instr, Reg, Src};
        fn walker() -> majc_isa::Program {
            let mut a = Asm::new(0);
            a.set32(Reg::g(0), 0x0010_0000);
            a.set32(Reg::g(2), 512);
            a.label("l");
            a.op(Instr::Ld {
                w: majc_isa::MemWidth::W,
                pol: majc_isa::CachePolicy::Cached,
                rd: Reg::g(1),
                base: Reg::g(0),
                off: majc_isa::Off::Imm(0),
            });
            a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(3), rs1: Reg::g(1), src2: Src::Imm(1) });
            a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(0), rs1: Reg::g(0), src2: Src::Imm(32) });
            a.op(Instr::Alu { op: AluOp::Sub, rd: Reg::g(2), rs1: Reg::g(2), src2: Src::Imm(1) });
            a.br(Cond::Gt, Reg::g(2), "l", true);
            a.op(Instr::Halt);
            a.finish().unwrap()
        }
        for contexts in [1usize, 2] {
            let mut cfg = TimingConfig::default();
            cfg.threading.contexts = contexts;
            cfg.threading.switch_min_gain = 6;
            let mut sim =
                majc_core::CycleSim::new(walker(), majc_core::LocalMemSys::majc5200(), cfg);
            if contexts == 2 {
                let skip = sim.program().addr_of(4);
                sim.set_context_pc(1, skip);
                sim.regs_mut(1).set(Reg::g(0), 0x0020_0000);
                sim.regs_mut(1).set(Reg::g(2), 512);
            }
            sim.run(10_000_000).unwrap();
            let per_pkt = sim.stats.cycles as f64 / sim.stats.packets as f64;
            t.push(Row::new(
                format!(
                    "cache-miss walker, {contexts} context{}",
                    if contexts == 1 { "" } else { "s" }
                ),
                if contexts == 2 { "vertical microthreading" } else { "-" },
                format!("{per_pkt:.2} cycles/packet"),
                format!("{} switches", sim.stats.context_switches),
            ));
        }
    }
    t
}

// ------------------------------- E9 -------------------------------

/// Deterministic fault-injection soak (robustness harness, not a paper
/// artifact): the FIR kernel runs under the aggressive fault plan with a
/// one-packet `rte` handler, and the report breaks down what was injected,
/// how each site recovered, and what the faults cost in cycles. The run is
/// checked architecturally against a fault-free functional-simulator run.
pub fn faults() -> Table {
    use majc_core::{Backend, CycleSim, FuncSim, LocalMemSys, TrapPolicy};
    use majc_isa::{Instr, Packet, Program};
    use majc_mem::FaultPlan;

    const SEED: u64 = 0x5EED_50AC;
    let mut t = Table::new("faults", "Fault-injection soak (FIR kernel, fixed seed)");
    let mut rng = XorShift64::new(12);
    let coeffs: Vec<f32> = (0..fir::TAPS).map(|_| rng.next_f32() * 0.2).collect();
    let xs: Vec<f32> = (0..fir::OUTPUTS + fir::TAPS - 1).map(|_| rng.next_f32()).collect();
    let (p, m) = fir::build(&coeffs, &xs);

    let mut oracle = FuncSim::new(p.clone(), m.clone());
    oracle.run(200_000_000).expect("fault-free oracle");

    // Append the recovery handler (a transient fault squashes its packet
    // before commit, so plain re-execution via rte is a full recovery).
    let mut pkts = p.packets().to_vec();
    pkts.push(Packet::solo(Instr::Rte).expect("solo rte packet always validates"));
    let hp = Program::new(p.base(), pkts);
    let cfg = TimingConfig {
        trap_policy: TrapPolicy::Vector { base: hp.addr_of(hp.len() - 1) },
        ..Default::default()
    };

    let mut clean = CycleSim::new(hp.clone(), LocalMemSys::majc5200().with_mem(m.clone()), cfg);
    clean.run(200_000_000).expect("fault-free cycle run");

    let mut port = LocalMemSys::majc5200().with_mem(m);
    port.apply_fault_plan(&FaultPlan::soak(SEED));
    let mut sim = CycleSim::new(hp, port, cfg);
    sim.run(200_000_000).expect("soak run");

    let overhead =
        100.0 * (sim.stats.cycles as f64 - clean.stats.cycles as f64) / clean.stats.cycles as f64;
    let diff = oracle.mem.first_diff_detail(&sim.port.mem);
    t.push(Row::new("cycles, fault-free", "-", k(clean.stats.cycles), "baseline"));
    t.push(Row::new(
        "cycles, under soak plan",
        "-",
        k(sim.stats.cycles),
        format!("+{overhead:.1}% recovery overhead"),
    ));
    t.push(Row::new(
        "faults injected",
        "-",
        k(sim.port.fault_events_iter().count() as u64),
        format!("seed {SEED:#x}"),
    ));
    t.push(Row::new(
        "I-cache parity recoveries",
        "-",
        k(sim.port.icache.stats().parity_recoveries),
        "invalidate + refetch, transparent",
    ));
    t.push(Row::new(
        "D-cache parity recoveries",
        "-",
        k(sim.port.dcache.stats().parity_recoveries),
        "clean line invalidated, refilled",
    ));
    t.push(Row::new(
        "precise traps delivered",
        "-",
        k(sim.stats.traps),
        "dirty-line parity; rte retries the packet",
    ));
    if let Backend::Dram(d) = &sim.port.backend {
        t.push(Row::new(
            "DRDRAM transfer retries",
            "-",
            k(d.stats.retries),
            "bounded retry with backoff",
        ));
    }
    t.push(Row::new(
        "architectural state vs oracle",
        "identical",
        match &diff {
            None => "identical".to_string(),
            Some(d) => format!("DIVERGED at {:#010x}", d.addr),
        },
        "byte-exact against fault-free functional run",
    ));
    t
}

// ------------------------------- E10 ------------------------------

/// Per-level memory-hierarchy observability (not a paper artifact; the
/// instrumentation the transaction-based memory system exposes): I$/D$ hit
/// rates, MSHR high-water mark, LSU buffer peaks, crossbar grants, and
/// DRDRAM busy cycles for the kernel suite, measured over the warm pass
/// only (cold-start fills are subtracted out). The last row runs the
/// dual-CPU CAS-contention scenario on the SoC, where the shared D-cache's
/// port arbiter also reports same-line conflicts.
pub fn memstats() -> Table {
    use majc_core::{CycleSim, LocalMemSys, MemLevelStats, MemPort};

    let mut t = Table::new("memstats", "Memory-hierarchy counters (warm measurement pass)");

    // Warm-cache methodology as in `run_warm`, but snapshotting the port
    // counters between the passes so the reported numbers cover only the
    // measurement pass (counters are cumulative over the port's lifetime).
    fn warm_mem_stats(prog: &majc_isa::Program, mem: FlatMem) -> MemLevelStats {
        let cfg = TimingConfig::default();
        let mut warm = CycleSim::new(prog.clone(), LocalMemSys::majc5200().with_mem(mem), cfg);
        warm.run(200_000_000).expect("warm pass");
        let mut port = warm.port;
        port.new_epoch();
        let before = port.level_stats(0);
        let mut sim = CycleSim::new(prog.clone(), port, cfg);
        sim.run(200_000_000).expect("measurement pass");
        let after = sim.stats.mem;
        MemLevelStats {
            icache_hits: after.icache_hits - before.icache_hits,
            icache_misses: after.icache_misses - before.icache_misses,
            dcache_hits: after.dcache_hits - before.dcache_hits,
            dcache_misses: after.dcache_misses - before.dcache_misses,
            // Peaks, not counters: MSHR high water is a port-lifetime
            // maximum; the buffer peaks come from the fresh measurement
            // LSU, so they already cover only this pass.
            mshr_high_water: after.mshr_high_water,
            load_buf_peak: after.load_buf_peak,
            store_buf_peak: after.store_buf_peak,
            xbar_grants: after.xbar_grants - before.xbar_grants,
            xbar_retries: after.xbar_retries - before.xbar_retries,
            dram_busy_cycles: after.dram_busy_cycles - before.dram_busy_cycles,
            dport_conflicts: after.dport_conflicts - before.dport_conflicts,
        }
    }

    fn row(name: &str, m: MemLevelStats) -> Row {
        Row::new(
            name,
            "-",
            format!(
                "I$ {:.1}% / D$ {:.1}% hit",
                m.icache_hit_rate() * 100.0,
                m.dcache_hit_rate() * 100.0
            ),
            format!(
                "mshr hw {}, ld/st peak {}/{}, {} grants, dram busy {}",
                m.mshr_high_water,
                m.load_buf_peak,
                m.store_buf_peak,
                m.xbar_grants,
                m.dram_busy_cycles
            ),
        )
    }

    let mut rng = XorShift64::new(3);
    let mut coeffs = [0i16; 64];
    coeffs[0] = rng.next_i16(1000);
    for _ in 0..12 {
        coeffs[rng.next_range(64)] = rng.next_i16(300);
    }
    let (p, m) = idct::build(&coeffs);
    t.push(row("8x8 IDCT", warm_mem_stats(&p, m)));

    let fc: Vec<f32> = (0..fir::TAPS).map(|_| rng.next_f32() * 0.2).collect();
    let fx: Vec<f32> = (0..fir::OUTPUTS + fir::TAPS - 1).map(|_| rng.next_f32()).collect();
    let (p, m) = fir::build(&fc, &fx);
    t.push(row("64-tap FIR", warm_mem_stats(&p, m)));

    let blocks = vld::workload(7, 64);
    let (stream, _) = vld::encode(&blocks);
    let (p, m) = vld::build(&stream, blocks.len());
    t.push(row("MPEG-2 VLD", warm_mem_stats(&p, m)));

    let (frame, cur) = motion::workload(7, 6, -4);
    let (p, m) = motion::build(&frame, &cur);
    t.push(row("Motion estimation", warm_mem_stats(&p, m)));

    let n = colorconv::WIDTH * colorconv::HEIGHT;
    let cr: Vec<i16> = (0..n).map(|_| rng.next_i16(255).abs()).collect();
    let cg: Vec<i16> = (0..n).map(|_| rng.next_i16(255).abs()).collect();
    let cb: Vec<i16> = (0..n).map(|_| rng.next_i16(255).abs()).collect();
    let (p, m) = colorconv::build(&cr, &cg, &cb);
    t.push(row("512x512 color conversion", warm_mem_stats(&p, m)));

    // Dual-CPU shared-line contention: both CPUs CAS-increment one counter;
    // the chip arbiter serializes same-cycle same-line collisions.
    {
        let mut chip = majc_soc::Majc5200::new(
            [cas_incrementer(0), cas_incrementer(0x4000)],
            FlatMem::new(),
            TimingConfig::default(),
        );
        chip.run(10_000_000).expect("CAS contention scenario");
        let ms = chip.cpu[0].stats.mem;
        t.push(Row::new(
            "dual-CPU CAS contention (SoC)",
            "-",
            format!("{} D$ port conflicts", ms.dport_conflicts),
            format!(
                "shared D$ {:.1}% hit, mshr hw {}, dram busy {}",
                ms.dcache_hit_rate() * 100.0,
                ms.mshr_high_water,
                ms.dram_busy_cycles
            ),
        ));
    }
    t
}

/// The dual-CPU CAS-contention workload (one CPU image at `base`): both
/// CPUs increment a shared counter 50 times through a load/CAS retry
/// loop, forcing same-line port conflicts through the chip arbiter.
/// Shared by `memstats` and the farm batch.
fn cas_incrementer(base: u32) -> majc_isa::Program {
    use majc_asm::Asm;
    use majc_isa::{AluOp, CachePolicy, Cond, Instr, MemWidth, Off, Reg, Src};
    const CTR: u32 = 0x0002_0000;
    let mut a = Asm::new(base);
    a.set32(Reg::g(0), CTR);
    a.set32(Reg::g(1), 50);
    a.label("retry");
    a.op(Instr::Ld {
        w: MemWidth::W,
        pol: CachePolicy::Cached,
        rd: Reg::g(2),
        base: Reg::g(0),
        off: Off::Imm(0),
    });
    a.op(Instr::Alu { op: AluOp::Add, rd: Reg::g(3), rs1: Reg::g(2), src2: Src::Imm(1) });
    a.op(Instr::Cas { rd: Reg::g(2), base: Reg::g(0), rs: Reg::g(3) });
    a.op(Instr::Alu { op: AluOp::Sub, rd: Reg::g(4), rs1: Reg::g(3), src2: Src::Imm(1) });
    a.op(Instr::Alu { op: AluOp::Sub, rd: Reg::g(4), rs1: Reg::g(4), src2: Src::Reg(Reg::g(2)) });
    a.br(Cond::Ne, Reg::g(4), "retry", false);
    a.op(Instr::Alu { op: AluOp::Sub, rd: Reg::g(1), rs1: Reg::g(1), src2: Src::Imm(1) });
    a.br(Cond::Gt, Reg::g(1), "retry", true);
    a.op(Instr::Halt);
    a.finish().unwrap()
}

// ------------------------------- E11 -------------------------------

/// Master seed for the `reproduce farm` batch; every shard's seed is
/// derived from it with [`crate::farm::shard_seed`].
pub const FARM_MASTER_SEED: u64 = 0xFA23_5EED;

/// One scenario in the `reproduce farm` batch. Every variant is fully
/// self-contained — program image, memory image, seeds — so scenarios
/// can run on any worker in any order.
enum FarmScenario {
    /// Deterministic fault-injection soak of one suite kernel.
    Soak(majc_kernels::suite::SuiteCase),
    /// A shard of the differential fuzz stream: `count` seeded programs
    /// through the three-way engine check.
    Fuzz { count: usize },
    /// The dual-CPU CAS-contention scenario on the SoC.
    CasContention,
}

/// The standard batch: the full suite (heavy kernels included — this is
/// a release-mode report) under fault soak, eight fuzz shards, and one
/// SoC scenario.
fn farm_batch() -> Vec<FarmScenario> {
    let mut batch: Vec<FarmScenario> =
        majc_kernels::suite::cases().into_iter().map(FarmScenario::Soak).collect();
    batch.extend((0..8).map(|_| FarmScenario::Fuzz { count: 512 }));
    batch.push(FarmScenario::CasContention);
    batch
}

/// Execute one scenario; everything reported is architectural, so the
/// result is a pure function of `(FARM_MASTER_SEED, shard)`.
fn run_farm_scenario(shard: usize, sc: FarmScenario) -> crate::farm::ShardResult {
    use crate::diff::{fuzz_program, FUZZ_BUDGET};
    use crate::farm::{run_soak, shard_seed, ShardResult};
    use majc_core::diff::diff_run;
    use majc_mem::fnv1a;
    let seed = shard_seed(FARM_MASTER_SEED, shard as u64);
    match sc {
        FarmScenario::Soak(c) => {
            run_soak(&c.name, &c.prog, &c.mem, seed).into_shard_result(shard, &c.name, seed)
        }
        FarmScenario::Fuzz { count } => {
            let mut stats = majc_core::CycleStats::default();
            let mut digest = 0u64;
            let mut divergence = None;
            for k in 0..count {
                let case_seed = shard_seed(seed, k as u64);
                let (out, _) = diff_run(fuzz_program(case_seed), &FlatMem::new(), FUZZ_BUDGET);
                stats.cycles += out.cycles;
                stats.packets += out.packets;
                digest = fnv1a(format!("{digest:016x}:{out:?}").as_bytes());
                if divergence.is_none() {
                    divergence = out.divergence.map(|d| format!("seed {case_seed:#018x}: {d}"));
                }
            }
            ShardResult {
                shard,
                name: format!("fuzz x{count}"),
                seed,
                cycles: stats.cycles,
                stats,
                mem: majc_core::MemLevelStats::default(),
                fault_events: 0,
                fault_digest: digest,
                divergence,
            }
        }
        FarmScenario::CasContention => {
            let mut chip = majc_soc::Majc5200::new(
                [cas_incrementer(0), cas_incrementer(0x4000)],
                FlatMem::new(),
                TimingConfig::default(),
            );
            chip.run(10_000_000).expect("CAS contention scenario");
            let stats = chip.cpu[0].stats;
            ShardResult {
                shard,
                name: "soc/cas-contention".into(),
                seed,
                cycles: stats.cycles,
                mem: stats.mem,
                stats,
                fault_events: 0,
                fault_digest: 0,
                divergence: None,
            }
        }
    }
}

/// E11: the deterministic parallel simulation farm. `jobs: Some(n)` runs
/// the standard batch on `n` workers and writes the merged report to
/// `target/reports/farm_merged.json` — byte-identical for any `n`.
/// `jobs: None` sweeps 1/2/4 workers, asserts the reports are identical,
/// and emits the per-job scaling table. Wall-clock appears only in the
/// printed table, never in the merged report.
pub fn farm(jobs: Option<usize>) -> Table {
    use crate::farm::{merged_json, Farm};

    let run_batch = |n: usize| {
        let t0 = std::time::Instant::now();
        let results = Farm::new(n).run(farm_batch(), run_farm_scenario);
        let elapsed = t0.elapsed().as_secs_f64();
        (merged_json(FARM_MASTER_SEED, &results), (results, elapsed))
    };
    let throughput = |results: &[crate::farm::ShardResult], elapsed: f64| {
        let cycles: u64 = results.iter().map(|r| r.cycles).sum();
        format!(
            "{:.1} scenarios/sec, {:.1} Msimcycles/sec",
            results.len() as f64 / elapsed,
            cycles as f64 / elapsed / 1e6
        )
    };

    let mut t = Table::new("farm", "E11: deterministic parallel simulation farm");
    let runs = sweep(jobs, run_batch);
    let (_, (report, (results, base_elapsed))) = &runs[0];
    if let Some(n) = jobs {
        let divergences = results.iter().filter(|r| r.divergence.is_some()).count();
        t.push(Row::new("scenarios", "-", k(results.len() as u64), format!("--jobs {n}")));
        t.push(Row::new(
            "simulated cycles",
            "-",
            k(results.iter().map(|r| r.cycles).sum::<u64>()),
            "sum over shards",
        ));
        t.push(Row::new("divergences", "0", k(divergences as u64), ""));
        t.push(Row::new(
            "throughput",
            "-",
            format!("{base_elapsed:.2} s wall"),
            throughput(results, *base_elapsed),
        ));
    } else {
        for (n, (_, (results, elapsed))) in &runs {
            t.push(Row::new(
                format!("--jobs {n}"),
                "-",
                format!("{elapsed:.2} s wall"),
                format!(
                    "{}, speedup {:.2}x",
                    throughput(results, *elapsed),
                    base_elapsed / elapsed
                ),
            ));
        }
        t.push(determinism_row("merged reports"));
    }
    t.push(Row::new(
        "merged report",
        "-",
        save_note("farm_merged.json", report),
        "no wall-clock fields",
    ));
    t
}

// ------------------------------- E12 -------------------------------

/// One scenario of the lint-fact validation batch: a suite kernel with
/// its real workload, or a batch of differential-fuzz programs.
enum LintScenario {
    Kernel(majc_kernels::suite::SuiteCase),
    FuzzBatch { index: usize, count: usize },
}

/// Deterministic per-scenario tally of facts emitted and checks replayed.
#[derive(Default)]
struct LintTally {
    name: String,
    /// Programs analyzed (1 per kernel, `count` per fuzz batch).
    programs: usize,
    /// Static packets across the analyzed programs.
    packets: usize,
    /// Programs whose must-facts were withheld (`rte` present).
    abstained: usize,
    consts: usize,
    ranges: usize,
    addrs: usize,
    alias_classes: usize,
    branches: usize,
    loops: usize,
    /// Dynamic packets stepped and fact checks replayed by the validator.
    validated_packets: u64,
    checks: u64,
    violations: Vec<String>,
}

impl LintTally {
    fn json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"programs\":{},\"packets\":{},\"abstained\":{},\
             \"consts\":{},\"ranges\":{},\"addrs\":{},\"alias_classes\":{},\
             \"branches\":{},\"loops\":{},\"validated_packets\":{},\"checks\":{},\
             \"violations\":{}}}",
            self.name,
            self.programs,
            self.packets,
            self.abstained,
            self.consts,
            self.ranges,
            self.addrs,
            self.alias_classes,
            self.branches,
            self.loops,
            self.validated_packets,
            self.checks,
            self.violations.len()
        )
    }
}

/// Analyze one program, replay its must-facts against a functional run,
/// and fold the outcome into `t`. Purely architectural: the tally is a
/// function of the program and memory image alone.
fn lint_one(
    name: &str,
    prog: &std::sync::Arc<majc_isa::Program>,
    mem: FlatMem,
    budget: u64,
    t: &mut LintTally,
) {
    use majc_lint::{analyze, validate, LintOptions};
    let a = analyze(prog, &LintOptions::default());
    t.programs += 1;
    t.packets += prog.len();
    if !a.facts.must_facts {
        t.abstained += 1;
    }
    t.consts += a.facts.consts.len();
    t.ranges += a.facts.ranges.len();
    t.addrs += a.facts.addrs.len();
    t.alias_classes += a.facts.alias_classes.len();
    t.branches += a.facts.branches.len();
    t.loops += a.facts.loops.len();
    let mut sim = majc_core::FuncSim::new(std::sync::Arc::clone(prog), mem);
    let v = validate(&mut sim, &a.facts, budget);
    t.validated_packets += v.packets;
    t.checks += v.checks;
    for msg in v.violations {
        t.violations.push(format!("{name}: {msg}"));
    }
}

/// Execute one E12 scenario. Fuzz seeds derive from
/// `(FARM_MASTER_SEED, global case index)`, so the corpus is fixed.
fn run_lint_scenario(sc: LintScenario) -> LintTally {
    use crate::diff::{fuzz_program, FUZZ_BUDGET};
    use crate::farm::shard_seed;
    let mut t = LintTally::default();
    match sc {
        LintScenario::Kernel(c) => {
            t.name = c.name.to_string();
            lint_one(&c.name, &c.prog, c.mem, 100_000_000, &mut t);
        }
        LintScenario::FuzzBatch { index, count } => {
            t.name = format!("fuzz[{index}] x{count}");
            for k in 0..count {
                let seed = shard_seed(FARM_MASTER_SEED, (index * count + k) as u64);
                let prog = std::sync::Arc::new(fuzz_program(seed));
                lint_one(
                    &format!("fuzz seed {seed:#018x}"),
                    &prog,
                    FlatMem::new(),
                    FUZZ_BUDGET,
                    &mut t,
                );
            }
        }
    }
    t
}

/// The E12 batch: the full kernel suite plus 1024 fuzz programs in 16
/// batches of 64.
fn lintfacts_batch() -> Vec<LintScenario> {
    let mut batch: Vec<LintScenario> =
        majc_kernels::suite::cases().into_iter().map(LintScenario::Kernel).collect();
    batch.extend((0..16).map(|index| LintScenario::FuzzBatch { index, count: 64 }));
    batch
}

fn lintfacts_json(tallies: &[LintTally]) -> String {
    let mut s = String::from("{\n  \"version\": 1,\n");
    s.push_str(&format!("  \"master_seed\": \"{FARM_MASTER_SEED:#x}\",\n"));
    s.push_str("  \"scenarios\": [\n");
    for (i, t) in tallies.iter().enumerate() {
        s.push_str("    ");
        s.push_str(&t.json());
        s.push_str(if i + 1 < tallies.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// E12: execution-validated abstract interpretation. Analyzes every
/// suite kernel and 1024 fuzz programs, replays every must-fact
/// (constant, range, address, branch direction) against the functional
/// simulator, and fails the run on any contradiction. `jobs: Some(n)`
/// writes `target/reports/lintfacts.json`; `jobs: None` sweeps 1/2/4
/// workers and asserts the report is byte-identical.
pub fn lintfacts(jobs: Option<usize>) -> Table {
    use crate::farm::Farm;

    let run_batch = |n: usize| {
        let tallies = Farm::new(n).run(lintfacts_batch(), |_, sc| run_lint_scenario(sc));
        let violations: Vec<String> =
            tallies.iter().flat_map(|t| t.violations.iter().cloned()).collect();
        assert!(
            violations.is_empty(),
            "{} must-fact violation(s) — the analyses are unsound:\n{}",
            violations.len(),
            violations.join("\n")
        );
        (lintfacts_json(&tallies), tallies)
    };
    let summarize = |t: &mut Table, tallies: &[LintTally]| {
        let sum = |f: fn(&LintTally) -> usize| tallies.iter().map(f).sum::<usize>();
        t.push(Row::new(
            "programs analyzed",
            "-",
            k(sum(|t| t.programs) as u64),
            "18 kernels + 1024 fuzz",
        ));
        t.push(Row::new("static packets", "-", k(sum(|t| t.packets) as u64), ""));
        t.push(Row::new(
            "must-facts",
            "-",
            k((sum(|t| t.consts) + sum(|t| t.ranges) + sum(|t| t.addrs) + sum(|t| t.branches))
                as u64),
            format!(
                "{} const, {} range, {} addr, {} branch",
                sum(|t| t.consts),
                sum(|t| t.ranges),
                sum(|t| t.addrs),
                sum(|t| t.branches)
            ),
        ));
        t.push(Row::new(
            "structural facts",
            "-",
            k((sum(|t| t.alias_classes) + sum(|t| t.loops)) as u64),
            format!("{} alias classes, {} loops", sum(|t| t.alias_classes), sum(|t| t.loops)),
        ));
        t.push(Row::new(
            "checks replayed",
            "-",
            k(tallies.iter().map(|t| t.checks).sum::<u64>()),
            format!(
                "over {} dynamic packets",
                tallies.iter().map(|t| t.validated_packets).sum::<u64>()
            ),
        ));
        t.push(Row::new("violations", "0", "0", "gate: any contradiction fails the run"));
    };

    // The table's own save goes to `lintfacts_summary.json`: the
    // `lintfacts.json` name belongs to the deterministic facts report
    // written below, which CI `cmp`s across `--jobs` values.
    let mut t = Table::new("lintfacts_summary", "E12: execution-validated abstract interpretation");
    let runs = sweep(jobs, run_batch);
    let (_, (report, tallies)) = &runs[0];
    summarize(&mut t, tallies);
    report_rows(&mut t, jobs, "report", "lintfacts.json", report);
    t
}

// ------------------------------- E13 -------------------------------

/// E13: the simulation-as-a-service daemon under chaos load. Sweeps
/// worker count × admission-queue depth; each cell self-hosts a server
/// with the chaos plan armed (worker kills + memory fault injection)
/// and drives it with the in-tree load harness (dropped connections,
/// garbled lines, busy-retry storms). Every cell must satisfy the
/// exactly-once ledger — zero lost, zero duplicated results — and the
/// full report of the largest cell is saved to
/// `target/reports/serve_load.json`.
pub fn serve() -> Table {
    use majc_serve::{run_load, server, ChaosPlan, LoadCfg, ServeConfig};

    const SEED: u64 = 0xE13;
    let load_cfg = LoadCfg {
        clients: 6,
        jobs_per_client: 25,
        seed: SEED,
        max_busy_retries: 5_000,
        ..LoadCfg::default()
    };
    let cells: &[(usize, usize)] = &[(1, 2), (2, 2), (4, 2), (1, 16), (2, 16), (4, 16)];

    let mut t = Table::new("serve", "E13: simulation service under chaos load (workers x queue)");
    let mut last_json = None;
    for &(workers, queue_depth) in cells {
        let plan = ChaosPlan::soak(SEED);
        let cfg = ServeConfig { workers, queue_depth, chaos: Some(plan) };
        let handle = server::start(0, cfg).expect("bind localhost");
        let report = run_load(handle.addr(), &load_cfg);
        handle.shutdown();

        assert!(
            report.exactly_once(),
            "w{workers} q{queue_depth}: exactly-once violated: lost={} dup={} wrong={}",
            report.lost,
            report.duplicated,
            report.wrong_id
        );
        assert_eq!(
            report.terminal() + report.gave_up + report.dropped_inflight,
            report.clients * report.jobs_per_client,
            "w{workers} q{queue_depth}: ledger does not balance: {report:?}"
        );

        t.push(Row::new(
            format!("{workers} worker(s), queue {queue_depth}"),
            "0 lost / 0 dup",
            format!("0 lost / 0 dup, {} jobs/s", report.jobs_per_sec),
            format!(
                "p50 {}us p99 {}us, {} ok, {} busy rounds, {} kills",
                report.p50_us, report.p99_us, report.ok, report.busy_rounds, report.server.panics
            ),
        ));
        last_json = Some(report.to_json());
    }

    // Chaos tallies are a pure function of (seed, job sequence): the
    // expected kill/fault counts over the per-cell job count document
    // how hostile the sweep actually is.
    let (kills, faults) =
        ChaosPlan::soak(SEED).tally((load_cfg.clients * load_cfg.jobs_per_client) as u64);
    t.push(Row::new(
        "chaos plan (per cell)",
        "-",
        format!("~{kills} kills, ~{faults} fault plans"),
        format!(
            "seed {SEED:#x} over {} executed jobs",
            load_cfg.clients * load_cfg.jobs_per_client
        ),
    ));

    let saved = match last_json {
        Some(json) => save_note("serve_load.json", &json),
        None => "no cells ran".to_string(),
    };
    t.push(Row::new("report", "-", saved, "largest cell (4 workers, queue 16)"));
    t
}

// --------------------------- trace/profile ---------------------------

/// Run `prog` once (cold caches) on the DRDRAM memory system with full
/// event capture armed, returning the merged, time-sorted event stream and
/// the final cycle stats.
fn capture_events(
    prog: &majc_isa::Program,
    mem: FlatMem,
) -> (Vec<majc_core::Event>, majc_core::CycleStats) {
    use majc_core::{CycleSim, Event, LocalMemSys, MemSink};
    let mut port = LocalMemSys::majc5200().with_mem(mem);
    port.enable_logs();
    let mut sim =
        CycleSim::with_sink(prog.clone(), port, TimingConfig::default(), MemSink::unbounded());
    sim.run(200_000_000).expect("traced kernel run");
    let stats = sim.stats;
    let mut evs = sim.sink.take();
    evs.extend(sim.port.drain_events());
    evs.sort_by_key(Event::timestamp);
    (evs, stats)
}

/// The standard demo IDCT input (same seed as Table 1).
fn demo_idct() -> (majc_isa::Program, FlatMem) {
    let mut rng = XorShift64::new(3);
    let mut coeffs = [0i16; 64];
    coeffs[0] = rng.next_i16(1000);
    for _ in 0..12 {
        coeffs[rng.next_range(64)] = rng.next_i16(300);
    }
    idct::build(&coeffs)
}

/// The standard demo FIR input (same seed as the simulator bench).
fn demo_fir() -> (majc_isa::Program, FlatMem) {
    let mut rng = XorShift64::new(11);
    let coeffs: Vec<f32> = (0..fir::TAPS).map(|_| rng.next_f32() * 0.2).collect();
    let input: Vec<f32> = (0..fir::OUTPUTS + fir::TAPS - 1).map(|_| rng.next_f32()).collect();
    fir::build(&coeffs, &input)
}

/// E11a: full event trace of the 8x8 IDCT, exported as a Perfetto
/// `trace_event` document. Runs the capture twice to prove the stream is
/// deterministic, validates the export with the in-tree JSON parser, and
/// saves the timeline under `target/reports/` for <https://ui.perfetto.dev>.
pub fn trace() -> Table {
    use majc_core::{export_perfetto, validate_perfetto, Event};

    let mut t = Table::new("trace", "E11a: cycle-level event trace + Perfetto export (8x8 IDCT)");
    let (p, m) = demo_idct();
    let (evs, stats) = capture_events(&p, m.clone());
    let (evs2, _) = capture_events(&p, m);
    assert_eq!(evs, evs2, "same program + seed must produce an identical event stream");

    let doc = export_perfetto(&evs);
    let validated = validate_perfetto(&doc).expect("exported Perfetto document validates");
    let where_saved = save_note("trace_idct_perfetto.json", &doc);

    let count = |f: fn(&Event) -> bool| evs.iter().filter(|e| f(e)).count() as u64;
    t.push(Row::new(
        "events captured",
        "-",
        k(evs.len() as u64),
        format!("{} cycles simulated", stats.cycles),
    ));
    t.push(Row::new(
        "packet issues",
        "-",
        k(count(|e| matches!(e, Event::Issue { .. }))),
        format!("{} instrs", stats.instrs),
    ));
    t.push(Row::new(
        "ifetch transactions",
        "-",
        k(count(|e| matches!(e, Event::Fetch { .. }))),
        "",
    ));
    t.push(Row::new(
        "LSU transactions",
        "-",
        k(count(|e| matches!(e, Event::MemTxn { .. }))),
        format!("{} retries", count(|e| matches!(e, Event::MemRetry { .. }))),
    ));
    t.push(Row::new(
        "DRDRAM spans",
        "-",
        k(count(|e| matches!(e, Event::DramSpan { .. }))),
        "data-channel occupancy",
    ));
    t.push(Row::new("determinism", "byte-identical", "byte-identical", "two seeded runs"));
    t.push(Row::new(
        "perfetto export",
        "valid trace_event JSON",
        format!("{validated} events validated"),
        where_saved,
    ));
    t
}

/// E11b: PC-indexed stall-attribution profile of two kernels. The
/// per-reason totals are reconciled against the aggregate `CycleStats`
/// counters — the profiler is exact, not sampled.
pub fn profile() -> Table {
    use majc_core::StallReason;

    let mut t = Table::new("profile", "E11b: stall-attribution profiler (top packets)");
    for (kern, (p, m)) in [("IDCT", demo_idct()), ("FIR", demo_fir())] {
        let (evs, stats) = capture_events(&p, m);
        let prof = majc_core::profile(&evs);
        for (i, pc) in prof.top(3).iter().enumerate() {
            let dom = pc.dominant().map(StallReason::name).unwrap_or("-");
            t.push(Row::new(
                format!("{kern} #{} pc {:#x}", i + 1, pc.pc),
                "-",
                format!("{} stall cyc", pc.total),
                format!("{} issues, dominant: {dom}", pc.packets),
            ));
        }
        let by = &prof.totals;
        let reconciled = by[StallReason::IFetch.idx()] == stats.front_stall_cycles
            && by[StallReason::Operand.idx()] + by[StallReason::Bypass.idx()]
                == stats.data_stall_cycles
            && by[StallReason::LsuStructural.idx()] == stats.mem_stall_cycles
            && prof.total_stall() <= stats.cycles;
        assert!(reconciled, "{kern}: profiler totals diverged from CycleStats");
        t.push(Row::new(
            format!("{kern} reconciliation"),
            "exact",
            "exact",
            format!(
                "{} attributed of {} cycles over {} packets",
                prof.total_stall(),
                stats.cycles,
                prof.packets
            ),
        ));
    }
    t
}

// ------------------------------- E14 -------------------------------

/// FNV-1a over the complete architectural end state — CPU snapshot,
/// memory image, trap registers, and counters. Equal digests mean the
/// two engines finished as indistinguishable machines.
fn xlate_state_digest<E: majc_core::ExecEngine>(sim: &E) -> u64 {
    let mut bytes = sim.capture().to_bytes();
    bytes.extend_from_slice(&sim.mem().to_snapshot());
    bytes.extend_from_slice(format!("{:?}{:?}", sim.trap_regs(), sim.stats()).as_bytes());
    majc_mem::fnv1a(&bytes)
}

/// One kernel's deterministic E14 record: dynamic packets, the
/// cross-engine state digest, and the shape of its translation.
struct XlateKernelRec {
    name: String,
    packets: u64,
    digest: u64,
    uops: usize,
    specialized: usize,
    fallback: usize,
}

/// Run one kernel to halt on both engines and assert bit-identity —
/// counters and full architectural end state.
fn xlate_kernel_rec(case: &majc_kernels::suite::SuiteCase) -> XlateKernelRec {
    use majc_core::{FuncSim, XlateSim};
    use std::sync::Arc;
    const BUDGET: u64 = 200_000_000;
    let mut a = FuncSim::new(Arc::clone(&case.prog), case.mem.clone());
    let mut b = XlateSim::new(Arc::clone(&case.prog), case.mem.clone());
    a.run_to_halt(BUDGET).unwrap_or_else(|e| panic!("{}: interp: {e}", case.name));
    b.run_to_halt(BUDGET).unwrap_or_else(|e| panic!("{}: xlate: {e}", case.name));
    assert_eq!(a.stats, b.stats, "{}: counters diverge across engines", case.name);
    let (da, db) = (xlate_state_digest(&a), xlate_state_digest(&b));
    assert_eq!(da, db, "{}: architectural end state diverges", case.name);
    let tr = b.translation();
    XlateKernelRec {
        name: case.name.clone(),
        packets: b.stats.packets,
        digest: da,
        uops: tr.uop_count(),
        specialized: tr.specialized_uops(),
        fallback: tr.fallback_uops(),
    }
}

/// The deterministic E14 report: per-kernel digests and translation
/// shape, the three-way fuzz tally, and the cache counters from a fixed
/// serial request sequence. No wall-clock field anywhere — CI `cmp`s
/// this file across `--jobs` values.
fn xlate_json(
    recs: &[XlateKernelRec],
    fuzz_cases: usize,
    cache: majc_core::XlateCacheStats,
) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"kernels\": [\n");
    for (i, r) in recs.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\":{},\"packets\":{},\"digest\":\"{:016x}\",\"uops\":{},\
             \"specialized\":{},\"fallback\":{}}}{}\n",
            quote(&r.name),
            r.packets,
            r.digest,
            r.uops,
            r.specialized,
            r.fallback,
            if i + 1 == recs.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!("  \"fuzz\": {{\"cases\": {fuzz_cases}, \"divergences\": 0}},\n"));
    s.push_str(&format!(
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"resident\": {}}}\n",
        cache.hits, cache.misses, cache.evictions, cache.resident
    ));
    s.push_str("}\n");
    s
}

/// E14: the decode-once translated engine. Replays the kernel suite on
/// both functional engines asserting bit-identical end states, sweeps a
/// three-way fuzz corpus (interpreter vs translated vs cycle), exercises
/// the translation cache over a fixed request sequence, and measures
/// wall-clock throughput of both engines over the suite. The
/// deterministic part is saved to `target/reports/xlate.json` (CI `cmp`s
/// it across `--jobs`); throughput appears only in the table. In release
/// builds a regression gate fails the run if the translated engine's
/// median over alternating passes is not faster than the interpreter's.
pub fn xlate(jobs: Option<usize>) -> Table {
    use crate::diff::{fuzz_program, FUZZ_BUDGET};
    use crate::farm::{shard_seed, Farm};
    use majc_core::diff::diff_run;
    use majc_core::{FuncSim, XlateCache, XlateSim, XLATE_CACHE_CAP};
    use std::sync::Arc;

    const FUZZ_CASES: usize = 256;
    const MASTER_SEED: u64 = 0xE14;
    /// Timed passes per engine behind the throughput gate.
    const THROUGHPUT_PASSES: usize = 5;
    const BUDGET: u64 = 200_000_000;

    // Heavy (megacycle) kernels only run in release builds, like the rest
    // of the debug test surface.
    let cases: Vec<majc_kernels::suite::SuiteCase> = majc_kernels::suite::cases()
        .into_iter()
        .filter(|c| !(c.heavy && cfg!(debug_assertions)))
        .collect();

    let run_batch = |n: usize| -> (String, Vec<XlateKernelRec>) {
        let farm = Farm::new(n);
        let recs = farm.run(cases.iter().collect::<Vec<_>>(), |_, c| xlate_kernel_rec(c));
        let divergences: Vec<String> = farm
            .run((0..FUZZ_CASES).collect::<Vec<_>>(), |_, i| {
                let seed = shard_seed(MASTER_SEED, i as u64);
                diff_run(fuzz_program(seed), &FlatMem::new(), FUZZ_BUDGET)
                    .0
                    .divergence
                    .map(|d| format!("seed {seed:#018x}: {d}"))
            })
            .into_iter()
            .flatten()
            .collect();
        assert!(
            divergences.is_empty(),
            "{} three-way divergence(s):\n{}",
            divergences.len(),
            divergences.join("\n")
        );
        // A fixed serial request sequence (the suite, twice) through a
        // fresh cache: second pass must be all hits.
        let cache = XlateCache::new(XLATE_CACHE_CAP);
        for c in &cases {
            cache.translate(&c.prog);
        }
        for c in &cases {
            cache.translate(&c.prog);
        }
        let stats = cache.stats();
        assert_eq!(stats.hits as usize, cases.len(), "second pass must hit every kernel");
        (xlate_json(&recs, FUZZ_CASES, stats), recs)
    };

    // Wall-clock throughput over the suite, one engine at a time. Never
    // part of the cmp'd report. The translated engine runs from resolved
    // translations — the resident-worker steady state the architecture is
    // built for (decode once, execute many) — so one-time lowering cost
    // is kept out of the per-packet figure.
    let translations: Vec<_> =
        cases.iter().map(|c| majc_core::global_xlate_cache().translate(&c.prog)).collect();
    let throughput = |translated: bool| -> (u64, f64) {
        let start = std::time::Instant::now();
        let mut packets = 0u64;
        for (i, c) in cases.iter().enumerate() {
            packets += if translated {
                let mut s = XlateSim::from_translation(Arc::clone(&translations[i]), c.mem.clone());
                s.run_to_halt(BUDGET).unwrap_or_else(|e| panic!("{}: xlate: {e}", c.name));
                s.stats.packets
            } else {
                let mut s = FuncSim::new(Arc::clone(&c.prog), c.mem.clone());
                s.run_to_halt(BUDGET).unwrap_or_else(|e| panic!("{}: interp: {e}", c.name));
                s.stats.packets
            };
        }
        (packets, packets as f64 / start.elapsed().as_secs_f64().max(1e-9))
    };

    let summarize = |t: &mut Table, recs: &[XlateKernelRec]| {
        t.push(Row::new(
            "kernels validated",
            "-",
            k(recs.len() as u64),
            "bit-identical end state on both engines",
        ));
        t.push(Row::new(
            "dynamic packets",
            "-",
            k(recs.iter().map(|r| r.packets).sum::<u64>()),
            "per run, identical on both engines",
        ));
        let (uops, spec, fall) = recs
            .iter()
            .fold((0, 0, 0), |(u, s, f), r| (u + r.uops, s + r.specialized, f + r.fallback));
        t.push(Row::new(
            "static micro-ops",
            "-",
            k(uops as u64),
            format!("{spec} specialized, {fall} generic-fallback"),
        ));
        t.push(Row::new(
            "three-way fuzz",
            "0 divergences",
            "0 divergences",
            format!("{FUZZ_CASES} seeds: interp vs xlate vs cycle"),
        ));
    };

    let mut t = Table::new("xlate_summary", "E14: decode-once translated execution engine");
    let runs = sweep(jobs, run_batch);
    let (_, (report, recs)) = &runs[0];
    summarize(&mut t, recs);
    report_rows(&mut t, jobs, "report", "xlate.json", report);

    // Alternating passes, one engine after the other, summarized by each
    // engine's median: one pass in a slow phase of a shared host moves
    // neither median, so it cannot fail the gate on correct code.
    let mut pkts = 0;
    let (mut interp, mut xlated) = (Vec::new(), Vec::new());
    for _ in 0..THROUGHPUT_PASSES {
        let (n, pps) = throughput(false);
        pkts = n;
        interp.push(pps);
        xlated.push(throughput(true).1);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (interp_pps, xlate_pps) = (median(&mut interp), median(&mut xlated));
    let speedup = xlate_pps / interp_pps.max(1e-9);
    t.push(Row::new(
        "interp throughput",
        "-",
        format!("{:.1} Mpkt/s", interp_pps / 1e6),
        format!("{pkts} packets, median of {THROUGHPUT_PASSES} passes, wall clock"),
    ));
    t.push(Row::new(
        "xlate throughput",
        ">= interp",
        format!("{:.1} Mpkt/s ({speedup:.1}x)", xlate_pps / 1e6),
        "release gate: median below interp's median fails",
    ));
    if !cfg!(debug_assertions) {
        assert!(
            xlate_pps > interp_pps,
            "throughput gate: translated engine (median {xlate_pps:.0} pkt/s) regressed below \
             the interpreter (median {interp_pps:.0} pkt/s)"
        );
    }
    t
}

// ------------------------------- E15 -------------------------------

/// Master seed for the E15 observability batch; every shard's job mix is
/// derived from it with [`crate::farm::shard_seed`].
pub const OBS_MASTER_SEED: u64 = 0xE15;

/// Histogram bounds (work units) for the E15 per-job packet/cycle
/// distributions.
const OBS_WORK_BOUNDS: &[u64] =
    &[16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216];

/// Run one E15 shard: a seeded mix of func-engine simulate jobs through a
/// private [`majc_serve::ExecCtx`], tallied into the shard's own metrics
/// registry. Everything recorded is architectural (packets, cycles, job
/// kinds), so the returned snapshot is a pure function of
/// `(OBS_MASTER_SEED, shard)` — and the shared `cache`'s counters are a
/// pure function of the request *multiset*, independent of shard
/// interleaving.
fn obs_shard(
    shard: usize,
    names: &[String],
    cache: &std::sync::Arc<majc_core::XlateCache>,
) -> majc_obs::Snapshot {
    use majc_obs::{Class, MetricsRegistry};
    use majc_serve::{Engine, ExecCtx, JobSpec, SimSpec, Val};

    const JOBS_PER_SHARD: usize = 10;

    let ctx = ExecCtx::with_xlate_cache(std::sync::Arc::clone(cache));
    let reg = MetricsRegistry::new();
    let jobs_total = reg.counter("jobs.total", Class::Det);
    let packets_total = reg.counter("engine.packets.total", Class::Det);
    let cycles_total = reg.counter("engine.cycles.total", Class::Det);
    let packets_per_job = reg.histogram("engine.packets.per_job", Class::Det, OBS_WORK_BOUNDS);
    let cycles_per_job = reg.histogram("engine.cycles.per_job", Class::Det, OBS_WORK_BOUNDS);

    let seed = crate::farm::shard_seed(OBS_MASTER_SEED, shard as u64);
    let mut rng = majc_isa::XorShift64Star::new(seed);
    for _ in 0..JOBS_PER_SHARD {
        let kernel = &names[rng.below(names.len() as u64) as usize];
        // One job in three runs cycle-accurate (the only engine that
        // reports cycles); the rest run the translated func engine and
        // exercise the shared private translation cache.
        let engine = if rng.below(3) == 0 { Engine::Cycle } else { Engine::Func };
        let spec = JobSpec::Simulate(SimSpec {
            kernel: Some(kernel.to_string()),
            source: None,
            engine,
            budget: 200_000_000,
            checkpoint: false,
            resume: None,
        });
        let status = ctx.execute(&spec, None);
        let packets = status.field("packets").and_then(Val::as_u64).unwrap_or_else(|| {
            panic!("{kernel}: E15 job must succeed with packets, got {status:?}")
        });
        jobs_total.inc();
        reg.counter(&format!("jobs.kernel.{kernel}"), Class::Det).inc();
        reg.counter(
            &format!("jobs.engine.{}", if engine == Engine::Cycle { "cycle" } else { "func" }),
            Class::Det,
        )
        .inc();
        packets_total.add(packets);
        packets_per_job.observe(packets);
        if let Some(cycles) = status.field("cycles").and_then(Val::as_u64) {
            cycles_total.add(cycles);
            cycles_per_job.observe(cycles);
        }
    }
    reg.snapshot()
}

/// The deterministic E15 report: the shard registries merged in shard
/// order (counters sum, histogram buckets sum — both order-independent)
/// plus the shared private translation cache's counters. No wall-clock
/// field anywhere — CI `cmp`s this file across `--jobs` values.
fn obs_json(
    merged: &majc_obs::Snapshot,
    shards: usize,
    cache: majc_core::XlateCacheStats,
) -> String {
    format!(
        "{{\n  \"shards\": {shards},\n  \"metrics\": {},\n  \"xlate_cache\": \
         {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"resident\": {}}}\n}}\n",
        merged.det_json(),
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.resident,
    )
}

/// E15: service-level observability. Phase A is deterministic: a farm of
/// seeded job shards, each tallying architectural metrics into its own
/// registry through a *private* translation cache; the merged snapshot
/// plus cache counters are saved to `target/reports/obs.json`, which must
/// be byte-identical for any `--jobs` (the sweep asserts it, CI `cmp`s
/// it). Phase B is explicitly nondeterministic: a workers × queue-depth
/// chaos-load sweep over live metrics-enabled servers, reporting
/// queue-wait and service-time percentiles from the wall-clock histograms
/// and saving the largest cell's per-job span timeline as a Perfetto
/// trace (`target/reports/obs_job_spans.json`).
pub fn obs(jobs: Option<usize>) -> Table {
    use crate::farm::Farm;
    use majc_core::{XlateCache, XLATE_CACHE_CAP};
    use std::sync::Arc;

    const SHARDS: usize = 12;
    // Heavy (megacycle) kernels only run in release builds, like the rest
    // of the debug test surface.
    let names: Vec<String> = {
        let mut v: Vec<String> = majc_kernels::suite::cases()
            .into_iter()
            .filter(|c| !(c.heavy && cfg!(debug_assertions)))
            .map(|c| c.name)
            .collect();
        v.sort_unstable();
        v
    };

    let run_batch = |n: usize| -> (String, majc_obs::Snapshot) {
        let cache = Arc::new(XlateCache::new(XLATE_CACHE_CAP));
        let snaps = Farm::new(n)
            .run((0..SHARDS).collect::<Vec<usize>>(), |_, shard| obs_shard(shard, &names, &cache));
        let merged = snaps.iter().fold(majc_obs::Snapshot::default(), |acc, s| acc.merge(s));
        (obs_json(&merged, SHARDS, cache.stats()), merged)
    };
    let summarize = |t: &mut Table, merged: &majc_obs::Snapshot| {
        let get =
            |name: &str| merged.get(name).and_then(majc_obs::MetricValue::as_u64).unwrap_or(0);
        t.push(Row::new(
            "det jobs tallied",
            "-",
            k(get("jobs.total")),
            format!("{SHARDS} shards, seeded kernel mix"),
        ));
        t.push(Row::new(
            "det packets / cycles",
            "-",
            format!("{} / {}", k(get("engine.packets.total")), k(get("engine.cycles.total"))),
            "architectural counters only",
        ));
    };

    // `obs.json` belongs to the deterministic metrics report written
    // below, which CI `cmp`s across `--jobs` values; the table itself
    // saves under `obs_summary`.
    let mut t = Table::new("obs_summary", "E15: service metrics, job spans, live introspection");
    let runs = sweep(jobs, run_batch);
    let (_, (report, merged)) = &runs[0];
    summarize(&mut t, merged);
    report_rows(&mut t, jobs, "det report", "obs.json", report);

    // Phase B: live servers under chaos load — wall-clock percentiles and
    // span timelines, never part of the cmp'd report.
    obs_live_sweep(&mut t);
    t
}

/// The nondeterministic half of E15: self-hosted chaos servers swept over
/// workers × queue depth, percentiles read straight from the live metrics
/// registry, and the largest cell's job spans exported as a validated
/// Perfetto trace.
fn obs_live_sweep(t: &mut Table) {
    use majc_serve::{run_load, server, ChaosPlan, LoadCfg, ServeConfig};

    const SEED: u64 = 0xE15;
    let load_cfg = LoadCfg {
        clients: 4,
        jobs_per_client: 20,
        seed: SEED,
        max_busy_retries: 5_000,
        ..LoadCfg::default()
    };
    let cells: &[(usize, usize)] = &[(1, 4), (2, 8), (4, 16)];
    let mut largest: Option<(String, String)> = None;

    for &(workers, queue_depth) in cells {
        let cfg = ServeConfig { workers, queue_depth, chaos: Some(ChaosPlan::soak(SEED)) };
        let handle = server::start(0, cfg).expect("bind localhost");
        let report = run_load(handle.addr(), &load_cfg);
        assert!(report.exactly_once(), "w{workers} q{queue_depth}: exactly-once violated");
        handle.drain();

        let snap = handle.metrics();
        let pct = |name: &str, permille: u64| -> String {
            match snap.get(name).and_then(|m| m.quantile_le(permille)) {
                Some(v) => format!("{v}us"),
                None => "-".to_string(),
            }
        };
        t.push(Row::new(
            format!("{workers} worker(s), queue {queue_depth}"),
            "-",
            format!("wait p50<={} p99<={}", pct("queue.wait_us", 500), pct("queue.wait_us", 990)),
            format!(
                "service p50<={} p99<={}, {} spans, {} respawns",
                pct("worker.service_us", 500),
                pct("worker.service_us", 990),
                handle.job_spans().len(),
                handle.counters().respawns,
            ),
        ));
        largest = Some((handle.job_spans_perfetto(), format!("w{workers} q{queue_depth}")));
        handle.shutdown();
    }

    if let Some((trace, cell)) = largest {
        let events = majc_core::validate_perfetto(&trace)
            .unwrap_or_else(|e| panic!("E15 span trace failed validation: {e}"));
        let saved = format!("{} ({events} events)", save_note("obs_job_spans.json", &trace));
        t.push(Row::new("job span timeline", "-", saved, format!("{cell}, ui.perfetto.dev")));
    }
}

// ------------------------------- E16 -------------------------------

/// Programs per family in the canonical E16 corpus batch.
const E16_PER_FAMILY: usize = 2;
/// Fault seed for the corpus soak leg, distinct from the kernel soak's.
const E16_SOAK_SEED: u64 = 0xE16_50AC;
/// Packet/cycle budget for the corpus runs; every program halts far
/// below it.
const E16_BUDGET: u64 = 200_000_000;

/// Per-program record of the deterministic E16 report: every field is
/// architectural or counted by the deterministic cycle model, so the
/// merged report is a pure function of the corpus seed.
struct CorpusRec {
    name: String,
    family: String,
    packets: u64,
    cycles: u64,
    mispredicts: u64,
    branch_lookups: u64,
    data_stall: u64,
    mem_stall: u64,
    front_stall: u64,
    lint_checks: u64,
    soak_injected: u64,
}

/// Aggregate conditional-branch predictor profile of a batch of runs.
#[derive(Clone, Copy, Default)]
struct PredictProfile {
    mispredicts: u64,
    lookups: u64,
}

impl PredictProfile {
    fn rate_str(&self) -> String {
        if self.lookups == 0 {
            return "0.000000".into();
        }
        format!("{:.6}", self.mispredicts as f64 / self.lookups as f64)
    }
}

/// Run one generated corpus program through the whole validation stack:
/// three-way engine agreement, the generator's self-check digest,
/// lint-clean plus must-fact replay, the cycle model on the full
/// MAJC-5200 memory system, and the fault soak. Any failed leg panics —
/// E16 is a gate, not a survey.
fn corpus_rec(c: &majc_kernels::suite::SuiteCase) -> CorpusRec {
    use crate::farm::run_soak;
    use majc_core::diff::diff_run;
    use majc_core::{CycleSim, LocalMemSys, TimingConfig, XlateSim};
    use std::sync::Arc;

    let check = c.check.expect("corpus cases carry a self-check");

    let (out, mut interp) = diff_run(Arc::clone(&c.prog), &c.mem, E16_BUDGET);
    assert!(out.divergence.is_none(), "{}: engines diverge: {:?}", c.name, out.divergence);
    assert!(interp.halted(), "{}: interp did not halt within {E16_BUDGET} packets", c.name);
    let digest = majc_kernels::suite::result_digest(&mut interp.mem, check);
    assert_eq!(digest, check.expect, "{}: self-check digest mismatch (got {digest:#018x})", c.name);

    let a = majc_lint::analyze(&c.prog, &majc_lint::LintOptions::default());
    assert!(a.report.is_clean(), "{}: corpus program must lint clean:\n{}", c.name, a.report);
    let mut xs = XlateSim::new(Arc::clone(&c.prog), c.mem.clone());
    let v = majc_lint::validate(&mut xs, &a.facts, E16_BUDGET);
    assert!(
        v.ok(),
        "{}: {} lint must-fact violation(s): {:?}",
        c.name,
        v.violations.len(),
        v.violations.first()
    );

    let cfg = TimingConfig { max_cycles: E16_BUDGET, ..TimingConfig::default() };
    let port = LocalMemSys::majc5200().with_mem(c.mem.clone());
    let mut cs = CycleSim::new(Arc::clone(&c.prog), port, cfg);
    cs.run(u64::MAX).unwrap_or_else(|e| panic!("{}: cycle: {e}", c.name));
    let st = cs.stats;

    let soak = run_soak(&c.name, &c.prog, &c.mem, E16_SOAK_SEED);
    assert!(soak.divergence.is_none(), "{}: soak diverged: {:?}", c.name, soak.divergence);

    CorpusRec {
        name: c.name.clone(),
        family: c.name.rsplit_once('-').map(|(f, _)| f.to_string()).unwrap_or_default(),
        packets: st.packets,
        cycles: st.cycles,
        mispredicts: st.mispredicts,
        branch_lookups: st.branch.lookups,
        data_stall: st.data_stall_cycles,
        mem_stall: st.mem_stall_cycles,
        front_stall: st.front_stall_cycles,
        lint_checks: v.checks,
        soak_injected: soak.injected as u64,
    }
}

/// Predictor profile of one DSP kernel on the same cycle model + memory
/// system the corpus runs use — the E16 baseline.
fn kernel_predict_profile(c: &majc_kernels::suite::SuiteCase) -> PredictProfile {
    use majc_core::{CycleSim, LocalMemSys, TimingConfig};
    use std::sync::Arc;
    let cfg = TimingConfig { max_cycles: E16_BUDGET, ..TimingConfig::default() };
    let port = LocalMemSys::majc5200().with_mem(c.mem.clone());
    let mut cs = CycleSim::new(Arc::clone(&c.prog), port, cfg);
    cs.run(u64::MAX).unwrap_or_else(|e| panic!("{}: cycle: {e}", c.name));
    PredictProfile { mispredicts: cs.stats.mispredicts, lookups: cs.stats.branch.lookups }
}

/// The deterministic E16 report: per-program validation results and the
/// corpus-vs-DSP predictor comparison. No wall-clock field anywhere —
/// CI `cmp`s this file across `--jobs` values.
fn corpus_json(recs: &[CorpusRec], corpus: PredictProfile, dsp: PredictProfile) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"seed\": \"{:#018x}\",\n  \"per_family\": {},\n",
        majc_kernels::suite::CORPUS_SEED,
        E16_PER_FAMILY
    ));
    s.push_str("  \"programs\": [\n");
    for (i, r) in recs.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"family\": {}, \"packets\": {}, \"cycles\": {}, \
             \"mispredicts\": {}, \"branch_lookups\": {}, \"data_stall\": {}, \
             \"mem_stall\": {}, \"front_stall\": {}, \"lint_checks\": {}, \
             \"soak_injected\": {}}}{}\n",
            quote(&r.name),
            quote(&r.family),
            r.packets,
            r.cycles,
            r.mispredicts,
            r.branch_lookups,
            r.data_stall,
            r.mem_stall,
            r.front_stall,
            r.lint_checks,
            r.soak_injected,
            if i + 1 < recs.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"corpus_mispredicts\": {}, \"corpus_branch_lookups\": {}, \
         \"corpus_mispredict_rate\": \"{}\",\n",
        corpus.mispredicts,
        corpus.lookups,
        corpus.rate_str()
    ));
    s.push_str(&format!(
        "  \"dsp_mispredicts\": {}, \"dsp_branch_lookups\": {}, \
         \"dsp_mispredict_rate\": \"{}\"\n",
        dsp.mispredicts,
        dsp.lookups,
        dsp.rate_str()
    ));
    s.push('}');
    s.push('\n');
    s
}

/// E16: the generated irregular-program corpus through the full
/// validation stack, sharded across the simulation farm. Every program
/// must agree bit-identically on all three engines, reproduce its
/// generator-computed self-check digest, lint clean with every must-fact
/// replaying, and survive the fault soak; the cycle model's predictor
/// and stall profile is recorded per program and compared against the
/// DSP suite baseline — the corpus must mispredict strictly more, which
/// is the whole point of generating it. `jobs: Some(n)` runs one
/// n-worker batch and writes `target/reports/corpus.json`; `jobs: None`
/// sweeps 1/2/4 workers and asserts the report is byte-identical.
pub fn corpus(jobs: Option<usize>) -> Table {
    use crate::farm::Farm;

    enum Sc {
        Corpus(Box<majc_kernels::suite::SuiteCase>),
        Kernel(Box<majc_kernels::suite::SuiteCase>),
    }
    enum Out {
        Corpus(Box<CorpusRec>),
        Kernel(PredictProfile),
    }

    let batch = || -> Vec<Sc> {
        let mut v: Vec<Sc> = majc_kernels::suite::corpus_cases(E16_PER_FAMILY)
            .into_iter()
            .map(|c| Sc::Corpus(Box::new(c)))
            .collect();
        v.extend(majc_kernels::suite::fast_cases().into_iter().map(|c| Sc::Kernel(Box::new(c))));
        v
    };

    let run_batch = |n: usize| -> (String, (Vec<CorpusRec>, PredictProfile, PredictProfile)) {
        let outs = Farm::new(n).run(batch(), |_, sc| match sc {
            Sc::Corpus(c) => Out::Corpus(Box::new(corpus_rec(&c))),
            Sc::Kernel(c) => Out::Kernel(kernel_predict_profile(&c)),
        });
        let mut recs = Vec::new();
        let mut dsp = PredictProfile::default();
        for o in outs {
            match o {
                Out::Corpus(r) => recs.push(*r),
                Out::Kernel(p) => {
                    dsp.mispredicts += p.mispredicts;
                    dsp.lookups += p.lookups;
                }
            }
        }
        let agg = PredictProfile {
            mispredicts: recs.iter().map(|r| r.mispredicts).sum(),
            lookups: recs.iter().map(|r| r.branch_lookups).sum(),
        };
        // The acceptance inequality, on cross-multiplied integers so no
        // float compare is involved: corpus mispredict rate must be
        // strictly higher than the DSP suite's.
        assert!(
            (agg.mispredicts as u128) * (dsp.lookups as u128)
                > (dsp.mispredicts as u128) * (agg.lookups as u128),
            "corpus mispredict rate ({} / {}) must exceed the DSP suite's ({} / {})",
            agg.mispredicts,
            agg.lookups,
            dsp.mispredicts,
            dsp.lookups
        );
        (corpus_json(&recs, agg, dsp), (recs, agg, dsp))
    };

    let summarize =
        |t: &mut Table, recs: &[CorpusRec], agg: PredictProfile, dsp: PredictProfile| {
            let sum = |f: fn(&CorpusRec) -> u64| recs.iter().map(f).sum::<u64>();
            t.push(Row::new(
                "programs validated",
                "-",
                k(recs.len() as u64),
                format!("{} families x {}", majc_gen::Family::ALL.len(), E16_PER_FAMILY),
            ));
            t.push(Row::new(
                "packets / cycles",
                "-",
                format!("{} / {}", k(sum(|r| r.packets)), k(sum(|r| r.cycles))),
                "summed over the corpus",
            ));
            t.push(Row::new(
                "corpus mispredict rate",
                "> DSP suite",
                agg.rate_str(),
                format!("{} mispredicts / {} lookups", agg.mispredicts, agg.lookups),
            ));
            t.push(Row::new(
                "DSP-suite mispredict rate",
                "-",
                dsp.rate_str(),
                format!("{} mispredicts / {} lookups", dsp.mispredicts, dsp.lookups),
            ));
            t.push(Row::new(
                "stall profile",
                "-",
                format!(
                    "data {} / mem {} / front {}",
                    k(sum(|r| r.data_stall)),
                    k(sum(|r| r.mem_stall)),
                    k(sum(|r| r.front_stall))
                ),
                "stall cycles by class",
            ));
            t.push(Row::new(
                "lint must-facts replayed",
                "0 violations",
                k(sum(|r| r.lint_checks)),
                "abstract interpretation vs translated engine",
            ));
            t.push(Row::new(
                "soak faults injected",
                "-",
                k(sum(|r| r.soak_injected)),
                "all runs bit-identical to fault-free",
            ));
        };

    // The table's own save goes to `corpus_summary.json`: the
    // `corpus.json` name belongs to the deterministic report written
    // below, which CI `cmp`s across `--jobs` values.
    let mut t =
        Table::new("corpus_summary", "E16: irregular-program corpus through the validation stack");
    let runs = sweep(jobs, run_batch);
    let (_, (report, (recs, agg, dsp))) = &runs[0];
    summarize(&mut t, recs, *agg, *dsp);
    report_rows(&mut t, jobs, "report", "corpus.json", report);
    t
}

/// Every experiment, in paper order.
pub fn all() -> Vec<Table> {
    vec![
        table1(),
        table2(),
        table3(),
        fig1(),
        fig2(),
        peak_rates(),
        graphics(),
        ablations(),
        faults(),
        memstats(),
        farm(None),
        lintfacts(None),
        trace(),
        profile(),
        serve(),
        xlate(None),
        obs(None),
        corpus(None),
    ]
}
