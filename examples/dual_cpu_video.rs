//! Dual-CPU video decode sketch: CPU0 runs the MPEG-2-style VLD while CPU1
//! runs 8×8 IDCTs, on the real chip model with its shared dual-ported
//! D-cache — the workload split the paper's intro motivates for set-top
//! decoding.
//!
//! ```sh
//! cargo run --release --example dual_cpu_video
//! # with a Perfetto timeline of both CPUs + the chip-level memory:
//! cargo run --release --example dual_cpu_video -- --trace-out trace.json
//! ```

use majc::core::{Event, MemSink, TimingConfig, TraceSink};
use majc::isa::XorShift64;
use majc::kernels::{idct, vld};
use majc::mem::FlatMem;
use majc::soc::Majc5200;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut trace_out: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace-out" => trace_out = Some(args.next().expect("--trace-out needs a file path")),
            other => {
                eprintln!("unknown argument `{other}`; supported: --trace-out <path>");
                std::process::exit(2);
            }
        }
    }

    // CPU0's program: decode 24 blocks of coded symbols (VLD+IZZ+IQ).
    let blocks = vld::workload(42, 24);
    let (stream, nsym) = vld::encode(&blocks);
    let (vld_prog, vld_mem) = vld::build(&stream, blocks.len());

    // CPU1's program: one 8x8 IDCT (rebased so both programs coexist).
    let mut rng = XorShift64::new(7);
    let mut coeffs = [0i16; 64];
    for _ in 0..12 {
        coeffs[rng.next_range(64)] = rng.next_i16(300);
    }
    let (idct_prog0, idct_mem) = idct::build(&coeffs);
    // Rebase CPU1's program after CPU0's image.
    let idct_prog = majc::isa::Program::new(0x0008_0000, idct_prog0.packets().to_vec());

    // Merge both memory images (they use disjoint regions).
    let mut mem = FlatMem::new();
    merge(&mut mem, vld_mem);
    merge(&mut mem, idct_mem);

    let progs = [vld_prog, idct_prog];
    match trace_out {
        None => {
            let mut chip = Majc5200::new(progs, mem, TimingConfig::default());
            run_and_report(&mut chip, nsym, &coeffs);
        }
        Some(path) => {
            let mut chip = Majc5200::with_sinks(
                progs,
                mem,
                TimingConfig::default(),
                [MemSink::unbounded(), MemSink::unbounded()],
            );
            chip.chip_mut().enable_logs();
            run_and_report(&mut chip, nsym, &coeffs);

            // Harvest both CPUs' streams plus the chip-level logs into one
            // timeline (events carry their CPU id, so a plain merge works).
            let mut evs: Vec<Event> = chip.cpu[0].sink.take();
            evs.extend(chip.cpu[1].sink.take());
            evs.extend(chip.chip_mut().drain_events());
            evs.sort_by_key(Event::timestamp);
            let doc = majc::core::export_perfetto(&evs);
            let n = majc::core::validate_perfetto(&doc)
                .expect("exported Perfetto document validates against the in-tree parser");
            std::fs::write(&path, &doc).expect("write trace file");
            println!("wrote {n} trace events ({} captured) to {path}", evs.len());
            println!("open it at https://ui.perfetto.dev (or chrome://tracing)");
        }
    }
}

fn run_and_report<S: TraceSink>(chip: &mut Majc5200<S>, nsym: usize, coeffs: &[i16; 64]) {
    let (c0, c1) = chip.run(50_000_000).expect("no traps");
    assert!(chip.cpu[0].halted() && chip.cpu[1].halted());

    println!("CPU0 (VLD, {nsym} symbols): {c0} cycles ({:.1} cyc/sym)", c0 as f64 / nsym as f64);
    println!("CPU1 (8x8 IDCT):            {c1} cycles");
    let d = chip.chip().dcache.stats();
    println!(
        "shared D-cache: {} hits / {} misses ({:.1}% hit rate), ports used {:?}",
        d.hits,
        d.misses,
        d.hit_rate() * 100.0,
        chip.chip().dcache.port_accesses,
    );
    println!(
        "crossbar traffic: {} bytes total across {} sources",
        chip.chip().xbar.total_bytes(),
        majc::soc::Source::ALL.len()
    );

    // Validate both results against the Rust references.
    let got_idct = {
        let m = &mut chip.chip_mut().mem;
        let v: Vec<i16> = (0..64).map(|i| m.read_u16(0x0003_0000 + 2 * i) as i16).collect();
        v
    };
    assert_eq!(&got_idct[..], &idct::reference(coeffs)[..], "IDCT output");
    println!("both CPU results verified against references");
}

fn merge(dst: &mut FlatMem, mut src: FlatMem) {
    // Copy the touched regions of `src` into `dst` (regions are disjoint
    // by construction; kernels use fixed layouts).
    for base in [
        0x0001_0000u32,
        0x0002_0000,
        0x0004_0000,
        0x0005_0000,
        0x0100_0000,
        0x0110_0000,
        0x0112_0000,
        0x0113_0000,
    ] {
        let mut buf = vec![0u8; 0x1_0000];
        src.read(base, &mut buf);
        if buf.iter().any(|&b| b != 0) {
            dst.write(base, &buf);
        }
    }
}
