//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this fresh process and prints, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A traced run also writes its spans
//! as JSON lines under `$CARGO_TARGET_DIR/perfbench/`.

use std::process::ExitCode;
use std::time::Instant;

use perfbench::harness::{result_json, run, Settings};

fn parse(args: &[String]) -> Result<Settings, String> {
    let mut s = Settings { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{val}` for {flag}");
        match flag.as_str() {
            "--workload" => s.workload = val.clone(),
            "--seed" => s.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => s.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => s.trace = val.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !perfbench::WORKLOADS.contains(&s.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", perfbench::WORKLOADS));
    }
    Ok(s)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let s = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let o = match run(&s, process_start, |tr| perfbench::setup(&s.workload, s.seed, tr)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: setup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let r = &o.round;
    println!(
        "perfbench {} seed={} trace={}: {} rounds of {} ops, {} attempted, {} failed; \
         {} beyond p99, host {:.3}x slower than the reference",
        s.workload,
        s.seed,
        u8::from(s.trace),
        o.rounds,
        o.round_len,
        o.attempted,
        o.failed,
        o.attempted - (0.99 * o.attempted as f64).ceil() as u64,
        o.host_slowdown,
    );
    println!(
        "work per round: cycles={} packets={} dcache_misses={} mispredicts={} \
         xlate_packets={} uops={}",
        r.cycles, r.packets, r.dcache_misses, r.mispredicts, r.xlate_packets, r.uops
    );
    if s.trace {
        let dir = std::path::Path::new(
            &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
        )
        .join("perfbench");
        let path = dir.join(format!("spans-{}-{}.jsonl", s.workload, s.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, o.tracer.spans_jsonl()));
        match written {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&o));
    ExitCode::SUCCESS
}
