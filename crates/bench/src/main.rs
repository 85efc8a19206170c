//! `reproduce` — regenerate every table and figure of the MAJC-5200 paper.
//!
//! Usage: `reproduce [table1|table2|table3|fig1|fig2|peak|graphics|ablations|faults|memstats|farm|lintfacts|trace|profile|serve|xlate|obs|all] [--jobs N]`
//! (default: `all`). Each run prints paper-vs-measured rows and saves a
//! JSON report under `target/reports/`. `farm --jobs N` runs the
//! simulation-farm batch on N workers (omit `--jobs` for the 1/2/4
//! scaling sweep); the merged report is byte-identical for any N.
//! `lintfacts` analyzes the kernel suite and fuzz corpus with majc-lint
//! and replays every must-fact against the functional simulator; it
//! takes the same `--jobs` flag with the same determinism contract.
//! `serve` sweeps the majc-serve daemon over worker count × queue depth
//! under the chaos load harness, asserting exactly-once delivery in
//! every cell and saving `target/reports/serve_load.json`.
//! `xlate` validates the decode-once translated engine bit-for-bit
//! against the interpreter (kernel suite + three-way fuzz corpus),
//! saves the deterministic `target/reports/xlate.json` (same `--jobs`
//! contract), and measures engine throughput — in release builds a
//! translated engine slower than the interpreter fails the run.
//! `obs` exercises the majc-obs metrics layer: a deterministic seeded
//! job batch whose merged registry snapshot (`target/reports/obs.json`)
//! is byte-identical for any `--jobs`, plus a live chaos-server sweep
//! whose job spans are saved as a Perfetto trace.

use std::process::ExitCode;

use majc_bench::experiments;
use majc_bench::report::Table;

const USAGE: &str = "expected one of: table1 table2 table3 fig1 fig2 peak graphics ablations faults memstats farm lintfacts trace profile serve xlate obs corpus all (plus optional `--jobs N` for farm/lintfacts/xlate/obs/corpus)";

fn emit(t: Table) {
    println!("{}", t.render());
    match t.save() {
        Ok(p) => println!("  [saved {}]\n", p.display()),
        Err(e) => eprintln!("  [report not saved: {e}]\n"),
    }
}

/// Parse `--jobs N` anywhere after the experiment name.
fn jobs_flag() -> Result<Option<usize>, String> {
    let mut args = std::env::args().skip(2);
    while let Some(a) = args.next() {
        if a == "--jobs" {
            let v = args.next().ok_or("`--jobs` needs a value")?;
            return v.parse().map(Some).map_err(|_| format!("bad `--jobs` value `{v}`"));
        }
    }
    Ok(None)
}

fn main() -> ExitCode {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match arg.as_str() {
        "table1" => emit(experiments::table1()),
        "table2" => emit(experiments::table2()),
        "table3" => emit(experiments::table3()),
        "fig1" => emit(experiments::fig1()),
        "fig2" => emit(experiments::fig2()),
        "peak" => emit(experiments::peak_rates()),
        "graphics" => emit(experiments::graphics()),
        "ablations" => emit(experiments::ablations()),
        "faults" => emit(experiments::faults()),
        "memstats" => emit(experiments::memstats()),
        "trace" => emit(experiments::trace()),
        "profile" => emit(experiments::profile()),
        "serve" => emit(experiments::serve()),
        "farm" | "lintfacts" | "xlate" | "obs" | "corpus" => {
            let jobs = match jobs_flag() {
                Ok(jobs) => jobs,
                Err(e) => {
                    eprintln!("{e}; {USAGE}");
                    return ExitCode::from(2);
                }
            };
            emit(match arg.as_str() {
                "farm" => experiments::farm(jobs),
                "lintfacts" => experiments::lintfacts(jobs),
                "xlate" => experiments::xlate(jobs),
                "obs" => experiments::obs(jobs),
                _ => experiments::corpus(jobs),
            })
        }
        "all" => {
            for t in experiments::all() {
                emit(t);
            }
        }
        other => {
            eprintln!("unknown experiment `{other}`; {USAGE}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
