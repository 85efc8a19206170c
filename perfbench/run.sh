#!/usr/bin/env bash
# Build the benchmark and the crates it drives from source, then run it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/perfbench"
# Every thread of the run shares the CPU this script is on, the CPU the
# host-speed calibration measures: serve_rtt's client and server then
# hand off on one core and never wait for the other one to be scheduled.
if command -v taskset >/dev/null; then
    cpu=$(awk '{ print $39 }' /proc/self/stat)
    exec taskset -c "$cpu" "$bin" "$@"
fi
exec "$bin" "$@"
