#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   perf/run.sh --workload <workload> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#   perf/run.sh <workload> ...        the same, shorter to type
#
# The result is the last line of stdout; the table goes to stderr and the
# full record to target/perf/. The build lands in $CARGO_TARGET_DIR
# (default target/perf-build), never in the root workspace's target.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
# from the root, so cargo finds .cargo/config.toml (target-cpu=native)
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/perf-build}"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml --bin matgpt-perf >&2
if [[ $# -gt 0 && "$1" != -* ]]; then set -- --workload "$@"; fi
exec "$CARGO_TARGET_DIR/release/matgpt-perf" "$@"
