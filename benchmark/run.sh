#!/usr/bin/env bash
# Builds the benchmark package offline and runs it.
#
#   benchmark/run.sh [--seed N] [--quick]                 every workload, full report
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                         one run of the BENCHMARK.json contract
#   benchmark/run.sh compare A.json B.json                label every metric x workload
#
# Cargo's own output goes to stderr, so the last line of stdout is the
# benchmark's. The build honours CARGO_TARGET_DIR (default: benchmark/target).
set -euo pipefail
DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --manifest-path "$DIR/Cargo.toml"
BIN="${CARGO_TARGET_DIR:-$DIR/target}/release/benchmark"
case " $* " in
" compare "*) exec "$BIN" "$@" ;;
*" --workload "*) exec "$BIN" --out "$DIR/out" "$@" ;;
esac
COMMIT="$(git -C "$DIR" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$BIN" --out "$DIR/out" --commit "$COMMIT" "$@"
