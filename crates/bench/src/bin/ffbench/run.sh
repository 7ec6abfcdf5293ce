#!/usr/bin/env bash
# The benchmark's one command (see BENCHMARK.json at the repository root):
# one cargo build of this directory's manifest makes ffbench and the real
# `flexflow` binary it drives, then one workload runs. Arguments pass
# through:
#   --workload W --seed N --seconds S --trace 0|1
# Run it from the repository root. The result is the last line of standard
# output; build chatter goes to standard error.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" -p ffbench -p flexflow 1>&2
exec "$CARGO_TARGET_DIR/release/ffbench" run "$@"
