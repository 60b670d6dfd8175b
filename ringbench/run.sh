#!/usr/bin/env bash
# Builds the benchmark and the ring-server it drives, from source, into
# one target directory (so the harness finds ring-server next to
# ringbench), then runs ringbench with the arguments given.
#
#   bash ringbench/run.sh --seed 1                       # all four workloads
#   bash ringbench/run.sh --workload fabric_rep3_write --seed 1 --seconds 20 --trace 0
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
target=${CARGO_TARGET_DIR:-$root/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
export CARGO_TARGET_DIR=$target
# Build output goes to stderr: standard output carries the result line.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p ring-server --bin ring-server >&2
exec "$target/release/ringbench" "$@"
