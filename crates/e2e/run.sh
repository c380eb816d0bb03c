#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the three binaries under test
# and the benchmark from source, then hand the arguments to e2e_bench.
#
#   bash crates/e2e/run.sh --workload si8_solve --seed 2024 --seconds 20 --trace 0
#
# Runs from the root of a checkout. crates.io is not reachable where the
# benchmark runs, so every cargo call patches the workspace's registry
# dependencies with the stand-ins under crates/e2e/stubs (see README.md).
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -d crates/core ]; then
    echo "run.sh: not at the root of an mbrpa checkout (no Cargo.toml / crates/core here)" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-target}"
# cargo's own output goes to stderr: stdout carries the benchmark's result line
cargo build --release --offline --quiet \
    --config crates/e2e/stubs/patch.toml \
    -p mbrpa -p mbrpa-e2e --bins 1>&2

exec "$target/release/e2e_bench" "$@"
