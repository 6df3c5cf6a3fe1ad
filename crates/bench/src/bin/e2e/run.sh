#!/usr/bin/env bash
# E12 end-to-end benchmark: build the release hxq and the benchmark, then
# run it with the given arguments. Run from the repository root:
#
#   bash crates/bench/src/bin/e2e/run.sh --seed 1 --out target/e2e/run.json
#   bash crates/bench/src/bin/e2e/run.sh --workload file_cold --seed 1 --seconds 15 --trace 0
#
# Both builds share one target directory ($CARGO_TARGET_DIR, default
# target/), so hxq is the same release binary `cargo build --release`
# produces.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p hedgex --bin hxq
cargo build --release --offline --quiet --manifest-path crates/bench/src/bin/e2e/Cargo.toml
exec "$CARGO_TARGET_DIR/release/e2e" --hxq "$CARGO_TARGET_DIR/release/hxq" "$@"
