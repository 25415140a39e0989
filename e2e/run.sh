#!/usr/bin/env bash
# Build the server and the benchmark from source, then run the benchmark
# with the arguments given (see README.md). Both binaries land in one
# target directory, so `e2e` finds `zenesis-serve` beside itself.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p zenesis-serve --bin zenesis-serve
cargo build --release --offline --quiet --manifest-path e2e/Cargo.toml
exec "$CARGO_TARGET_DIR/release/e2e" "$@"
