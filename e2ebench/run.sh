#!/usr/bin/env bash
# Builds the `ukc` release binary and the benchmark from source, then runs
# one benchmark invocation. Run from the repository root:
#
#   bash e2ebench/run.sh --workload solve_assign --seed 1 --seconds 30 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); logs,
# data directories and span files go to .bench_out/.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# The load generator, the server and the library runs all use two lanes.
export UKC_THREADS=2
cargo build --release --offline --quiet --bin ukc >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
E2E_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
E2E_TARGET_CPU="$(grep -ho 'target-cpu=[A-Za-z0-9_-]*' .cargo/config.toml 2>/dev/null | head -n1 | cut -d= -f2 || true)"
E2E_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unavailable)"
export E2E_RUSTC E2E_GIT_REV
export E2E_TARGET_CPU="${E2E_TARGET_CPU:-default}"
exec "$CARGO_TARGET_DIR/release/ukc-e2ebench" "$@" --ukc "$CARGO_TARGET_DIR/release/ukc"
