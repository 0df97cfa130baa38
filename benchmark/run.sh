#!/usr/bin/env bash
# HAB — build the benchmark from this checkout and run it.
#
#   benchmark/run.sh [--seed S] [--seconds T] [--trace 0|1] [--smoke]      every workload (untraced + traced)
#   benchmark/run.sh --workload W [--seed S] [--seconds T] [--trace 0|1]   one run; last stdout line is the result
#   benchmark/run.sh --agree 2x5                                           noise self-test (committed as NOISE.md)
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# All dependencies are path dependencies inside this checkout: no network.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

export HAB_RUSTC="${HAB_RUSTC:-$(rustc -V 2>/dev/null || echo unknown)}"
export HAB_GIT_SHA="${HAB_GIT_SHA:-$(git rev-parse --short=12 HEAD 2>/dev/null || echo none)}"
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/hab" "$@"
