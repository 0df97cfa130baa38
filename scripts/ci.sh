#!/usr/bin/env bash
# Tier-1 CI gate for the workspace (see README.md). Everything here must
# stay green: release build, the root package's integration suites
# (`cargo test -q` — the robustness, equivalence, allocation-pin,
# panic-audit and paper-shape suites under tests/ are all part of it), every first-party
# crate's own unit tests and doctests — including the fenced examples in
# README.md and docs/, compiled via `include_str!` doctest shims in
# src/lib.rs, so the prose cannot drift from the API — HAB's own tests,
# and warning-free rustdoc.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# The first-party crates, named explicitly: `--workspace` would also pull
# in the vendored dependency shims under vendor/, which are not held to
# the documentation bar.
CRATES=(
    -p hamming-suite -p ha-obs -p ha-bitcode -p ha-hashing -p ha-store
    -p ha-core -p ha-knn -p ha-mapreduce -p ha-datagen -p ha-distributed
    -p ha-service -p ha-bench
)

run cargo build --release
run cargo test -q
# Crate-level unit tests and doctests: the plain `cargo test` above only
# covers the root package.
run cargo test -q "${CRATES[@]}"
# HAB (benchmark/) is a package of its own, outside the workspace: its
# tests (including a smoke run of all five workloads) are the only gate
# on the calls it makes into the program before the benchmark runs.
run cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> RUSTDOCFLAGS=-Dwarnings cargo doc --no-deps ${CRATES[*]}"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${CRATES[@]}" >/dev/null

echo "==> tier-1 green"
