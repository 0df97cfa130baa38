#!/usr/bin/env bash
# Tier-1 CI gate for the workspace (see README.md). Everything here must
# stay green: release build, then `cargo test -q --no-fail-fast` (so one
# failing suite does not hide the ones after it), which through the root
# manifest's `default-members` covers the root package's integration
# suites — the robustness, equivalence, allocation-pin, panic-audit and
# paper-shape suites under tests/ — and every first-party crate's own
# unit tests and doctests, including the fenced examples in README.md and
# docs/, compiled via `include_str!` doctest shims in src/lib.rs, so the
# prose cannot drift from the API; then HAB's own tests, warning-free
# clippy over every target of the first-party crates, and warning-free
# rustdoc.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# The first-party crates, named explicitly for clippy and rustdoc:
# `--workspace` would also pull in the vendored dependency shims under
# vendor/, which are not held to the lint or documentation bar.
CRATES=(
    -p hamming-suite -p ha-obs -p ha-bitcode -p ha-hashing -p ha-store
    -p ha-core -p ha-knn -p ha-mapreduce -p ha-datagen -p ha-distributed
    -p ha-service -p ha-bench
)

run cargo build --release
run cargo test -q --no-fail-fast
# HAB (benchmark/) is a package of its own, outside the workspace: its
# tests (including a smoke run of all five workloads) are the only gate
# on the calls it makes into the program before the benchmark runs.
run cargo test -q --no-fail-fast --offline --manifest-path benchmark/Cargo.toml

run cargo clippy --all-targets "${CRATES[@]}" -- -D warnings

echo "==> RUSTDOCFLAGS=-Dwarnings cargo doc --no-deps ${CRATES[*]}"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${CRATES[@]}" >/dev/null

echo "==> tier-1 green"
