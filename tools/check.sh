#!/usr/bin/env sh
# Offline CI gate: release build, full test suite, formatting, lints.
# The workspace has zero external crates, so everything here must pass
# with the network disabled — CARGO_NET_OFFLINE makes any accidental
# registry access a hard error instead of a hang. Correctness lives in
# `cargo test`, performance in gwbench (benchmark/README.md); this script
# only orchestrates.
#
# Usage:
#   tools/check.sh            full gate (build, spine, tests, determinism
#                             loop, fmt, clippy)
#   tools/check.sh --spine    grep gate only: the GW spine is spelled once.
#                             Above their test modules, the five driver
#                             files of crates/core hold exactly one call
#                             site each of solve_bands(, Coulomb::slab(,
#                             Coulomb::bulk_for_cell and
#                             bands_around_gap.max(1), and the non-test
#                             code of crates/{core,serve}/src builds the
#                             [e - d, e, e + d] grid in one place
set -eu

cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

# Non-blank, non-comment lines above the `#[cfg(test)]` line of each file.
nontest_code() {
    for f in "$@"; do
        awk '/^#\[cfg\(test\)\]/ { exit }
             { l = $0; sub(/^[ \t]+/, "", l); if (l != "" && substr(l, 1, 2) != "//") print }' "$f"
    done
}

run_spine_gate() {
    echo "==> spine gate: one spelling of the pipeline prefix, band window and 3-point grid"
    # The drivers (barrier, DAG, checkpointed, resilient x2, served) are
    # policies over the shared stages of core::service. A driver that
    # solves bands, builds a Coulomb, picks the Sigma band window or
    # spells the sampling grid itself is a forked spine: fail here, at
    # review time, instead of drifting (five of nine drivers once dropped
    # GwConfig::slab that way).
    spine="crates/core/src/workflow.rs crates/core/src/dagflow.rs
           crates/core/src/restart.rs crates/core/src/resilient.rs
           crates/core/src/service.rs"
    # shellcheck disable=SC2086
    code=$(nontest_code $spine)
    echo "    spine: $(printf '%s\n' "$code" | wc -l) non-blank non-comment lines above the test modules"
    status=0
    for pat in 'solve_bands(' 'Coulomb::bulk_for_cell' 'Coulomb::slab(' 'bands_around_gap.max(1)'; do
        n=$(printf '%s\n' "$code" | grep -cF -- "$pat" || true)
        echo "    $pat: $n call site(s)"
        [ "$n" -eq 1 ] || status=1
    done
    # shellcheck disable=SC2046
    n=$(nontest_code $(find crates/core/src crates/serve/src -name '*.rs') |
        grep -cE 'e - [a-z_]+, e, e \+ [a-z_]+' || true)
    echo "    [e - d, e, e + d]: $n site(s) in crates/{core,serve}/src"
    [ "$n" -eq 1 ] || status=1
    if [ "$status" -ne 0 ]; then
        echo "FAIL: the spine is spelled more (or less) than once; route the driver through core::service"
        exit 1
    fi
}

run_determinism_loop() {
    echo "==> determinism loop: the three formerly flaky bit-exact tests, 20x at BGW_THREADS=2"
    # parallel_reduce used to group its operands by which worker drew
    # which chunk, so these three failed nondeterministically at any pool
    # width > 1. Twenty consecutive green runs at width 2 is the gate.
    log=$(mktemp)
    i=1
    while [ "$i" -le 20 ]; do
        for t in \
            "-p berkeleygw-rs --test serve -- --exact sharded_replay_is_deterministic_and_shard_count_invariant" \
            "-p berkeleygw-rs --test workflow_io -- --exact gw_through_files_matches_in_memory" \
            "-p bgw-core --lib -- --exact service::tests::union_context_band_slices_match_per_request_contexts"; do
            # shellcheck disable=SC2086
            if ! BGW_THREADS=2 cargo test --release -q $t >"$log" 2>&1; then
                echo "FAIL: iteration $i/20: cargo test --release -q $t"
                cat "$log"
                rm -f "$log"
                exit 1
            fi
        done
        i=$((i + 1))
    done
    rm -f "$log"
    echo "    20/20 green"
}

if [ "${1:-}" = "--spine" ]; then
    run_spine_gate
    exit 0
fi
if [ "$#" -gt 0 ]; then
    echo "usage: tools/check.sh [--spine]" >&2
    exit 2
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build: the standalone benchmark package (API pins in benchmark/src/adapter.rs)"
# benchmark/ is its own workspace, invisible to the build above; a
# renamed bgw-* item would otherwise surface only when the driver runs it.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

run_spine_gate

echo "==> cargo test -q"
cargo test -q

run_determinism_loop

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> all checks passed"
