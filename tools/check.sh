#!/usr/bin/env sh
# Offline CI gate: release build, full test suite, formatting, lints, docs.
# The workspace has zero external crates, so everything here must pass
# with the network disabled — CARGO_NET_OFFLINE makes any accidental
# registry access a hard error instead of a hang. Correctness lives in
# `cargo test`, performance in gwbench (benchmark/README.md); this script
# only orchestrates.
#
# Usage:
#   tools/check.sh            full gate (build, grep gates, tests,
#                             determinism loop, fmt, clippy, rustdoc)
#   tools/check.sh --spine    grep gates only. Pool granularity: no
#                             pair_from_real( call site outside
#                             crates/core/src/mtxel.rs (pair loops go
#                             through the batched pairs_from_real), the
#                             pool's floor constant named nowhere outside
#                             crates/par/src, and no bgw_par::Flops cost
#                             that is a bare numeric literal; the
#                             imaginary-axis Sigma indexes no element of
#                             its correlation matrix and builds it at one
#                             call site, and the space-time chi has no
#                             serial `while r0 < npts` batch loop. And
#                             the GW spine is spelled once.
#                             Above their test modules, the five driver
#                             files of crates/core hold exactly one call
#                             site each of solve_bands(, Coulomb::slab(,
#                             Coulomb::bulk_for_cell and
#                             bands_around_gap.max(1); the non-test code
#                             of crates/{core,serve}/src builds the
#                             [e - d, e, e + d] grid in one place; the
#                             daemon runs the spine's Sigma row, record
#                             codec and Dyson assembly instead of its own
#                             (no gpp_sigma_diag(, solve_qp_diag( or
#                             GwStage::SigmaPartial in crates/serve/src,
#                             one SigmaPartial encoder and one decoder in
#                             the workspace, no band_slice / BatchPartial /
#                             gpp_rows_preemptible / masked grid); and no
#                             collective in crates/{comm,dist}/src has a
#                             panicking twin of its try_ form. And no
#                             orphans: every `pub mod` of crates/*/src/lib.rs
#                             and core/src/sigma/mod.rs outside the five
#                             spine files is named (`m::` or an item its
#                             lib re-exports) by non-test code in another
#                             file of crates/*/src, src/ or benchmark/src,
#                             or sits on the in-script allowlist with its
#                             reason; and GppModel::new( has no call site
#                             under crates/bench/ or examples/. One level
#                             down, every pub item of crates/*/src is
#                             named by that non-test code outside its own
#                             definition (a type's impl blocks included),
#                             or sits on the item allowlist with its reason
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

# The GW spine: core::service and the driver files that are policies
# over its shared stages.
spine="crates/core/src/workflow.rs crates/core/src/dagflow.rs
       crates/core/src/restart.rs crates/core/src/resilient.rs
       crates/core/src/service.rs"

run_spine_gate() {
    echo "==> spine gate: one spelling of the pipeline prefix, band window and 3-point grid"
    # The drivers (barrier, DAG, checkpointed, resilient x2, served) are
    # policies over the shared stages of core::service. A driver that
    # solves bands, builds a Coulomb, picks the Sigma band window or
    # spells the sampling grid itself is a forked spine: fail here, at
    # review time, instead of drifting (five of nine drivers once dropped
    # GwConfig::slab that way).
    # shellcheck disable=SC2086
    code=$(nontest_code $spine)
    # shellcheck disable=SC2086
    echo "    spine: $(nontest_code $spine crates/serve/src/core.rs crates/core/src/sigma/diag.rs | wc -l) non-blank non-comment lines above the test modules (five drivers + serve/src/core.rs + sigma/diag.rs)"
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

    # The Sigma row is the unit: the daemon loops over the spine's row
    # entry, row set and assembly. A kernel call, a Dyson solve or a
    # SigmaPartial record spelled in crates/serve/src is a second spine.
    # shellcheck disable=SC2046
    serve=$(nontest_code $(find crates/serve/src -name '*.rs'))
    for pat in 'gpp_sigma_diag(' 'solve_qp_diag(' 'GwStage::SigmaPartial'; do
        n=$(printf '%s\n' "$serve" | grep -cF -- "$pat" || true)
        echo "    crates/serve/src: $pat: $n site(s)"
        [ "$n" -eq 0 ] || status=1
    done
    # shellcheck disable=SC2046
    all=$(nontest_code $(find crates/*/src -name '*.rs'))
    for pat in 'stage: GwStage::SigmaPartial' '!= GwStage::SigmaPartial'; do
        n=$(printf '%s\n' "$all" | grep -cF -- "$pat" || true)
        echo "    SigmaPartial record, '$pat': $n site(s) in the workspace (one encoder, one decoder)"
        [ "$n" -eq 1 ] || status=1
    done
    n=$(printf '%s\n' "$all" |
        grep -cE 'fn band_slice|struct BatchPartial|fn gpp_rows_preemptible' || true)
    echo "    band_slice / BatchPartial / gpp_rows_preemptible: $n definition(s)"
    [ "$n" -eq 0 ] || status=1
    n=$(nontest_code crates/core/src/dagflow.rs | grep -c 'masked' || true)
    echo "    dagflow masked grids: $n mention(s)"
    [ "$n" -eq 0 ] || status=1

    # One spelling per collective: a `pub fn X` beside a `pub fn try_X` is
    # a panicking twin. run_world / try_run_world differ in fault plan, not
    # in error style, and stay.
    # shellcheck disable=SC2046
    fns=$(nontest_code $(find crates/comm/src crates/dist/src -name '*.rs') |
        sed -n 's/^[ \t]*pub fn \([a-z_0-9]*\).*/\1/p')
    twins=$(printf '%s\n' "$fns" | sed -n 's/^try_//p' | grep -v '^run_world$' |
        while read -r f; do printf '%s\n' "$fns" | grep -x -- "$f" || true; done)
    echo "    panicking twins in crates/{comm,dist}/src: $(printf '%s' "$twins" | grep -c . || true)"
    [ -z "$twins" ] || { echo "      $twins"; status=1; }
    if [ "$status" -ne 0 ]; then
        echo "FAIL: the spine is spelled more (or less) than once; route the driver through core::service"
        exit 1
    fi
}

# "file<TAB>line number<TAB>code" for every line above the test module
# of every library, regenerator and benchmark source that has code left
# once comments are cut and string and char literals are emptied (`""`,
# `' '`); `pub mod` lines and whole `pub use ...;` statements dropped.
# This is what a caller is made of: examples, tests/, #[cfg(test)] tails,
# comments (doc comments included), string contents and re-exports are
# not callers.
corpus() {
    find crates/*/src src benchmark/src -name '*.rs' | sort | xargs awk '
        FNR == 1 { tail = 0; use = 0; instr = 0; inblk = 0 }
        /^#\[cfg\(test\)\]/ { tail = 1 }
        tail { next }
        {
            raw = $0; code = ""; n = length(raw)
            for (i = 1; i <= n; i++) {
                c = substr(raw, i, 1)
                if (inblk) {
                    if (c == "*" && substr(raw, i + 1, 1) == "/") { inblk = 0; i++ }
                    continue
                }
                if (instr) {
                    if (c == "\\" && hashes < 0) i++
                    else if (c == "\"" && (hashes < 0 ||
                             substr(raw, i + 1, hashes) == substr("########", 1, hashes))) {
                        instr = 0; code = code "\""; if (hashes > 0) i += hashes
                    }
                    continue
                }
                d = substr(raw, i + 1, 1)
                if (c == "/" && d == "/") break
                if (c == "/" && d == "*") { inblk = 1; i++; continue }
                if (c == "\"") { instr = 1; hashes = -1; code = code "\""; continue }
                if (c == "r" && substr(raw, i - 1, 1) !~ /[A-Za-z0-9_]/ &&
                    match(substr(raw, i + 1), /^#*"/)) {
                    instr = 1; hashes = RLENGTH - 1; i += RLENGTH; code = code "\""; continue
                }
                if (c == "\047" && d == "\\") {
                    i += 2 + index(substr(raw, i + 3), "\047"); code = code "\047 \047"; continue
                }
                if (c == "\047" && substr(raw, i + 2, 1) == "\047") {
                    i += 2; code = code "\047 \047"; continue
                }
                code = code c
            }
            l = code; sub(/^[ \t]+/, "", l)
            if (l == "") next
            if (use || l ~ /^pub use /) { use = (l !~ /;/); next }
            if (l ~ /^pub mod /) next
            print FILENAME "\t" FNR "\t" code
        }'
}

run_item_gate() {
    echo "==> item gate: every pub item has a caller that is not a test"
    # The orphan gate's rule, one level down. Every `pub` fn, method,
    # struct, enum, trait, const, static, type and union in crates/*/src
    # stays if a corpus line outside its own definition names it. The
    # definition is the item's own span and, for a type, every
    # `impl ... Type` block, so a struct its own methods mention is still
    # an orphan. Matching is by name, so a name two items share keeps
    # both. An allowlist line is "file pattern: reason", the pattern an
    # ERE over `Type::name` in which `*` stands for any text; a line no
    # orphan needs is stale.
    allow='crates/comm/src/fault.rs FaultPlan::*: the fault-plan builders, the input tests/faults.rs, tests/dag_faults.rs and the bgw-comm tests arm the live collectives and drivers with
crates/comm/src/lib.rs WorldReport::first_error: tests/faults.rs reads the typed error of a faulted world through it
crates/core/src/workflow.rs run_*: a GW driver, an entry point of the spine that tests/pipeline.rs holds to the one-shot bits
crates/core/src/restart.rs run_*: a GW driver, an entry point of the spine that tests/restart.rs kills and resumes
crates/core/src/resilient.rs run_*: a GW driver, an entry point of the spine that tests/faults.rs and tests/dag_faults.rs arm with a fault plan
crates/core/src/testkit.rs *: test fixture - the small Si context unit tests, tests/ and examples share
crates/perf/src/counters.rs exclusive_test_guard: test fixture - serializes the tests of every crate that read the process-wide counters
crates/core/src/mtxel.rs Mtxel::pair_from_real: the one-pair path tests/determinism.rs holds the batched pairs_from_real rows to, bit for bit
crates/core/src/sigma/diag.rs measured_alpha: tests/trace_report.rs fits the Eq. 7 prefactor of the live GPP kernel with it
crates/core/src/sigma/offdiag.rs offdiag_flops_eq8: ROADMAP item 5(c) - the oracle for the counted FLOPs of the off-diagonal kernel
crates/perf/src/flopmodel.rs (ff_sigma_flops|imagaxis_sigma_flops): the closed-form model tests/trace_report.rs holds the counted FLOPs of the live kernel to
crates/fft/src/plan.rs dft_reference: the O(n^2) DFT tests/properties.rs holds FftPlan to
crates/linalg/src/matrix.rs CMatrix::adjoint: the explicit (A B)^H tests/properties.rs holds the Op::Adj GEMM to
crates/linalg/src/matrix.rs CMatrix::random_hermitian: the Hermitian input tests/properties.rs and tests/distributed.rs drive eigh and the distributed inversion with
crates/linalg/src/matrix.rs CMatrix::hermiticity_error: the check the unit tests of chi0, eps^-1, Sigma, GWPT and the Hamiltonian hold their outputs to (three crates, so not cfg(test))
crates/serve/src/core.rs ServeCore::(enqueue|run_until_idle|take_events): the single-threaded drive of the engine tests/serve.rs, tests/serve_faults.rs and tests/pipeline.rs replay; the threaded Server runs the same step through enqueue_with_cancel and step_with
crates/trace/src/lib.rs reset: tests/trace_report.rs and tests/serve.rs clear the span tree between measured sections with it
crates/trace/src/report.rs RunReport::(from_json|pruned|render_tree|scrubbed): the readers tests/serve.rs and tests/trace_report.rs pin the report format and the served golden with
crates/core/src/pseudobands.rs chebyshev_pseudoband: ROADMAP item 7 wires the Chebyshev-Jackson construction into the band prefix or deletes it with num::chebyshev
crates/num/src/chebyshev.rs *: ROADMAP item 7 keeps or deletes the module whole
crates/pwdft/src/hamiltonian.rs Hamiltonian::spectral_bounds: ROADMAP item 7 - the spectral window of the Chebyshev-Jackson construction
crates/num/src/minimax.rs *: ROADMAP item 3 keeps or deletes the space-time chi and this module whole
crates/pwdft/src/kpoints.rs *: DESIGN Sec. 2 - the band structure along L-Gamma-X is the evidence that the model pseudopotential is physical (examples/band_structure.rs, si_model_band_topology)
crates/pwdft/src/lattice.rs Crystal::diamond_primitive: DESIGN Sec. 2 - the primitive cell that band structure is computed in'
    corpus | ALLOW="$allow" awk -F '\t' '
    BEGIN {
        n = split(ENVIRON["ALLOW"], a, "\n")
        for (i = 1; i <= n; i++) {
            k = a[i]; sub(/: .*/, "", k)
            akey[i] = k; areason[i] = substr(a[i], length(k) + 3); aused[i] = 0
        }
        nallow = n
    }
    {
        file = $1; line = $2 + 0; code = $3
        if (file != cur) { cur = file; depth = 0; sp = 0 }
        # A definition (crates/*/src only) or an impl header opens a span
        # at the current bracket depth.
        if (file ~ /^crates\/[^\/]+\/src\// &&
            match(code, /^[ \t]*pub (const |unsafe |async )*(fn|struct|enum|trait|const|static|type|union) +(mut +)?[A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(code, 1, RLENGTH); sub(/.* /, "", name)
            nd++; dfile[nd] = file; dname[nd] = name
            dqual[nd] = (sp > 0 && skind[sp] == "impl") ? sname[sp] "::" name : name
            sp++; skind[sp] = "item"; sname[sp] = name
        } else if (match(code, /^[ \t]*(unsafe )?impl[ <]/)) {
            h = code; sub(/^[ \t]*(unsafe )?impl/, "", h)
            if (substr(h, 1, 1) == "<") {
                g = 0
                for (i = 1; i <= length(h); i++) {
                    c = substr(h, i, 1)
                    if (c == "<") g++
                    else if (c == ">" && --g == 0) break
                }
                h = substr(h, i + 1)
            }
            if (match(h, / for /)) h = substr(h, RSTART + 5)
            sub(/^[ \t&]*(dyn )?/, "", h)
            match(h, /^[A-Za-z0-9_:]+/); name = substr(h, 1, RLENGTH); sub(/.*::/, "", name)
            sp++; skind[sp] = "impl"; sname[sp] = name
        } else name = ""
        if (name != "") {
            sd0[sp] = depth; sopen[sp] = 0
            ns++; spn[ns] = name; spf[ns] = file; sps[ns] = line; spe[ns] = 1e9; sspan[sp] = ns
            spans[name] = spans[name] " " ns
        }
        # Bracket depth; a span closes on the `}` of its block, or on a `;`
        # at its own depth before any block opened.
        n = length(code)
        for (i = 1; i <= n; i++) {
            c = substr(code, i, 1)
            if (c == "{" || c == "(" || c == "[") {
                depth++
                if (c == "{" && sp > 0 && depth == sd0[sp] + 1) sopen[sp] = 1
            } else if (c == "}" || c == ")" || c == "]") {
                depth--
                if (c == "}" && sp > 0 && depth == sd0[sp] && sopen[sp]) { spe[sspan[sp]] = line; sp-- }
            } else if (c == ";" && sp > 0 && depth == sd0[sp] && !sopen[sp]) { spe[sspan[sp]] = line; sp-- }
        }
        nl++; lf[nl] = file; ll[nl] = line; lc[nl] = code
    }
    END {
        for (d = 1; d <= nd; d++) defined[dname[d]] = 1
        for (i = 1; i <= nl; i++) {
            t = lc[i]; gsub(/[^A-Za-z0-9_]+/, " ", t)
            m = split(t, w, " ")
            split("", seen)
            for (q = 1; q <= m; q++) {
                x = w[q]
                if (!(x in defined) || (x in seen)) continue
                seen[x] = 1
                k = split(spans[x], s, " "); own = 0
                for (r = 1; r <= k; r++)
                    if (spf[s[r]] == lf[i] && ll[i] >= sps[s[r]] && ll[i] <= spe[s[r]]) { own = 1; break }
                if (!own) refs[x]++
            }
        }
        orphans = 0; stale = 0
        for (d = 1; d <= nd; d++) {
            if (refs[dname[d]] > 0) continue
            kept = 0
            for (i = 1; i <= nallow && !kept; i++) {
                split(akey[i], kf, " "); pat = kf[2]
                gsub(/\*/, ".*", pat)
                if (kf[1] == dfile[d] && dqual[d] ~ ("^" pat "$")) {
                    kept = 1; aused[i] = 1
                    print "    kept without a caller: " dfile[d] " " dqual[d] ": " areason[i]
                }
            }
            if (!kept) { print "    ORPHAN: " dfile[d] " " dqual[d]; orphans++ }
        }
        for (i = 1; i <= nallow; i++)
            if (!aused[i]) { print "    stale allowlist line: " akey[i]; stale++ }
        print "    orphan pub items: " orphans
        if (orphans + stale > 0) {
            print "FAIL: delete the orphan with the tests that exercise only it (git keeps it), move a reference implementation into its test module, or allowlist it with a reason"
            exit 1
        }
    }' || exit 1
}

run_orphan_gate() {
    echo "==> orphan gate: every pub mod has a caller, and nobody outside the spine builds W"
    # The five spine files are the roots. Any other module stays if
    # non-test code outside its own file reaches it — from the spine, from
    # a bgw-bench regenerator (crates/bench) or from gwbench
    # (benchmark/src). A module on the allowlist carries the reason it is
    # kept without a caller.
    allow='pwdft/kpoints: DESIGN Sec. 2 - the band structure along L-Gamma-X is the evidence that the model pseudopotential is physical (examples/band_structure.rs, si_model_band_topology)
core/testkit: test fixture - the small Si context unit tests, tests/ and examples share'
    corpus=$(corpus | cut -f1,3)
    status=0
    orphans=0
    for lib in crates/*/src/lib.rs crates/core/src/sigma/mod.rs; do
        dir=$(dirname "$lib")
        crate=$(printf '%s' "$lib" | cut -d/ -f2)
        for m in $(sed -n 's/^pub mod \([a-z_0-9]*\);.*/\1/p' "$lib"); do
            case " $(echo $spine) " in *" $dir/$m.rs "*) continue ;; esac
            # `m::` or any name `pub use m::...;` re-exports from this lib;
            # not after a `.` (`.sum::<f64>()` names no module `sum`).
            items=$(awk -v m="$m" '
                use == "" && $0 ~ "^pub use " m "::" { use = " " }
                use != "" { use = use $0; if ($0 ~ /;/) { print use; use = "" } }' "$lib" |
                sed "s/pub use $m:://" | tr -c 'A-Za-z0-9_\n' ' ' | tr ' ' '\n' |
                grep -vxE '(self|as)?' | sort -u | tr '\n' '|')
            pat="(^|[^A-Za-z0-9_.])(${m}::|(${items}${m}::)([^A-Za-z0-9_]|\$))"
            n=$(printf '%s\n' "$corpus" | grep -E -- "$pat" | cut -f1 | sort -u |
                grep -vcE "^$dir/$m(\.rs\$|/)" || true)
            [ "$n" -eq 0 ] || continue
            if reason=$(printf '%s\n' "$allow" | grep "^$crate/$m: "); then
                echo "    kept without a caller: $reason"
            else
                echo "    ORPHAN: $dir/$m has no non-test caller outside its own file"
                orphans=$((orphans + 1))
            fi
        done
    done
    echo "    orphan pub mods: $orphans"
    [ "$orphans" -eq 0 ] || status=1
    # W is built by core::service and nowhere else: a regenerator or an
    # example that calls GppModel::new is re-spelling stages 1-5.
    n=$(grep -rF 'GppModel::new(' --include='*.rs' crates/bench examples | grep -c . || true)
    echo "    GppModel::new( under crates/bench/ and examples/: $n call site(s)"
    [ "$n" -eq 0 ] || status=1
    if [ "$status" -ne 0 ]; then
        echo "FAIL: delete the orphan (git keeps it) or give it the caller that justifies it; start from service::build_screening"
        exit 1
    fi
}

run_pool_gate() {
    echo "==> pool gate: one dispatch per batch of pairs, one floor, costs stated not chosen"
    # Every pool wake-up used to be an axis pass of one small grid inside
    # a serial pair loop. The loops now hand a band's pairs to
    # Mtxel::pairs_from_real; a per-pair call site outside mtxel.rs is
    # that loop coming back. Whether a region is worth a wake-up is
    # bgw-par's decision against one constant: a call site states an
    # operation count and never a threshold of its own.
    status=0
    # shellcheck disable=SC2046
    n=$(nontest_code $(find crates/*/src -name '*.rs' ! -path crates/core/src/mtxel.rs) |
        grep -cF 'pair_from_real(' || true)
    echo "    pair_from_real( outside crates/core/src/mtxel.rs: $n call site(s)"
    [ "$n" -eq 0 ] || status=1
    n=$(grep -rl 'MIN_REGION' --include='*.rs' crates src tests examples |
        grep -vc '^crates/par/src/' || true)
    echo "    the floor constant outside crates/par/src: $n file(s)"
    [ "$n" -eq 0 ] || status=1
    # shellcheck disable=SC2046
    n=$(nontest_code $(find crates/*/src -name '*.rs') | grep -cE 'Flops\([0-9_]+\)' || true)
    echo "    Flops(<numeric literal>) costs: $n site(s)"
    [ "$n" -eq 0 ] || status=1
    # The imaginary axis runs on the pool: q_k(n) is one ZGEMM per
    # (node, Sigma band) against one hoisted correlation matrix, and a row
    # batch is the space-time chi's parallel unit. Element indexing of
    # that matrix, a second call site for it, or the serial batch loop in
    # non-test code is the scalar path coming back (it lives on as the
    # test module's oracle).
    imag=$(nontest_code crates/core/src/sigma/imagaxis.rs)
    n=$(printf '%s\n' "$imag" | grep -cF 'corr[(' || true)
    echo "    corr[( element indexing in sigma/imagaxis.rs: $n site(s)"
    [ "$n" -eq 0 ] || status=1
    n=$(printf '%s\n' "$imag" | grep -cF 'correlation_part(' || true)
    echo "    correlation_part( in sigma/imagaxis.rs: $n call site(s)"
    [ "$n" -eq 1 ] || status=1
    n=$(nontest_code crates/core/src/spacetime.rs | grep -cF 'while r0 < npts' || true)
    echo "    while r0 < npts in spacetime.rs: $n loop(s)"
    [ "$n" -eq 0 ] || status=1
    if [ "$status" -ne 0 ]; then
        echo "FAIL: route pair loops through Mtxel::pairs_from_real, keep q_k(n) on ZGEMM and the row batch on the pool, and state costs as operation counts"
        exit 1
    fi
}

run_determinism_loop() {
    echo "==> determinism loop: the bit-exact tests and the determinism battery, 20x at BGW_THREADS=2"
    # parallel_reduce used to group its operands by which worker drew
    # which chunk, so the first three failed nondeterministically at any
    # pool width > 1; tests/determinism.rs holds every other kernel family
    # to the same bits across widths and repeats. Twenty consecutive green
    # runs at width 2 is the gate.
    log=$(mktemp)
    i=1
    while [ "$i" -le 20 ]; do
        for t in \
            "-p berkeleygw-rs --test serve -- --exact sharded_replay_is_deterministic_and_shard_count_invariant" \
            "-p berkeleygw-rs --test workflow_io -- --exact gw_through_screening_record_matches_in_memory" \
            "-p bgw-core --lib -- --exact service::tests::union_context_band_slices_match_per_request_contexts" \
            "-p berkeleygw-rs --test determinism"; do
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
    run_pool_gate
    run_spine_gate
    run_orphan_gate
    run_item_gate
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

run_pool_gate
run_spine_gate
run_orphan_gate
run_item_gate

echo "==> cargo test -q"
cargo test -q

run_determinism_loop

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> all checks passed"
