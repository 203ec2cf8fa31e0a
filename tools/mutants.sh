#!/usr/bin/env sh
# Mutant catalogue runner: proves the test suite kills each planted error
# listed in tools/mutants/catalogue.tsv (the row format is described at
# the top of that file).
#
# The tree is copied once to a temporary directory. Each test binary a row
# names must pass on the unmutated copy first, and that pass is timed;
# then, row by row, the exact text is replaced in the copy, the row's
# binary alone is built and run, and the file is restored. A row's run is
# limited to max(60 s, 5 x its binary's baseline pass) under coreutils
# `timeout`. A row is
#   KILLED    when its binary fails,
#   SURVIVED  when it still passes,
#   TIMEOUT   when its binary is still running at the limit (a mutant
#             that blocks or loops a test),
#   NO MATCH  when the text does not occur exactly `count` times,
#   BROKEN    when the mutant does not build.
# Every row but a KILLED one fails the run (exit 1). The copy's first
# build is a full debug build of the workspace and every row rebuilds the
# mutated crate, so this runner is kept out of tier-1 and out of
# tools/check.sh.
#
# Usage: tools/mutants.sh [catalogue.tsv]
# Self-test: `tools/mutants.sh tools/mutants/selftest.tsv` runs one no-op
# row (its replacement equals its text), so it must print `SURVIVED` for
# that row and exit 1; a runner that prints KILLED there is broken.
# CARGO_TARGET_DIR, when set, is used for the copy's builds (it is shared
# by every row, so only the mutated crate rebuilds); otherwise a target
# directory inside the temporary copy is. The copy's files are stamped
# with the time of the copy, so a build an earlier run left in a shared
# target directory (its last row's mutant among them) is never taken as
# fresh.
set -eu

cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true
if [ "$#" -gt 1 ]; then
    echo "usage: tools/mutants.sh [catalogue.tsv]" >&2
    exit 2
fi
catalogue=$(cd "$(dirname "${1:-tools/mutants/catalogue.tsv}")" && pwd)/$(basename "${1:-tools/mutants/catalogue.tsv}")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/tree"
tar --exclude=./target --exclude=./.git -cf - . | tar -xmf - -C "$work/tree"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"
log="$work/log"
tab=$(printf '\t')

# The catalogue's rows, without comments and the header.
rows() {
    grep -v '^#' "$catalogue" | grep -v "^file${tab}count${tab}"
}

# occurrences FILE TEXT: how many times TEXT occurs in FILE. The texts
# reach awk through the environment, which keeps backslashes literal.
occurrences() {
    PAT="$2" awk '{
        pat = ENVIRON["PAT"]; s = $0
        while ((i = index(s, pat)) > 0) { n++; s = substr(s, i + length(pat)) }
    } END { print n + 0 }' "$1"
}

# substitute FROM TO FILE: replaces every occurrence of FROM in FILE by TO.
substitute() {
    FROM="$1" TO="$2" awk '{
        from = ENVIRON["FROM"]; to = ENVIRON["TO"]; out = ""; s = $0
        while ((i = index(s, from)) > 0) {
            out = out substr(s, 1, i - 1) to; s = substr(s, i + length(from))
        }
        print out s
    }' "$3" >"$3.mut" && mv "$3.mut" "$3"
}

# build_binary ARGS: builds one test binary of the copy without running it.
build_binary() {
    # shellcheck disable=SC2086
    (cd "$work/tree" && cargo test -q --no-run $1 >"$log" 2>&1)
}

# run_binary ARGS [LIMIT]: runs one test binary of the copy; given a LIMIT,
# under `timeout`, which stops the binary's process group after LIMIT
# seconds and exits 124 (137 when its follow-up KILL was needed).
run_binary() {
    # shellcheck disable=SC2086
    (cd "$work/tree" && ${2:+timeout -k 10 "$2"} cargo test -q $1 >"$log" 2>&1 </dev/null)
}

# baseline_failed ARGS: stops the run, the tree fails without any mutant.
baseline_failed() {
    tail -n 30 "$log"
    echo "FAIL: cargo test -q $1 fails before any mutant is planted" >&2
    exit 1
}

echo "==> baseline: every named binary passes on the unmutated tree"
: >"$work/limits"
for key in $(rows | cut -f6 | sort -u | tr ' ' '~'); do
    args=$(echo "$key" | tr '~' ' ')
    build_binary "$args" || baseline_failed "$args"
    start=$(date +%s)
    run_binary "$args" || baseline_failed "$args"
    secs=$(($(date +%s) - start))
    limit=$((5 * secs > 60 ? 5 * secs : 60))
    printf '%s\t%s\n' "$key" "$limit" >>"$work/limits"
    echo "    ok: cargo test -q $args (${secs} s; its rows stop at ${limit} s)"
done

killed=0
bad=0
n=0
rows >"$work/rows"
while IFS="$tab" read -r file count from to stage args; do
    n=$((n + 1))
    target="$work/tree/$file"
    cp "$target" "$work/orig"
    found=$(occurrences "$target" "$from")
    limit=$(KEY=$(echo "$args" | tr ' ' '~') awk -F "$tab" '$1 == ENVIRON["KEY"] { print $2 }' "$work/limits")
    if [ "$found" != "$count" ]; then
        verdict="NO MATCH ($found of $count)"
    else
        substitute "$from" "$to" "$target"
        if ! build_binary "$args"; then
            verdict=BROKEN
        else
            status=0
            run_binary "$args" "$limit" || status=$?
            case "$status" in
            0) verdict=SURVIVED ;;
            124 | 137) verdict="TIMEOUT (${limit} s)" ;;
            *) verdict=KILLED ;;
            esac
        fi
        cp "$work/orig" "$target"
    fi
    case "$verdict" in
    KILLED) killed=$((killed + 1)) ;;
    *) bad=$((bad + 1)) ;;
    esac
    echo "    $verdict: $file: $stage [cargo test $args]"
done <"$work/rows"

echo "mutants: $n rows, $killed killed, $bad not killed"
[ "$bad" -eq 0 ]
