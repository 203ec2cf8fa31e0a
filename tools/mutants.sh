#!/usr/bin/env sh
# Mutant catalogue runner: proves the test suite kills each planted error
# listed in tools/mutants/catalogue.tsv (the row format is described at
# the top of that file).
#
# The tree is copied once to a temporary directory. Each test binary a row
# names must pass on the unmutated copy first; then, row by row, the exact
# text is replaced in the copy, the row's binary alone is built and run,
# and the file is restored. A row is
#   KILLED    when its binary fails,
#   SURVIVED  when it still passes,
#   NO MATCH  when the text does not occur exactly `count` times,
#   BROKEN    when the mutant does not build.
# Every row but a KILLED one fails the run (exit 1). The copy's first
# build is a full debug build of the workspace and every row rebuilds the
# mutated crate, so this runner is kept out of tier-1 and out of
# tools/check.sh.
#
# Usage: tools/mutants.sh [catalogue.tsv]
# CARGO_TARGET_DIR, when set, is used for the copy's builds (it is shared
# by every row, so only the mutated crate rebuilds); otherwise a target
# directory inside the temporary copy is.
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
tar --exclude=./target --exclude=./.git -cf - . | tar -xf - -C "$work/tree"
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

# run_binary ARGS: builds and runs one test binary of the copy.
run_binary() {
    # shellcheck disable=SC2086
    (cd "$work/tree" && cargo test -q $1 >"$log" 2>&1)
}

echo "==> baseline: every named binary passes on the unmutated tree"
for args in $(rows | cut -f6 | sort -u | tr ' ' '~'); do
    args=$(echo "$args" | tr '~' ' ')
    if ! run_binary "$args"; then
        tail -n 30 "$log"
        echo "FAIL: cargo test -q $args fails before any mutant is planted" >&2
        exit 1
    fi
    echo "    ok: cargo test -q $args"
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
    if [ "$found" != "$count" ]; then
        verdict="NO MATCH ($found of $count)"
    else
        substitute "$from" "$to" "$target"
        # shellcheck disable=SC2086
        if ! (cd "$work/tree" && cargo test -q --no-run $args >"$log" 2>&1); then
            verdict=BROKEN
        elif run_binary "$args"; then
            verdict=SURVIVED
        else
            verdict=KILLED
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
