#!/bin/sh
# loc.sh — non-test Go lines per package and in total, benchmark/
# excluded: the ROADMAP's "net negative non-test LOC" figure. Counts the
# files git tracks (plus new ones not yet ignored), so build leftovers
# never move it. `loc.sh <rev>` counts that revision instead of the
# working tree; CI prints both to show what a change added or removed.
#
# `loc.sh census` prints the exported-name census instead: every
# exported func or method defined in a non-test file under internal/
# whose name no other non-test line outside benchmark/ mentions, with
# how many _test.go and benchmark/ lines mention it, then the count. A
# word match with comment lines dropped, so it is crude: a method
# reached only through an interface (String, Error) shows as dead, and
# a name shared with a live one hides.
set -eu
cd "$(dirname "$0")/.."
rev=${1:-}

if [ "$rev" = census ]; then
    def='^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*'
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    git ls-files --cached --others --exclude-standard | grep '\.go$' |
        while read -r f; do
            [ -f "$f" ] || continue
            case $f in
            benchmark/*) cat "$f" >>"$tmp/bench" ;;
            *_test.go) cat "$f" >>"$tmp/tests" ;;
            *)
                # the defined name itself is not a mention
                grep -vE '^[[:space:]]*//' "$f" | sed -E "s/$def/func/" >>"$tmp/prod"
                case $f in internal/*) grep -oE "$def" "$f" | sed -E "s|.*[ )]|$f |" >>"$tmp/defs" ;; esac
                ;;
            esac
        done
    sort -u -k2,2 -k1,1 "$tmp/defs" | while read -r file name; do
        grep -qw "$name" "$tmp/prod" && continue
        printf '%-26s %-34s tests %3d  benchmark %3d\n' "$name" "$file" \
            "$(grep -cw "$name" "$tmp/tests")" "$(grep -cw "$name" "$tmp/bench")"
    done | tee "$tmp/out"
    echo "$(wc -l <"$tmp/out") exported names mentioned in no non-test file outside benchmark/"
    exit 0
fi

if [ -n "$rev" ]; then
    files=$(git ls-tree -r --name-only "$rev")
else
    files=$(git ls-files --cached --others --exclude-standard)
fi
echo "$files" | grep '\.go$' | grep -v '_test\.go$' | grep -v '^benchmark/' |
    while read -r f; do
        if [ -n "$rev" ]; then
            n=$(git show "$rev:$f" | wc -l)
        elif [ -f "$f" ]; then
            n=$(wc -l <"$f")
        else
            continue # deleted in the working tree, still in the index
        fi
        echo "$(dirname "$f") $n"
    done |
    awk '{ pkg[$1] += $2; total += $2 }
         END { for (p in pkg) printf "%7d  %s\n", pkg[p], p | "sort -k2"
               close("sort -k2"); printf "%7d  total\n", total }'
