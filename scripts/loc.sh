#!/bin/sh
# loc.sh — non-test Go lines per package and in total, benchmark/
# excluded: the ROADMAP's "net negative non-test LOC" figure. Counts the
# files git tracks (plus new ones not yet ignored), so build leftovers
# never move it. `loc.sh <rev>` counts that revision instead of the
# working tree; CI prints both to show what a change added or removed.
set -eu
cd "$(dirname "$0")/.."
rev=${1:-}

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
