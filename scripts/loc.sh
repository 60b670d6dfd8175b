#!/usr/bin/env bash
# Prints the non-test line count of each crate's `src/`, then the total.
# A file counts up to (not including) its first `#[cfg(test)]` line, so
# an inline test module at the foot of a file is left out; every line
# before it counts, blank lines and comments included.
#
# Usage: scripts/loc.sh [crate ...]   (default: every crate under crates/)
#   e.g. scripts/loc.sh wire verify
set -euo pipefail

cd "$(dirname "$0")/.."
if [ $# -eq 0 ]; then
    set -- $(ls crates)
fi

total=0
for c in "$@"; do
    dir="crates/$c/src"
    [ -d "$dir" ] || { echo "no such crate source dir: $dir" >&2; exit 2; }
    n=$(find "$dir" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk 'FNR == 1 { on = 1 } /^[[:space:]]*#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }')
    printf '%-12s %6d\n' "$c" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
