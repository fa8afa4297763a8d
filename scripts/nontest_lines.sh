#!/usr/bin/env bash
# Counts "non-test lines" the one way the project reports them: for every
# production crate, the lines of crates/<crate>/src/**/*.rs above each
# file's first `#[cfg(test)]` (the whole file when it has none). The
# uu-bench crate (reference oracles, benches, the repro CLI), integration
# tests, benches and examples are not production code and are left out.
#
# Usage: scripts/nontest_lines.sh [repo root]   (default: this script's repo)
#
# Prints one `<package> <lines>` line per crate, then `total <lines>`.
set -euo pipefail

root="${1:-$(dirname "$0")/..}"
total=0
for manifest in "$root"/crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    package=$(awk -F'"' '/^name *=/ { print $2; exit }' "$manifest")
    [ "$package" = "uu-bench" ] && continue
    lines=0
    while IFS= read -r -d '' file; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        lines=$((lines + n))
    done < <(find "$dir/src" -name '*.rs' -print0)
    echo "$package $lines"
    total=$((total + lines))
done
echo "total $total"
