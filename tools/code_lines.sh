#!/usr/bin/env bash
# Non-test code lines of the three core crates — the number ROADMAP item 5's
# exit criterion is stated in. Per crates/{colstore,encdict,encdbdb}/src/**/*.rs
# except tests.rs: lines before the first `#[cfg(test)]` at column 0 that are
# neither blank nor `//` comments (doc comments included).
#
#   tools/code_lines.sh           per-crate counts and their total
#   tools/code_lines.sh --files   the same, then the ten largest files by that
#                                 count — where regrowth shows first
set -euo pipefail
cd "$(dirname "$0")/.."
# Prints "<count> <file>" for every file named on its command line.
count='FNR == 1 { if (file != "") print n + 0, file; file = FILENAME; n = 0; live = 1 }
       /^#\[cfg\(test\)\]/ { live = 0 }
       live && !/^[[:space:]]*(\/\/|$)/ { n++ }
       END { if (file != "") print n + 0, file }'
per_file=$(find crates/{colstore,encdict,encdbdb}/src -name '*.rs' ! -name 'tests.rs' -print0 |
    sort -z | xargs -0 awk "$count")
total=0
for crate in colstore encdict encdbdb; do
    n=$(awk -v dir="crates/$crate/" 'index($2, dir) == 1 { n += $1 } END { print n + 0 }' <<<"$per_file")
    printf '%-9s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-9s %6d\n' total "$total"
if [ "${1:-}" = --files ]; then
    echo "largest files:"
    sort -rn <<<"$per_file" | head -10 | while read -r n file; do
        printf '  %6d  %s\n' "$n" "$file"
    done
fi
