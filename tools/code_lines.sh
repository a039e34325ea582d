#!/usr/bin/env bash
# Non-test code lines of the three core crates — the number ROADMAP item 5's
# exit criterion is stated in. Per crates/{colstore,encdict,encdbdb}/src/**/*.rs
# except tests.rs: lines before the first `#[cfg(test)]` at column 0 that are
# neither blank nor `//` comments (doc comments included).
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for crate in colstore encdict encdbdb; do
    n=$(find "crates/$crate/src" -name '*.rs' ! -name 'tests.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { live = 1 }
                      /^#\[cfg\(test\)\]/ { live = 0 }
                      live && !/^[[:space:]]*(\/\/|$)/ { n++ }
                      END { print n + 0 }')
    printf '%-9s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-9s %6d\n' total "$total"
