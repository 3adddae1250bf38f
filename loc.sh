#!/usr/bin/env bash
# Non-test line count of the program: every .rs file under crates/*/src,
# and separately under benchmark/src, each read up to its first
# `#[cfg(test)]`. Prints raw lines and code lines (no blank line and no
# line that is only a `//` comment), per crate and in total.
#
#   bash loc.sh
set -euo pipefail
cd "$(dirname "$0")"

# "raw code" over the .rs files under $1.
count() {
  local raw=0 code=0 r c f
  for f in $(find "$1" -name '*.rs' | sort); do
    read -r r c < <(awk '/#\[cfg\(test\)\]/ { exit }
                         { raw++ }
                         !/^[[:space:]]*(\/\/|$)/ { code++ }
                         END { print raw + 0, code + 0 }' "$f")
    raw=$((raw + r))
    code=$((code + c))
  done
  echo "$raw $code"
}

row() { printf '%-14s %7s %7s\n' "$@"; }

row tree raw code
total_raw=0
total_code=0
for dir in crates/*/src; do
  read -r r c < <(count "$dir")
  name=${dir#crates/}
  row "${name%/src}" "$r" "$c"
  total_raw=$((total_raw + r))
  total_code=$((total_code + c))
done
row 'crates/*/src' "$total_raw" "$total_code"
read -r r c < <(count benchmark/src)
row benchmark/src "$r" "$c"
