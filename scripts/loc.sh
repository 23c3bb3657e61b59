#!/usr/bin/env bash
# The one way this repo counts code: non-test Rust lines are the lines
# of a *.rs file above its first `#[cfg(test)]` (the whole file when it
# has none). Comments and blank lines count — deleting them is not a
# reduction — and so does every file, so moving code does not hide it.
#
#   scripts/loc.sh              per-crate table over crates/*/src
#   scripts/loc.sh <path>...    per-file table over the files and
#                               directories named, with their total
#
# Line reports in CHANGES.md and ROADMAP's Size line come from here.
set -euo pipefail
cd "$(dirname "$0")/.."

by=file
if [[ $# -eq 0 ]]; then
  by=crate
  set -- crates/*/src
fi

find "$@" -type f -name '*.rs' | sort | xargs awk -v by="$by" '
  FNR == 1 { counting = 1; files++ }
  /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
  counting {
    key = FILENAME
    if (by == "crate") sub(/\/src\/.*/, "", key)
    if (!(key in lines)) order[++n] = key
    lines[key]++
    total++
  }
  END {
    for (i = 1; i <= n; i++) printf "%7d  %s\n", lines[order[i]], order[i]
    printf "%7d  total (%d files)\n", total, files
  }'
