#!/usr/bin/env bash
# The one way this repo counts code: non-test Rust lines are the lines
# of a *.rs file above its first `#[cfg(test)]` (the whole file when it
# has none). Comments and blank lines count — deleting them is not a
# reduction — and so does every file, so moving code does not hide it.
#
#   scripts/loc.sh              per-crate table over crates/*/src, then
#                               a per-shim table over shims/*/src whose
#                               total line also counts the shims
#   scripts/loc.sh <path>...    per-file table over the files and
#                               directories named, with their total
#
# Line reports in CHANGES.md and ROADMAP's Size line come from here.
set -euo pipefail
cd "$(dirname "$0")/.."

# table <file|package> <path>...: one row per file, or per package (the
# directory above src/)
table() {
  local by=$1
  shift
  find "$@" -type f -name '*.rs' | sort | xargs awk -v by="$by" '
    FNR == 1 { counting = 1; files++ }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting {
      key = FILENAME
      if (by == "package") sub(/\/src\/.*/, "", key)
      if (!(key in lines)) order[++n] = key
      lines[key]++
      total++
    }
    END {
      for (i = 1; i <= n; i++) printf "%7d  %s\n", lines[order[i]], order[i]
      if (by == "package") printf "%7d  total (%d packages, %d files)\n", total, n, files
      else printf "%7d  total (%d files)\n", total, files
    }'
}

if [[ $# -eq 0 ]]; then
  table package crates/*/src
  echo
  table package shims/*/src
else
  table file "$@"
fi
