#!/usr/bin/env bash
# The one way this repo counts code: non-test Rust lines are the lines
# of a *.rs file above the `#[cfg(test)]` that opens its test module
# (`mod … {`, after any further attributes), the whole file when it has
# none. A `#[cfg(test)]` on any other item or statement does not stop
# the count. Comments and blank lines count — deleting them is not a
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
    function count(k,   key) {
      key = FILENAME
      if (by == "package") sub(/\/src\/.*/, "", key)
      if (!(key in lines)) order[++n] = key
      lines[key] += k
      total += k
    }
    FNR == 1 { counting = 1; held = 0; files++ }
    # held: a `#[cfg(test)]` and the attributes after it, counted once
    # the item they annotate turns out not to be the test module
    counting && held {
      if (/^[[:space:]]*#\[/) { held++; next }
      if (/^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*\{/) {
        counting = 0
        next
      }
      count(held)
      held = 0
    }
    counting && /^[[:space:]]*#\[cfg\(test\)\]/ { held = 1; next }
    counting { count(1) }
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
