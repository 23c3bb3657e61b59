#!/usr/bin/env bash
# Repo health gate: formatting, lints, and the tier-1 build/test cycle.
# Run from the repo root: ./scripts/check.sh
#
# Tier-1 (`cargo build --release && cargo test -q`: the root package,
# all 11 tests/*.rs) runs exactly once, in its own section; no later
# section re-runs one of its suites. Ceiling for `cargo test -q` on the
# reference box (2 vCPU, dev-profile tests, binaries prebuilt): 5m30s
# (330 s; PR 24). Measured there: 4m26s / 4m04s, against 6m49s / 5m46s
# at its parent (PR 23, the same tree 63 s apart; PR 22: 6m35s / 7m11s)
# — the GEMMs got 2–3× faster, the dev profile included — so the
# reading left the old 7m50s ceiling's 30–36 s A/A band downward, and
# the ceiling is the slower reading plus the widest same-tree spread
# seen (63 s). `cargo test -q -p matgpt-core --lib` alone: 51.9 → 43 s.
# A PR that pushes tier-1 past it says so in CHANGES.md and moves the
# number here and in ROADMAP item 6.
set -euo pipefail
cd "$(dirname "$0")/.."

# Each section() call marks the previous one passed; on GitHub runners
# the trap renders the ledger as a markdown table on the job summary
# page, with the in-flight section flagged when the script dies early.
current_section=""
summary_rows=""
section() {
  if [[ -n "$current_section" ]]; then
    summary_rows+="| ${current_section} | ✅ pass |"$'\n'
  fi
  current_section="$1"
  echo "== $1 =="
}
finish() {
  local code=$?
  if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    {
      echo "### Health gate (check.sh)"
      echo
      echo "| section | result |"
      echo "|---------|--------|"
      printf '%s' "$summary_rows"
      if [[ -n "$current_section" ]]; then
        if [[ $code -eq 0 ]]; then
          echo "| ${current_section} | ✅ pass |"
        else
          echo "| ${current_section} | ❌ fail |"
        fi
      fi
    } >>"$GITHUB_STEP_SUMMARY"
  fi
}
trap finish EXIT

section "cargo fmt --check"
cargo fmt --check

section "cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

section "tier-1: release build + root test suite"
cargo build --release
cargo test -q

section "crate unit tests"
# the #[cfg(test)] modules inside the four library crates the executed
# paths live in (tp.rs, kernels/infer.rs, kvpool.rs, engine.rs,
# executor.rs, ...) — clippy above only compiles them; the root suite
# never runs them. ~15 s cold for the first three, ~45 s for core
cargo test -q -p matgpt-tensor -p matgpt-model -p matgpt-serve -p matgpt-core

# fault-tolerance: checkpoint-restart + failure injection
#   -> tier-1 (tests/fault_tolerance.rs); what is not in tier-1:
section "fault-tolerance: checkpoint corruption, deep sweep"
# corruption properties get a deeper sweep than the proptest default —
# the v2 section region (optimizer state, cursor, curves) is what the
# resilience rollback path trusts
PROPTEST_CASES=512 cargo test -q -p matgpt-tensor --test checkpoint_corruption

# resilience: executed fault tolerance (kill/stall/elastic re-shard)
#   -> tier-1 (tests/resilience.rs: dp ranks, tensor-parallel peers and
#   pipeline stages alike — killed_tp_peer_*, killed_pipeline_stage_*,
#   stalled_tp_peer_*, tp_death_shrinks_its_whole_replica). The seeded
#   chaos matrix (MATGPT_CHAOS_SEED ∈ {3, 11, 1337}) runs as CI matrix
#   entries alongside the topology grid; see ci.yml

section "observability: matgpt-obs suite"
cargo test -q -p matgpt-obs

# parallelism: DP/ZeRO-1 + executed TP/PP
#   -> tier-1 (tests/parallelism.rs); the {dp,tp,pp} grid sweep runs as
#   CI matrix entries; see ci.yml
# paged KV: bit-identical backends + pool invariants
#   -> tier-1 (tests/paged_kv.rs)
# speculative decoding: bit-identity proptests
#   -> tier-1 (tests/speculative.rs)

section "reproduction: executed claims + every repro row (smoke scale)"
# crates/bench/tests: the unified trace and the fault postmortem
# re-validated from disk, critical-path attribution of an injected
# straggler, and the closed-form claims of the executed experiments
# (Fig. 11 census, paged-KV block counts, Daly optimum). --release: the
# experiments train for real — 15 s optimised, 100 s in the dev profile
cargo test --release -q -p matgpt-bench
cargo run --release -q -p matgpt-bench --bin repro -- all --smoke

section "perf smoke"
# the repo benchmark, exercised not measured: a 1 s run per workload
for w in l2_solo dram_batch paged_prefix dram_spec; do
  perf/run.sh "$w" --smoke >/dev/null
done
cargo test -q --manifest-path perf/Cargo.toml

section "size: non-test Rust lines per crate and per shim (informational)"
# the one way lines are counted (scripts/loc.sh); two tables, never a gate
scripts/loc.sh || true

echo "All checks passed."
