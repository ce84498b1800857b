#!/usr/bin/env bash
# CI entry point: formatting, lints (clippy plus the workspace's own
# mochy-lint pass — determinism, panic-safety, and untrusted-input
# invariants, writing LINT.json), rustdoc with warnings denied, build,
# tests (among them the shard_invariance suite: scatter-gather MoCHy-E at
# every shard count must merge bit-identically to the unsharded run), the
# .mochy snapshot round-trip gate, the serve smoke (booted from a binary snapshot, with
# a runtime snapshot upload), an explicit thread- and shard-invariance run
# on a minimal pool, the tiny-scale run of the repository benchmark
# (perfbench), the deterministic perf smoke behind BENCH.json, the perf-regression gate against the committed
# BENCH_BASELINE.json, the streaming-vs-batch equivalence check of
# `mochy-exp evolve`, the keep-alive loadtest gate (LOADTEST.json against
# the committed LOADTEST_BASELINE.json), the distributed-equivalence gate
# (a real coordinator process scatter-gathering /v1/count over real shard
# workers booted from one .mochy snapshot, bit-identical to the unsharded
# count even after a worker kill, writing DIST.json), and finally the per-stage wall-clock budget gate
# against the committed CI_BUDGET.json.
#
# Everything runs offline against the vendored dependency stubs; every
# dependency-resolving cargo invocation (fmt does not resolve) passes
# --locked so CI fails loudly if Cargo.lock drifts from the vendored deps.
#
# PROFILE=debug|release (default release) selects the build/test profile —
# the GitHub workflow runs both as a matrix. The perfbench smoke, perf
# smoke, perf gate, evolve check, loadtest gate and distributed-equivalence
# gate only run in the release lane: debug timings would be meaningless
# against a release baseline. The snapshot round-trip gate and the
# snapshot-booted serve smoke run in BOTH lanes; the debug lane additionally
# boots the server from a *text* dataset once, so the legacy load path stays
# covered.
#
# Every stage is timed; a summary (and the failing stage, if any) is printed
# on exit, and the collected timings are checked against CI_BUDGET.json so
# pipeline-time regressions fail the build like perf regressions do.
set -euo pipefail
cd "$(dirname "$0")"

PROFILE="${PROFILE:-release}"
CARGO_FLAGS=(--locked)
case "$PROFILE" in
  debug) ;;
  release) CARGO_FLAGS+=(--release) ;;
  *)
    echo "unknown PROFILE '$PROFILE' (expected debug or release)" >&2
    exit 2
    ;;
esac
TARGET_DIR="target/${PROFILE}"

STAGE_NAMES=()
STAGE_MS=()
CURRENT_STAGE=""

now_ms() { date +%s%3N; }

print_summary() {
  local status=$?
  echo
  echo "==> stage timing summary (PROFILE=${PROFILE})"
  local i
  for i in "${!STAGE_NAMES[@]}"; do
    printf '    %-24s %8d ms\n' "${STAGE_NAMES[$i]}" "${STAGE_MS[$i]}"
  done
  if [[ $status -ne 0 && -n "$CURRENT_STAGE" ]]; then
    echo "CI FAILED in stage: ${CURRENT_STAGE} (exit ${status})"
  elif [[ $status -eq 0 ]]; then
    echo "CI OK"
  fi
}
trap print_summary EXIT

run_stage() {
  local name="$1"
  shift
  CURRENT_STAGE="$name"
  echo "==> ${name}: $*"
  local start
  start=$(now_ms)
  "$@"
  STAGE_NAMES+=("$name")
  STAGE_MS+=($(($(now_ms) - start)))
  CURRENT_STAGE=""
}

# perfbench is a cargo workspace of its own, which `--all` does not reach.
check_fmt() {
  cargo fmt --all --check
  cargo fmt --manifest-path perfbench/Cargo.toml --check
}
run_stage fmt check_fmt
run_stage clippy cargo clippy --locked --workspace --all-targets -- \
  -D warnings -W clippy::dbg_macro -W clippy::todo
# Neither clippy nor the tests resolve intra-doc links, so a deleted or
# private item would otherwise leave a dangling link behind.
run_stage doc env RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps
run_stage build cargo build "${CARGO_FLAGS[@]}"

# Workspace static analysis (both lanes): the mochy-lint pass enforces the
# invariants rustc/clippy cannot see — panic-free serving, deterministic
# RNG/iteration, checked arithmetic over untrusted bytes, forbid(unsafe_code)
# on every crate root. Zero baseline exceptions; suppressions require an
# in-source pragma with a reason. LINT.json is uploaded as a CI artifact.
run_stage lint "${TARGET_DIR}/mochy-lint" --json LINT.json

run_stage test cargo test "${CARGO_FLAGS[@]}" -q

# Snapshot round-trip gate (both lanes): convert every bench dataset to
# .mochy, reload through both the text and the snapshot path, and require
# bit-identical exact MotifEngine reports plus measured load timings. The
# .mochy files land in snapshots/ and are uploaded as a CI artifact next to
# BENCH.json; the serve smoke below boots from them, so what CI serves is
# literally the artifact this gate verified.
run_stage snapshot-roundtrip "${TARGET_DIR}/mochy-exp" snapshot-check --dir snapshots --threads 2

# Serve smoke (both lanes): boot mochy-serve FROM A .mochy SNAPSHOT on an
# ephemeral port, drive /v1/healthz + /v1/datasets + /v1/count through the
# example client — which also uploads a second snapshot through
# POST /v1/datasets,
# counts on it, inserts and removes one hyperedge there and requires the
# generation-2 mochy-e body (the streaming writer's carried counts) to
# equal the generation-0 MoCHy-E body, and repeats /v1/count 25 times over ONE
# persistent connection (the keep-alive smoke) — request a clean shutdown,
# and assert the process exits 0. Binaries are built above; the example
# client is built here explicitly (plain `cargo build` skips examples).
serve_smoke() {
  cargo build "${CARGO_FLAGS[@]}" -p mochy_serve -p mochy --bins --examples
  local log status=0
  log=$(mktemp)
  # The driver below has several early-failure returns; running it behind
  # `|| status=$?` (which also suspends `set -e` inside it) lets this
  # wrapper remove the temp log on every path instead of leaking it.
  drive_serve_smoke "$log" "$@" || status=$?
  rm -f "$log"
  return "$status"
}
drive_serve_smoke() {
  local log="$1" boot_spec="$2" upload_args=("${@:3}")
  local addr pid
  "${TARGET_DIR}/mochy-serve" --port 0 --workers 2 --queue 8 --load "$boot_spec" >"$log" 2>&1 &
  pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$log")
    [[ -n "$addr" ]] && break
    kill -0 "$pid" 2>/dev/null || { echo "mochy-serve exited early:"; cat "$log"; return 1; }
    sleep 0.1
  done
  [[ -n "$addr" ]] || { echo "mochy-serve never reported an address:"; cat "$log"; return 1; }
  "${TARGET_DIR}/examples/serve_client" "$addr" "${upload_args[@]}" --keep-alive 25 --shutdown \
    || { echo "serve client failed:"; cat "$log"; kill "$pid" 2>/dev/null; wait "$pid" 2>/dev/null; return 1; }
  wait "$pid" || { echo "mochy-serve exited non-zero:"; cat "$log"; return 1; }
  grep -q "clean shutdown" "$log" || { echo "no clean-shutdown marker:"; cat "$log"; return 1; }
}
serve_smoke_snapshot() {
  [[ -f snapshots/email.mochy && -f snapshots/tags.mochy ]] \
    || { echo "snapshot-roundtrip did not leave snapshots/{email,tags}.mochy behind"; return 1; }
  serve_smoke ci-email=snapshots/email.mochy --upload uploaded-tags=snapshots/tags.mochy
}
run_stage serve-smoke serve_smoke_snapshot

# Text-boot coverage (debug lane only): one run that loads the dataset from
# a text edge-list instead of a snapshot, so the legacy path keeps working.
serve_smoke_text() {
  local text status=0
  text=$(mktemp)
  # Same discipline as serve_smoke: a failing step must not strand the
  # temp edge-list file.
  { "${TARGET_DIR}/mochy-exp" gen email 300 900 13 "$text" \
      && serve_smoke "ci-text=$text"; } || status=$?
  rm -f "$text"
  return "$status"
}
if [[ "$PROFILE" == "debug" ]]; then
  run_stage serve-smoke-text serve_smoke_text
fi

# Thread- and shard-count invariance. Every suite run counts at threads=1
# AND at threads=$MOCHY_POOL_THREADS and asserts bit-equality. The test
# stage above already ran both suites at the standard pool (8, the suites'
# default), so this stage pins threads=1 against a minimal pool (2, the
# cheapest configuration that exercises work stealing at all). The
# shard_invariance suite rides along, pinning K in {1,2,4,8} == unsharded
# under thread variation.
run_stage invariance-1v2 env MOCHY_POOL_THREADS=2 \
  cargo test "${CARGO_FLAGS[@]}" -q -p mochy_core \
  --test thread_invariance --test shard_invariance

if [[ "$PROFILE" == "release" ]]; then
  # Repository benchmark smoke: perfbench (its own workspace, reaching the
  # crates only through their public APIs) runs all three workloads at tiny
  # scale, untraced and traced, and checks each prints exactly its declared
  # metrics. A public-API change that breaks the benchmark fails here.
  run_stage perfbench-tiny cargo test --locked --release --manifest-path perfbench/Cargo.toml

  # Perf smoke + regression gate: writes BENCH.json (uploaded as a CI
  # artifact) and compares it against the committed baseline. Counts (and
  # the snapshot-load node/edge read-backs) must match exactly; timings —
  # including the text-vs-snapshot load_ms rows — may grow up to the gate's
  # 500% tolerance, and timings under 20 ms are not compared (see README for
  # how to refresh BENCH_BASELINE.json after a legitimate perf change).
  run_stage perf-gate cargo run --locked --release -p mochy_experiments --bin mochy-exp -- \
    perf --json BENCH.json --threads 4 --check BENCH_BASELINE.json

  # Streaming equivalence: replay a windowed temporal event stream through
  # the StreamingEngine, verifying every yearly checkpoint's counts and |∧|
  # against a from-scratch MotifEngine run (non-zero exit on any
  # divergence).
  run_stage evolve-verify cargo run --locked --release -p mochy_experiments --bin mochy-exp -- \
    evolve --years 8 --window 3

  # Keep-alive loadtest gate: boot an in-process server and drive it with
  # deterministic closed-loop clients, writing LOADTEST.json (uploaded as a
  # CI artifact) and comparing against the committed baseline. Request/
  # response counts must match exactly; throughput and latency quantiles may
  # drift up to the gate's 400% tolerance; and keep-alive serving must stay at
  # least 2x faster than connection-per-request on the cache-hit mix — the
  # property the persistent-connection front end exists to deliver.
  run_stage loadtest-gate cargo run --locked --release -p mochy_experiments --bin mochy-exp -- \
    loadtest --json LOADTEST.json --check LOADTEST_BASELINE.json

  # Distributed-equivalence gate: write a generated dataset as one .mochy
  # snapshot, boot three real worker processes and one real coordinator
  # process from it (one shard per worker), and require the scatter-gathered
  # /v1/count to be bit-identical to the unsharded in-process count —
  # including after one worker is killed mid-sequence, which must be
  # absorbed by the deadline/retry/reassignment path. DIST.json (uploaded as
  # a CI artifact) records each check; any divergence exits non-zero.
  run_stage distributed-equivalence "${TARGET_DIR}/mochy-exp" dist-check \
    --serve-bin "${TARGET_DIR}/mochy-serve" --workers 3 --json DIST.json
fi

# Wall-clock budget gate: every stage above must have stayed under its
# committed budget (CI_BUDGET.json), and every budgeted stage must have run.
# Not itself a timed stage — it gates the timings it would be part of.
CURRENT_STAGE="ci-budget"
BUDGET_ARGS=()
for i in "${!STAGE_NAMES[@]}"; do
  BUDGET_ARGS+=("${STAGE_NAMES[$i]}=${STAGE_MS[$i]}")
done
echo "==> ci-budget: ${TARGET_DIR}/mochy-exp ci-budget CI_BUDGET.json ${PROFILE} ${BUDGET_ARGS[*]}"
"${TARGET_DIR}/mochy-exp" ci-budget CI_BUDGET.json "$PROFILE" "${BUDGET_ARGS[@]}"
CURRENT_STAGE=""
