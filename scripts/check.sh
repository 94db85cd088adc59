#!/usr/bin/env bash
# Tier-1 gate: configure, build, test — then repeat under ASan/UBSan, and
# run the concurrent service tests under TSan.
#
# Usage: scripts/check.sh [--no-sanitize]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)

echo "== Tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

echo "== Differential: cached service vs oracle, release build =="
# The harness's own default seed is fixed (deterministic bare ctest); this
# stage explores fresh seeds on developer machines and pins one in CI so
# gate results are reproducible. Failures print the seed for --seed replay.
cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-rel -j"$JOBS" --target differential_test
if [[ -n "${CI:-}" ]]; then
  DIFF_SEED=20260806
else
  DIFF_SEED=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
fi
echo "-- differential seed: $DIFF_SEED"
./build-rel/tests/differential_test --seed="$DIFF_SEED"
# The update-churn arm lands its swaps at seed-fixed positions, so it must
# pass five repeats at one seed; a scheduling dependence fails here instead
# of hiding in one lucky run.
./build-rel/tests/differential_test --seed="$DIFF_SEED" \
  --gtest_filter='*UpdateChurn*' --gtest_repeat=5 --gtest_brief=1

echo "== Bench smoke: every bench_* runs one tiny iteration =="
# Not a measurement — just proof that each benchmark still sets up its
# policy, runs, and tears down. (This toolchain's google-benchmark takes a
# plain seconds double for --benchmark_min_time.) bench_fastpath and
# bench_policy_swap are built explicitly so the zero-hop and update-churn
# A/Bs always exist even in a stale tree.
cmake --build build -j"$JOBS" --target bench_fastpath bench_policy_swap
for bench in build/bench/bench_*; do
  [[ -x "$bench" ]] || continue
  echo "-- $(basename "$bench")"
  "$bench" --benchmark_min_time=0.001 >/dev/null
done

# Exercises the shipped binaries over a real socket: serve on an ephemeral
# port, parse the bound port from its banner line, run a fixed-count load,
# assert zero protocol errors from the client (its exit code) AND from the
# server's shutdown stats line, and require the `drained` marker proving a
# graceful stop. $1 is the build tree.
net_smoke() {
  local tree="$1"
  cmake --build "$tree" -j"$JOBS" --target sentinelpp_serve sentinelpp_load
  local log
  log=$(mktemp)
  "./$tree/examples/sentinelpp-serve" --port=0 --cache=1024 --fastpath=1 \
    >"$log" 2>&1 &
  local serve_pid=$!
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log")
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "net-smoke: server never announced its port" >&2
    kill -9 "$serve_pid" 2>/dev/null || true
    cat "$log" >&2
    return 1
  fi
  "./$tree/examples/sentinelpp-load" --port="$port" --connections=4 \
    --requests=500 --batch=8
  "./$tree/examples/sentinelpp-load" --port="$port" --mode=open \
    --rate=5000 --requests=2000 --connections=2
  kill -TERM "$serve_pid"
  wait "$serve_pid"
  grep -E 'protocol_errors=0 .*drained$' "$log" >/dev/null || {
    echo "net-smoke: server stats line missing protocol_errors=0 + drained" >&2
    cat "$log" >&2
    return 1
  }
  rm -f "$log"
}

echo "== Net smoke: serve + load over a real socket =="
net_smoke build

# Same serve+load pairing with --update-churn driving pauseless policy
# swaps from an in-process admin thread while the load runs: asserts the
# server survived sustained generation flips under real network traffic
# (zero protocol errors, graceful drain) and that swaps actually happened
# (swaps= in the stats line is nonzero).
swap_churn_smoke() {
  local tree="$1"
  cmake --build "$tree" -j"$JOBS" --target sentinelpp_serve sentinelpp_load
  local log
  log=$(mktemp)
  "./$tree/examples/sentinelpp-serve" --port=0 --cache=1024 --fastpath=1 \
    --update-churn=5 >"$log" 2>&1 &
  local serve_pid=$!
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log")
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "swap-churn-smoke: server never announced its port" >&2
    kill -9 "$serve_pid" 2>/dev/null || true
    cat "$log" >&2
    return 1
  fi
  "./$tree/examples/sentinelpp-load" --port="$port" --connections=4 \
    --requests=500 --batch=8
  kill -TERM "$serve_pid"
  wait "$serve_pid"
  grep -E 'protocol_errors=0 .*swaps=[1-9][0-9]* .*drained$' "$log" \
    >/dev/null || {
    echo "swap-churn-smoke: stats line missing protocol_errors=0 + swaps>0" >&2
    cat "$log" >&2
    return 1
  }
  rm -f "$log"
}

echo "== Swap-churn smoke: serve + load under sustained policy updates =="
swap_churn_smoke build

# The audit pipeline end to end over a real socket: serve with the JSONL
# exporter attached, push a fixed load, then require (a) the shutdown stats
# line reports zero audit drops — the complete-stream guarantee under
# net-smoke load at the default queue size — and (b) every exported line
# parses back through the replay loader, with the loader's record count
# agreeing exactly with the server's own audit_records counter.
audit_smoke() {
  local tree="$1"
  cmake --build "$tree" -j"$JOBS" --target sentinelpp_serve sentinelpp_load \
    sentinelpp_replay
  local log tmpdir
  log=$(mktemp)
  tmpdir=$(mktemp -d)
  "./$tree/examples/sentinelpp-serve" --port=0 \
    --audit="$tmpdir/audit.jsonl" >"$log" 2>&1 &
  local serve_pid=$!
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log")
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "audit-smoke: server never announced its port" >&2
    kill -9 "$serve_pid" 2>/dev/null || true
    cat "$log" >&2
    return 1
  fi
  "./$tree/examples/sentinelpp-load" --port="$port" --connections=4 \
    --requests=500 --batch=8
  kill -TERM "$serve_pid"
  wait "$serve_pid"
  grep -E 'audit_drops=0 drained$' "$log" >/dev/null || {
    echo "audit-smoke: server stats line missing audit_drops=0" >&2
    cat "$log" >&2
    return 1
  }
  local exported parsed
  exported=$(sed -n 's/.* audit_records=\([0-9]*\) .*/\1/p' "$log")
  parsed=$("./$tree/examples/sentinelpp-replay" \
    --capture="$tmpdir/audit.jsonl" --parse-only)
  echo "$parsed" | grep -q '^parse_errors: 0$' || {
    echo "audit-smoke: capture had parse errors" >&2
    echo "$parsed" >&2
    return 1
  }
  echo "$parsed" | grep -q "^records: $exported\$" || {
    echo "audit-smoke: capture/counter mismatch (counter=$exported)" >&2
    echo "$parsed" >&2
    return 1
  }
  rm -rf "$log" "$tmpdir"
}

echo "== Audit smoke: exported stream is complete and parseable =="
audit_smoke build

# The admission-policer fairness contract over a real socket: one abusive
# principal (u0000, pinned to 50 tokens/s) and the well-behaved rest share
# a server running --quota-mode=always. Two load instances with disjoint
# --user-base ranges attribute refusals per principal class: the abusive
# load must absorb >=90% refusals on its own traffic, the well-behaved
# load must see zero, and the server must report zero protocol errors,
# nonzero policer_refused, and a clean drain.
policer_smoke() {
  local tree="$1"
  cmake --build "$tree" -j"$JOBS" --target sentinelpp_serve sentinelpp_load
  local log
  log=$(mktemp)
  "./$tree/examples/sentinelpp-serve" --port=0 --shards=1 --users=10 \
    --quota-rate=100000 --quota-burst=64 --quota-user=u0000:50:4 \
    --quota-mode=always >"$log" 2>&1 &
  local serve_pid=$!
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log")
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "policer-smoke: server never announced its port" >&2
    kill -9 "$serve_pid" 2>/dev/null || true
    cat "$log" >&2
    return 1
  fi
  local abusive good
  abusive=$("./$tree/examples/sentinelpp-load" --port="$port" \
    --connections=2 --requests=2000 --batch=8 --users=10 \
    --user-base=0 --user-count=1)
  good=$("./$tree/examples/sentinelpp-load" --port="$port" \
    --connections=2 --requests=2000 --batch=8 --users=10 --user-base=1)
  kill -TERM "$serve_pid"
  wait "$serve_pid"
  echo "policer-smoke abusive: $abusive"
  echo "policer-smoke good:    $good"
  local abusive_answered abusive_overloaded good_overloaded
  abusive_answered=$(sed -n 's/.* answered=\([0-9]*\) .*/\1/p' <<<"$abusive")
  abusive_overloaded=$(sed -n 's/.* overloaded=\([0-9]*\) .*/\1/p' <<<"$abusive")
  good_overloaded=$(sed -n 's/.* overloaded=\([0-9]*\) .*/\1/p' <<<"$good")
  if (( abusive_overloaded * 10 < abusive_answered * 9 )); then
    echo "policer-smoke: abusive refusal share below 90%" >&2
    return 1
  fi
  if (( good_overloaded != 0 )); then
    echo "policer-smoke: well-behaved principals were refused" >&2
    return 1
  fi
  grep -E 'protocol_errors=0 .*policer_refused=[1-9][0-9]* drained$' \
    "$log" >/dev/null || {
    echo "policer-smoke: stats line missing policer_refused>0 + drained" >&2
    cat "$log" >&2
    return 1
  }
  rm -f "$log"
}

echo "== Policer smoke: weighted refusals land on the abusive principal =="
policer_smoke build

if [[ "${1:-}" == "--no-sanitize" ]]; then
  echo "== Skipping sanitizer pass =="
  exit 0
fi

echo "== Sanitizer pass: address,undefined =="
cmake -B build-asan -S . -DSENTINELPP_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build build-asan -j"$JOBS"
ctest --test-dir build-asan --output-on-failure -j"$JOBS"

echo "== Net smoke under ASan =="
net_smoke build-asan

echo "== Replay determinism under ASan: capture -> zero-diff shadow eval =="
# The record/replay acceptance loop on the instrumented tree: a smoke-scale
# soak captures a multi-thousand-decision stream plus its policy and a
# one-DSD-edge mutation of it. Replaying against the unchanged policy must
# produce zero verdict diffs (--expect-zero-diffs exits 3 otherwise); the
# mutated policy must replay cleanly (diffs expected, exit 0 without the
# strict flag) — both paths under ASan/UBSan.
REPLAY_TMP=$(mktemp -d)
./build-asan/examples/sentinelpp-soak --scale=smoke \
  --audit="$REPLAY_TMP/capture.jsonl" \
  --policy-out="$REPLAY_TMP/policy.acp" \
  --mutated-policy-out="$REPLAY_TMP/mutated.acp" --expect-no-drops
./build-asan/examples/sentinelpp-replay \
  --capture="$REPLAY_TMP/capture.jsonl" --policy="$REPLAY_TMP/policy.acp" \
  --expect-zero-diffs >/dev/null
./build-asan/examples/sentinelpp-replay \
  --capture="$REPLAY_TMP/capture.jsonl" --policy="$REPLAY_TMP/mutated.acp" \
  >/dev/null
rm -rf "$REPLAY_TMP"

# TSan is incompatible with ASan, so the threaded service tests get their
# own build tree.
echo "== Sanitizer pass: thread (service + mailbox + fast-path + net tests) =="
cmake -B build-tsan -S . -DSENTINELPP_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build build-tsan -j"$JOBS" --target service_test mailbox_test \
  policer_test fastpath_test interner_test wire_test net_test audit_test \
  policy_swap_test
ctest --test-dir build-tsan --output-on-failure \
  -R '^(service_test|mailbox_test|policer_test|fastpath_test|interner_test|wire_test|net_test|audit_test|policy_swap_test)$'

echo "== Overload stress: stall-injected shed/deadline paths under TSan =="
# The acceptance stress for the bounded-mailbox work: shard stalls injected
# via InjectShardFault while producers saturate a capacity-8 mailbox.
# Repeated runs shake out schedule-dependent interleavings; the test itself
# asserts bounded peak depth, exact shed/expired accounting against a
# statically known oracle, and drain-not-drop shutdown.
./build-tsan/tests/service_test \
  --gtest_filter='ServiceOverloadTest.*:ServiceStressTest.OverloadShedStressBoundedCountedAndDrained' \
  --gtest_repeat=3 --gtest_brief=1

echo "== Fast-path stress: snapshot readers vs broadcast storm under TSan =="
# The acceptance stress for the zero-hop read path: concurrent callers
# replay two stable-truth verdicts from the shards' seqlock snapshots while
# admin broadcasts, session churn and timer advances republish the stamps
# underneath them. The test asserts zero verdict divergences and a
# post-storm linearization check; TSan checks the seqlock and ring
# protocols. Repeats shake out schedule-dependent interleavings.
./build-tsan/tests/fastpath_test \
  --gtest_filter='FastPathStressTest.*' --gtest_repeat=3 --gtest_brief=1

echo "== Swap stress: pauseless generation flips vs in-flight batches under TSan =="
# The acceptance stress for the pauseless policy swap: admin threads drive
# back-to-back PreparePolicyUpdate/commit generation flips while checker
# threads keep batches in flight and the cache keeps serving stamped
# entries. The tests assert every verdict matches exactly one of the two
# policy generations and that caches never serve a stale pool's entry;
# TSan checks the shared_ptr flip and generation-stamp protocols.
./build-tsan/tests/policy_swap_test --gtest_repeat=3 --gtest_brief=1

echo "== Net stress: concurrent clients vs reactor vs admin churn under TSan =="
# N client threads (mixed single checks and pipelined bursts) against the
# epoll reactor, the shard threads, the zero-hop fastpath and a concurrent
# admin-churn thread driving the epoch barrier — every cross-thread handoff
# in the serving stack under TSan at once.
./build-tsan/tests/net_test \
  --gtest_filter='NetTest.ConcurrentClientsWithAdminChurn' \
  --gtest_repeat=3 --gtest_brief=1

echo "== All checks passed =="
