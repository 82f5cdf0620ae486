#!/usr/bin/env bash
# CI entry point: release build + full test suite, then an AddressSanitizer
# (+UBSan) pass over the whole suite, then a ThreadSanitizer pass so the
# lock-free SPSC channels, the pooled scheduler's ready queue and the
# park/wake protocols are race-checked on every PR.
#
#   tools/ci.sh            # release + asan + tsan
#   tools/ci.sh --fast     # release only
#   tools/ci.sh --smoke    # release build, then the observability smoke:
#                          # run sdafc --metrics=prom on a known topology,
#                          # validate the exposition page with
#                          # tools/check_prom.sh and require the scheduler
#                          # counter families (steals/futex parks), then the
#                          # service smoke: boot sdafd on a Unix socket,
#                          # drive it with sdaf_loadgen, validate the
#                          # daemon's STATS dump with check_prom.sh, run the
#                          # wire-vs-in-process loopback differential, and
#                          # check the daemon drains cleanly on SIGTERM;
#                          # then the qos admission smoke: a tight-budget
#                          # sdafd must refuse an over-budget Open softly
#                          # and account it in
#                          # sdaf_admission_rejected_total on STATS;
#                          # finally the pooled scaling ladder -- asserted
#                          # on >= 4-core runners, skipped with a visible
#                          # warning on smaller ones (no ctest, ~seconds)
#   tools/ci.sh --crash    # release + asan + tsan builds, then the
#                          # crash-recovery certification tier: the
#                          # kill-at-a-random-barrier/restore differential
#                          # sweep under ASan (memory safety across the
#                          # serialize/discard/rehydrate path) and the
#                          # marker/EOS interleaving suite under TSan
#                          # (barrier alignment racing real threads). Tune
#                          # with SDAF_STRESS_SECONDS (default 20); a
#                          # mismatch prints a one-line SDAF_CRASH_REPRO.
#   tools/ci.sh --stress   # everything above, then a time-boxed randomized
#                          # stress tier under both sanitizers: the
#                          # cross-backend differential harness sweep (batch
#                          # and port feed modes), the port-mode harness
#                          # sweep (every case through the live Stream API),
#                          # the multi-tenant sweep (2-3 concurrent tenant
#                          # copies on one shared DRR pool with weights and
#                          # credit windows, each bit-identical to solo),
#                          # the schedule-perturbation sweep (sched=fifo /
#                          # steal-heavy / park-storm adversarial pools must
#                          # stay bit-identical), the SPSC two-thread hammer
#                          # and the work-stealing deque hammer. Tune with
#                          # SDAF_STRESS_SECONDS (default 30, per binary)
#                          # and SDAF_STRESS_SEED. On a mismatch the
#                          # harness prints a one-line SDAF_HARNESS_REPRO
#                          # command that replays the exact failing case.
#
# CI never rewrites the committed BENCH_*.json at the repo root: its bench
# smoke writes into build/release/bench-smoke/, and every mode fails if a
# root BENCH_*.json differs byte-for-byte from what it was when CI started.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
mode=${1:-}

bench_files_at_start=$(sha256sum BENCH_*.json)
check_bench_files_unchanged() {
  local now
  now=$(sha256sum BENCH_*.json)
  if [[ "$now" != "$bench_files_at_start" ]]; then
    echo "ci: the committed BENCH_*.json at the repo root changed during" \
         "this run:" >&2
    diff <(echo "$bench_files_at_start") <(echo "$now") >&2 || true
    exit 1
  fi
}

echo "==> release build"
cmake --preset release
cmake --build --preset release -j "$jobs"

# The exporter contract check: a real run's Prometheus page must satisfy the
# exposition grammar end to end (sdafc emits metrics on stderr), and a
# pooled run's page must carry the scheduler counter families -- steals,
# steal failures, futex parks -- so a scheduler change that silently drops
# worker attribution fails here, not in a dashboard.
check_prom() {
  echo "==> prometheus exposition check (tools/check_prom.sh)"
  local topo page
  topo=$(mktemp)
  page=$(mktemp)
  printf 'node A\nnode B\nnode C\nedge A B 2\nedge A C 2\nedge B C 2\n' \
      > "$topo"
  build/release/sdafc --run --backend=pooled --items=200 --pass-rate=0.4 \
      --metrics=prom "$topo" 2>"$page" >/dev/null
  tools/check_prom.sh "$page"
  local family
  for family in sdaf_worker_steals_total sdaf_worker_steal_fails_total \
      sdaf_worker_futex_parks_total sdaf_worker_queue_depth_max; do
    if ! grep -q "^$family{" "$page"; then
      echo "ci: pooled prom page lacks the $family family" >&2
      exit 1
    fi
  done
  rm -f "$topo" "$page"
}

# The pooled scaling guard (fixing the 1-cpu blind spot): run the batch=1
# BM_PoolExecutor_LadderScaling ladder and assert the work-stealing pool
# actually scales -- on runners that can show it. On < 4 hardware threads
# the assertions are SKIPPED WITH A VISIBLE WARNING instead of vacuously
# passing: a flat ladder on one core is absence of evidence, not a pass.
check_pool_scaling() {
  echo "==> pooled ladder scaling check (BM_PoolExecutor_LadderScaling)"
  local cores out
  cores=$(nproc 2>/dev/null || echo 1)
  out=$(mktemp)
  build/release/bench_pool_scaling \
      --benchmark_filter='BM_PoolExecutor_LadderScaling' \
      --benchmark_out="$out" --benchmark_out_format=json \
      >/dev/null
  if [[ "$cores" -lt 4 ]]; then
    echo "ci: WARNING: skipping pool scaling assertions -- this runner has" \
         "$cores hardware thread(s) (< 4); the ladder ran (counters above" \
         "are recorded) but cannot demonstrate scaling here" >&2
    rm -f "$out"
    return 0
  fi
  python3 - "$out" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
rows = {b["name"]: b for b in doc.get("benchmarks", [])
        if b.get("name", "").startswith("BM_PoolExecutor_LadderScaling")}
def ips(nodes, workers):
    for name, b in rows.items():
        if f"/{nodes}/{workers}/" in name:
            return b["items_per_second"]
    sys.exit(f"ci: missing LadderScaling row for {nodes} nodes / "
             f"{workers} workers")
small, large = ips(100, 8), ips(1000, 8)
# A 10x bigger graph exposes 10x more node parallelism: at 8 workers the
# pool must hold at least half the small-graph throughput, else stealing
# is serializing on the scheduler instead of distributing.
if large < 0.5 * small:
    sys.exit(f"ci: pooled ladder does not scale: 1000-node @ 8 workers ran "
             f"{large:,.0f} items/s vs 100-node {small:,.0f} "
             f"(need >= 50%)")
par = [(n, b.get("effective_parallelism", 0)) for n, b in rows.items()]
print(f"ci: pool scaling OK: 1000-node @ 8 workers at "
      f"{100 * large / small:.0f}% of 100-node throughput; "
      "effective_parallelism " +
      ", ".join(f"{p:.2f}" for _, p in sorted(par)))
# Regression gate against the committed baseline, only when it was produced
# on comparable hardware (same cpu count): the 100-node @ 8 workers config
# may not lose more than 5% throughput.
try:
    with open("BENCH_pool_scaling.json") as f:
        base_doc = json.load(f)
except FileNotFoundError:
    base_doc = {}
base = [b for b in base_doc.get("benchmarks", [])
        if "LadderScaling/100/8/" in b.get("name", "")]
same_hw = base and int(base[0].get("hardware_concurrency", -1)) == \
    int(rows[[n for n in rows if "/100/8/" in n][0]]["hardware_concurrency"])
if base and same_hw:
    if small < 0.95 * base[0]["items_per_second"]:
        sys.exit(f"ci: pooled 100-node @ 8 workers regressed >5%: "
                 f"{small:,.0f} items/s vs committed "
                 f"{base[0]['items_per_second']:,.0f}")
    print("ci: 100-node @ 8 workers within 5% of the committed baseline")
else:
    print("ci: no comparable committed baseline (different hardware or "
          "missing rows); regression gate skipped")
PY
  rm -f "$out"
}

# The service contract check: boot the daemon on a Unix socket, push real
# traffic through the wire with the load generator, validate the daemon's
# Prometheus STATS page against the same exposition checker, prove wire runs
# bit-identical to in-process runs (the loopback differential), and verify
# SIGTERM drains to a clean exit with the socket unlinked.
check_service() {
  echo "==> service smoke (sdafd + sdaf_loadgen + loopback differential)"
  local sock stats
  sock="/tmp/sdaf_ci_$$.sock"
  stats=$(mktemp)
  build/release/sdafd --unix="$sock" &
  local daemon_pid=$!
  for _ in $(seq 1 50); do
    [[ -S "$sock" ]] && break
    sleep 0.1
  done
  [[ -S "$sock" ]] || { echo "ci: sdafd never bound $sock" >&2; exit 1; }
  build/release/sdaf_loadgen --unix="$sock" --connections=1,4 --items=2000 \
      --stats-out="$stats" >/dev/null
  tools/check_prom.sh "$stats"
  rm -f "$stats"
  kill -TERM "$daemon_pid"
  local rc=0
  wait "$daemon_pid" || rc=$?
  if [[ "$rc" != 0 ]]; then
    echo "ci: sdafd exited $rc after SIGTERM (want clean drain)" >&2
    exit 1
  fi
  if [[ -S "$sock" ]]; then
    echo "ci: sdafd left $sock behind after drain" >&2
    exit 1
  fi
  build/release/test_net_loopback \
      --gtest_filter='LoopbackTest.WireRunBitIdenticalToInProcess:LoopbackTest.DeadlockVerdictCertifiedOverWire'
}

# The admission contract check (qos): a daemon with a deliberately tiny
# node budget must refuse the loadgen probe's 3-node Open with the soft
# AdmissionRejected error -- the connection survives to fetch STATS -- and
# the refusal must be accounted in the sdaf_admission_rejected_total
# counter on a grammar-valid Prometheus page.
check_admission() {
  echo "==> admission smoke (tight-budget sdafd + over-budget Open)"
  local sock stats
  sock="/tmp/sdaf_ci_adm_$$.sock"
  stats=$(mktemp)
  build/release/sdafd --unix="$sock" --max-nodes=1 --tenant-credits=8 &
  local daemon_pid=$!
  for _ in $(seq 1 50); do
    [[ -S "$sock" ]] && break
    sleep 0.1
  done
  [[ -S "$sock" ]] || { echo "ci: sdafd never bound $sock" >&2; exit 1; }
  build/release/sdaf_loadgen --unix="$sock" --expect-rejected \
      --stats-out="$stats"
  tools/check_prom.sh "$stats"
  local rejected
  rejected=$(grep '^sdaf_admission_rejected_total ' "$stats" \
      | awk '{print $2}')
  if [[ -z "$rejected" || "$rejected" == 0 ]]; then
    echo "ci: STATS page does not account the rejected open" \
         "(sdaf_admission_rejected_total=$rejected)" >&2
    exit 1
  fi
  rm -f "$stats"
  kill -TERM "$daemon_pid"
  local rc=0
  wait "$daemon_pid" || rc=$?
  if [[ "$rc" != 0 ]]; then
    echo "ci: sdafd exited $rc after SIGTERM (want clean drain)" >&2
    exit 1
  fi
}

if [[ "$mode" == "--smoke" ]]; then
  check_prom
  check_service
  check_admission
  check_pool_scaling
  check_bench_files_unchanged
  echo "==> ci OK (smoke)"
  exit 0
fi

if [[ "$mode" == "--crash" ]]; then
  crash_seconds=${SDAF_STRESS_SECONDS:-20}
  export ASAN_OPTIONS="detect_leaks=1:halt_on_error=1"
  export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
  export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
  export SDAF_STRESS_SECONDS="$crash_seconds"

  # ASan over the full crash path: snapshot assembly, serialize, tear the
  # stream down, deserialize, rehydrate -- any dangling reference into the
  # dead stream or codec over-read dies here.
  echo "==> asan build + crash differential (${crash_seconds}s sweep)"
  cmake --preset asan
  cmake --build --preset asan -j "$jobs"
  build/asan/test_crash_recovery
  build/asan/test_net_snapshot

  # TSan over the barrier itself: markers racing live pushes, EOS floods,
  # deadlock verdicts and concurrent pollers on the pooled backend.
  echo "==> tsan build + marker interleavings"
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs"
  build/tsan/test_ckpt
  build/tsan/test_crash_recovery

  check_bench_files_unchanged
  echo "==> ci OK (crash)"
  exit 0
fi

echo "==> release ctest"
ctest --preset release -j "$jobs"

check_prom
check_service

echo "==> bench smoke (build/release/bench-smoke/BENCH_*.json)"
tools/bench.sh --smoke --out-dir build/release/bench-smoke

if [[ "$mode" != "--fast" ]]; then
  # Both sanitizer suites include tests/test_net_loopback.cpp (ctest picks up
  # every tests/*.cpp), so the poll loop, the session table and the framed
  # protocol run under ASan/UBSan and TSan on every PR, not just in release.
  echo "==> asan build + ctest"
  cmake --preset asan
  cmake --build --preset asan -j "$jobs"
  ctest --preset asan -j "$jobs"

  echo "==> tsan build + ctest"
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs"
  ctest --preset tsan -j "$jobs"
fi

if [[ "$mode" == "--stress" ]]; then
  stress_seconds=${SDAF_STRESS_SECONDS:-30}
  export ASAN_OPTIONS="detect_leaks=1:halt_on_error=1"
  export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
  export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
  export SDAF_STRESS_SECONDS="$stress_seconds"
  for preset in asan tsan; do
    echo "==> $preset stress sweep (${stress_seconds}s per binary)"
    "build/$preset/test_harness_stress" \
        --gtest_filter='HarnessStress.TimeBoxedRandomSweep'
    "build/$preset/test_harness_stress" \
        --gtest_filter='HarnessStress.PortModeSweep'
    "build/$preset/test_harness_stress" \
        --gtest_filter='HarnessStress.SchedPerturbationSweep'
    "build/$preset/test_harness_stress" \
        --gtest_filter='HarnessStress.MultiTenantSweep'
    "build/$preset/test_spsc_ring" --gtest_filter='SpscRingHammer.*'
    "build/$preset/test_steal_deque" --gtest_filter='StealDequeHammer.*'
    "build/$preset/test_deadlock_verdicts"
  done
fi

check_bench_files_unchanged
echo "==> ci OK"
