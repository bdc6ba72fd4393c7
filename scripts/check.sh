#!/usr/bin/env bash
# Tier-1 verification plus a sanitizer pass.
#
#   scripts/check.sh          # plain build + ctest, then ASan/UBSan build + ctest
#   scripts/check.sh --fast   # plain build + ctest only
#
# The sanitizer configuration lives in build-asan/ so it never dirties the
# primary build/ tree. Both passes must be green before merging.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: plain build + tests =="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "== bench targets compile (micro benches guard the allocation budget) =="
cmake --build build -j "${JOBS}" --target micro_event_queue micro_schedulers

echo "== micro benches: quick run (hot-path smoke, ~5 s) =="
# Not a performance gate — a smoke run that exercises the event-queue and
# scheduler hot paths end to end, so a radix-redistribution bug or
# allocation regression that the unit tests abstract away still shows up.
# The radix/heap row (BM_RadixOverHeap) reports its interleaved in-process
# ratio and errors below 1.2 or on any allocation after warm-up; an error
# row does not change google-benchmark's exit status, so it is caught here.
eq_out="$(./build/bench/micro_event_queue --benchmark_min_time=0.05 \
  --benchmark_format=console 2>/dev/null)"
printf '%s\n' "${eq_out}" | tail -n +4
if grep -q 'ERROR OCCURRED' <<<"${eq_out}"; then
  echo "FAIL: micro_event_queue reported an error row" >&2
  exit 1
fi
./build/bench/micro_schedulers --benchmark_min_time=0.05 \
  --benchmark_format=console 2>/dev/null | tail -n +4

echo "== scenario smoke: parse + short run of every examples/scenarios/*.pds =="
# Every shipped scenario must parse and run end to end (10% horizon); the
# fat-tree sweep additionally pins the sweep-mode determinism contract:
# stdout byte-identical for any --jobs.
for pds in examples/scenarios/*.pds; do
  echo "   ${pds}"
  ./build/examples/netsim_cli --file="${pds}" --quick >/dev/null
done
SWEEP_A="$(mktemp)"; SWEEP_B="$(mktemp)"
./build/examples/netsim_cli --file=examples/scenarios/fat_tree.pds \
  --quick --sweep-users=4,8 --jobs=1 > "${SWEEP_A}"
./build/examples/netsim_cli --file=examples/scenarios/fat_tree.pds \
  --quick --sweep-users=4,8 --jobs=4 > "${SWEEP_B}"
diff "${SWEEP_A}" "${SWEEP_B}"
rm -f "${SWEEP_A}" "${SWEEP_B}"

echo "== Study B (Table 1): stdout byte-identical for any --jobs =="
# Study B runs its K-hop chain on the routed Network; each table cell is a
# cell of the experiment engine, so the table must not depend on --jobs.
T1_A="$(mktemp)"; T1_B="$(mktemp)"
./build/bench/table1_endtoend --quick --jobs=1 > "${T1_A}"
./build/bench/table1_endtoend --quick --jobs=4 > "${T1_B}"
diff "${T1_A}" "${T1_B}"
rm -f "${T1_A}" "${T1_B}"

echo "== bad input: line-numbered errors, never a crash =="
# Each repro below once escaped the grammars: 1e999 as a bare "stod" error,
# nan, capacity=0, gap=0, a zero or decreasing SDP list and a class beyond
# the link's SDP count into a contract check that names a source file, inf,
# size=-5 and seed=-1 into a run on nonsense values, and a fault plan naming
# an unknown target, which once failed without its line. Every one must exit
# non-zero with a "line N:" message and none of those failure signatures
# (stod, check failed, a source path) on stderr. So must a key given twice
# on one line (the last value once won silently: gap=1e9 after gap=20 ran a
# different scenario) and a control-plan watermark that is not an integer
# in range (1e300 once reached an undefined cast and a check in the link;
# 2.5 was truncated to 2).
BAD_DIR="$(mktemp -d)"
RING=examples/scenarios/ring.pds
for bad in 1e999 nan inf 0; do
  sed "s/capacity=39.375/capacity=${bad}/" "${RING}" \
    > "${BAD_DIR}/capacity_${bad}.pds"
done
for bad in -5 0.5; do
  sed "0,/size=441/s//size=${bad}/" "${RING}" > "${BAD_DIR}/size_${bad}.pds"
done
sed "0,/gap=20/s//gap=0/" "${RING}" > "${BAD_DIR}/gap_0.pds"
sed "s/sdp=1,2,4,8/sdp=0,2,4,8/" "${RING}" > "${BAD_DIR}/sdp_zero.pds"
sed "s/sdp=1,2,4,8/sdp=8,4,2,1/" "${RING}" > "${BAD_DIR}/sdp_decreasing.pds"
sed "s/class=3/class=4/" "${RING}" > "${BAD_DIR}/flows_class_4.pds"
sed "0,/fractions=40,30,20,10/s//fractions=40,30,20,10,5/" "${RING}" \
  > "${BAD_DIR}/mix_5_classes.pds"
sed "s/seed=7/seed=-1/" "${RING}" > "${BAD_DIR}/seed_-1.pds"
sed "0,/^source mix east .*/s//& gap=1e9/" "${RING}" \
  > "${BAD_DIR}/duplicate_gap.pds"
printf 'seed 1e999\n' > "${BAD_DIR}/fault_plan.txt"
printf 'seed 1e300\n' > "${BAD_DIR}/fault_seed.txt"
printf 'down nosuch at=10 for=5\n' > "${BAD_DIR}/fault_target.txt"
printf 'retune n0>n1 at=nan w=1,3,9,27\n' > "${BAD_DIR}/control_plan.txt"
printf 'seed 1e300\n' > "${BAD_DIR}/control_seed.txt"
printf 'down n0>n1 at=10 for=5 at=20\n' > "${BAD_DIR}/fault_duplicate.txt"
printf 'shed n0>n1 at=10 for=5 watermark=1e300\n' \
  > "${BAD_DIR}/control_watermark_huge.txt"
printf 'shed n0>n1 at=10 for=5 watermark=2.5\n' \
  > "${BAD_DIR}/control_watermark_fraction.txt"
expect_line_error() {
  local err="${BAD_DIR}/stderr"
  echo "   $*"
  if ./build/examples/netsim_cli --quick "$@" >/dev/null 2>"${err}"; then
    echo "accepted bad input: $*"; exit 1
  fi
  if ! grep -qE 'line [0-9]+:' "${err}" ||
     grep -qE 'stod|check failed|\.(cpp|hpp):[0-9]' "${err}"; then
    echo "bad input not reported as a line-numbered error: $*"
    cat "${err}"; exit 1
  fi
}
for pds in "${BAD_DIR}"/*.pds; do
  expect_line_error --file="${pds}"
done
for plan in fault_plan fault_seed fault_target fault_duplicate; do
  expect_line_error --file="${RING}" --fault-plan="${BAD_DIR}/${plan}.txt"
done
for plan in control_plan control_seed control_watermark_huge \
    control_watermark_fraction; do
  expect_line_error --file="${RING}" --control-plan="${BAD_DIR}/${plan}.txt"
done
rm -rf "${BAD_DIR}"

echo "== control plane: reconfigured-run determinism + controller smoke =="
# A controlled run must stay byte-identical for any --jobs: every
# retune/swap/shed boundary is a plan-scripted simulator event
# (docs/control_plane.md). The plan exercises a prefix wildcard fan-out, a
# live scheduler swap and the overload shed guard on the fat-tree fabric;
# the simulate_cli line closes the loop through the feedback controller.
CTRL_PLAN="$(mktemp)"
cat > "${CTRL_PLAN}" <<'EOF'
retune p0* at=8000 w=1,3,9
swap core0>p1agg0 at=12000 sched=hpd
shed p0edge0>p0agg0 at=10000 for=10000 watermark=40 classes=1
EOF
CTRL_A="$(mktemp)"; CTRL_B="$(mktemp)"
./build/examples/netsim_cli --file=examples/scenarios/fat_tree.pds \
  --quick --control-plan="${CTRL_PLAN}" --sweep-users=4,8 --jobs=1 \
  > "${CTRL_A}"
./build/examples/netsim_cli --file=examples/scenarios/fat_tree.pds \
  --quick --control-plan="${CTRL_PLAN}" --sweep-users=4,8 --jobs=4 \
  > "${CTRL_B}"
diff "${CTRL_A}" "${CTRL_B}"
rm -f "${CTRL_PLAN}" "${CTRL_A}" "${CTRL_B}"
./build/examples/simulate_cli --scheduler=wtp --rho=0.9 --sim-time=30000 \
  --controller=weights --conformance-tau=50 >/dev/null

echo "== observability: compile-out proof + disabled-path overhead guard =="
# -DPDS_OBS=OFF must keep compiling everything that touches the telemetry
# plane (the macros and #if gates are only honest if both sides build), and
# the compiled-in-but-disabled paths must stay within the <5% contract. The
# overhead smoke uses reduced sizes: the guard thresholds are generous
# enough to hold there, and the full run stays available by hand.
cmake -B build-obsoff -S . -DPDS_OBS=OFF >/dev/null
cmake --build build-obsoff -j "${JOBS}" \
  --target simulate_cli ext_fault_resilience micro_obs_overhead \
  obs_test conformance_test telemetry_test
./build-obsoff/tests/obs_test
./build-obsoff/tests/conformance_test
./build-obsoff/tests/telemetry_test
# Every sink on, metrics as CSV and as JSONL: the files must load back
# through the repo's own readers (load_metrics_csv, PacketTracer::load via
# trace_inspect) and every JSON line/document must parse.
OBS_DIR="$(mktemp -d)"
for ext in csv jsonl; do
  ./build/examples/simulate_cli --scheduler=wtp --sim-time=2e4 \
    --metrics-out="${OBS_DIR}/metrics.${ext}" \
    --trace-out="${OBS_DIR}/trace.csv" --trace-sample=0.25 --profile \
    --conformance-tau=50 --conformance-out="${OBS_DIR}/violations.jsonl" \
    --report-out="${OBS_DIR}/report.json" >/dev/null
done
./build/examples/trace_inspect --trace="${OBS_DIR}/trace.csv" \
  --metrics="${OBS_DIR}/metrics.csv" >/dev/null
python3 - "${OBS_DIR}" <<'EOF'
import json, pathlib, sys
d = pathlib.Path(sys.argv[1])
for name in ("metrics.jsonl", "violations.jsonl"):
    lines = (d / name).read_text().splitlines()
    assert lines, f"{name} is empty"
    for line in lines:
        json.loads(line)
json.loads((d / "report.json").read_text())
EOF
rm -rf "${OBS_DIR}"
cmake --build build -j "${JOBS}" --target micro_obs_overhead
./build/bench/micro_obs_overhead --events=300000 --packets=80000 --reps=3

echo "== batched packet plane: scalar fallback proof (-DPDS_SIMD=OFF) =="
# The scalar scan path must stay a first-class citizen: a -DPDS_SIMD=OFF
# tree has no vector kernels at all, and the dispatch-equivalence suite plus
# the scan/burst/scheduler suites must produce the same golden traces the
# SIMD build pins (bit-identical decisions are the contract, not a near
# match). Built in its own tree so the primary build/ keeps SIMD on.
cmake -B build-simdoff -S . -DPDS_SIMD=OFF >/dev/null
cmake --build build-simdoff -j "${JOBS}" \
  --target dispatch_equiv_test scan_test burst_test sched_basic_test \
  sched_property_test
./build-simdoff/tests/dispatch_equiv_test
./build-simdoff/tests/scan_test
./build-simdoff/tests/burst_test
./build-simdoff/tests/sched_basic_test
./build-simdoff/tests/sched_property_test

if [[ "${1:-}" == "--fast" ]]; then
  echo "== fast mode: targeted ASan/UBSan over fault + ctrl + supervisor + obs suites =="
  # Even the fast path sanitizes the robustness layer: fault injection,
  # live reconfiguration (scheduler swaps hand raw backlogs across) and
  # run supervision exercise exception unwinding and teardown ordering, the
  # classic breeding ground for use-after-free. The obs suites join them
  # because atomic-file commit/discard and span-buffer teardown live on the
  # same unwind paths.
  cmake -B build-asan -S . -DPDS_SANITIZE=ON >/dev/null
  cmake --build build-asan -j "${JOBS}" \
    --target fault_test ctrl_test controller_test supervisor_test obs_test \
    conformance_test telemetry_test
  ./build-asan/tests/fault_test
  ./build-asan/tests/ctrl_test
  ./build-asan/tests/controller_test
  ./build-asan/tests/supervisor_test
  ./build-asan/tests/obs_test
  ./build-asan/tests/conformance_test
  ./build-asan/tests/telemetry_test
  echo "== done (fast mode, full sanitizer pass skipped) =="
  exit 0
fi

echo "== sanitizers: ASan + UBSan build + tests =="
cmake -B build-asan -S . -DPDS_SANITIZE=ON >/dev/null
cmake --build build-asan -j "${JOBS}"
ctest --test-dir build-asan --output-on-failure -j "${JOBS}"

echo "== sanitizers: TSan build + threaded suites (experiment engine) =="
# ASan and TSan cannot share a binary, so the TSan pass gets its own tree.
# Only the suites that exercise threads are run: the experiment engine
# (pool/steal/exception paths), the kernel it drives concurrently, the
# scenario suite (its controlled-sweep byte-identity test fans a
# reconfigured run over the pool).
cmake -B build-tsan -S . -DPDS_TSAN=ON -DPDS_BUILD_BENCH=OFF \
  -DPDS_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j "${JOBS}" \
  --target exp_test dsim_test supervisor_test scenario_test
./build-tsan/tests/exp_test
./build-tsan/tests/dsim_test
./build-tsan/tests/supervisor_test
./build-tsan/tests/scenario_test

echo "== all checks passed =="
