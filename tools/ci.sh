#!/usr/bin/env bash
# FairBench CI driver.
#
# Stage 1: Release build + the full ctest suite (the tier-1 gate).
# Stage 2: ThreadSanitizer build of the same tree, running the exec/obs unit
#          tests plus the integration suites — the paths that exercise the
#          parallel drivers — to prove the execution subsystem is race-free.
# Stage 3: Observability artifact check: a small bench run with
#          --trace/--metrics/--manifest must produce loadable Chrome trace
#          JSON with the expected spans and optim.* solver counters.
# Stage 4: ASan+UBSan build of the linalg kernel suites and the optim
#          suites — the unrolled/blocked kernels and their hottest callers —
#          to catch out-of-bounds panel indexing and UB under the same
#          randomized differential workload the plain build runs.
# Stage 5: -DFAIRBENCH_OBS=OFF compile check: every instrumentation macro
#          must vanish cleanly (library + benches + tools still build), and
#          the kernel differential harness and the prediction golden (all
#          19 approaches) must still pass with the obs counters compiled
#          out.
# Stage 6: Serving gate: the artifact round-trip and the concurrent-cache
#          smoke re-run under TSan (single-flight fitting, mutex-guarded
#          lookups, and many requests scoring one shared fitted pipeline
#          at once, Feld included, with no lock around prediction); the
#          corruption suite (artifact stores are untrusted input) and the
#          scoring, hot-swap and sharded suites re-run under ASan+UBSan,
#          where a use-after-free of a swapped-out model is fatal and the
#          leak check proves replaced models are freed; and the committed
#          BENCH_serve.json must match the schema tools/record_bench.py
#          emits.
# Stage 7: Monitoring gate: the monitor suites re-run under TSan (the
#          observer queue and the ingest/drain split are the repo's only
#          lock-free code), and the committed BENCH_monitor.json must
#          match the record_bench.py monitor schema — hot path under
#          1 µs/event, zero pre-onset alerts, every drift kind detected.
# Stage 8: Telemetry-export gate: the HDR histogram and telemetry suites
#          re-run under TSan (concurrent record + merge), tools/obs_export
#          drives a mini serve workload through the full export pipeline,
#          and the Prometheus text is cross-checked by *two* independent
#          validators (the C++ obs::ValidatePrometheusText and the Python
#          grammar in record_bench.py --check-prom) plus a JSONL structure
#          check that follows one request id from its request record into
#          an alert record and the Chrome trace.
# Stage 9: Sparse-tier gate: the CSR matrix/kernel differential suites,
#          the sparse encoder path, the sparse logistic loss, and the
#          CG-Newton solver re-run under ASan+UBSan (CSR indexing bugs are
#          exactly the class those catch), and the committed
#          BENCH_kernels.json must pass the record_bench.py sparse schema
#          gate (every sparse family paired ref+opt).
# Stage 10: Sharded-serving gate: the consistent-hash router,
#          sharded-equivalence, and hot-swap-storm suites re-run under
#          TSan, tools/load_gen drives an open-loop Poisson schedule
#          against the 4-shard tier with a mid-run hot swap (exit gates
#          zero failed requests), and the committed BENCH_serve.json must
#          pass record_bench.py --check-serve (which stage 6 also runs).
# Stage 11: Solver gate: the CDCL SAT core, the WPM1 MaxSAT differential
#          suites, and the warm-started revised simplex suites (including
#          the shared-LpBasisCache concurrency test) re-run under TSan,
#          and the committed BENCH_solvers.json must pass record_bench.py
#          --check-solvers — CDCL proves the optimum on every SALIMI
#          block, warm HARDT LP >= 2x over cold with bit-equal
#          objectives, >= 3 repetitions, never measured from a debug
#          build.
#
# Usage: tools/ci.sh [jobs]   (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

# run_suites DIR 'a|b|c' [ctest args...]: runs exactly the named suites of
# the build tree DIR. The list is anchored as ^(a|b|c)$ so a name cannot
# match other suites by substring, and every name must match exactly one
# registered test (ctest -N) before anything runs, so a renamed or deleted
# suite fails the stage instead of silently running nothing.
run_suites() {
  local dir="$1" names="$2"
  shift 2
  local registered name count
  registered="$(ctest --test-dir "${dir}" -N | sed -n 's/^ *Test *#[0-9]*: //p')"
  for name in ${names//|/ }; do
    count="$(grep -cxF -- "${name}" <<<"${registered}" || true)"
    if [[ "${count}" != 1 ]]; then
      echo "ci: '${name}' matches ${count} tests in ${dir}" >&2
      exit 1
    fi
  done
  ctest --test-dir "${dir}" --output-on-failure "$@" -R "^(${names})\$"
}

echo "==> Stage 1: Release build + full test suite (jobs=${JOBS})"
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-ci -j "${JOBS}"
ctest --test-dir build-ci --output-on-failure -j "${JOBS}"

echo "==> Stage 2: ThreadSanitizer build + exec/obs/integration tests"
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DFAIRBENCH_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "${JOBS}"
# halt_on_error: any reported race fails the run rather than just logging.
TSAN_OPTIONS="halt_on_error=1" run_suites build-tsan \
    'thread_pool_test|task_group_test|parallel_for_test|determinism_test|experiment_test|crossval_test|stability_test|scalability_test|causal_discrimination_test|metrics_test|trace_test' -j "${JOBS}"

echo "==> Stage 3: Observability artifacts from a small bench run"
OBS_DIR="build-ci/obs-check"
mkdir -p "${OBS_DIR}"
build-ci/bench/fig10_german --scale 0.02 --no-cd --jobs 2 \
    --trace "${OBS_DIR}/trace.json" --metrics "${OBS_DIR}/metrics.csv" \
    --manifest "${OBS_DIR}/manifest.json" >/dev/null
python3 - "${OBS_DIR}" <<'EOF'
import json, sys
obs_dir = sys.argv[1]
trace = json.load(open(f"{obs_dir}/trace.json"))
names = [e["name"] for e in trace["traceEvents"]]
assert any(n.startswith("fit/") for n in names), "no fit/ spans in trace"
assert any(n.startswith("predict/") for n in names), "no predict/ spans"
assert any(n == "pool.task" for n in names), "no thread-pool task spans"
assert trace["otherData"]["seed"] == 42, "manifest not embedded in trace"
json.load(open(f"{obs_dir}/manifest.json"))
print(f"trace ok: {len(names)} spans")
EOF
grep -q '^optim\.' "${OBS_DIR}/metrics.csv" \
    || { echo "no optim.* solver metrics in metrics.csv"; exit 1; }
echo "metrics ok: $(grep -c '^optim\.' "${OBS_DIR}/metrics.csv") optim rows"

echo "==> Stage 4: ASan+UBSan build + linalg/optim kernel suites"
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DFAIRBENCH_SANITIZE=address+undefined >/dev/null
cmake --build build-asan -j "${JOBS}"
# halt_on_error: any ASan report or UBSan diagnostic fails the run.
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    run_suites build-asan \
    'kernel_differential_test|checked_ops_test|solve_edge_test|matrix_test|vector_ops_test|solve_test|gradient_descent_test|lbfgs_test|nmf_test|simplex_lp_test|maxsat_test|sat_solver_test|maxsat_differential_test|lp_edge_test|lp_warm_start_test' -j "${JOBS}"

echo "==> Stage 5: FAIRBENCH_OBS=OFF compile check + kernel differential and prediction golden runs"
cmake -B build-obs-off -S . -DCMAKE_BUILD_TYPE=Release \
      -DFAIRBENCH_OBS=OFF >/dev/null
cmake --build build-obs-off -j "${JOBS}"
# The optimized-vs-ref contract and every approach's predictions must
# hold with the counters compiled out (no arithmetic may depend on the
# obs macro expansion).
run_suites build-obs-off \
    'kernel_differential_test|prediction_golden_test'

echo "==> Stage 6: Serving gate (TSan cache smoke, ASan corruption/serve suites, bench schema)"
TSAN_OPTIONS="halt_on_error=1" run_suites build-tsan \
    'artifact_roundtrip_test|scoring_service_test' -j "${JOBS}"
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    run_suites build-asan \
    'artifact_corruption_test|artifact_roundtrip_test|scoring_service_test|hot_swap_test|sharded_scoring_service_test' -j "${JOBS}"
# Single schema gate for the committed record (approaches, sharded,
# zafar_cold_fit, and open_loop blocks) — shared with stage 10.
python3 tools/record_bench.py --check-serve BENCH_serve.json

echo "==> Stage 7: Monitoring gate (TSan monitor suites, bench schema)"
TSAN_OPTIONS="halt_on_error=1" run_suites build-tsan \
    'observer_queue_test|window_test|alert_policy_test|fairness_monitor_test|drift_detection_test' -j "${JOBS}"
# The monitor health gates live in record_bench.py --check-monitor so the
# distiller and CI apply one set of rules to the committed record.
python3 tools/record_bench.py --check-monitor BENCH_monitor.json

echo "==> Stage 8: Telemetry-export gate (TSan HDR/telemetry, export round-trip)"
TSAN_OPTIONS="halt_on_error=1" run_suites build-tsan \
    'hdr_histogram_test|telemetry_test|request_trace_e2e_test' -j "${JOBS}"
EXPORT_DIR="build-ci/obs-export"
mkdir -p "${EXPORT_DIR}"
build-ci/tools/obs_export --dir "${EXPORT_DIR}" --rows 1500 --requests 12
# Two independent opinions on the Prometheus text: the C++ validator the
# exporter ships with, and a from-the-spec Python grammar.
build-ci/tools/obs_export --check "${EXPORT_DIR}/metrics.prom"
python3 tools/record_bench.py --check-prom "${EXPORT_DIR}/metrics.prom"
python3 - "${EXPORT_DIR}" <<'EOF'
import json, sys
d = sys.argv[1]
lines = [json.loads(l) for l in open(f"{d}/events.jsonl") if l.strip()]
header, records = lines[0], lines[1:]
assert header["type"] == "header", header
assert header["format"] == "fairbench-events-v1", header
assert header["manifest_hash"], "no manifest hash in JSONL header"
requests = [r for r in records if r["type"] == "request"]
alerts = [r for r in records if r["type"] == "alert"]
assert requests, "no request records exported"
assert alerts, "rigged policy fired no alert record"
ids = {r["request_id"] for r in requests}
assert all(len(i) == 16 for i in ids), "request ids must be 16 hex chars"
# The request-id join: the alert's window range must point at exported
# request records, and the same id must appear on a trace span.
linked = {a["begin_request_id"] for a in alerts} | {
    a["end_request_id"] for a in alerts}
assert linked & ids, f"alert ids {linked} never scored"
trace = json.load(open(f"{d}/trace.json"))
span_ids = {e.get("args", {}).get("request_id")
            for e in trace["traceEvents"]} - {None}
joined = linked & ids & span_ids
assert joined, "no request id spans JSONL request+alert records and a trace"
manifest = json.load(open(f"{d}/manifest.json"))
assert manifest.get("git_commit"), "manifest missing git provenance"
print(f"export join ok: {len(requests)} requests, {len(alerts)} alerts, "
      f"{len(span_ids)} traced ids, joined on {sorted(joined)}")
EOF

echo "==> Stage 9: Sparse-tier gate (ASan sparse/CG-Newton suites, kernel schema)"
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    run_suites build-asan \
    'sparse_matrix_test|sparse_kernel_differential_test|sparse_encoder_test|sparse_logistic_test|cg_newton_test' -j "${JOBS}"
python3 tools/record_bench.py --check-kernels BENCH_kernels.json

echo "==> Stage 10: Sharded-serving gate (TSan router/hot-swap suites, open-loop smoke)"
# The hot-swap path (map updates under the service mutex while readers
# score models a swap has replaced) and the consistent-hash router; the
# swap storm and the sharded equivalence suites re-run under TSan.
TSAN_OPTIONS="halt_on_error=1" run_suites build-tsan \
    'consistent_hash_test|sharded_scoring_service_test|hot_swap_test|scoring_service_test' -j "${JOBS}"
# Open-loop smoke under TSan: a Poisson schedule against the 4-shard tier
# with a hot swap of every approach mid-run. load_gen itself exits
# nonzero if any request or swap fails (the zero-failure gate).
TSAN_OPTIONS="halt_on_error=1" build-tsan/tools/load_gen \
    --mode sharded --shards 4 --dist poisson --rate 150 --requests 120 \
    --workers 4 --swap-at 40 --json build-tsan/loadgen-smoke.json
python3 tools/record_bench.py --check-serve BENCH_serve.json

echo "==> Stage 11: Solver gate (TSan SAT/MaxSAT/LP suites, solver bench schema)"
# The CDCL core and the revised simplex are pure compute, but the
# LpBasisCache is shared mutable state across CV folds and SolveLp keeps
# thread_local scratch — the concurrency suite drives both from
# ParallelFor under TSan next to the full differential suites.
TSAN_OPTIONS="halt_on_error=1" run_suites build-tsan \
    'sat_solver_test|maxsat_test|maxsat_differential_test|simplex_lp_test|lp_edge_test|lp_warm_start_test|solver_concurrency_test' -j "${JOBS}"
python3 tools/record_bench.py --check-solvers BENCH_solvers.json

echo "==> CI passed"
