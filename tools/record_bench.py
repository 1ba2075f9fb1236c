#!/usr/bin/env python3
"""Distill raw benchmark JSON into the committed BENCH_*.json records.

Two input shapes, detected automatically:

1. google-benchmark output from bench/micro_kernels -> BENCH_kernels.json:

       bench/micro_kernels --benchmark_repetitions=5 \
           --benchmark_report_aggregates_only=true \
           --benchmark_format=json > raw.json
       tools/record_bench.py raw.json > BENCH_kernels.json

   Keeps the median aggregate per benchmark (ns/op and GFLOP/s) and pairs
   each optimized kernel with its linalg::ref oracle to report the
   speedup. Runs without aggregates (no _median suffix) are accepted too.

2. per-repetition output from bench/serve_throughput -> BENCH_serve.json:

       bench/serve_throughput --reps 5 --json raw.json
       tools/record_bench.py raw.json \
           [--open-loop loadgen.json] > BENCH_serve.json

   Collapses each approach's repetitions to the median (the 1-vCPU noise
   policy: repetitions + median, never a single run) and reports cold vs
   warm requests/second plus the warm-cache speedup. When the raw JSON
   carries the HDR "latency_ns" block (one sample per request, pooled
   across repetitions), each approach gains a "latency_percentiles"
   summary with cold/warm p50/p95/p99 and the histogram's relative error.
   The "sharded" working-set experiment and the "zafar_cold_fit"
   dense-vs-sparse deltas are medianed the same way when present, and
   --open-loop folds a tools/load_gen report (sharded tier under a
   Poisson arrival schedule with a mid-run hot swap) into the record as
   its "open_loop" block.

Extra modes:

       tools/record_bench.py --check-kernels BENCH_kernels.json

   Schema gate for the committed kernel record: every entry must carry a
   well-formed ref block (numeric ns_per_op/gflops), every opt block must
   be shaped the same with a consistent speedup, and the sparse kernel
   families introduced with the CSR path (SpMV, SpMVT, SpWeightedGramVec,
   SpSigmoidResidual, ZafarDpFit) must each be present with BOTH a ref and
   an opt side — a record that silently dropped the sparse benches cannot
   be committed. Exits 1 with a line per violation.

       tools/record_bench.py --check-serve BENCH_serve.json

   Schema + health gate for the committed serving record (CI stages 6 and
   10): per-approach warm speedup >= 10 with monotone HDR percentiles,
   sharded speedup_vs_single >= 3 with fully-warm sharded passes, sparse
   Zafar cold fits strictly faster than dense, and an open-loop block
   with zero failed requests and at least one completed mid-run hot swap.
   Exits 1 with a line per violation.

       tools/record_bench.py --check-monitor BENCH_monitor.json

   Re-applies the monitor health gates (ns/event < 1000, no pre-onset or
   stationary alerts, every drift detected) to the committed record, so a
   hand-edited or stale record fails the same way a bad raw run would.

       tools/record_bench.py --check-solvers BENCH_solvers.json

   Acceptance gate for the solver record (CI stage 11): CDCL proves the
   optimum on every SALIMI block, warm-started HARDT LP at least 2x over
   cold with bit-equal objectives and real phase-1 skips, >= 3
   repetitions everywhere.

   Every --check-* mode also rejects a record whose context reports a
   debug build ("library_build_type"/"build_type" == "debug") — debug
   timings are not measurements and must not be committed.

       tools/record_bench.py --check-prom metrics.prom

   Parses a Prometheus text-format (0.0.4) exposition file written by the
   obs exporter with an independent Python-side grammar check: every
   sample line must be `name{labels} value`, every histogram family must
   end with +Inf/_sum/_count, quantile labels must be within [0,1], and
   the fairbench manifest-hash header comment must be present. Exits 1
   with a line per violation.

3. per-repetition output from bench/monitor_drift -> BENCH_monitor.json:

       bench/monitor_drift --reps 5 --json raw.json
       tools/record_bench.py raw.json > BENCH_monitor.json

   Medians the hot-path cost per scenario and *gates* the record: the
   distillation fails (exit 1, nothing written) if any scenario's median
   ns_per_event reaches 1000, if any repetition alerted before drift
   onset, if the stationary control alerted at all, or if a drifting
   scenario went undetected — a slow or trigger-happy monitor cannot be
   committed as a healthy benchmark.

4. per-repetition output from bench/solver_scaling -> BENCH_solvers.json:

       bench/solver_scaling --reps 5 --json raw.json
       tools/record_bench.py raw.json > BENCH_solvers.json

   Medians the CDCL MaxSAT block ladder and the warm-vs-cold HARDT LP
   sweep.
"""

import json
import math
import re
import statistics
import sys


def _debug_build_errors(record: dict) -> list:
    """A committed benchmark record measured from a debug build is not a
    measurement at all — every check mode rejects it. The build-type keys
    differ by producer (google-benchmark emits context.library_build_type,
    our own benches emit build_type / context.build_type); a record that
    predates the field passes, one that says "debug" anywhere fails. One
    nuance: google-benchmark's library_build_type describes the *benchmark
    library*, which ships debug-built on the reference image, so when the
    record carries our own fairbench_build_type that key is authoritative
    and library_build_type is ignored; records predating it (or from
    binaries actually built debug) still fail on either key."""
    errors = []
    context = record.get("context") or {}
    checks = [("context", "build_type"),
              ("record", "build_type"),
              ("context", "fairbench_build_type")]
    if not isinstance(context.get("fairbench_build_type"), str):
        checks.append(("context", "library_build_type"))
    for where, key in checks:
        holder = context if where == "context" else record
        value = holder.get(key)
        if isinstance(value, str) and value.lower() == "debug":
            errors.append(f"{where}.{key} is 'debug' — rerun the bench from "
                          "a Release build before committing")
    return errors


def distill_kernels(raw: dict) -> dict:
    rows = {}
    for b in raw["benchmarks"]:
        name = b["name"]
        if "_" in name and b.get("aggregate_name", "") not in ("", "median"):
            continue
        name = name.removesuffix("_median")
        rows[name] = {
            "ns_per_op": round(b["real_time"], 1),
            "gflops": round(b.get("FLOPS", 0.0) / 1e9, 3),
        }

    out = {
        "source": "bench/micro_kernels",
        "context": {
            k: raw.get("context", {}).get(k)
            for k in ("host_name", "num_cpus", "mhz_per_cpu",
                      "library_build_type", "fairbench_build_type")
        },
        "kernels": [],
    }
    for name in sorted(rows):
        if "Ref" not in name:
            continue
        opt_name = name.replace("Ref", "Opt", 1)
        entry = {
            "bench": name.replace("Ref", "", 1).removeprefix("BM_"),
            "ref": rows[name],
        }
        if opt_name in rows:
            entry["opt"] = rows[opt_name]
            if rows[opt_name]["ns_per_op"] > 0:
                entry["speedup"] = round(
                    rows[name]["ns_per_op"] / rows[opt_name]["ns_per_op"], 2
                )
        out["kernels"].append(entry)
    return out


def distill_serve(raw: dict) -> dict:
    out = {
        "source": raw["source"],
        "policy": "median over repetitions (see MEMORY: 1-vCPU bench noise)",
        "context": {
            k: raw.get(k)
            for k in ("scale", "seed", "jobs", "train_rows", "batch_rows",
                      "warm_requests_per_rep")
        },
        "approaches": [],
    }
    for approach in raw["approaches"]:
        reps = approach["repetitions"]
        cold = statistics.median(r["cold_seconds"] for r in reps)
        warm = statistics.median(r["warm_seconds_per_request"] for r in reps)
        entry = {
            "id": approach["id"],
            "repetitions": len(reps),
            "cold": {
                "seconds_per_request": round(cold, 6),
                "req_per_sec": round(1.0 / cold, 2) if cold > 0 else None,
            },
            "warm": {
                "seconds_per_request": round(warm, 6),
                "req_per_sec": round(1.0 / warm, 2) if warm > 0 else None,
            },
            "warm_speedup": round(cold / warm, 2) if warm > 0 else None,
        }
        # Percentile passthrough from the bench's HDR histograms. Unlike the
        # median blocks above these are per-request tails, not per-rep
        # averages, so they are reported as-is (already a summary).
        latency = approach.get("latency_ns")
        if latency:
            entry["latency_percentiles"] = {
                side: {
                    "count": block["count"],
                    "p50_ns": block["p50_ns"],
                    "p95_ns": block["p95_ns"],
                    "p99_ns": block["p99_ns"],
                    "relative_error": block["relative_error"],
                }
                for side, block in latency.items()
            }
        out["approaches"].append(entry)

    # Sharded-tier experiment: one warm pass over a working set that
    # overflows a single instance's cache but partitions cleanly across
    # shards. Medianed like everything else; the raw "mechanism" string is
    # carried verbatim so the record stays honest about *why* sharding wins
    # on a 1-vCPU host.
    sharded = raw.get("sharded")
    if sharded:
        reps = sharded["repetitions"]
        single = statistics.median(r["single_seconds"] for r in reps)
        multi = statistics.median(r["sharded_seconds"] for r in reps)
        n = sharded["requests_per_rep"]
        out["sharded"] = {
            "shards": sharded["shards"],
            "cache_capacity_per_instance": sharded[
                "cache_capacity_per_instance"],
            "working_set_keys": sharded["working_set_keys"],
            "requests_per_rep": n,
            "mechanism": sharded["mechanism"],
            "repetitions": len(reps),
            "single_req_per_sec": round(n / single, 2) if single > 0 else None,
            "sharded_req_per_sec": round(n / multi, 2) if multi > 0 else None,
            "speedup_vs_single": round(single / multi, 2) if multi > 0 else None,
            "single_warm_hits": statistics.median(
                r["single_hits"] for r in reps),
            "sharded_warm_hits": statistics.median(
                r["sharded_hits"] for r in reps),
        }

    # Serving cold-fit delta: the three Zafar variants fit dense vs through
    # the sparse CG-Newton path the serving tier uses (ZafarOptions::
    # use_sparse_newton via MakeServingPipeline).
    zafar = raw.get("zafar_cold_fit")
    if zafar:
        out["zafar_cold_fit"] = []
        for entry in zafar:
            reps = entry["repetitions"]
            dense = statistics.median(r["dense_fit_seconds"] for r in reps)
            sparse = statistics.median(r["sparse_fit_seconds"] for r in reps)
            out["zafar_cold_fit"].append({
                "id": entry["id"],
                "repetitions": len(reps),
                "dense_fit_seconds": round(dense, 6),
                "sparse_fit_seconds": round(sparse, 6),
                "sparse_speedup": round(dense / sparse, 2)
                if sparse > 0 else None,
            })
    return out


def merge_open_loop(out: dict, path: str) -> None:
    """Folds a tools/load_gen JSON report into a distilled serve record as
    its "open_loop" block. The report is already a summary (HDR
    percentiles over every request of one run), so it is carried through
    with only the provenance key renamed."""
    with open(path) as f:
        report = json.load(f)
    if report.get("source") != "tools/load_gen":
        print(f"{path}: not a tools/load_gen report", file=sys.stderr)
        raise SystemExit(2)
    block = dict(report)
    block["generator"] = block.pop("source")
    out["open_loop"] = block


def check_serve_record(path: str) -> int:
    """Schema + health gate for the committed BENCH_serve.json (CI stages
    6 and 10). Checks the per-approach warm-cache contract (speedup >= 10,
    monotone HDR percentiles with bounded relative error), the sharded
    block (speedup_vs_single >= 3 with every sharded pass fully warm), the
    zafar cold-fit delta (sparse strictly faster), and the open-loop block
    (zero failed requests, at least one completed hot swap, sane
    percentiles). Returns the number of violations (0 = clean)."""
    errors = []
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"serve check failed: {path}: {e}", file=sys.stderr)
        return 1

    if record.get("source") != "bench/serve_throughput":
        errors.append(f"source is {record.get('source')!r}")
    errors.extend(_debug_build_errors(record))
    approaches = record.get("approaches") or []
    if not approaches:
        errors.append("no approaches recorded")
    for a in approaches:
        aid = a.get("id", "?")
        for key in ("id", "repetitions", "cold", "warm", "warm_speedup"):
            if key not in a:
                errors.append(f"{aid}: missing {key}")
        for side in ("cold", "warm"):
            block = a.get(side) or {}
            if not block.get("seconds_per_request", 0) > 0:
                errors.append(f"{aid}: bad {side} seconds_per_request")
            if not block.get("req_per_sec", 0) > 0:
                errors.append(f"{aid}: bad {side} req_per_sec")
        if a.get("repetitions", 0) < 3:
            errors.append(f"{aid}: too few repetitions for a median")
        if not a.get("warm_speedup", 0) >= 10:
            errors.append(f"{aid}: warm cache only {a.get('warm_speedup')}x "
                          "over fit-then-score")
        pct = a.get("latency_percentiles")
        if not pct:
            errors.append(f"{aid}: missing latency_percentiles (HDR block)")
            pct = {}
        for side, p in pct.items():
            if not p.get("count", 0) > 0:
                errors.append(f"{aid}: empty {side} histogram")
            if not 0 < p.get("p50_ns", 0) <= p.get("p95_ns", 0) <= p.get(
                    "p99_ns", 0):
                errors.append(f"{aid}: non-monotone {side} percentiles")
            if not 0 < p.get("relative_error", 1) <= 0.05:
                errors.append(f"{aid}: HDR relative error "
                              f"{p.get('relative_error')}")

    sharded = record.get("sharded")
    if not sharded:
        errors.append("missing sharded block (working-set experiment)")
    else:
        if sharded.get("shards", 0) < 2:
            errors.append(f"sharded: only {sharded.get('shards')} shard(s)")
        if sharded.get("repetitions", 0) < 3:
            errors.append("sharded: too few repetitions for a median")
        speedup = sharded.get("speedup_vs_single")
        if not isinstance(speedup, (int, float)) or speedup < 3:
            errors.append(f"sharded: speedup_vs_single {speedup} below the "
                          "3x acceptance floor")
        if sharded.get("sharded_warm_hits") != sharded.get("requests_per_rep"):
            errors.append("sharded: a sharded pass was not fully warm "
                          f"({sharded.get('sharded_warm_hits')} hits of "
                          f"{sharded.get('requests_per_rep')})")
        if not sharded.get("mechanism"):
            errors.append("sharded: missing mechanism provenance string")

    zafar = record.get("zafar_cold_fit") or []
    if not zafar:
        errors.append("missing zafar_cold_fit block (sparse serving fits)")
    for entry in zafar:
        zid = entry.get("id", "?")
        dense = entry.get("dense_fit_seconds", 0)
        sparse = entry.get("sparse_fit_seconds", 0)
        if not (dense > 0 and sparse > 0):
            errors.append(f"zafar_cold_fit {zid}: non-positive fit time")
        elif sparse >= dense:
            errors.append(f"zafar_cold_fit {zid}: sparse fit ({sparse}s) "
                          f"not faster than dense ({dense}s)")

    open_loop = record.get("open_loop")
    if not open_loop:
        errors.append("missing open_loop block (tools/load_gen report)")
    else:
        if open_loop.get("generator") != "tools/load_gen":
            errors.append(f"open_loop: generator is "
                          f"{open_loop.get('generator')!r}")
        if open_loop.get("failed", 1) != 0:
            errors.append(f"open_loop: {open_loop.get('failed')} failed "
                          "request(s) — the hot-swap zero-failure gate")
        if not open_loop.get("ok", 0) > 0:
            errors.append("open_loop: no successful requests")
        if not open_loop.get("swaps", 0) >= 1:
            errors.append("open_loop: no hot swap completed mid-run")
        if open_loop.get("mode") == "sharded" and open_loop.get(
                "shards", 0) < 2:
            errors.append("open_loop: sharded mode with < 2 shards")
        for a in open_loop.get("approaches") or [{"id": "?"}]:
            aid = a.get("id", "?")
            if not 0 < a.get("p50_ns", 0) <= a.get("p95_ns", 0) <= a.get(
                    "p99_ns", 0) <= a.get("max_ns", 0):
                errors.append(f"open_loop {aid}: non-monotone percentiles")
            if not a.get("count", 0) > 0:
                errors.append(f"open_loop {aid}: empty histogram")

    for error in errors:
        print(f"serve check failed: {error}", file=sys.stderr)
    if not errors:
        print(f"{path} ok: {len(approaches)} approaches "
              f"(min warm speedup "
              f"{min(a['warm_speedup'] for a in approaches)}x), sharded "
              f"{sharded['speedup_vs_single']}x over single, open loop "
              f"{open_loop['ok']} ok / {open_loop['failed']} failed / "
              f"{open_loop['swaps']} swaps")
    return len(errors)


def distill_monitor(raw: dict) -> dict:
    out = {
        "source": raw["source"],
        "policy": "median over repetitions (see MEMORY: 1-vCPU bench noise)",
        "context": {
            k: raw.get(k)
            for k in ("seed", "rows", "onset", "window_events",
                      "stride_events", "ci_resamples")
        },
        "scenarios": [],
    }
    onset = raw["onset"]
    failures = []
    for scenario in raw["scenarios"]:
        name = scenario["name"]
        reps = scenario["repetitions"]
        ns = statistics.median(r["ns_per_event"] for r in reps)
        pre = max(r["alerts_pre_onset"] for r in reps)
        post = max(r["alerts_post_onset"] for r in reps)
        latencies = [r["detection_latency"] for r in reps]
        entry = {
            "name": name,
            "repetitions": len(reps),
            "ns_per_event": round(ns, 1),
            "alerts_pre_onset": pre,
            "alerts_post_onset": post,
        }
        if name != "stationary":
            entry["detection_latency_events"] = statistics.median(latencies)
        out["scenarios"].append(entry)

        # The gates: a record that violates them is not written at all.
        if ns >= 1000.0:
            failures.append(f"{name}: median {ns:.1f} ns/event >= 1000")
        if pre != 0:
            failures.append(f"{name}: {pre} alert(s) before onset {onset}")
        if name == "stationary" and post != 0:
            failures.append(f"stationary: {post} alert(s) on a drift-free stream")
        if name != "stationary" and any(lat < 0 for lat in latencies):
            failures.append(f"{name}: drift never detected in some repetition")
    if failures:
        for failure in failures:
            print(f"monitor gate failed: {failure}", file=sys.stderr)
        raise SystemExit(1)
    return out


def check_monitor_record(path: str) -> int:
    """Validates a committed BENCH_monitor.json (CI stage 7). Re-applies
    the distill-time health gates to the committed record — median cost
    under 1000 ns/event, no pre-onset or stationary alerts, every drifting
    scenario detected — so a hand-edited or stale record fails the same
    way a bad raw run would. Returns the number of violations."""
    errors = []
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"monitor check failed: {path}: {e}", file=sys.stderr)
        return 1

    if record.get("source") != "bench/monitor_drift":
        errors.append(f"source is {record.get('source')!r}")
    errors.extend(_debug_build_errors(record))
    scenarios = record.get("scenarios") or []
    if not scenarios:
        errors.append("no scenarios recorded")
    names = {s.get("name") for s in scenarios}
    if "stationary" not in names:
        errors.append("missing the stationary control scenario")
    for s in scenarios:
        name = s.get("name", "?")
        if s.get("repetitions", 0) < 3:
            errors.append(f"{name}: too few repetitions for a median")
        ns = s.get("ns_per_event")
        if not isinstance(ns, (int, float)) or not 0 < ns < 1000:
            errors.append(f"{name}: ns_per_event {ns} outside (0, 1000)")
        if s.get("alerts_pre_onset", 1) != 0:
            errors.append(f"{name}: alert(s) before drift onset")
        if name == "stationary":
            if s.get("alerts_post_onset", 1) != 0:
                errors.append("stationary: alert(s) on a drift-free stream")
        else:
            if not s.get("alerts_post_onset", 0) > 0:
                errors.append(f"{name}: drift never alerted")
            if not s.get("detection_latency_events", -1) >= 0:
                errors.append(f"{name}: missing detection latency")

    for error in errors:
        print(f"monitor check failed: {error}", file=sys.stderr)
    if not errors:
        worst = max(s["ns_per_event"] for s in scenarios)
        print(f"{path} ok: {len(scenarios)} scenarios, "
              f"worst median {worst} ns/event")
    return len(errors)


def distill_solvers(raw: dict) -> dict:
    """bench/solver_scaling --json output -> BENCH_solvers.json. Medians
    each CDCL MaxSAT block size and the HARDT warm-vs-cold LP sweep."""
    out = {
        "source": raw["source"],
        "policy": "median over repetitions (see MEMORY: 1-vCPU bench noise)",
        "context": {
            "seed": raw.get("seed"),
            "build_type": raw.get("build_type"),
        },
        "maxsat": [],
    }
    for point in raw["maxsat"]:
        reps = point["repetitions"]
        cdcl = statistics.median(r["cdcl_seconds"] for r in reps)
        out["maxsat"].append({
            "ni": point["ni"],
            "vars": point["vars"],
            "clauses": point["clauses"],
            "repetitions": len(reps),
            "cdcl_seconds": round(cdcl, 9),
            "cdcl_weight": statistics.median(r["cdcl_weight"] for r in reps),
            "cdcl_optimal": all(r["cdcl_optimal"] for r in reps),
        })

    hardt = raw["hardt_lp"]
    reps = hardt["repetitions"]
    cold = statistics.median(r["cold_seconds"] for r in reps)
    warm = statistics.median(r["warm_seconds"] for r in reps)
    out["hardt_lp"] = {
        "folds": hardt["folds"],
        "sweeps_per_rep": hardt["sweeps_per_rep"],
        "repetitions": len(reps),
        "cold_seconds": round(cold, 9),
        "warm_seconds": round(warm, 9),
        "warm_speedup": round(cold / warm, 2) if warm > 0 else None,
        "phase1_skips": statistics.median(r["phase1_skips"] for r in reps),
        "warm_solves": statistics.median(r["warm_solves"] for r in reps),
        "objectives_bit_equal": all(r["objectives_bit_equal"] for r in reps),
    }
    return out


def check_solvers_record(path: str) -> int:
    """Schema + health gate for the committed BENCH_solvers.json (CI stage
    11): CDCL proves the optimum on every SALIMI block, the warm-started
    HARDT LP is at least 2x over cold with bit-equal objectives and real
    phase-1 skips, and medians are over >= 3 repetitions throughout.
    Returns the number of violations (0 = clean)."""
    errors = []
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"solvers check failed: {path}: {e}", file=sys.stderr)
        return 1

    if record.get("source") != "bench/solver_scaling":
        errors.append(f"source is {record.get('source')!r}")
    errors.extend(_debug_build_errors(record))

    maxsat = record.get("maxsat") or []
    if not maxsat:
        errors.append("no maxsat block sizes recorded")
    for p in maxsat:
        ni = p.get("ni", "?")
        if p.get("repetitions", 0) < 3:
            errors.append(f"maxsat ni={ni}: too few repetitions for a median")
        if (not isinstance(p.get("cdcl_seconds"), (int, float))
                or not p["cdcl_seconds"] > 0):
            errors.append(f"maxsat ni={ni}: bad cdcl_seconds")
        if not isinstance(p.get("cdcl_weight"), (int, float)):
            errors.append(f"maxsat ni={ni}: missing satisfied weight")
        if not p.get("cdcl_optimal", False):
            errors.append(f"maxsat ni={ni}: CDCL did not prove the optimum")

    hardt = record.get("hardt_lp")
    if not hardt:
        errors.append("missing hardt_lp block (warm-start experiment)")
    else:
        if hardt.get("repetitions", 0) < 3:
            errors.append("hardt_lp: too few repetitions for a median")
        speedup = hardt.get("warm_speedup")
        if not isinstance(speedup, (int, float)) or speedup < 2:
            errors.append(f"hardt_lp: warm speedup {speedup} below the 2x "
                          "acceptance floor")
        if not hardt.get("objectives_bit_equal", False):
            errors.append("hardt_lp: warm objectives not bit-equal to cold")
        if not hardt.get("phase1_skips", 0) > 0:
            errors.append("hardt_lp: no phase-1 skips — the warm path "
                          "never actually engaged")
        if not hardt.get("warm_solves", 0) > 0:
            errors.append("hardt_lp: no warm solves recorded")

    for error in errors:
        print(f"solvers check failed: {error}", file=sys.stderr)
    if not errors:
        print(f"{path} ok: CDCL optima proven on {len(maxsat)} blocks, "
              f"hardt warm {hardt['warm_speedup']}x, objectives bit-equal")
    return len(errors)


# Sparse kernel families that BENCH_kernels.json must pair (ref + opt):
# the CSR tier's contract is "never commit a record that lost its sparse
# trajectory". Family = the entry's bench name up to the first '/'.
_REQUIRED_SPARSE_FAMILIES = (
    "SpMV",
    "SpMVT",
    "SpWeightedGramVec",
    "SpSigmoidResidual",
    "ZafarDpFit",
)


def _check_timing_block(block, where: str, errors: list) -> None:
    if not isinstance(block, dict):
        errors.append(f"{where}: not an object")
        return
    for key in ("ns_per_op", "gflops"):
        v = block.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            errors.append(f"{where}.{key}: missing or non-numeric")
        elif v < 0 or math.isnan(v) or math.isinf(v):
            errors.append(f"{where}.{key}: {v} is not a sane measurement")


def check_kernels_record(path: str) -> int:
    """Validates a committed BENCH_kernels.json against the schema that
    distill_kernels() emits, then gates on the sparse families. Returns the
    number of violations (0 = clean)."""
    errors = []
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"kernels check failed: {path}: {e}", file=sys.stderr)
        return 1

    if record.get("source") != "bench/micro_kernels":
        errors.append(f"source is {record.get('source')!r}, "
                      "expected 'bench/micro_kernels'")
    if not isinstance(record.get("context"), dict):
        errors.append("missing context object")
    errors.extend(_debug_build_errors(record))
    kernels = record.get("kernels")
    if not isinstance(kernels, list) or not kernels:
        errors.append("kernels must be a non-empty list")
        kernels = []

    paired = set()  # families that have both ref and opt
    for i, entry in enumerate(kernels):
        where = f"kernels[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not an object")
            continue
        bench = entry.get("bench")
        if not isinstance(bench, str) or not bench:
            errors.append(f"{where}: missing bench name")
            bench = "?"
        where = f"kernels[{i}] ({bench})"
        _check_timing_block(entry.get("ref"), f"{where}.ref", errors)
        if "opt" in entry:
            _check_timing_block(entry["opt"], f"{where}.opt", errors)
            speedup = entry.get("speedup")
            if not isinstance(speedup, (int, float)) or isinstance(
                    speedup, bool):
                errors.append(f"{where}: opt present but speedup missing")
            elif speedup <= 0:
                errors.append(f"{where}: speedup {speedup} <= 0")
            else:
                try:
                    implied = entry["ref"]["ns_per_op"] / entry["opt"][
                        "ns_per_op"]
                    if abs(implied - speedup) > 0.05 * max(implied, speedup):
                        errors.append(
                            f"{where}: speedup {speedup} inconsistent with "
                            f"ref/opt ratio {implied:.2f}")
                except (KeyError, TypeError, ZeroDivisionError):
                    pass  # already reported by the block checks
            paired.add(bench.split("/", 1)[0])

    for family in _REQUIRED_SPARSE_FAMILIES:
        if family not in paired:
            errors.append(
                f"sparse family {family!r} missing a paired ref+opt entry")

    for error in errors:
        print(f"kernels check failed: {error}", file=sys.stderr)
    if not errors:
        sparse = [e for e in kernels if e["bench"].split("/")[0]
                  in _REQUIRED_SPARSE_FAMILIES]
        print(f"{path} ok: {len(kernels)} kernel entries, "
              f"{len(sparse)} sparse, all required families paired")
    return len(errors)


_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"  # metric name
    r"(?:\{([^}]*)\})?"  # optional label set
    r"\s+(\S+)"  # value
    r"(?:\s+\d+)?$"  # optional timestamp
)
_LABEL = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')


def check_prometheus(path: str) -> int:
    """Independent grammar check of a text-format 0.0.4 exposition file.

    Deliberately written against the spec, not against the C++ exporter's
    source, so a formatting bug in the exporter cannot also hide in its
    validator. Returns the number of violations (0 = clean).
    """
    errors = []
    histogram_families = set()  # TYPE histogram names awaiting +Inf/_sum/_count
    seen_suffix = {}  # family -> set of structural suffixes observed
    saw_manifest_header = False
    with open(path) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines, 1):
        if not line:
            continue
        if line.startswith("#"):
            if "manifest_hash" in line:
                saw_manifest_header = True
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3 or not _METRIC_NAME.fullmatch(parts[2]):
                    errors.append(f"{path}:{i}: malformed {parts[1]} comment")
                elif parts[1] == "TYPE":
                    if parts[3] not in ("counter", "gauge", "histogram",
                                        "summary", "untyped"):
                        errors.append(f"{path}:{i}: unknown TYPE {parts[3]!r}")
                    elif parts[3] == "histogram":
                        histogram_families.add(parts[2])
                        seen_suffix.setdefault(parts[2], set())
            continue
        m = _SAMPLE.match(line)
        if not m:
            errors.append(f"{path}:{i}: unparseable sample line: {line!r}")
            continue
        name, labels, value = m.group(1), m.group(2), m.group(3)
        if labels is not None:
            for pair in _split_labels(labels):
                lm = _LABEL.match(pair)
                if not lm:
                    errors.append(f"{path}:{i}: bad label {pair!r}")
                elif lm.group(1) == "quantile":
                    q = float(lm.group(2))
                    if not 0.0 <= q <= 1.0:
                        errors.append(f"{path}:{i}: quantile {q} outside [0,1]")
        try:
            v = float(value)
        except ValueError:
            errors.append(f"{path}:{i}: non-numeric value {value!r}")
            continue
        for family in histogram_families:
            if name == family + "_bucket":
                if labels and 'le="+Inf"' in labels:
                    seen_suffix[family].add("+Inf")
                if math.isnan(v) or v < 0:
                    errors.append(f"{path}:{i}: negative bucket count")
            elif name == family + "_sum":
                seen_suffix[family].add("_sum")
            elif name == family + "_count":
                seen_suffix[family].add("_count")
    for family in sorted(histogram_families):
        missing = {"+Inf", "_sum", "_count"} - seen_suffix[family]
        if missing:
            errors.append(
                f"{path}: histogram {family} missing {sorted(missing)}"
            )
    if not saw_manifest_header:
        errors.append(f"{path}: no manifest_hash header comment")
    for error in errors:
        print(f"prom check failed: {error}", file=sys.stderr)
    if not errors:
        samples = sum(
            1 for l in lines if l and not l.startswith("#")
        )
        print(f"{path} ok: {samples} samples, "
              f"{len(histogram_families)} histogram families")
    return len(errors)


def _split_labels(labels: str):
    """Splits a label body on commas that are outside quoted values."""
    out, depth_quote, start = [], False, 0
    i = 0
    while i < len(labels):
        c = labels[i]
        if c == "\\" and depth_quote:
            i += 2
            continue
        if c == '"':
            depth_quote = not depth_quote
        elif c == "," and not depth_quote:
            out.append(labels[start:i])
            start = i + 1
        i += 1
    tail = labels[start:]
    if tail:
        out.append(tail)
    return out


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--check-prom":
        return 1 if check_prometheus(sys.argv[2]) else 0
    if len(sys.argv) == 3 and sys.argv[1] == "--check-kernels":
        return 1 if check_kernels_record(sys.argv[2]) else 0
    if len(sys.argv) == 3 and sys.argv[1] == "--check-serve":
        return 1 if check_serve_record(sys.argv[2]) else 0
    if len(sys.argv) == 3 and sys.argv[1] == "--check-monitor":
        return 1 if check_monitor_record(sys.argv[2]) else 0
    if len(sys.argv) == 3 and sys.argv[1] == "--check-solvers":
        return 1 if check_solvers_record(sys.argv[2]) else 0
    open_loop_path = None
    argv = list(sys.argv[1:])
    if "--open-loop" in argv:
        i = argv.index("--open-loop")
        if i + 1 >= len(argv):
            print("--open-loop needs a load_gen JSON path", file=sys.stderr)
            return 2
        open_loop_path = argv[i + 1]
        del argv[i:i + 2]
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        raw = json.load(f)

    if "benchmarks" in raw:
        out = distill_kernels(raw)
    elif raw.get("source") == "bench/serve_throughput":
        out = distill_serve(raw)
        if open_loop_path:
            merge_open_loop(out, open_loop_path)
    elif raw.get("source") == "bench/monitor_drift":
        out = distill_monitor(raw)
    elif raw.get("source") == "bench/solver_scaling":
        out = distill_solvers(raw)
    else:
        print("unrecognized raw benchmark JSON", file=sys.stderr)
        return 2

    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
