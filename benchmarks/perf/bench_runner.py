"""Perf-trajectory harness for the sweep engine: emits BENCH_runner.json.

This is the repo's tracked runner benchmark.  It times one fixed campaign —
a 32-point grid of short runs (4 policies x 8 seeds on ``case_b``,
0.25 simulated ms each), issued as four 8-point sweep calls the way a figure
module or CLI session issues them — under three execution modes:

* ``sequential_jobs1`` — everything in-process, the parity reference.
* ``cold_spawn_unbatched`` — a faithful replica of the pre-warm-pool
  orchestrator path: every sweep call builds a fresh ``spawn``
  ``multiprocessing.Pool`` directly (no initializer, no readiness
  handshake, so worker import overlaps task execution exactly as the old
  code's did) and dispatches one spec per IPC message (``chunksize=1``).
* ``warm_pool_batched`` — one persistent :class:`repro.runner.WorkerPool`
  shared by all four calls, one spec per task.  The mode keeps its
  historical name because ``--check`` reads committed baselines by it.

All three modes must produce bit-identical results (asserted).  The emitted
``BENCH_runner.json`` carries the wall-clock of each mode, the warm/cold
speedup, and the orchestrator's per-phase breakdown, so the performance
trajectory of the runner is a diffable, committed artifact: run it again
after a change and compare against ``benchmarks/perf/BENCH_runner.json``.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_runner.py --output BENCH_runner.json
    PYTHONPATH=src python benchmarks/perf/bench_runner.py \
        --check benchmarks/perf/BENCH_runner.json --tolerance 0.20

``--check`` exits non-zero when the warm-pool wall-clock regressed more than
``--tolerance`` (fractional) against the given baseline file — the CI perf
job runs exactly that.  ``--require-speedup`` additionally enforces a
minimum warm-vs-cold speedup on the fresh measurement.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.analysis.serialize import experiment_result_to_dict
from repro.runner import RunSpec, SweepStats, WorkerPool, run_sweep
from repro.scenario import load_plugins
from repro.sim.clock import MS
from repro.system.experiment import ExperimentResult, run_experiment_timed

BENCH_SCHEMA_VERSION = 1

#: The fixed campaign: 4 policies x 8 seeds = 32 points, 0.25 ms each,
#: issued as four 8-point sweep calls.  Short runs are exactly the regime the
#: warm pool exists for: per-call spawn cost is comparable to the simulation
#: work itself.
SCENARIO = "case_b"
POLICIES = ("fcfs", "round_robin", "frame_rate_qos", "priority_qos")
SEEDS = tuple(range(1, 9))
DURATION_PS = MS // 4
TRAFFIC_SCALE = 0.2
JOBS = 4


def campaign_calls() -> List[List[RunSpec]]:
    """The 32-point grid, split into one sweep call per policy."""
    return [
        [
            RunSpec(
                scenario=SCENARIO,
                policy=policy,
                duration_ps=DURATION_PS,
                traffic_scale=TRAFFIC_SCALE,
                seed=seed,
                keep_trace=False,
                label=f"{policy}/seed{seed}",
            )
            for seed in SEEDS
        ]
        for policy in POLICIES
    ]


def _execute_spec(spec: RunSpec) -> ExperimentResult:
    """Run one spec in the current process (timings discarded).

    Plugin modules are loaded first so that registrations exist in this
    process.  Execution goes through :func:`run_experiment_timed`, the same
    call the sweep's executors make, so the legacy replica below simulates
    exactly what ``run_sweep`` does.
    """
    load_plugins(spec.plugin_modules)
    result, _ = run_experiment_timed(
        spec.resolved_scenario(), keep_trace=spec.keep_trace
    )
    return result


def _legacy_cold_call(specs: List[RunSpec]) -> list:
    """One sweep call exactly as the pre-warm-pool orchestrator ran it.

    Replicates the replaced implementation line for line: a fresh ``spawn``
    pool per call with no initializer (workers import the simulator stack
    lazily, overlapping the first tasks' execution, just as the old code
    did) and one spec per IPC message.  Kept here, independent of
    ``run_sweep``, so the baseline cannot silently drift as the engine
    evolves.
    """
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes=min(JOBS, len(specs))) as pool:
        return pool.map(_execute_spec, specs, chunksize=1)


def _merge_stats(per_call: List[SweepStats]) -> Dict[str, float]:
    merged: Dict[str, float] = {}
    for stats in per_call:
        for name, seconds in stats.phases().items():
            merged[name] = merged.get(name, 0.0) + seconds
        # sim_wall is excluded from phases() (it re-describes sim_cpu's work);
        # sequential calls chain, so the campaign's wall view is the sum.
        merged["sim_wall"] = merged.get("sim_wall", 0.0) + stats.sim_wall_s
        merged["elapsed"] = merged.get("elapsed", 0.0) + stats.elapsed_s
    return {name: round(seconds, 4) for name, seconds in sorted(merged.items())}


def _run_campaign(
    mode: str, pool: Optional[WorkerPool] = None, repeats: int = 1
) -> Tuple[float, List[List[dict]], Dict[str, float]]:
    """Run the whole campaign in one mode; returns (wall_s, fingerprints, phases).

    With ``repeats > 1`` the campaign runs several times and the *minimum*
    wall-clock wins — the standard way to suppress scheduler noise in a
    tracked benchmark.  Fingerprints must agree across repeats (the runs are
    deterministic); the phase breakdown reported is the fastest repeat's.
    """
    best_wall_s = float("inf")
    best_phases: Dict[str, float] = {}
    fingerprints: List[List[dict]] = []
    for repeat in range(repeats):
        calls = campaign_calls()
        repeat_fp: List[List[dict]] = []
        per_call_stats: List[SweepStats] = []
        began = time.perf_counter()
        for specs in calls:
            if mode == "sequential_jobs1":
                results, stats = run_sweep(specs, jobs=1)
            elif mode == "cold_spawn_unbatched":
                results, stats = _legacy_cold_call(specs), None
            elif mode == "warm_pool_batched":
                results, stats = run_sweep(specs, pool=pool)
            else:  # pragma: no cover - guarded by the caller
                raise ValueError(f"unknown mode {mode!r}")
            if stats is not None:
                per_call_stats.append(stats)
            repeat_fp.append(
                [experiment_result_to_dict(r, include_trace=True) for r in results]
            )
        wall_s = time.perf_counter() - began
        if repeat == 0:
            fingerprints = repeat_fp
        else:
            assert repeat_fp == fingerprints, f"{mode}: repeats disagree"
        if wall_s < best_wall_s:
            best_wall_s = wall_s
            best_phases = _merge_stats(per_call_stats)
    return best_wall_s, fingerprints, best_phases


def run_benchmark(repeats: int = 1) -> Dict[str, object]:
    """Execute all three modes and assemble the BENCH_runner payload."""
    print(f"workload: {len(POLICIES) * len(SEEDS)}-point grid on '{SCENARIO}', "
          f"{DURATION_PS / MS:g} ms/run, {len(POLICIES)} sweep calls, jobs={JOBS}, "
          f"best of {repeats} repeat(s)")

    print("mode 1/3: sequential jobs=1 ...", flush=True)
    sequential_s, seq_fp, seq_phases = _run_campaign("sequential_jobs1", repeats=repeats)
    print(f"  {sequential_s:.2f}s")

    print("mode 2/3: cold spawn, unbatched (per-call pool) ...", flush=True)
    cold_s, cold_fp, cold_phases = _run_campaign("cold_spawn_unbatched", repeats=repeats)
    print(f"  {cold_s:.2f}s")

    print("mode 3/3: warm pool ...", flush=True)
    with WorkerPool(JOBS) as pool:
        warm_startup_s = pool.start()
        warm_s, warm_fp, warm_phases = _run_campaign(
            "warm_pool_batched", pool=pool, repeats=repeats
        )
    print(f"  {warm_s:.2f}s (+ {warm_startup_s:.2f}s one-time pool start)")

    assert seq_fp == cold_fp == warm_fp, (
        "execution modes disagree — parity broken, timings are meaningless"
    )

    speedup = cold_s / warm_s if warm_s else float("inf")
    warm_total = warm_s + warm_startup_s
    speedup_incl_startup = cold_s / warm_total if warm_total else float("inf")
    print(f"warm-pool speedup vs cold-spawn path: {speedup:.2f}x "
          f"({speedup_incl_startup:.2f}x counting the one-time pool start)")

    return {
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "workload": {
            "scenario": SCENARIO,
            "policies": list(POLICIES),
            "seeds": list(SEEDS),
            "points": len(POLICIES) * len(SEEDS),
            "duration_ms": DURATION_PS / MS,
            "traffic_scale": TRAFFIC_SCALE,
            "sweep_calls": len(POLICIES),
            "jobs": JOBS,
            "repeats": repeats,
        },
        "env": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": multiprocessing.cpu_count(),
        },
        "results": {
            "sequential_jobs1_s": round(sequential_s, 3),
            "cold_spawn_unbatched_s": round(cold_s, 3),
            "warm_pool_batched_s": round(warm_s, 3),
            "warm_pool_startup_s": round(warm_startup_s, 3),
            "speedup_warm_vs_cold": round(speedup, 3),
            "speedup_warm_incl_startup_vs_cold": round(speedup_incl_startup, 3),
            "phases": {
                "sequential_jobs1": seq_phases,
                "cold_spawn_unbatched": cold_phases,
                "warm_pool_batched": warm_phases,
            },
        },
    }


def _append_step_summary(payload: Dict[str, object], baseline: Dict[str, object]) -> None:
    """Append a before/after phase table to $GITHUB_STEP_SUMMARY when CI sets it."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    results = payload["results"]
    base_results = baseline.get("results", {})
    current_phases = results["phases"]["warm_pool_batched"]  # type: ignore[index]
    base_phases = base_results.get("phases", {}).get("warm_pool_batched", {})
    lines = [
        "## Runner benchmark (warm pool)",
        "",
        "| phase | baseline | current |",
        "|---|---|---|",
    ]
    for name in sorted(set(base_phases) | set(current_phases)):
        base_s = base_phases.get(name)
        base_text = f"{base_s:.2f}s" if isinstance(base_s, (int, float)) else "—"
        current_s = current_phases.get(name)
        current_text = (
            f"{current_s:.2f}s" if isinstance(current_s, (int, float)) else "—"
        )
        lines.append(f"| {name} | {base_text} | {current_text} |")
    base_wall = base_results.get("warm_pool_batched_s")
    base_wall_text = f"{base_wall:.2f}s" if isinstance(base_wall, (int, float)) else "—"
    lines.append(
        f"| **wall clock** | {base_wall_text} "
        f"| {results['warm_pool_batched_s']:.2f}s |"  # type: ignore[index]
    )
    lines.append("")
    with open(summary_path, "a") as handle:
        handle.write("\n".join(lines) + "\n")


def check_against_baseline(
    payload: Dict[str, object], baseline_path: str, tolerance: float
) -> int:
    """Compare the fresh warm-pool wall-clock against a committed baseline.

    Wall-clock only compares like for like: when the baseline came from a
    different machine class (CPU count or platform differ from this run's),
    the gate still applies but a loud warning asks for the baseline to be
    regenerated on this class — a too-loose limit passes silently forever
    and a too-tight one fails every run, and neither is a regression signal.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    baseline_env = baseline.get("env", {})
    current_env = payload["env"]  # type: ignore[index]
    for field in ("cpu_count", "platform"):
        if baseline_env.get(field) != current_env[field]:  # type: ignore[index]
            print(
                f"WARNING: baseline was recorded on a different machine class "
                f"({field}: {baseline_env.get(field)!r} vs {current_env[field]!r}); "  # type: ignore[index]
                f"the wall-clock gate is not calibrated for this machine — "
                f"regenerate {baseline_path} from this machine's output"
            )
            break
    baseline_warm = baseline["results"]["warm_pool_batched_s"]
    current_warm = payload["results"]["warm_pool_batched_s"]  # type: ignore[index]
    limit = baseline_warm * (1.0 + tolerance)
    print(
        f"baseline warm-pool wall-clock: {baseline_warm:.2f}s "
        f"(from {baseline_path}); current: {current_warm:.2f}s; "
        f"limit at +{tolerance * 100:.0f}%: {limit:.2f}s"
    )
    _append_step_summary(payload, baseline)
    if current_warm > limit:
        print("FAIL: warm-pool wall-clock regressed beyond tolerance")
        return 1
    print("OK: within tolerance")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=None, help="write the benchmark payload to this JSON file"
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE_JSON",
        help="compare against a committed BENCH_runner.json and fail on regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="fractional warm-pool wall-clock regression allowed by --check (default 0.20)",
    )
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=None,
        metavar="RATIO",
        help="fail unless warm-vs-cold speedup is at least this ratio",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="repeats per mode; the minimum wall-clock is reported (default 2)",
    )
    args = parser.parse_args(argv)

    payload = run_benchmark(repeats=max(1, args.repeats))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")

    status = 0
    if args.require_speedup is not None:
        speedup = payload["results"]["speedup_warm_vs_cold"]  # type: ignore[index]
        if speedup < args.require_speedup:
            print(
                f"FAIL: warm-vs-cold speedup {speedup:.2f}x is below the "
                f"required {args.require_speedup:.2f}x"
            )
            status = 1
    if args.check:
        status = max(status, check_against_baseline(payload, args.check, args.tolerance))
    return status


if __name__ == "__main__":
    sys.exit(main())
