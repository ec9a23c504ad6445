"""The repository benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_cold --seed 2018 --seconds 25 --trace 0

``--trace 0`` sets up several times, runs untraced passes of the workload
for about ``--seconds`` seconds and reports the end-to-end metrics named in
``BENCHMARK.json``.  ``--trace 1`` sets up once, alternates untraced passes
with traced ones (wrapper timers, ``cProfile`` or the program's own spans)
and reports the per-layer metrics instead.  The last line of standard
output is the result::

    {"correct": true, "attempted": 81, "failed": 0, "metrics": {...}}

The line before it records the host class and the seed.  Every output
check runs in every pass; a run whose outputs fail prints
``"correct": false`` with no metrics and exits 1.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Untraced passes at least, so every output check compares two passes.
MIN_PASSES = 2


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_class(nproc: int) -> dict:
    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def stop_children() -> None:
    """Stop every process ``multiprocessing`` started and wait for each.

    Closing a worker pool ends its workers, but the resource tracker that
    ``spawn`` starts alongside them otherwise outlives this process until it
    reads end-of-file on its pipe.  Semaphores still alive would re-start the
    tracker when their finalizers unregister them, so they are collected
    first.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    gc.collect()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def measure(workload, seconds: float, trace: bool):
    """Run the workload; returns (metrics, attempted, failed)."""
    from perfbench.layers import LayerTimers

    setup_times = []
    setups = 1 if trace else SETUPS
    for index in range(setups):
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)
        if index < setups - 1:
            workload.discard_setup()

    untraced, traced, layers = [], [], None
    began = time.perf_counter()
    while True:
        untraced.append(workload.run_pass())
        if trace:
            timers = LayerTimers()
            one_pass, pass_layers = workload.traced_pass(timers)
            traced.append(one_pass)
            if layers is None:
                layers = pass_layers
                self_total = sum(timers.self_s.values())
                if self_total > one_pass.wall_s:
                    raise AssertionError(
                        f"layer self times {self_total:.3f}s exceed the traced "
                        f"pass's wall time {one_pass.wall_s:.3f}s"
                    )
        runs = len(untraced) + len(traced)
        elapsed = time.perf_counter() - began
        enough = trace or len(untraced) >= MIN_PASSES
        if enough and elapsed + elapsed / runs * (2 if trace else 1) > seconds:
            break
    final = workload.finish()
    attempted = sum(p.attempted for p in untraced + traced)
    failed = sum(p.failed for p in untraced + traced)

    if trace:
        layers.update(workload.untraced_layers(untraced))
        layers["obs.trace_overhead_frac"] = (
            statistics.median(p.wall_s for p in traced)
            / statistics.median(p.wall_s for p in untraced)
            - 1.0
        )
        return layers, attempted, failed

    cpu = sum(p.cpu_s for p in untraced) + final.get("workers_cpu_s", 0.0)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "host_us_per_txn": cpu / sum(p.txns for p in untraced) * 1e6,
        "peak_rss_mb": final["peak_rss_mb"],
    }
    return metrics, attempted, failed


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Imported here, not at module level: spawned pool workers re-import
    # this file, and a checkout without the program must fail before any
    # result line is printed.
    from perfbench import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)

    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": seed,
                "default_seed": workloads.DEFAULT_SEED,
                "trace": args.trace,
                "host": host_class(workloads.usable_cpus()),
            }
        ),
        flush=True,
    )
    workload = None
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, seed)
        values, attempted, failed = measure(workload, args.seconds, bool(args.trace))
        unknown = sorted(set(values) - {m["name"] for m in declared})
        if unknown:
            raise AssertionError(f"metrics missing from BENCHMARK.json: {unknown}")
    except Exception:  # a failed operation: report it, never its timings
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        if workload is not None:
            workload.close()
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    correct = failed == 0
    metrics = (
        {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared
        }
        if correct
        else {}
    )
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
