"""The three benchmark workloads: ``paper_cold``, ``policy_matrix``, ``store_reads``.

Each workload is driven from outside the program, through the public
functions of each layer.  It offers:

* ``setup()`` / ``discard_setup()`` — one set-up, timed by the runner, and
  the undoing of a set-up the run will not use (the runner sets up several
  times and keeps the last);
* ``run_pass()`` — one untraced pass of the workload's job, returning a
  :class:`Pass` (wall time, host CPU, DRAM transactions and operation
  counts);
* ``traced_pass(timers)`` — the same job with the per-layer wrappers,
  profiler or program spans switched on, returning the pass and its layer
  figures;
* ``finish()`` — tear down, plus the end-to-end figures that are only known
  once every pass has run.

Correctness is checked inside the passes; a failed check raises
:class:`OutputMismatch` or counts a failed operation, and the runner never
reports timings from a run with a failure.
"""

from __future__ import annotations

import contextlib
import cProfile
import hashlib
import io
import itertools
import json
import os
import pstats
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.perf import bench_serve
from perfbench.layers import LayerTimers, profile_self_by_package
from repro.analysis import serialize
from repro.campaign import Campaign, CampaignScheduler, get_campaign, report
from repro.cli import main as repro_cli
from repro.obs import TraceSession, merge_journals
from repro.runner import ResultCache, RunSpec, WorkerPool
from repro.scenario import resolve_scenario, spec as scenario_spec
from repro.serve import client as serve_client
from repro.serve.app import ResultsApp
from repro.sim.clock import MS
from repro.store import ResultsStore, StoreMemo
from repro.store import store as store_module
from repro.system.builder import build_system
from repro.system.experiment import run_experiment

#: The seed the bundled scenarios ship with; the benchmark's default.
DEFAULT_SEED = 2018

#: Provenance stamp for recordings (a constant keeps manifests repeatable).
RECORDED_AT = "perfbench"

#: Simulated milliseconds per point of the cold campaign.
PAPER_COLD_MS = 0.5
#: Simulated milliseconds per point of the policy matrix.
MATRIX_MS = 0.25
#: Simulated milliseconds per point of the campaigns ``store_reads`` records.
STORE_MS = 0.1
#: HTTP requests per ``store_reads`` pass, as in the service benchmark.
REQUESTS_PER_PASS = bench_serve.DEFAULT_REQUESTS
#: The service benchmark's route mix plus ``/points/<key>`` and manifests by
#: prefix; a pass cycles through it, one request per route in turn.
ROUTES = bench_serve.MIX + ("point", "manifest_prefix")

MATRIX_SCENARIOS = (
    "case_a",
    "case_b",
    "ar_glasses",
    "manycore_streaming",
    "latency_bandwidth_stress",
)
#: The policies with columnar selectors in the memory controller.
MATRIX_POLICIES = (
    "fcfs",
    "round_robin",
    "frame_rate_qos",
    "priority_qos",
    "fr_fcfs",
    "priority_rowbuffer",
)
MATRIX_TRAFFIC = (1.0, 0.2)

#: What a fresh interpreter imports before it can run a matrix point.
STACK_IMPORT = (
    "import repro.analysis.serialize, repro.scenario, "
    "repro.system.builder, repro.system.experiment"
)

#: Simulator packages whose self time the profiled pass attributes.
SIM_LAYERS = ("sim", "memctrl", "noc", "dram", "cores", "core", "traffic")


class OutputMismatch(AssertionError):
    """A program output differed from what the workload requires."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise OutputMismatch(message)


def digest(payload: Any) -> str:
    """sha256 of canonical JSON (sorted keys, no whitespace)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def usable_cpus() -> int:
    """What ``nproc`` prints: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def sim_seed(seed: int) -> int:
    """The ``--seed`` folded into the simulator's seed range."""
    return seed % (2**31)


def seeded_campaign(name: str, seed: int) -> Campaign:
    """A bundled campaign with ``platform.sim.seed`` set in every sub-grid."""
    data = get_campaign(name).to_dict()
    for subgrid in data["subgrids"].values():
        subgrid["settings"] = {**subgrid["settings"], "platform.sim.seed": sim_seed(seed)}
    return Campaign.from_dict(data)


@contextlib.contextmanager
def no_campaign_run():
    """The service benchmark's resolution trap, plus ``CampaignScheduler.run``.

    A warm report that misses the store's fast path falls through to the
    CLI's live path, which runs the campaign; here that raises instead.
    """

    def banned(*_args, **_kwargs):
        raise AssertionError("a store read ran a campaign")

    saved = CampaignScheduler.run
    CampaignScheduler.run = banned
    try:
        with bench_serve._no_resolution_allowed():
            yield
    finally:
        CampaignScheduler.run = saved


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Pass:
    """One pass of a workload's job."""

    wall_s: float
    #: Host CPU and the transactions it bought: ``host_us_per_txn``'s terms.
    cpu_s: float
    txns: int
    attempted: int
    failed: int = 0
    #: Workload-specific timings of the pass (seconds unless named ``_ms``).
    parts: Dict[str, Any] = field(default_factory=dict)


def patch_campaign_layers(timers: LayerTimers) -> None:
    """Wrap the campaign, store, cache and serialization entry points."""
    timers.patch_method(CampaignScheduler, "plan", "campaign.plan")
    timers.patch_method(StoreMemo, "probe", "campaign.memo_probe")
    timers.patch_method(StoreMemo, "get", "campaign.splice")
    for name in (
        "campaign_report_md",
        "campaign_report_payload",
        "subgrid_report_md",
        "subgrid_report_payload",
        "points_csv",
    ):
        timers.patch_function(getattr(report, name), "campaign.report_render")
    timers.patch_function(store_module.narrative_md, "campaign.report_render")
    timers.patch_method(ResultsStore, "put_artifact", "store.put_artifact")
    timers.patch_method(ResultsStore, "put_manifest", "store.put_manifest")
    timers.patch_method(ResultsStore, "record_partial", "store.record_partial")
    timers.patch_method(ResultsStore, "read_artifact", "store.read_artifact")
    timers.patch_method(ResultsStore, "read_artifact_bytes", "store.read_artifact")
    timers.patch_method(ResultCache, "put", "runner.cache_write")
    timers.patch_function(scenario_spec.resolve_scenario, "scenario.resolve")
    timers.patch_function(serialize.experiment_result_to_dict, "analysis.serialize")


def campaign_layer_metrics(timers: LayerTimers, outcome: Any) -> Dict[str, float]:
    """Parent-side campaign and store figures of one traced campaign run."""
    self_s = timers.self_s
    return {
        "campaign.plan_s": self_s["campaign.plan"],
        "campaign.report_render_s": self_s["campaign.report_render"],
        "campaign.memo_probe_s": self_s["campaign.memo_probe"],
        "campaign.splice_s": self_s["campaign.splice"],
        "campaign.reused_points": outcome.stats.reused_points,
        "store.put_artifact_s": self_s["store.put_artifact"],
        "store.put_artifact_calls": timers.calls["store.put_artifact"],
        "store.put_manifest_s": self_s["store.put_manifest"],
        "store.record_partial_s": self_s["store.record_partial"],
        "store.read_artifact_s": self_s["store.read_artifact"],
        "runner.cache_write_s": self_s["runner.cache_write"],
        "runner.retries": outcome.stats.retries,
        "analysis.serialize_s": self_s["analysis.serialize"],
        "scenario.resolve_s": self_s["scenario.resolve"],
    }


def checks_held(outcome: Any) -> int:
    """How many of a campaign outcome's paper checks hold."""
    return sum(
        check.passed
        for subgrid in outcome.subgrids()
        for _, check in outcome.checks(subgrid.name)
    )


def distinct_results(outcome: Any) -> Dict[str, Any]:
    """Cache key -> result for every distinct point of a campaign outcome."""
    found: Dict[str, Any] = {}
    for name, points in outcome.points.items():
        for key, (_, _, result) in zip(outcome.cache_keys[name], points):
            found[key] = result
    return found


def simulated_stats(results: List[Any]) -> Dict[str, float]:
    """Transaction-weighted simulated figures (simulated time, not host)."""
    txns = sum(result.served_transactions for result in results)
    if not txns:
        return {"memctrl.served_txns": 0, "memctrl.avg_latency_ns": 0.0, "dram.row_hit_rate": 0.0}
    return {
        "memctrl.served_txns": txns,
        "memctrl.avg_latency_ns": sum(
            r.average_latency_ps * r.served_transactions for r in results
        ) / txns / 1000.0,
        "dram.row_hit_rate": sum(
            r.dram_row_hit_rate * r.served_transactions for r in results
        ) / txns,
    }


# --------------------------------------------------------------------------- #
# paper_cold
# --------------------------------------------------------------------------- #
class PaperCold:
    """A cold ``paper_figures`` campaign on the warm worker pool.

    Every pass starts from an empty result cache and an empty store,
    records to the store and renders the markdown report, as
    ``repro campaign run paper_figures --jobs N --store-dir S --cache-dir C``
    does.  Set-up is the worker pool's start.
    """

    name = "paper_cold"

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.jobs = usable_cpus()
        self.campaign = seeded_campaign("paper_figures", seed)
        self.scheduler = CampaignScheduler(self.campaign, duration_ms=PAPER_COLD_MS)
        self.pool: Optional[WorkerPool] = None
        self.pool_start_cpu: List[float] = []
        self.pool_cpu_from = 0.0
        self.passes = 0
        self.report_digest: Optional[str] = None
        self.checks_held = 0

    def setup(self) -> None:
        self.pool_cpu_from = children_cpu_s()
        self.pool = WorkerPool(self.jobs)
        self.pool.start()

    def discard_setup(self) -> None:
        self.pool.close()
        self.pool = None
        self.pool_start_cpu.append(children_cpu_s() - self.pool_cpu_from)

    def _campaign(self, pool: WorkerPool, trace: Optional[TraceSession] = None):
        """One cold campaign: run, record, render.  Returns outcome and report."""
        self.passes += 1
        base = self.workdir / f"pass{self.passes}"
        cache = ResultCache(base / "cache")
        store = ResultsStore(base / "store")
        outcome = self.scheduler.run(
            jobs=self.jobs,
            pool=pool,
            cache=cache,
            store=store,
            recorded_at=RECORDED_AT,
            trace=trace,
        )
        rendered = report.campaign_report_md(outcome)
        return outcome, rendered, base, cache, store

    def _check(self, outcome, rendered: str, cache, store) -> None:
        require(not outcome.quarantined, f"quarantined points: {sorted(outcome.quarantined)}")
        problems = store.verify(cache=cache)
        require(not problems, f"store verify: {problems[:3]}")
        manifest = store.get_manifest(self.scheduler.fingerprint())
        require(manifest is not None, "the run recorded no manifest")
        recorded = store.read_artifact(manifest.artifacts["report_md"])
        require(recorded == rendered, "recorded report differs from the rendered one")
        report_digest = digest(rendered)
        if self.report_digest is None:
            self.report_digest = report_digest
        require(report_digest == self.report_digest, "report bytes differ between passes")
        self.checks_held = checks_held(outcome)

    def run_pass(self) -> Pass:
        cpu0 = time.process_time()
        started = time.perf_counter()
        outcome, rendered, base, cache, store = self._campaign(self.pool)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu0
        self._check(outcome, rendered, cache, store)
        txns = sum(r.served_transactions for r in distinct_results(outcome).values())
        shutil.rmtree(base)
        points = sum(len(points) for points in outcome.points.values())
        return Pass(wall, cpu, txns, attempted=points + 2)

    def traced_pass(self, timers: LayerTimers) -> Tuple[Pass, Dict[str, float]]:
        """A cold campaign on a fresh pool spawned inside a trace session.

        Workers only journal spans when the session exists before they
        spawn, so this pass cannot use the warm pool from set-up.
        """
        journal = self.workdir / "journal"
        session = TraceSession(journal_dir=journal)
        pool = WorkerPool(self.jobs)
        try:
            patch_campaign_layers(timers)
            began = time.perf_counter()
            pool.start()
            pool_start_s = time.perf_counter() - began
            cpu0 = time.process_time()
            started = time.perf_counter()
            outcome, rendered, base, cache, store = self._campaign(pool, trace=session)
            wall = time.perf_counter() - started
            cpu = time.process_time() - cpu0
        finally:
            pool.close()  # workers flush their last spans on the way out
            timers.restore()
            session.close()
        self._check(outcome, rendered, cache, store)
        events = merge_journals(journal)
        shutil.rmtree(journal)
        shutil.rmtree(base)
        results = list(distinct_results(outcome).values())
        layers = campaign_layer_metrics(timers, outcome)
        workers = self._worker_phases(events, wall)
        layers["scenario.resolve_s"] += workers.pop("scenario.resolve_s")
        layers.update(workers)
        layers.update(simulated_stats(results))
        layers["runner.pool_start_s"] = pool_start_s
        layers["campaign.checks_held"] = self.checks_held
        txns = sum(r.served_transactions for r in results)
        points = sum(len(points) for points in outcome.points.values())
        return Pass(wall, cpu, txns, attempted=points + 2), layers

    def _worker_phases(self, events: List[dict], wall: float) -> Dict[str, float]:
        """Worker-side figures from the spans the program writes under tracing."""
        spans = [
            e
            for e in events
            if e.get("ev") == "span" and str(e.get("proc", "")).startswith("pool-worker")
        ]

        def total_s(name: str) -> float:
            return sum(e["dur_us"] for e in spans if e["name"] == name) / 1e6

        batches = sum(1 for e in spans if e["name"] == "worker.batch")
        busy = total_s("worker.batch")
        sim_s = total_s("experiment.sim")
        fired = sum(
            e.get("attrs", {}).get("fired_events", 0)
            for e in spans
            if e["name"] == "experiment.sim"
        )
        require(batches > 0, "the traced run recorded no worker.batch spans")
        require(
            busy <= self.jobs * wall,
            f"worker busy {busy:.3f}s exceeds jobs x wall = {self.jobs * wall:.3f}s",
        )
        return {
            "runner.worker_busy_s": busy,
            "runner.worker_idle_frac": 1.0 - busy / (self.jobs * wall),
            "runner.batches": batches,
            "scenario.resolve_s": total_s("experiment.resolve"),
            "system.build_s": total_s("experiment.build"),
            "sim.wall_s": sim_s,
            "sim.fired_events": fired,
            "sim.host_ns_per_event": sim_s / fired * 1e9 if fired else 0.0,
        }

    def untraced_layers(self, passes: List[Pass]) -> Dict[str, float]:
        return {"campaign.checks_held": self.checks_held}

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def finish(self) -> Dict[str, float]:
        """Close the pool; children CPU of the passes and peak RSS."""
        self.close()
        workers_cpu = children_cpu_s() - self.pool_cpu_from
        if self.pool_start_cpu:
            workers_cpu -= statistics.median(self.pool_start_cpu)
        children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return {"workers_cpu_s": workers_cpu, "peak_rss_mb": max(self_rss_mb(), children_rss)}


# --------------------------------------------------------------------------- #
# policy_matrix
# --------------------------------------------------------------------------- #
class PolicyMatrix:
    """Every bundled scenario under every columnar policy, in-process.

    No pool, cache or store: each point is resolved, built, simulated and
    serialized through the layers' public functions.  Each pass runs the
    whole matrix at traffic 1.0, then again at traffic 0.2.
    """

    name = "policy_matrix"

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = sim_seed(seed)
        self.points: List[RunSpec] = []
        self.digests: Optional[List[str]] = None

    def setup(self) -> None:
        """Load the simulator stack in a fresh interpreter, generate the points.

        The stack is already imported in this process, so the import a user
        pays before the first point is timed in a child interpreter; one
        short point then finishes any lazy set-up in this one.
        """
        subprocess.run([sys.executable, "-c", STACK_IMPORT], check=True)
        self.points = [
            RunSpec(
                scenario=scenario,
                policy=policy,
                duration_ps=int(MATRIX_MS * MS),
                traffic_scale=scale,
                seed=self.seed,
                keep_trace=False,
            )
            for scale in MATRIX_TRAFFIC
            for scenario in MATRIX_SCENARIOS
            for policy in MATRIX_POLICIES
        ]
        warm = resolve_scenario("case_b", duration_ps=MS // 100, seed=self.seed)
        run_experiment(scenario=warm, keep_trace=False, system=build_system(warm))

    def discard_setup(self) -> None:
        self.points = []

    def _point(self, point: RunSpec, timers: Optional[LayerTimers], profile):
        def timed(layer, function):
            return function if timers is None else timers.wrap(layer, function)

        # A fresh spec per pass: resolution is memoized on the instance.
        resolved = timed("scenario.resolve", replace(point).resolved_scenario)()
        system = timed("system.build", build_system)(resolved)
        run = timed("sim.run_experiment", run_experiment)
        started = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            result = run(scenario=resolved, keep_trace=False, system=system)
        finally:
            if profile is not None:
                profile.disable()
        sim_s = time.perf_counter() - started
        payload = timed("analysis.serialize", serialize.experiment_result_to_dict)(
            result, include_trace=False
        )
        return result, system.engine.fired_events, sim_s, digest(payload)

    def _matrix(self, timers=None, profile=None):
        digests: List[str] = []
        results = []
        cpu = {scale: 0.0 for scale in MATRIX_TRAFFIC}
        txns = {scale: 0 for scale in MATRIX_TRAFFIC}
        fired = 0
        sim_s = 0.0
        started = time.perf_counter()
        for point in self.points:
            cpu0 = time.process_time()
            result, events, point_sim_s, point_digest = self._point(point, timers, profile)
            cpu[point.traffic_scale] += time.process_time() - cpu0
            txns[point.traffic_scale] += result.served_transactions
            digests.append(point_digest)
            results.append(result)
            fired += events
            sim_s += point_sim_s
        wall = time.perf_counter() - started
        if self.digests is None:
            self.digests = digests
        mismatched = [
            f"{p.scenario}/{p.policy}@{p.traffic_scale}"
            for p, a, b in zip(self.points, digests, self.digests)
            if a != b
        ]
        require(not mismatched, f"result digests differ between passes: {mismatched[:3]}")
        parts = {"fired": fired, "sim_s": sim_s, "cpu": cpu, "txns": txns}
        one_pass = Pass(wall, cpu[1.0], txns[1.0], attempted=len(self.points), parts=parts)
        return one_pass, results

    def run_pass(self) -> Pass:
        return self._matrix()[0]

    def traced_pass(self, timers: LayerTimers) -> Tuple[Pass, Dict[str, float]]:
        profile = cProfile.Profile()
        one_pass, results = self._matrix(timers, profile)
        by_package = profile_self_by_package(pstats.Stats(profile))
        profiled_total = sum(by_package.values())
        require(
            profiled_total <= one_pass.wall_s,
            f"profiled self time {profiled_total:.3f}s exceeds the pass's "
            f"wall time {one_pass.wall_s:.3f}s",
        )
        layers: Dict[str, float] = {}
        for layer in SIM_LAYERS:
            self_s = by_package.get(layer, 0.0)
            layers[f"{layer}.self_s"] = self_s
            layers[f"{layer}.share"] = self_s / profiled_total if profiled_total else 0.0
        layers["scenario.resolve_s"] = timers.self_s["scenario.resolve"]
        layers["system.build_s"] = timers.self_s["system.build"]
        layers["analysis.serialize_s"] = timers.self_s["analysis.serialize"]
        layers["sim.fired_events"] = one_pass.parts["fired"]
        layers.update(simulated_stats(results))
        return one_pass, layers

    def untraced_layers(self, passes: List[Pass]) -> Dict[str, float]:
        layers = {
            f"sim.host_us_per_txn_{half}": sum(p.parts["cpu"][scale] for p in passes)
            / sum(p.parts["txns"][scale] for p in passes)
            * 1e6
            for half, scale in (("full", 1.0), ("light", 0.2))
        }
        fired = sum(p.parts["fired"] for p in passes)
        layers["sim.host_ns_per_event"] = sum(p.parts["sim_s"] for p in passes) / fired * 1e9
        layers["sim.wall_s"] = statistics.median(p.parts["sim_s"] for p in passes)
        return layers

    def close(self) -> None:
        pass

    def finish(self) -> Dict[str, float]:
        return {"peak_rss_mb": self_rss_mb()}


# --------------------------------------------------------------------------- #
# store_reads
# --------------------------------------------------------------------------- #
class StoreReads:
    """Reads of a recorded store: a reuse re-run, the warm report, HTTP GETs.

    Before any set-up, a child process records ``paper_figures`` and
    ``extended`` through ``repro campaign run --store-dir``, once and
    untimed, so the simulator's time and memory stay out of every figure
    of this workload.  A set-up starts the results service on that store.
    A pass re-runs ``paper_figures`` in-process into a fresh cache (every
    point is reused from the store), serves the warm ``campaign report
    --store-dir`` fast path through the CLI, and sends the request mix over
    one keep-alive connection.
    """

    name = "store_reads"

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.campaigns = {
            name: seeded_campaign(name, seed) for name in ("paper_figures", "extended")
        }
        self.scheduler = CampaignScheduler(self.campaigns["paper_figures"], duration_ms=STORE_MS)
        self.server: Optional[serve_client.BackgroundResultsServer] = None
        self.client: Optional[serve_client.ResultsClient] = None
        self.requests: List[Tuple[str, Optional[str]]] = []
        self.cold_report = ""
        self.passes = 0
        self.store_dir = self._record()

    def _record(self) -> Path:
        """Record both campaigns into a store in a child process."""
        recorded = self.workdir / "store"
        cache = self.workdir / "record-cache"
        for name, campaign in self.campaigns.items():
            path = self.workdir / f"{name}.json"
            campaign.save(path)
            require(
                CampaignScheduler(get_campaign(str(path)), duration_ms=STORE_MS).fingerprint()
                == CampaignScheduler(campaign, duration_ms=STORE_MS).fingerprint(),
                f"the saved {name} file does not reproduce the campaign's fingerprint",
            )
            subprocess.run(
                [
                    sys.executable, "-m", "repro", "campaign", "run", str(path),
                    "--duration-ms", str(STORE_MS),
                    "--jobs", str(usable_cpus()),
                    "--store-dir", str(recorded),
                    "--cache-dir", str(cache),
                ],
                check=True,
                stdout=subprocess.DEVNULL,
            )
        shutil.rmtree(cache)
        manifests = ResultsStore(recorded).manifests()
        require(len(manifests) == 2, f"recorded {len(manifests)} manifest(s), not 2")
        return recorded

    def setup(self) -> None:
        store = ResultsStore(self.store_dir)
        self.server = serve_client.BackgroundResultsServer(self.store_dir).start()
        self.client = serve_client.ResultsClient(self.server.host, self.server.port)
        self.requests = self._request_mix(store)
        # Fill the service's caches: every target once, before any timing.
        for path in dict.fromkeys(path for path, _ in self.requests):
            status = self.client.get(path).status
            require(status == 200, f"warm-up GET {path} answered {status}")
        manifest = store.get_manifest(self.scheduler.fingerprint())
        self.cold_report = store.read_artifact(manifest.artifacts["report_md"])

    def discard_setup(self) -> None:
        self.close()

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    def _request_mix(self, store: ResultsStore) -> List[Tuple[str, Optional[str]]]:
        """(path, ETag to send or ``None``) per request, cycling through ROUTES.

        Each route walks its targets (every report, artifact, manifest or
        point the store holds) in a seeded order, so every target is asked
        for about equally often whatever the seed.
        """
        reports: List[Tuple[str, str]] = []
        artifacts, points, manifests = [], [], []
        for manifest in store.manifests():
            fingerprint = manifest.fingerprint
            manifests.append(fingerprint)
            reports.extend(
                (f"/reports/{fingerprint}/{name}", ref.digest)
                for name, ref in manifest.artifacts.items()
            )
            for entry in manifest.subgrids:
                reports.extend(
                    (f"/reports/{fingerprint}/{entry.name}/{name}", ref.digest)
                    for name, ref in entry.artifacts.items()
                )
                artifacts.extend(f"/artifacts/{ref.digest}" for ref in entry.artifacts.values())
                for record in entry.points:
                    points.append(f"/points/{record.cache_key}")
                    if record.result is not None:
                        artifacts.append(f"/artifacts/{record.result.digest}")
        targets = {
            "report": [(path, None) for path, _ in reports],
            "report_304": reports,
            "artifact": [(path, None) for path in artifacts],
            "manifests": [("/manifests", None)],
            "manifest": [(f"/manifests/{fp}", None) for fp in manifests],
            "healthz": [("/healthz", None)],
            "point": [(path, None) for path in points],
            "manifest_prefix": [(f"/manifests/{fp[:12]}", None) for fp in manifests],
        }
        rng = random.Random(self.seed)
        cycles = {}
        for route, items in targets.items():
            items = list(items)
            rng.shuffle(items)
            cycles[route] = itertools.cycle(items)
        return [next(cycles[ROUTES[index % len(ROUTES)]]) for index in range(REQUESTS_PER_PASS)]

    def _reuse(self) -> Tuple[Any, str]:
        self.passes += 1
        cache_dir = self.workdir / f"reuse-cache{self.passes}"
        outcome = self.scheduler.run(
            jobs=1,
            cache=ResultCache(cache_dir),
            store=ResultsStore(self.store_dir),
            recorded_at=RECORDED_AT,
        )
        rendered = report.campaign_report_md(outcome)
        shutil.rmtree(cache_dir)
        return outcome, rendered

    def _warm_report(self) -> str:
        """The CLI's store-backed report; simulating or resolving raises."""
        output = self.workdir / "report.md"
        argv = [
            "campaign", "report", str(self.workdir / "paper_figures.json"),
            "--duration-ms", str(STORE_MS),
            "--store-dir", str(self.store_dir),
            "--output", str(output),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = repro_cli(argv)
        require(code == 0, f"campaign report exited {code}")
        return output.read_text(encoding="utf-8")

    def _serve(self) -> Tuple[List[float], int, int]:
        """The request mix; returns latencies, 304 count and failed requests."""
        latencies: List[float] = []
        not_modified = failed = 0
        for path, etag in self.requests:
            started = time.perf_counter()
            reply = self.client.get(path, etag=etag)
            latencies.append(time.perf_counter() - started)
            if etag is not None:
                ok = reply.status == 304 and reply.etag == etag
                not_modified += ok
            else:
                # Every route but the uncached liveness probe sends an ETag.
                ok = reply.status == 200 and (
                    path == "/healthz"
                    or hashlib.sha256(reply.body).hexdigest() == reply.etag
                )
            failed += not ok
        return latencies, not_modified, failed

    def _pass(self) -> Tuple[Pass, Any]:
        """One pass; also returns the reuse run's outcome."""
        cpu0 = time.process_time()
        started = time.perf_counter()
        outcome, rendered = self._reuse()
        reused = time.perf_counter()
        with no_campaign_run():
            warm = self._warm_report()
            reported = time.perf_counter()
            latencies, not_modified, failed = self._serve()
        ended = time.perf_counter()
        cpu = time.process_time() - cpu0
        require(outcome.stats.executed == 0, f"reuse run simulated {outcome.stats.executed} point(s)")
        require(rendered == self.cold_report, "reuse report differs from the cold recording")
        require(warm == self.cold_report + "\n", "warm report differs from the cold recording")
        # Reused points, the warm report and the requests: a count the
        # simulator cannot change.
        operations = outcome.stats.reused_points + 1 + len(latencies)
        one_pass = Pass(
            ended - started,
            cpu,
            operations,
            attempted=operations,
            failed=failed,
            parts={
                "reuse_s": reused - started,
                "report_ms": (reported - reused) * 1e3,
                "latencies": latencies,
                "serve_s": ended - reported,
                "not_modified": not_modified,
            },
        )
        return one_pass, outcome

    def run_pass(self) -> Pass:
        return self._pass()[0]

    def traced_pass(self, timers: LayerTimers) -> Tuple[Pass, Dict[str, float]]:
        cache = self.server.app.blob_cache
        hits0, misses0 = cache.hits, cache.misses
        patch_campaign_layers(timers)
        timers.patch_method(ResultsApp, "__call__", "serve.app")
        try:
            one_pass, outcome = self._pass()
        finally:
            timers.restore()
        latencies = one_pass.parts["latencies"]
        lookups = (cache.hits - hits0) + (cache.misses - misses0)
        layers = campaign_layer_metrics(timers, outcome)
        layers.update(
            {
                "serve.app_s": timers.self_s["serve.app"],
                "serve.http_overhead_ms": (
                    sum(latencies) - timers.self_s["serve.app"]
                ) / len(latencies) * 1e3,
                "serve.blob_cache_hit_ratio": (cache.hits - hits0) / lookups if lookups else 0.0,
                "serve.not_modified_ratio": one_pass.parts["not_modified"] / len(latencies),
            }
        )
        return one_pass, layers

    def untraced_layers(self, passes: List[Pass]) -> Dict[str, float]:
        latencies = sorted(t for p in passes for t in p.parts["latencies"])
        return {
            "campaign.reuse_s": statistics.median(p.parts["reuse_s"] for p in passes),
            "cli.report_ms": statistics.median(p.parts["report_ms"] for p in passes),
            "serve.p50_ms": bench_serve._percentile(latencies, 0.50) * 1e3,
            "serve.p99_ms": bench_serve._percentile(latencies, 0.99) * 1e3,
            "serve.rps": len(latencies) / sum(p.parts["serve_s"] for p in passes),
        }

    def finish(self) -> Dict[str, float]:
        self.close()
        return {"peak_rss_mb": self_rss_mb()}


WORKLOADS = {cls.name: cls for cls in (PaperCold, PolicyMatrix, StoreReads)}
