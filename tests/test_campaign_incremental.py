"""Incremental campaigns: schedule-time reuse through the point index.

The tentpole contract under test: a campaign run against a store that
already recorded an overlapping campaign must simulate only the delta.
Shared points are spliced in from their recorded result blobs with **zero
scenario resolutions and zero simulator invocations** (booby-trapped, not
just counted), the rendered rows are byte-identical to a cold run, and the
new manifest's reused points reference the *existing* blobs.  Everything
suspect — quarantined records, tampered blobs, stale index entries — reads
as a miss and heals by re-simulating.
"""

from __future__ import annotations

import io
import os
import re
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import repro.runner.executor as executor_mod
import repro.runner.sweep as sweep_mod
from repro.campaign import Campaign, CampaignScheduler, SubGrid
from repro.cli import main
from repro.runner import ResultCache
from repro.store import PointEntry, ResultsStore
from repro.store.manifest import canonical_json

SRC = str(Path(__file__).resolve().parent.parent / "src")
STAMP = "2026-08-08T12:00:00+00:00"
DURATION_MS = 0.25
TRAFFIC = 0.1
ALL_POLICIES = ["fcfs", "priority_qos", "round_robin", "frame_rate_qos"]


def _campaign(name: str, policies=ALL_POLICIES[:2]) -> Campaign:
    return Campaign(
        name=name,
        duration_ms=DURATION_MS,
        traffic_scale=TRAFFIC,
        subgrids=(
            SubGrid(name="policies", scenario="case_b", axes={"policy": policies}),
        ),
    )


def _record(root, name: str = "incr_a", policies=ALL_POLICIES[:2]):
    """Record one campaign into a fresh store: (store, scheduler, outcome)."""
    store = ResultsStore(root / "store")
    cache = ResultCache(root / f"cache-{name}")
    scheduler = CampaignScheduler(_campaign(name, policies))
    outcome = scheduler.run(cache=cache, store=store, recorded_at=STAMP)
    return store, scheduler, outcome


def _banned(*_args, **_kwargs):  # pragma: no cover - failure path
    raise AssertionError("incremental run resolved a scenario or simulated a point")


def _invoke(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


_SUMMARY = re.compile(
    r"^campaign \S+: .*?(?P<hits>\d+) cache hit\(s\), "
    r"(?:(?P<reused>\d+) reused, )?(?P<executed>\d+) executed"
)


def _telemetry(output: str):
    for line in output.splitlines():
        match = _SUMMARY.match(line)
        if match:
            return (
                int(match.group("hits")),
                int(match.group("reused") or 0),
                int(match.group("executed")),
            )
    raise AssertionError(f"no campaign summary line in output:\n{output}")


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    """Campaign A recorded into a fresh store: (root, store, scheduler_a)."""
    root = tmp_path_factory.mktemp("incremental")
    store, scheduler, _ = _record(root)
    return root, store, scheduler


@pytest.fixture(scope="module")
def full_overlap(seeded):
    """Campaign B (same points, different name) run with every resolution
    and execution path booby-trapped — the run only completes at all if the
    index serves every point."""
    root, store, scheduler_a = seeded
    mp = pytest.MonkeyPatch()
    try:
        mp.setattr(sweep_mod.RunSpec, "resolved_scenario", _banned)
        mp.setattr(executor_mod, "run_experiment_timed", _banned)
        scheduler_b = CampaignScheduler(_campaign("incr_b"))
        cache_b = ResultCache(root / "cache-b")
        outcome = scheduler_b.run(cache=cache_b, store=store, recorded_at=STAMP)
    finally:
        mp.undo()
    return scheduler_a, scheduler_b, outcome, cache_b


class TestFullOverlap:
    """50 %→100 % of the acceptance criterion: the booby-trapped reuse run."""

    def test_every_point_reused_nothing_executed(self, full_overlap):
        _, _, outcome, _ = full_overlap
        assert outcome.stats.reused_points == 2
        assert outcome.stats.executed == 0
        assert outcome.stats.cache_hits == 0
        assert outcome.stats.index_lookup_s > 0.0
        assert "2 reused" in outcome.stats.summary()

    def test_distinct_fingerprints_share_rows_byte_for_byte(
        self, seeded, full_overlap
    ):
        _, store, scheduler_a = seeded
        _, scheduler_b, _, _ = full_overlap
        manifest_a = store.get_manifest(scheduler_a.fingerprint())
        manifest_b = store.get_manifest(scheduler_b.fingerprint())
        assert manifest_a.fingerprint != manifest_b.fingerprint
        rows_a = manifest_a.subgrid("policies").rows
        rows_b = manifest_b.subgrid("policies").rows
        assert canonical_json(list(rows_b)) == canonical_json(list(rows_a))

    def test_reused_points_reference_the_existing_blobs(self, seeded, full_overlap):
        _, store, scheduler_a = seeded
        _, scheduler_b, _, _ = full_overlap
        points_a = store.get_manifest(scheduler_a.fingerprint()).subgrid("policies").points
        points_b = store.get_manifest(scheduler_b.fingerprint()).subgrid("policies").points
        by_label = {p.label: p for p in points_a}
        for point in points_b:
            original = by_label[point.label]
            assert point.cache_key == original.cache_key
            assert point.memo_key == original.memo_key
            assert point.result == original.result  # same blob, not a copy

    def test_reuse_backfills_the_local_cache(self, full_overlap):
        scheduler_a, scheduler_b, _, cache_b = full_overlap
        # The cold cache now holds both points, so a later --resume (or a
        # run against a storeless setup) finds them without the index.
        assert cache_b.entries() == 2
        for run in scheduler_b.plan():
            assert run.spec.key() in cache_b

    def test_dry_run_classifies_without_resolving(self, seeded):
        _, store, _ = seeded
        mp = pytest.MonkeyPatch()
        try:
            mp.setattr(sweep_mod.RunSpec, "resolved_scenario", _banned)
            mp.setattr(executor_mod, "run_experiment_timed", _banned)
            plan = CampaignScheduler(_campaign("incr_dry")).dry_run(store=store)
        finally:
            mp.undo()
        assert plan == {
            "policies": {"points": 2, "to_simulate": 0, "reused": 2, "cache_hits": 0}
        }


class TestPartialOverlap:
    def test_only_the_delta_simulates_and_shared_rows_match(self, tmp_path):
        store, scheduler_a, _ = _record(tmp_path)
        calls = []
        real_resolve = sweep_mod.resolve_scenario

        def counting_resolve(*args, **kwargs):
            calls.append(args)
            return real_resolve(*args, **kwargs)

        mp = pytest.MonkeyPatch()
        try:
            mp.setattr(sweep_mod, "resolve_scenario", counting_resolve)
            scheduler_c = CampaignScheduler(_campaign("incr_c", ALL_POLICIES))
            cache_c = ResultCache(tmp_path / "cache-c")
            outcome = scheduler_c.run(cache=cache_c, store=store, recorded_at=STAMP)
        finally:
            mp.undo()
        assert outcome.stats.reused_points == 2
        assert outcome.stats.executed == 2
        # Only the two cold points resolved their scenarios (once each:
        # plan-time cost estimate and execution share the memoized result).
        assert len(calls) == 2

        manifest_a = store.get_manifest(scheduler_a.fingerprint())
        manifest_c = store.get_manifest(scheduler_c.fingerprint())
        rows_a = {row["point"]: row for row in manifest_a.subgrid("policies").rows}
        points_a = {p.label: p for p in manifest_a.subgrid("policies").points}
        entry_c = manifest_c.subgrid("policies")
        shared = 0
        for point, row in zip(entry_c.points, entry_c.rows):
            if point.label in points_a:
                shared += 1
                assert canonical_json(dict(row)) == (
                    canonical_json(dict(rows_a[point.label]))
                )
                assert point.result == points_a[point.label].result
        assert shared == 2


class TestReuseEdgeCases:
    def test_quarantined_index_entries_are_never_reused(self, tmp_path):
        store, _, _ = _record(tmp_path)
        index = store.point_index
        for entry in list(index.entries()):
            index.update(
                {
                    entry.cache_key: PointEntry.from_dict(
                        entry.cache_key,
                        {**entry.to_dict(), "status": "quarantined"},
                    )
                },
                {},
            )
        outcome = CampaignScheduler(_campaign("incr_q")).run(
            cache=ResultCache(tmp_path / "cache-q"), store=store, recorded_at=STAMP
        )
        assert outcome.stats.reused_points == 0
        assert outcome.stats.executed == 2

    def test_tampered_result_blob_falls_back_to_live_simulation(self, tmp_path):
        store, scheduler_a, _ = _record(tmp_path)
        manifest_a = store.get_manifest(scheduler_a.fingerprint())
        victim = manifest_a.subgrid("policies").points[0]
        blob = store.artifact_path(victim.result)
        blob.write_bytes(b'{"forged": true}')

        scheduler_b = CampaignScheduler(_campaign("incr_t"))
        outcome = scheduler_b.run(
            cache=ResultCache(tmp_path / "cache-t"), store=store, recorded_at=STAMP
        )
        # The tampered point re-simulated; the healthy one was reused.
        assert outcome.stats.executed == 1
        assert outcome.stats.reused_points == 1
        # The fallback row is the *correct* one: identical to the recording
        # made before the tampering.
        manifest_b = store.get_manifest(scheduler_b.fingerprint())
        assert canonical_json(list(manifest_b.subgrid("policies").rows)) == (
            canonical_json(list(manifest_a.subgrid("policies").rows))
        )
        # Healing means correct *results*, not silently rewriting the blob:
        # the content address still exposes the tampering to `store verify`.
        assert blob.read_bytes() == b'{"forged": true}'
        assert any("tampered or corrupt" in p for p in store.verify())

    def test_stale_index_after_gc_reads_as_miss_and_heals(self, tmp_path):
        store, scheduler_a, _ = _record(tmp_path)
        # Lose the manifest behind the store's back, then gc: the blobs go,
        # the index entries stay — maximally stale.
        store.manifest_path(scheduler_a.fingerprint()).unlink()
        stale = ResultsStore(tmp_path / "store")
        stale.gc()
        assert any("references deleted manifest" in p for p in stale.verify())

        scheduler_b = CampaignScheduler(_campaign("incr_s"))
        outcome = scheduler_b.run(
            cache=ResultCache(tmp_path / "cache-s"), store=stale, recorded_at=STAMP
        )
        assert outcome.stats.reused_points == 0
        assert outcome.stats.executed == 2
        # Recording B re-indexed the points; a rebuild converges to the
        # same state and verify is clean again.
        healed = ResultsStore(tmp_path / "store")
        healed.rebuild_index()
        assert healed.verify() == []

    def test_no_reuse_opts_out_per_run(self, seeded, tmp_path):
        _, store, _ = seeded
        outcome = CampaignScheduler(_campaign("incr_n")).run(
            cache=ResultCache(tmp_path / "cache-n"),
            store=store,
            recorded_at=STAMP,
            reuse=False,
        )
        assert outcome.stats.reused_points == 0
        assert outcome.stats.executed == 2


RUN_ARGS = ["--duration-ms", "0.25", "--traffic-scale", "0.1"]


@pytest.fixture(scope="module")
def cli_store(tmp_path_factory):
    """fig5 recorded once through the real CLI: (store_dir, cache_dir)."""
    root = tmp_path_factory.mktemp("incr-cli")
    store_dir, cache_dir = str(root / "store"), str(root / "cache")
    code, _ = _invoke(
        ["campaign", "run", "paper_figures", "--subgrid", "fig5", *RUN_ARGS,
         "--store-dir", store_dir, "--cache-dir", cache_dir]
    )
    assert code == 0
    return store_dir, cache_dir


class TestCli:
    def test_dry_run_reports_reuse_across_campaign_selections(self, cli_store):
        store_dir, _ = cli_store
        code, output = _invoke(
            ["campaign", "run", "paper_figures", *RUN_ARGS,
             "--store-dir", store_dir, "--dry-run"]
        )
        assert code == 0
        assert "campaign paper_figures plan (dry run):" in output
        assert "  fig5: 4 point(s) — 0 to simulate, 4 reused from store, 0 cache hit(s)" in output
        # fig8 shares three of its points with the recorded fig5 grid — the
        # index serves them across sub-grid (and selection) boundaries.
        assert "  fig8: 5 point(s) — 2 to simulate, 3 reused from store, 0 cache hit(s)" in output
        # fig9's points duplicate cold fig6/fig7 points, so they land as
        # in-sweep dedup hits, which the stats count as cache hits.
        assert "  fig9: 2 point(s) — 0 to simulate, 0 reused from store, 2 cache hit(s)" in output
        assert "  total: 20 point(s) — 11 to simulate, 7 reused from store, 2 cache hit(s)" in output

    def test_dry_run_with_no_reuse_ignores_the_index(self, cli_store):
        store_dir, _ = cli_store
        code, output = _invoke(
            ["campaign", "run", "paper_figures", "--subgrid", "fig5", *RUN_ARGS,
             "--store-dir", store_dir, "--dry-run", "--no-reuse"]
        )
        assert code == 0
        assert "  fig5: 4 point(s) — 4 to simulate, 0 reused from store, 0 cache hit(s)" in output

    def test_overlapping_selection_simulates_only_the_delta(self, cli_store, tmp_path):
        store_dir, _ = cli_store
        code, output = _invoke(
            ["campaign", "run", "paper_figures", "--subgrid", "fig5",
             "--subgrid", "fig9", *RUN_ARGS, "--store-dir", store_dir,
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        hits, reused, executed = _telemetry(output)
        assert (hits, reused, executed) == (0, 4, 2)

    def test_store_index_rebuilds_and_verify_heals(self, cli_store):
        store_dir, _ = cli_store
        shutil.rmtree(ResultsStore(store_dir).index_dir)
        code, output = _invoke(["store", "verify", "--store-dir", store_dir])
        assert code == 1
        assert "no point index" in output
        code, output = _invoke(["store", "index", "--store-dir", store_dir])
        assert code == 0
        assert re.search(
            r"store index: rebuilt from \d+ manifest\(s\) — "
            r"\d+ point\(s\), \d+ spec mapping\(s\)",
            output,
        )
        code, output = _invoke(["store", "verify", "--store-dir", store_dir])
        assert code == 0
        assert "0 problem(s)" in output


class TestOverlapResumeAfterSigkill:
    """Reuse composes with the fault-tolerant layer: SIGKILL an overlapping
    campaign mid-delta, ``--resume``, and land on bytes identical to an
    uninterrupted live control run."""

    KILL_RUN_ARGS = ["--duration-ms", "0.5", "--traffic-scale", "0.1"]
    OVERLAP = ["campaign", "run", "paper_figures",
               "--subgrid", "fig5", "--subgrid", "fig9", *KILL_RUN_ARGS]
    SEED = ["campaign", "run", "paper_figures", "--subgrid", "fig5", *KILL_RUN_ARGS]
    TOTAL = 6  # fig5: 4 points (reused), fig9: 2 points (the delta)

    def _kill_when_cached(self, argv, store_dir, cache_dir, threshold):
        command = [
            sys.executable, "-m", "repro",
            *argv, "--store-dir", str(store_dir), "--cache-dir", str(cache_dir),
        ]
        env = {**os.environ, "PYTHONPATH": SRC}
        process = subprocess.Popen(
            command, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        entries = lambda: (  # noqa: E731 - tiny local probe
            ResultCache(cache_dir).entries() if Path(cache_dir).is_dir() else 0
        )
        deadline = time.monotonic() + 180.0
        try:
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    pytest.fail("campaign completed before the kill landed")
                if entries() >= threshold:
                    process.kill()  # SIGKILL: no atexit, no finally blocks
                    process.wait(timeout=30.0)
                    break
                time.sleep(0.01)
            else:
                pytest.fail(f"cache never reached {threshold} entries in 180s")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30.0)
        return entries()

    @staticmethod
    def _normalized(manifest) -> dict:
        data = manifest.to_dict()
        data["stats"] = None
        data["provenance"] = dict(data["provenance"], created_at=None)
        return data

    def test_killed_overlap_run_resumes_to_control_parity(self, tmp_path):
        # Control: the overlapping selection, live, in its own store.
        control_store = tmp_path / "store-ctl"
        code, _ = _invoke(
            [*self.OVERLAP, "--store-dir", str(control_store),
             "--cache-dir", str(tmp_path / "cache-ctl")]
        )
        assert code == 0
        control = ResultsStore(control_store).manifests()
        assert len(control) == 1
        control = control[0]

        # Seed fig5 into the reuse store (separate cache: the overlap run
        # must start cache-cold so reuse, not the cache, serves fig5).
        reuse_store = tmp_path / "store-b"
        code, _ = _invoke(
            [*self.SEED, "--store-dir", str(reuse_store),
             "--cache-dir", str(tmp_path / "cache-seed")]
        )
        assert code == 0

        # Kill the overlap run mid-delta: the four reused points back-fill
        # the cache almost instantly, so a threshold of five means at least
        # one — but not both — fig9 points landed.
        cache_b = tmp_path / "cache-b"
        survivors = self._kill_when_cached(
            self.OVERLAP, reuse_store, cache_b, threshold=5
        )
        assert 5 <= survivors <= self.TOTAL

        code, output = _invoke(
            [*self.OVERLAP, "--resume", "--store-dir", str(reuse_store),
             "--cache-dir", str(cache_b)]
        )
        assert code == 0
        hits, reused, executed = _telemetry(output)
        # fig5 is still served by the index on resume; the surviving fig9
        # point comes from the cache; only the lost work re-simulates.
        assert reused == 4
        assert hits == survivors - 4
        assert executed == self.TOTAL - survivors

        resumed = ResultsStore(reuse_store).get_manifest(control.fingerprint)
        assert resumed is not None
        assert self._normalized(resumed) == self._normalized(control)
