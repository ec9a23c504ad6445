"""Chaos matrix: every fault kind on the worker pool, one invariant.

An injected fault must surface as a *retry* (result still lands,
bit-identical to the healthy baseline) or a *quarantine* (the poisoned
point alone is recorded as failed) — never a hang and never an aborted
sweep.  The fast tier samples this matrix; this module, marked ``chaos``
and run by the nightly/`run-chaos` CI job, sweeps all of it.

Run explicitly with ``pytest -m chaos``.
"""

from __future__ import annotations

import pytest

from repro.analysis.serialize import experiment_result_to_dict
from repro.runner import (
    FailurePolicy,
    PoolExecutor,
    compare_policies_specs,
    run_sweep,
)
from repro.runner.faults import ENV_FAULT, ENV_FAULT_DIR, FaultPlan
from repro.sim.clock import MS

pytestmark = pytest.mark.chaos

SHORT_PS = 2 * MS // 5
POLICIES = ("fr_fcfs", "priority_qos", "round_robin")

# Timeout far below the injected hang, far above a healthy point: a hung
# worker is reclaimed by the clock, not by luck.
RESILIENT = FailurePolicy(
    timeout_s=12.0,
    max_attempts=3,
    on_exhausted="quarantine",
    backoff_base_s=0.01,
    backoff_max_s=0.05,
)

FAULTS = [
    "crash:spec=2,times=1",
    "error:spec=1,times=1",
    "corrupt:spec=1,times=1",
    "hang:spec=2,times=1,hang_s=60",
    "lost-heartbeat:spec=2,times=1,hang_s=60",
]


def _specs():
    return compare_policies_specs(
        list(POLICIES), scenario="case_b", duration_ps=SHORT_PS, traffic_scale=0.2
    )


def _fingerprints(results):
    return [experiment_result_to_dict(r, include_trace=True) for r in results]


def _executor():
    # The pool runs one spec per task, so each fault tick lands on exactly
    # one spec.
    return PoolExecutor(jobs=2)


@pytest.fixture(scope="module")
def baseline():
    results, _ = run_sweep(_specs())
    return _fingerprints(results)


@pytest.fixture
def fault_env(tmp_path, monkeypatch):
    def arm(plan: str) -> None:
        monkeypatch.setenv(ENV_FAULT, FaultPlan.parse(plan).to_env())
        monkeypatch.setenv(ENV_FAULT_DIR, str(tmp_path / "fault-state"))

    return arm


@pytest.mark.parametrize("fault", FAULTS)
def test_transient_fault_retries_to_parity(fault_env, baseline, fault):
    fault_env(fault)
    results, stats = run_sweep(
        _specs(),
        executor=_executor(),
        failure_policy=RESILIENT,
    )
    assert _fingerprints(results) == baseline
    assert stats.retries >= 1
    assert not stats.quarantined


def test_poison_point_quarantined_grid_completes(fault_env, baseline):
    # The fault window covers every tick after the first, and retries burn
    # ticks inside it: only the point that claims tick 1 can ever succeed.
    # The other two must exhaust their budgets and be quarantined — the
    # sweep still completes, and the survivor is bit-identical.
    fault_env("crash:spec=2,times=99")
    results, stats = run_sweep(
        _specs(),
        executor=_executor(),
        failure_policy=RESILIENT,
    )
    assert len(stats.quarantined) == len(POLICIES) - 1
    assert all(q.attempts == RESILIENT.max_attempts for q in stats.quarantined)
    landed = [(i, r) for i, r in enumerate(results) if r is not None]
    assert len(landed) == 1
    index, survivor = landed[0]
    assert _fingerprints([survivor]) == [baseline[index]]
