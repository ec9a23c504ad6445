"""Tests for the executor layer: retries, quarantine, dead-worker recovery.

The strict default must keep the historical ``run_sweep`` contract exactly
(one attempt, failures raise, bit-identical results across executors), and
the resilient policies must turn injected faults into retries or
quarantined points — never a hung or silently wrong sweep.

Fault injection uses the deterministic harness in
:mod:`repro.runner.faults`: a fault plan in the environment plus a shared
tick directory, so "the second spec fails once" means exactly that, no
matter which worker runs it.
"""

from __future__ import annotations

import pytest

from repro.analysis.serialize import experiment_result_to_dict
from repro.runner import (
    RESILIENT_POLICY,
    STRICT_POLICY,
    FailurePolicy,
    InProcessExecutor,
    PoolExecutor,
    QuarantinedPoint,
    RunSpec,
    WorkerDiedError,
    compare_policies_specs,
    run_sweep,
)
from repro.runner.faults import ENV_FAULT, ENV_FAULT_DIR, FaultPlan, InjectedFaultError
from repro.sim.clock import MS

SHORT_PS = 2 * MS // 5
TRAFFIC = 0.2


def _specs(policies=("fcfs", "round_robin")):
    return compare_policies_specs(
        list(policies), scenario="case_b", duration_ps=SHORT_PS, traffic_scale=TRAFFIC
    )


def _fingerprints(results):
    return [experiment_result_to_dict(r, include_trace=True) for r in results]


@pytest.fixture
def fault_env(tmp_path, monkeypatch):
    """Arm a fault plan for the duration of one test."""

    def arm(plan: str) -> None:
        monkeypatch.setenv(ENV_FAULT, FaultPlan.parse(plan).to_env())
        monkeypatch.setenv(ENV_FAULT_DIR, str(tmp_path / "fault-state"))

    return arm


class TestFailurePolicy:
    def test_strict_default_is_one_attempt_raise(self):
        assert STRICT_POLICY.max_attempts == 1
        assert STRICT_POLICY.on_exhausted == "raise"

    def test_resilient_quarantines(self):
        assert RESILIENT_POLICY.max_attempts == 3
        assert RESILIENT_POLICY.on_exhausted == "quarantine"

    def test_validation(self):
        with pytest.raises(ValueError):
            FailurePolicy(max_attempts=0)
        with pytest.raises(ValueError):
            FailurePolicy(timeout_s=0)
        with pytest.raises(ValueError):
            FailurePolicy(on_exhausted="ignore")

    def test_backoff_is_deterministic_and_bounded(self):
        policy = FailurePolicy(
            max_attempts=5, backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.5
        )
        first = [policy.backoff_for(attempt, "key") for attempt in range(1, 5)]
        second = [policy.backoff_for(attempt, "key") for attempt in range(1, 5)]
        assert first == second  # jitter is a hash, not a random draw
        assert all(delay <= 0.5 * (1.0 + policy.jitter) for delay in first)
        # Exponential growth until the cap.
        assert first[1] > first[0]

    def test_backoff_jitter_varies_by_key(self):
        policy = FailurePolicy(max_attempts=2)
        assert policy.backoff_for(1, "a") != policy.backoff_for(1, "b")


class TestInProcessRetries:
    def test_transient_error_is_retried_to_success(self, fault_env):
        baseline, _ = run_sweep(_specs())
        fault_env("error:spec=1,times=1")
        results, stats = run_sweep(
            _specs(),
            executor=InProcessExecutor(),
            failure_policy=FailurePolicy(max_attempts=2, backoff_base_s=0.01),
        )
        assert _fingerprints(results) == _fingerprints(baseline)
        assert stats.retries == 1
        assert not stats.quarantined

    def test_strict_policy_raises_on_first_failure(self, fault_env):
        fault_env("error:spec=1,times=1")
        with pytest.raises(InjectedFaultError):
            run_sweep(_specs(), executor=InProcessExecutor())

    def test_poison_spec_is_quarantined_not_fatal(self, fault_env):
        # times=10 outlives every retry: the point can never succeed.
        fault_env("error:spec=2,times=10")
        results, stats = run_sweep(
            _specs(),
            executor=InProcessExecutor(),
            failure_policy=FailurePolicy(
                max_attempts=3, backoff_base_s=0.01, on_exhausted="quarantine"
            ),
        )
        assert len(stats.quarantined) == 1
        record = stats.quarantined[0]
        assert record.attempts == 3
        assert "InjectedFaultError" in record.error
        # The healthy point still landed.
        assert sum(1 for r in results if r is not None) == 1


class TestPoolExecutor:
    def test_parity_with_sequential(self):
        baseline, _ = run_sweep(_specs())
        results, stats = run_sweep(_specs(), executor=PoolExecutor(jobs=2))
        assert _fingerprints(results) == _fingerprints(baseline)
        assert stats.retries == 0

    def test_worker_crash_is_retried(self, fault_env):
        baseline, _ = run_sweep(_specs())
        fault_env("crash:spec=1,times=1")
        results, stats = run_sweep(
            _specs(),
            executor=PoolExecutor(jobs=2),
            failure_policy=FailurePolicy(max_attempts=3, backoff_base_s=0.01),
        )
        assert _fingerprints(results) == _fingerprints(baseline)
        assert stats.retries >= 1

    def test_worker_death_names_the_victims_under_strict_policy(self, fault_env):
        # Satellite 1: a dead worker must surface as WorkerDiedError naming
        # the affected spec labels — not hang the sweep.
        fault_env("crash:spec=1,times=99")
        with pytest.raises(WorkerDiedError) as excinfo:
            run_sweep(_specs(), executor=PoolExecutor(jobs=2))
        message = str(excinfo.value)
        assert "worker died" in message
        assert "fcfs" in message or "round_robin" in message

    def test_corrupt_payload_is_caught_and_retried(self, fault_env):
        baseline, _ = run_sweep(_specs())
        fault_env("corrupt:spec=1,times=1")
        results, stats = run_sweep(
            _specs(),
            executor=PoolExecutor(jobs=2),
            failure_policy=FailurePolicy(max_attempts=2, backoff_base_s=0.01),
        )
        assert _fingerprints(results) == _fingerprints(baseline)
        assert stats.retries == 1

    def test_hung_worker_hits_spec_timeout(self, fault_env):
        baseline, _ = run_sweep(_specs())
        fault_env("hang:spec=1,times=1,hang_s=60")
        results, stats = run_sweep(
            _specs(),
            executor=PoolExecutor(jobs=2),
            failure_policy=FailurePolicy(
                timeout_s=10.0, max_attempts=2, backoff_base_s=0.01
            ),
        )
        assert _fingerprints(results) == _fingerprints(baseline)
        assert stats.retries >= 1

    def test_crash_quarantines_after_budget(self, fault_env):
        fault_env("crash:spec=2,times=99")
        results, stats = run_sweep(
            _specs(),
            executor=PoolExecutor(jobs=2),
            failure_policy=FailurePolicy(
                max_attempts=2, backoff_base_s=0.01, on_exhausted="quarantine"
            ),
        )
        assert len(stats.quarantined) == 1
        assert stats.quarantined[0].attempts == 2
        assert sum(1 for r in results if r is not None) == 1


class TestPoolRecovery:
    def test_pool_respawns_and_finishes_full_grid(self, fault_env):
        # One crash early in a 4-point sweep: the pool must replace the dead
        # worker and still land every point bit-identically.
        policies = ("fcfs", "round_robin", "frame_rate_qos", "priority_qos")
        baseline, _ = run_sweep(_specs(policies))
        fault_env("crash:spec=1,times=1")
        executor = PoolExecutor(jobs=2)
        results, stats = run_sweep(
            _specs(policies),
            executor=executor,
            failure_policy=FailurePolicy(max_attempts=3, backoff_base_s=0.01),
        )
        assert _fingerprints(results) == _fingerprints(baseline)
        assert stats.retries >= 1


def _tiny_specs(count=12):
    """Many short points, so a fault that hit one batch would hit several."""
    return [
        RunSpec(
            scenario="case_b",
            duration_ps=MS // 20,
            traffic_scale=TRAFFIC,
            seed=seed,
            label=f"seed{seed}",
        )
        for seed in range(1, count + 1)
    ]


class TestPerPointIsolation:
    """A fault on one point touches that point alone, whatever the grid size."""

    def test_one_crash_costs_one_retry(self, fault_env):
        fault_env("crash:spec=1,times=1")
        results, stats = run_sweep(
            _tiny_specs(),
            executor=PoolExecutor(jobs=1),
            failure_policy=FailurePolicy(max_attempts=2, backoff_base_s=0.01),
        )
        assert stats.retries == 1
        assert not stats.quarantined
        assert all(result is not None for result in results)

    def test_one_crash_quarantines_one_point(self, fault_env):
        fault_env("crash:spec=1,times=1")
        results, stats = run_sweep(
            _tiny_specs(),
            executor=PoolExecutor(jobs=1),
            failure_policy=FailurePolicy(max_attempts=1, on_exhausted="quarantine"),
        )
        assert len(stats.quarantined) == 1
        assert isinstance(stats.quarantined[0], QuarantinedPoint)
        assert sum(1 for result in results if result is None) == 1
