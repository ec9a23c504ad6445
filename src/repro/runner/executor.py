"""The executor layer: one execution contract, two ways to run it.

``run_sweep`` historically hard-wired its two cold paths (sequential
in-process, warm pool).  This module lifts "execute these cold specs"
behind :class:`Executor`, so the sweep's bookkeeping — cache
writes, result placement, progress, observers — is written once while the
*mechanism* varies:

* :class:`InProcessExecutor` — the sequential path: no processes, no IPC.
* :class:`PoolExecutor` — one point per task on a (possibly warm)
  :class:`~repro.runner.pool.WorkerPool`; the crash-isolating path.

Both share one :class:`FailurePolicy`: per-spec wall-clock timeouts,
retry with exponential backoff (jitter is *deterministic* — derived from
the spec key and attempt number, never from a clock or RNG — so two runs
of the same failing sweep behave identically), and poison-point
*quarantine*: after ``max_attempts`` failures a spec is recorded as a
:class:`QuarantinedPoint` and the sweep completes without it, instead of
aborting everything the other workers already produced.  One function,
:func:`retry_or_quarantine`, makes that decision for both executors.  The
default policy (:data:`STRICT_POLICY`) is one attempt and raise-on-failure
— exactly the semantics existing callers already rely on.

Executors yield a stream of :class:`Landed` / :class:`QuarantinedPoint`
events; they own parallelism, retries and the fault taxonomy below, while
the sweep driver owns what landing *means*.
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple, Union

from repro import obs
from repro.runner.faults import FaultInjector, apply_process_fault, wrap_result
from repro.scenario import load_plugins
from repro.system.experiment import ExperimentResult, RunTimings, run_experiment_timed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pool imports us)
    from repro.runner.pool import WorkerPool
    from repro.runner.sweep import RunSpec, SweepStats

#: One cold point, as the sweep driver hands it over: the spec indices that
#: share the result (head executed, tail deduplicated), the spec, its key.
ColdEntry = Tuple[List[int], "RunSpec", str]


# --------------------------------------------------------------------------- #
# Fault taxonomy
# --------------------------------------------------------------------------- #
class ExecutionFault(RuntimeError):
    """Base for infrastructure failures (as opposed to task exceptions)."""


class WorkerDiedError(ExecutionFault):
    """A worker process died (crash, OOM kill) while holding work."""

    def __init__(self, labels: str, exitcode: Optional[int] = None) -> None:
        detail = f"exit code {exitcode}" if exitcode is not None else "no exit code"
        super().__init__(f"worker died ({detail}) while running: {labels}")
        self.labels = labels
        self.exitcode = exitcode


class SpecTimeoutError(ExecutionFault):
    """A spec exceeded its wall-clock timeout and was killed."""

    def __init__(self, labels: str, timeout_s: float) -> None:
        super().__init__(f"timed out after {timeout_s:g}s: {labels}")
        self.labels = labels
        self.timeout_s = timeout_s


class PayloadError(ExecutionFault):
    """A result payload failed its integrity check (corrupt in flight)."""


# --------------------------------------------------------------------------- #
# Failure policy
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FailurePolicy:
    """What happens when a spec fails: how long to wait, how often to retry.

    ``backoff_for`` grows exponentially and adds *deterministic* jitter — a
    hash of the spec key and attempt number — so concurrent retries spread
    out without making any run irreproducible.  ``on_exhausted`` picks
    between the strict contract (``"raise"``: the sweep aborts with the
    last error) and the resilient one (``"quarantine"``: the sweep
    completes, the point is recorded as failed).
    """

    timeout_s: Optional[float] = None
    max_attempts: int = 1
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.25
    on_exhausted: str = "raise"

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.on_exhausted not in ("raise", "quarantine"):
            raise ValueError(
                f"on_exhausted must be 'raise' or 'quarantine', got {self.on_exhausted!r}"
            )

    def backoff_for(self, attempt: int, key: str) -> float:
        """Delay before retry number ``attempt + 1`` of the spec ``key``."""
        base = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** max(0, attempt - 1),
        )
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:4], "big") / 0xFFFFFFFF
        return base * (1.0 + self.jitter * fraction)


#: The historical ``run_sweep`` contract: one attempt, any failure raises.
STRICT_POLICY = FailurePolicy()

#: The fault-tolerant default for campaigns that opt in: three attempts per
#: spec, then quarantine — the campaign always completes.
RESILIENT_POLICY = FailurePolicy(max_attempts=3, on_exhausted="quarantine")


# --------------------------------------------------------------------------- #
# Execution events
# --------------------------------------------------------------------------- #
@dataclass
class Landed:
    """One cold spec executed successfully (possibly after retries)."""

    entry: ColdEntry
    result: ExperimentResult
    timings: RunTimings
    attempts: int = 1


@dataclass(frozen=True)
class QuarantinedPoint:
    """One cold spec that exhausted its attempts and was set aside.

    ``indices`` are the sweep positions the spec covered (including
    deduplicated duplicates); ``error`` is ``ClassName: message`` of the
    last failure — stable text, no pids or addresses, so it is safe to
    record in a manifest.
    """

    label: str
    key: str
    attempts: int
    error: str
    indices: Tuple[int, ...] = ()


ExecutionEvent = Union[Landed, QuarantinedPoint]


def describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def retry_or_quarantine(
    entry: ColdEntry,
    attempt: int,
    error: Exception,
    policy: FailurePolicy,
    stats: "SweepStats",
) -> Union[float, QuarantinedPoint]:
    """Decide what attempt number ``attempt`` of ``entry`` failing leads to.

    Returns the backoff delay before the next attempt while the policy has
    attempts left, then a :class:`QuarantinedPoint` under the quarantining
    policy; the strict policy re-raises ``error``.  The in-process executor
    sleeps for the delay, the pool resubmits with it as ``not_before``.
    """
    indices, spec, key = entry
    if attempt < policy.max_attempts:
        stats.retries += 1
        delay = policy.backoff_for(attempt, key)
        obs.instant(
            "executor.retry",
            label=spec.display_label(),
            attempt=attempt,
            backoff_s=round(delay, 6),
            error=type(error).__name__,
        )
        return delay
    if policy.on_exhausted == "quarantine":
        obs.instant(
            "executor.quarantine",
            label=spec.display_label(),
            attempts=attempt,
            error=type(error).__name__,
        )
        return QuarantinedPoint(
            label=spec.display_label(),
            key=key,
            attempts=attempt,
            error=describe_error(error),
            indices=tuple(indices),
        )
    raise error


# --------------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------------- #
class Executor:
    """The execution contract ``run_sweep`` drives.

    ``execute`` yields one event per cold entry — :class:`Landed` or
    :class:`QuarantinedPoint` — in completion order, updating the
    mechanism-owned stats fields (``pool_startup_s``, ``sim_wall_s``,
    ``retries``) as it goes.  Raising aborts the sweep
    (the strict policy's exhaustion path).
    """

    name = "executor"

    def execute(
        self,
        cold: List[ColdEntry],
        stats: "SweepStats",
        policy: FailurePolicy,
        cache_dir: Optional[str] = None,
    ) -> Iterator[ExecutionEvent]:
        raise NotImplementedError


def run_spec_guarded(spec: "RunSpec", injector: Optional[FaultInjector]) -> Any:
    """Execute one spec with fault hooks; the worker/in-process common core.

    Returns ``(result, timings)`` possibly wrapped in a payload-fault
    marker (:class:`~repro.runner.faults.CorruptResult` /
    :class:`~repro.runner.faults.VanishResult`) for the IPC layer.
    """
    load_plugins(spec.plugin_modules)
    plan = injector.fires() if injector is not None else None
    if plan is not None:
        apply_process_fault(plan)  # crash / hang / error act before the run
    with obs.span("point.run", label=spec.display_label()):
        result, timings = run_experiment_timed(
            spec.resolved_scenario(), keep_trace=spec.keep_trace
        )
    return wrap_result(plan, (result, timings))


@functools.lru_cache(maxsize=None)
def _worker_injector() -> Optional[FaultInjector]:
    """The worker process's one fault injector, armed from its environment.

    One per process, not per task: without a shared tick directory the
    injector counts ticks privately, and a fresh one per spec would make
    every spec tick 1.
    """
    return FaultInjector.from_env()


def execute_guarded(spec: "RunSpec") -> Any:
    """Worker entry point: run one spec through :func:`run_spec_guarded`."""
    return run_spec_guarded(spec, _worker_injector())


class InProcessExecutor(Executor):
    """Sequential execution in the driver process.

    Timeouts are documented-unenforced here: there is no second process to
    keep the clock, and killing the driver to stop a spec would defeat the
    point.  ``crash`` faults genuinely take the driver down — which is the
    scenario ``campaign run --resume`` exists for, not one retry can fix.
    """

    name = "inprocess"

    def execute(
        self,
        cold: List[ColdEntry],
        stats: "SweepStats",
        policy: FailurePolicy,
        cache_dir: Optional[str] = None,
    ) -> Iterator[ExecutionEvent]:
        injector = FaultInjector.from_env()
        for entry in cold:
            attempt = 1
            while True:
                try:
                    value = run_spec_guarded(entry[1], injector)
                except Exception as exc:
                    decision = retry_or_quarantine(entry, attempt, exc, policy, stats)
                    if isinstance(decision, QuarantinedPoint):
                        yield decision
                        break
                    time.sleep(decision)
                    attempt += 1
                    continue
                if not isinstance(value, tuple):
                    value = value.value  # payload faults are moot in-process
                result, timings = value
                yield Landed(entry, result, timings, attempt)
                break
        # One process runs every spec: simulation wall time is the full sum.
        stats.sim_wall_s = stats.sim_cpu_s


class PoolExecutor(Executor):
    """One point per task on a :class:`~repro.runner.pool.WorkerPool`.

    Each cold point is its own submission with its own timeout, so a
    failure (worker death, timeout, corrupt payload, task exception)
    touches exactly one point: it is resubmitted after the policy backoff
    or quarantined, while every other point keeps executing.  Dead workers
    are respawned by the pool session itself, regardless of policy.
    """

    name = "pool"

    def __init__(self, pool: Optional["WorkerPool"] = None, jobs: int = 1) -> None:
        self.pool = pool
        self.jobs = jobs

    def execute(
        self,
        cold: List[ColdEntry],
        stats: "SweepStats",
        policy: FailurePolicy,
        cache_dir: Optional[str] = None,
    ) -> Iterator[ExecutionEvent]:
        from repro.runner.pool import WorkerPool

        own_pool = self.pool is None
        if own_pool:
            plugin_modules = [m for _, spec, _ in cold for m in spec.plugin_modules]
            pool = WorkerPool(min(self.jobs, len(cold)), plugin_modules=plugin_modules)
        else:
            pool = self.pool
        try:
            stats.pool_startup_s += pool.start()
            session = pool.session()
            # task id -> (the cold entry it runs, which attempt this is)
            pending: Dict[int, Tuple[ColdEntry, int]] = {}

            def submit(entry: ColdEntry, attempt: int, not_before: float = 0.0) -> None:
                spec = entry[1]
                task_id = session.submit(
                    execute_guarded,
                    spec,
                    timeout_s=policy.timeout_s,
                    describe=spec.display_label(),
                    not_before=not_before,
                )
                pending[task_id] = (entry, attempt)

            for entry in cold:
                submit(entry, 1)
            for outcome in session.outcomes():
                entry, attempt = pending.pop(outcome.task_id)
                if outcome.error is None:
                    result, timings = outcome.value
                    yield Landed(entry, result, timings, attempt)
                    continue
                decision = retry_or_quarantine(
                    entry, attempt, outcome.error, policy, stats
                )
                if isinstance(decision, QuarantinedPoint):
                    yield decision
                else:
                    submit(entry, attempt + 1, time.monotonic() + decision)
            stats.sim_wall_s = session.busiest_s()
        finally:
            if own_pool:
                pool.close()
