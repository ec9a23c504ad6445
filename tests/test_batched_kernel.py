"""Batched-kernel edge cases and scalar/batched parity.

The batched kernel's contract is *bit-identical* results to the scalar
reference (see ``docs/engine.md``).  This module pins that contract plus the
edge cases the batched structures introduce:

* full-result parity across every bundled scenario and every registered
  policy at smoke durations, plus one deep-window ``case_a`` point — the CI
  ``parity`` job runs exactly this module;
* every columnar selector against its scalar policy on hypothesis-generated
  candidate windows of up to 200 entries, in sorted and unsorted mode;
* engine event ordering around same-timestamp buckets: empty (all-tombstone)
  buckets, single-entry buckets, tombstone compaction interleaved with
  bucketed batches, and horizon put-back;
* columnar-store tombstone compaction interleaved with further pushes;
* NPI meter saturation at batch boundaries (the hot-path
  ``record_completion`` overrides must keep the base class's validation and
  the cap/floor clamp);
* ``serve_direct`` empty-idle bypass state parity (round-robin rotation,
  priority turns, aging accounting).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.serialize import experiment_result_to_dict
from repro.core.npi import (
    NPI_CAP,
    NPI_FLOOR,
    BandwidthMeter,
    FrameProgressMeter,
    LatencyMeter,
)
from repro.memctrl.aging import AgingTracker
from repro.memctrl.columnar import ColumnarStore, make_selector
from repro.memctrl.policies import (
    FcfsPolicy,
    FrameRateQosPolicy,
    FrFcfsPolicy,
    PriorityQosPolicy,
    PriorityRowBufferPolicy,
    RoundRobinPolicy,
    available_policies,
)
from repro.memctrl.scheduler import SchedulingContext
from repro.memctrl.transaction import BatchTransaction, QueueClass
from repro.scenario import available_scenarios
from repro.sim.clock import MS
from repro.sim.engine import COMPACT_MIN_TOMBSTONES, BatchedEngine, Engine
from repro.sim.kernel import KERNEL_ENV_VAR, KNOWN_KERNELS, resolve_kernel
from repro.system.experiment import run_experiment

SMOKE_DURATION_PS = MS // 8
SMOKE_TRAFFIC_SCALE = 0.1


def _fingerprint(
    scenario: str,
    policy,
    kernel: str,
    duration_ps: int = SMOKE_DURATION_PS,
    traffic_scale: float = SMOKE_TRAFFIC_SCALE,
) -> dict:
    result = run_experiment(
        scenario=scenario,
        policy=policy,
        duration_ps=duration_ps,
        traffic_scale=traffic_scale,
        keep_trace=True,
        kernel=kernel,
    )
    return experiment_result_to_dict(result, include_trace=True)


class TestKernelResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "batched")
        assert resolve_kernel("scalar") == "scalar"

    def test_environment_variable_is_consulted(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "scalar")
        assert resolve_kernel() == "scalar"

    def test_default_is_batched(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert resolve_kernel() == "batched"

    def test_unknown_kernel_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            resolve_kernel("vectorised")


class TestKernelParity:
    """batched == scalar on full result dictionaries, traces included."""

    @pytest.mark.parametrize("scenario", sorted(available_scenarios()))
    def test_every_bundled_scenario_is_bit_identical(self, scenario):
        assert _fingerprint(scenario, None, "batched") == _fingerprint(
            scenario, None, "scalar"
        )

    @pytest.mark.parametrize("policy", sorted(available_policies()))
    def test_every_registered_policy_is_bit_identical(self, policy):
        # Policies without a columnar selector (atlas, edf, sms, tcm) exercise
        # the batched kernel's scalar-policy fallback path.
        assert _fingerprint("case_b", policy, "batched") == _fingerprint(
            "case_b", policy, "scalar"
        )

    def test_deep_window_case_a_priority_is_bit_identical(self):
        # At full traffic the NoC backlog behind the controller keeps about
        # 50 candidates live per priority pick, often more than 100, which
        # the smoke points above never reach.
        deep = {"duration_ps": MS // 2, "traffic_scale": 1.0}
        assert _fingerprint("case_a", "priority_qos", "batched", **deep) == (
            _fingerprint("case_a", "priority_qos", "scalar", **deep)
        )

    def test_known_kernels_is_the_tested_set(self):
        assert set(KNOWN_KERNELS) == {"scalar", "batched"}


def _drive_engine(engine_cls):
    """A scripted run exercising the bucket/heap merge edge cases.

    Returns everything observable so the scalar and batched engines can be
    compared wholesale: the fired tags with their timestamps, the executed
    counts of both run() calls, and the final clock/counter state.
    """
    engine = engine_cls()
    fired = []

    def note(tag):
        fired.append((tag, engine.now_ps))

    def burst(tag, count):
        # Same-timestamp batch: live bucket entries interleaved with
        # tombstones, plus a handle-free schedule_call entry.
        events = [engine.schedule(0, note, f"{tag}/bucket{i}") for i in range(count)]
        for event in events[::2]:
            event.cancel()
        engine.schedule_call(engine.now_ps, note, (f"{tag}/call",))

    def empty_bucket(tag):
        # The bucket becomes all tombstones: the engine must skip them and
        # advance time without firing anything at this timestamp.
        for _ in range(2):
            engine.schedule(0, note, f"{tag}/dead").cancel()
        note(tag)

    def single_entry_bucket(tag):
        engine.schedule(0, note, f"{tag}/only")
        note(tag)

    engine.schedule_at(10, note, "heap-first")
    engine.schedule_at(10, burst, "burst", 4)
    engine.schedule_at(15, note, "doomed").cancel()
    engine.schedule_at(20, empty_bucket, "empty")
    engine.schedule_at(22, single_entry_bucket, "single")
    engine.schedule_at(30, note, "after-horizon")
    executed_first = engine.run(until_ps=25)  # 30 is put back for later
    executed_second = engine.run(until_ps=100)
    return (
        fired,
        executed_first,
        executed_second,
        engine.fired_events,
        engine.now_ps,
        engine.pending_events,
        engine.cancelled_pending,
    )


class TestEngineEdgeCases:
    def test_scalar_and_batched_engines_agree_on_edge_cases(self):
        assert _drive_engine(Engine) == _drive_engine(BatchedEngine)

    @pytest.mark.parametrize("engine_cls", [Engine, BatchedEngine])
    def test_scripted_order_is_the_documented_one(self, engine_cls):
        fired, first, second, total, now_ps, pending, tombstones = _drive_engine(
            engine_cls
        )
        assert [tag for tag, _ in fired] == [
            "heap-first",  # smaller sequence at t=10 fires before the burst
            "burst/bucket1",  # bucket FIFO order, tombstones skipped
            "burst/bucket3",
            "burst/call",
            "empty",  # the all-tombstone bucket fires nothing extra
            "single",
            "single/only",  # a one-entry bucket drains before time advances
            "after-horizon",
        ]
        assert [time_ps for _, time_ps in fired] == [10, 10, 10, 10, 20, 22, 22, 30]
        # 9 events executed in all: the 8 notes above plus the un-noted
        # `burst` callback itself; only "after-horizon" runs in the second
        # call.
        assert (first, second) == (8, 1)
        assert total == 9
        assert now_ps == 100  # clock advances to the horizon after draining
        assert pending == 0
        assert tombstones == 0

    @pytest.mark.parametrize("engine_cls", [Engine, BatchedEngine])
    def test_tombstone_compaction_interleaved_with_bucket_batch(self, engine_cls):
        engine = engine_cls()
        fired = []
        engine.schedule_at(0, fired.append, "bucket-live")  # t == now: bucket
        keeper = engine.schedule_at(50, fired.append, "keep")
        doomed = [
            engine.schedule_at(40, fired.append, f"dead{i}")
            for i in range(COMPACT_MIN_TOMBSTONES + 10)
        ]
        for event in doomed:
            event.cancel()
        # The 64th cancel crossed the compaction trigger and drained the heap
        # in place (live entries, bucket included, untouched); the 10 cancels
        # after it sit below the floor and stay as tombstones.
        assert engine.cancelled_pending == 10
        assert engine.pending_events == 12  # 2 live + 10 tombstones, not 76
        engine.run()
        assert fired == ["bucket-live", "keep"]
        assert keeper.cancelled is False
        assert engine.fired_events == 2
        assert engine.cancelled_pending == 0


def _txn(
    dma: str = "dma0",
    queue_class: QueueClass = QueueClass.CPU,
    priority: int = 0,
    created_ps: int = 0,
    behind: bool = False,
) -> BatchTransaction:
    return BatchTransaction(
        "core0", dma, queue_class, 0x1000, 64, False, priority, behind, created_ps
    )


def _store_for(selector) -> ColumnarStore:
    return ColumnarStore.for_selector(
        selector, codebook={}, sorted_mode=True, track_rows=False
    )


class TestColumnarCompaction:
    def test_compaction_interleaves_with_batched_pushes(self):
        selector = make_selector(FcfsPolicy())
        store = _store_for(selector)
        first_batch = [_txn(created_ps=t) for t in range(100)]
        for txn in first_batch:
            store.push(txn)
        # Drain most of the first batch: crossing _COMPACT_SLACK dead entries
        # must compact in place without disturbing FIFO order.
        for _ in range(90):
            store.remove_index(selector.select(store, now_ps=1000))
        # The 65th removal crossed _COMPACT_SLACK dead entries and rebased
        # the columns to the 35 then-live entries; the 25 removals after it
        # advanced the head over a fresh dead prefix without re-compacting.
        assert store.size == 35
        assert store.head == 25
        assert store.live == 10
        # A second batch lands after compaction; the drain order must still
        # be global FIFO over survivors + newcomers.
        second_batch = [_txn(created_ps=200 + t) for t in range(5)]
        for txn in second_batch:
            store.push(txn)
        drained = []
        while store.live:
            index = selector.select(store, now_ps=2000)
            drained.append(store.objs[index].uid)
            store.remove_index(index)
        expected = [txn.uid for txn in first_batch[90:] + second_batch]
        assert drained == expected

    def test_empty_and_single_candidate_windows(self):
        selector = make_selector(FcfsPolicy())
        store = _store_for(selector)
        assert store.live == 0  # empty bucket: nothing to select
        only = _txn(created_ps=7)
        store.push(only)
        index = selector.select(store, now_ps=100)
        assert store.objs[index] is only  # single-candidate fast path
        store.remove_index(index)
        assert store.live == 0
        assert store.head == store.size


_SELECTOR_POLICIES = {
    policy_cls.name: policy_cls
    for policy_cls in (
        FcfsPolicy,
        RoundRobinPolicy,
        FrameRateQosPolicy,
        PriorityQosPolicy,
        FrFcfsPolicy,
        PriorityRowBufferPolicy,
    )
}
_BANK_SLOTS = 4
_LAST_ENQUEUE_PS = 400

#: One candidate: priority, queue class, DMA, realtime-behind flag, enqueue
#: time, bank slot, row, and whether (and how many pushes later) it is
#: removed before the first pick.
_candidate = st.tuples(
    st.integers(0, 7),
    st.sampled_from(list(QueueClass)),
    st.integers(0, 5),
    st.booleans(),
    st.integers(0, _LAST_ENQUEUE_PS),
    st.integers(0, _BANK_SLOTS - 1),
    st.integers(0, 3),
    st.one_of(st.none(), st.integers(0, 3)),
)


@st.composite
def _windows(draw):
    sorted_mode = draw(st.booleans())
    count = draw(st.integers(1, 200))
    entries = draw(st.lists(_candidate, min_size=count, max_size=count))
    if sorted_mode:
        # Transactions are created in push order, so sorting by enqueue time
        # keeps the (time, uid) keys increasing: a genuinely sorted store.
        entries.sort(key=lambda entry: entry[4])
    if all(entry[7] is not None for entry in entries):
        entries[-1] = entries[-1][:7] + (None,)
    return {
        "sorted_mode": sorted_mode,
        "entries": entries,
        "open_rows": draw(st.lists(st.integers(-1, 3), min_size=_BANK_SLOTS, max_size=_BANK_SLOTS)),
        "threshold_ps": draw(st.one_of(st.none(), st.integers(1, _LAST_ENQUEUE_PS))),
        "now_ps": _LAST_ENQUEUE_PS + draw(st.integers(0, 200)),
        "picks": draw(st.integers(1, 8)),
    }


def _scalar_state(policy):
    if isinstance(policy, PriorityRowBufferPolicy):
        policy = policy._priority_rr
    if isinstance(policy, PriorityQosPolicy):
        return policy._turn, dict(policy._last_served_turn)
    return getattr(policy, "_next_class_index", None)


def _selector_state(selector, codebook):
    selector = getattr(selector, "inner", selector)
    turns = getattr(selector, "turns", None)
    if turns is not None:
        served = {
            dma: turns[code]
            for dma, code in codebook.items()
            if code < len(turns) and turns[code] != -1
        }
        return selector.turn, served
    return getattr(selector.policy, "_next_class_index", None)


class TestSelectorsMatchScalarPolicies:
    """Each columnar selector picks what its scalar policy picks, on windows
    deep enough to cross compaction, and leaves the same policy state."""

    @pytest.mark.parametrize("policy_name", sorted(_SELECTOR_POLICIES))
    @settings(max_examples=30, deadline=None)
    @given(window=_windows())
    def test_selector_matches_scalar_policy(self, policy_name, window):
        policy_cls = _SELECTOR_POLICIES[policy_name]
        threshold_ps = window["threshold_ps"]

        def tracker():
            if threshold_ps is None:
                return None
            return AgingTracker(threshold_cycles=threshold_ps, clock_period_ps=1)

        open_rows = list(window["open_rows"])
        scalar_policy, scalar_aging = policy_cls(), tracker()
        batched_aging = tracker()
        selector = make_selector(
            policy_cls(), aging=batched_aging, open_rows=[open_rows]
        )
        store = ColumnarStore.for_selector(
            selector, codebook={}, sorted_mode=window["sorted_mode"], track_rows=True
        )
        # A store tracking every column, fed identically, builds the scalar
        # controller's candidate list.
        reference = ColumnarStore({}, sorted_mode=window["sorted_mode"])
        coordinates = {}
        removals = {}
        last = len(window["entries"]) - 1
        for position, entry in enumerate(window["entries"]):
            priority, queue_class, dma, behind, enqueued, bank, row, delay = entry
            txn = _txn(f"dma{dma}", queue_class, priority, enqueued, behind)
            txn.enqueued_ps = enqueued
            txn.sort_key = (enqueued, txn.uid)
            coordinates[txn.uid] = (bank, row)
            store.push(txn, bank, row)
            reference.push(txn, bank, row)
            if delay is not None:
                removals.setdefault(min(position + delay, last), []).append(txn.uid)
            for uid in removals.pop(position, ()):
                store.remove_index(store.index_of_uid(uid))
                reference.remove_index(reference.index_of_uid(uid))
        assert 1 <= store.live <= 200

        def is_row_hit(txn):
            bank, row = coordinates[txn.uid]
            return open_rows[bank] == row

        now_ps = window["now_ps"]
        for _ in range(min(window["picks"], store.live)):
            context = SchedulingContext(
                now_ps=now_ps, is_row_hit=is_row_hit, aging=scalar_aging
            )
            expected = scalar_policy.select(
                reference.fallback_candidates_by_class(), context
            )
            index = selector.select(store, now_ps, 0)
            assert store.objs[index] is expected
            assert _selector_state(selector, store.codebook) == _scalar_state(
                scalar_policy
            )
            if scalar_aging is not None:
                assert batched_aging.aged_served == scalar_aging.aged_served
            bank, row = coordinates[expected.uid]
            open_rows[bank] = row  # the controller latches the issued row
            store.remove_index(index)
            reference.remove_index(reference.index_of_uid(expected.uid))


class TestMeterSaturation:
    """The hot-path record_completion overrides at batch boundaries."""

    def test_latency_meter_clamps_at_cap_and_floor(self):
        meter = LatencyMeter(limit_ps=1000, window_ps=MS)
        # Saturated-high: no completions in the window => healthy by
        # definition, clamped at the cap.
        assert meter.raw_npi(0) == NPI_CAP
        assert meter.npi(0) == NPI_CAP
        # A batch of pathologically slow completions at one timestamp drives
        # the raw value far below the floor; npi() must clamp, raw must not.
        for _ in range(8):
            meter.record_completion(64, 10**9, now_ps=500)
        assert meter.raw_npi(500) < NPI_FLOOR
        assert meter.npi(500) == NPI_FLOOR
        assert meter.completed_transactions == 8
        assert meter.completed_bytes == 8 * 64

    def test_bandwidth_meter_keeps_base_class_validation(self):
        meter = BandwidthMeter(target_bytes_per_s=1e9)
        with pytest.raises(ValueError, match="size_bytes"):
            meter.record_completion(0, 10, now_ps=0)
        with pytest.raises(ValueError, match="latency_ps"):
            meter.record_completion(64, -1, now_ps=0)
        # Rejected completions must not have leaked into the counters.
        assert meter.completed_transactions == 0
        assert meter.completed_bytes == 0

    def test_frame_meter_rolls_exactly_at_the_batch_boundary(self):
        meter = FrameProgressMeter(bytes_per_frame=128, frame_period_ps=1000)
        # Fill frame 0 with a same-timestamp batch ending exactly at the
        # frame boundary: completions at t=999 belong to frame 0, the next
        # batch at t=1000 must roll into frame 1 first.
        meter.record_completion(64, 10, now_ps=999)
        meter.record_completion(64, 10, now_ps=999)
        meter.record_completion(64, 10, now_ps=1000)
        assert meter.frames_completed == 1
        assert meter.frames_missed == 0
        assert meter._frame_bytes == 64  # the boundary batch opened frame 1
        # An under-filled frame rolled over counts as missed.
        meter.record_completion(32, 10, now_ps=2500)
        assert meter.frames_missed == 1


class TestServeDirectBypass:
    """serve_direct must equal push + select + remove on an empty store."""

    def _select_path(self, policy, txn, now_ps, aging=None):
        selector = make_selector(policy, aging=aging)
        store = _store_for(selector)
        store.push(txn)
        index = selector.select(store, now_ps)
        assert store.objs[index] is txn
        store.remove_index(index)
        return selector, store

    def _direct_path(self, policy, txn, now_ps, aging=None):
        selector = make_selector(policy, aging=aging)
        store = _store_for(selector)
        assert selector.serve_direct(store, txn, now_ps) is True
        return selector, store

    def test_round_robin_rotation_matches_select_path(self):
        for queue_class in QueueClass:
            txn_a = _txn(queue_class=queue_class)
            via_select, _ = self._select_path(RoundRobinPolicy(), txn_a, 100)
            txn_b = _txn(queue_class=queue_class)
            via_direct, _ = self._direct_path(RoundRobinPolicy(), txn_b, 100)
            assert (
                via_direct.policy._next_class_index
                == via_select.policy._next_class_index
            )

    def test_priority_turns_and_codebook_match_select_path(self):
        def serve_three(path):
            selector = make_selector(PriorityQosPolicy())
            store = _store_for(selector)
            for dma in ("dma_a", "dma_b", "dma_a"):
                txn = _txn(dma=dma, priority=3)
                if path == "select":
                    store.push(txn)
                    store.remove_index(selector.select(store, now_ps=100))
                else:
                    assert selector.serve_direct(store, txn, now_ps=100)
            return selector.turn, list(selector.turns), dict(store.codebook)

        assert serve_three("select") == serve_three("direct")

    def test_priority_aging_is_accounted_on_bypass(self):
        aging = AgingTracker(threshold_cycles=10, clock_period_ps=10)
        now_ps = 1000
        aged = _txn(created_ps=now_ps - aging.threshold_ps)
        selector, _ = self._direct_path(PriorityQosPolicy(), aged, now_ps, aging=aging)
        assert selector.aging is aging
        assert aging.aged_served == 1
        # A fresh transaction must not trip the aging counter.
        fresh = _txn(created_ps=now_ps)
        self._direct_path(PriorityQosPolicy(), fresh, now_ps, aging=aging)
        assert aging.aged_served == 1
