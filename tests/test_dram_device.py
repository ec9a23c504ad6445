"""Unit tests for the DRAM channel and device models."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.bank import RowBufferState
from repro.dram.channel import Channel
from repro.dram.device import DramDevice
from repro.dram.timing import DramTimingPs
from repro.sim.config import DramConfig, DramTimingConfig


@pytest.fixture
def device() -> DramDevice:
    return DramDevice(DramConfig())


class TestTimingPs:
    def test_resolution_at_1866(self):
        timing = DramTimingPs.from_config(DramTimingConfig(), 1866.0)
        assert timing.clock_period_ps == 536
        assert timing.cl_ps == 36 * 536
        assert timing.row_miss_ps > timing.row_closed_ps > timing.row_hit_ps

    def test_lower_frequency_stretches_timings(self):
        fast = DramTimingPs.from_config(DramTimingConfig(), 1866.0)
        slow = DramTimingPs.from_config(DramTimingConfig(), 1300.0)
        assert slow.cl_ps > fast.cl_ps
        assert slow.t_faw_ps > fast.t_faw_ps

    def test_burst_time_scales_with_size(self):
        timing = DramTimingPs.from_config(DramTimingConfig(), 1866.0)
        assert timing.burst_ps(2048, 8) == 2 * timing.burst_ps(1024, 8)

    def test_burst_rejects_bad_sizes(self):
        timing = DramTimingPs.from_config(DramTimingConfig(), 1866.0)
        with pytest.raises(ValueError):
            timing.burst_ps(0, 8)
        with pytest.raises(ValueError):
            timing.burst_ps(64, 0)


class TestDramDevice:
    def test_row_hit_is_faster_than_miss(self, device):
        first = device.service(address=0, size_bytes=1024, is_write=False, now_ps=0)
        hit = device.service(
            address=1024, size_bytes=1024, is_write=False, now_ps=first.completion_ps
        )
        assert hit.row_hit is True
        miss = device.service(
            address=1 << 26, size_bytes=1024, is_write=False, now_ps=hit.completion_ps
        )
        hit_latency = hit.completion_ps - first.completion_ps
        miss_latency = miss.completion_ps - hit.completion_ps
        assert not miss.row_hit or miss_latency >= hit_latency
        assert device.total_accesses == 3

    def test_sequential_stream_mostly_hits(self, device):
        now = 0
        for index in range(64):
            result = device.service(index * 1024, 1024, is_write=False, now_ps=now)
            now = result.completion_ps
        assert device.row_hit_rate > 0.6

    def test_random_far_apart_accesses_mostly_miss(self, device):
        now = 0
        stride = 16 * 1024 * 1024 + 8192
        for index in range(32):
            result = device.service(index * stride, 2048, is_write=False, now_ps=now)
            now = result.completion_ps
        assert device.row_hit_rate < 0.2

    def test_is_row_hit_reflects_bank_state(self, device):
        assert device.is_row_hit(0) is False
        device.service(0, 1024, is_write=False, now_ps=0)
        assert device.is_row_hit(1024) is True
        assert device.is_row_hit(1 << 26) is False

    def test_bandwidth_accounting(self, device):
        result = device.service(0, 4096, is_write=False, now_ps=0)
        bandwidth = device.average_bandwidth_bytes_per_s(result.completion_ps)
        assert bandwidth > 0
        assert device.total_bytes == 4096

    def test_set_frequency_changes_service_time(self):
        fast = DramDevice(DramConfig())
        slow = DramDevice(DramConfig())
        slow.set_frequency(1300.0)
        fast_result = fast.service(0, 2048, is_write=False, now_ps=0)
        slow_result = slow.service(0, 2048, is_write=False, now_ps=0)
        assert slow_result.completion_ps > fast_result.completion_ps

    def test_peak_bandwidth_positive(self, device):
        assert device.peak_bandwidth_bytes_per_s() == pytest.approx(2 * 8 * 1866e6)

    def test_invalid_sim_scale_rejected(self):
        with pytest.raises(ValueError):
            DramDevice(DramConfig(), sim_scale=0.0)

    def test_completion_never_precedes_issue(self, device):
        now = 0
        for index in range(32):
            result = device.service(index * 4096, 2048, is_write=index % 2 == 0, now_ps=now)
            assert result.completion_ps > now
            assert result.data_start_ps <= result.completion_ps
            now = result.completion_ps

    @settings(max_examples=25, deadline=None)
    @given(
        addresses=st.lists(
            st.integers(min_value=0, max_value=2**31 - 1), min_size=1, max_size=40
        )
    )
    def test_bus_never_overlaps(self, addresses):
        device = DramDevice(DramConfig())
        now = 0
        windows = {channel: [] for channel in range(device.config.channels)}
        for address in addresses:
            result = device.service(address, 1024, is_write=False, now_ps=now)
            windows[result.channel].append((result.data_start_ps, result.completion_ps))
            now = max(now, result.completion_ps)
        for channel_windows in windows.values():
            for (s1, e1), (s2, e2) in zip(channel_windows, channel_windows[1:]):
                assert s2 >= e1, "data bursts on one channel must not overlap"


class TestFlatChannelService:
    """The flat per-transaction timing routine, ``Channel.service_prepared``.

    Bank slot ``rank * banks_per_rank + bank``; slots 0..7 share rank 0.
    """

    SIZE = 64  # 8 bus cycles at 8 B/cycle

    @staticmethod
    def channel(**timing_overrides) -> Channel:
        config = DramConfig(timing=replace(DramTimingConfig(), **timing_overrides))
        return Channel(0, config, DramTimingPs.from_config(config.timing, 1866.0))

    def test_closed_hit_and_miss_latencies(self):
        channel = self.channel()
        t = channel.timing
        burst = t.burst_ps(self.SIZE, 8)
        start, end, state = channel.service_prepared(0, 5, self.SIZE, False, 0)
        assert state is RowBufferState.CLOSED
        assert (start, end) == (t.t_rcd_ps + t.cl_ps, t.t_rcd_ps + t.cl_ps + burst)
        later = 10**7
        start, _, state = channel.service_prepared(0, 5, self.SIZE, False, later)
        assert state is RowBufferState.HIT
        assert start == later + t.row_hit_ps
        start, _, state = channel.service_prepared(0, 6, self.SIZE, False, 2 * later)
        assert state is RowBufferState.MISS
        assert start == 2 * later + t.t_rp_ps + t.t_rcd_ps + t.cl_ps
        bank = channel.banks[(0, 0)]
        assert (bank.hits, bank.misses, bank.closed_accesses) == (1, 1, 1)
        assert channel.ranks[0].total_activations == 2

    def test_trrd_delays_second_activation_in_a_rank(self):
        channel = self.channel()
        t = channel.timing
        channel.service_prepared(0, 1, self.SIZE, False, 0)
        # Bank 1 of the same rank, ready at once: its activation waits tRRD,
        # which here ends after the first burst has freed the bus.
        start, _, _ = channel.service_prepared(1, 1, self.SIZE, False, 0)
        assert start == t.t_rrd_ps + t.t_rcd_ps + t.cl_ps
        # A bank of the other rank is not held back by rank 0's tRRD.
        channel.service_prepared(8, 1, self.SIZE, False, 0)
        assert list(channel.ranks[1]._activations) == [0]

    def test_tfaw_delays_fifth_activation_in_a_rank(self):
        # tFAW of 120 cycles exceeds 4 x tRRD (76), so it binds the fifth.
        channel = self.channel(t_faw=120)
        t = channel.timing
        for slot in range(4):
            channel.service_prepared(slot, 1, self.SIZE, False, 0)
        assert list(channel.ranks[0]._activations) == [
            slot * t.t_rrd_ps for slot in range(4)
        ]
        start, _, _ = channel.service_prepared(4, 1, self.SIZE, False, 0)
        assert channel.ranks[0]._activations[-1] == t.t_faw_ps
        assert start == t.t_faw_ps + t.t_rcd_ps + t.cl_ps

    def test_out_of_order_activation_rejected(self):
        channel = self.channel()
        channel.service_prepared(0, 1, self.SIZE, False, 10**6)
        # Only a negative tRRD can place an activation before the previous
        # one; the routine refuses instead of recording it.
        channel.set_timing(replace(channel.timing, t_rrd_ps=-(10**6)))
        with pytest.raises(ValueError, match="non-decreasing"):
            channel.service_prepared(1, 1, self.SIZE, False, 0)

    def test_negative_ready_time_rejected(self):
        channel = self.channel()
        channel.set_timing(replace(channel.timing, t_rtp_ps=-(10**9)))
        with pytest.raises(ValueError, match="non-negative"):
            channel.service_prepared(0, 1, self.SIZE, False, 0)

    def test_rejects_non_positive_sizes(self):
        channel = self.channel()
        with pytest.raises(ValueError, match="positive"):
            channel.service_prepared(0, 1, 0, False, 0)

    def test_set_frequency_resets_burst_and_row_timings(self):
        device = DramDevice(DramConfig())
        first = device.service(0, 2048, is_write=False, now_ps=0)
        assert first.completion_ps - first.data_start_ps == device.timing.burst_ps(2048, 8)
        device.set_frequency(1300.0)
        slow = device.timing
        assert slow.freq_mhz == 1300.0
        later = first.completion_ps + 10**7
        hit = device.service(1024, 2048, is_write=False, now_ps=later)
        assert hit.row_hit
        assert hit.data_start_ps == later + slow.row_hit_ps
        assert hit.completion_ps - hit.data_start_ps == slow.burst_ps(2048, 8)
        # A row miss on the same bank pays the 1300 MHz precharge too.
        bank = device.decode(0)
        miss_address = next(
            address
            for address in range(0, 2**31, device.config.row_size_bytes)
            if device.decode(address).row != bank.row
            and device.decode(address).bank_key == bank.bank_key
            and device.decode(address).channel == bank.channel
        )
        much_later = hit.completion_ps + 10**7
        miss = device.service(miss_address, 2048, is_write=False, now_ps=much_later)
        assert not miss.row_hit
        assert miss.data_start_ps == much_later + slow.t_rp_ps + slow.t_rcd_ps + slow.cl_ps
        assert miss.completion_ps - miss.data_start_ps == slow.burst_ps(2048, 8)

    def test_device_statistics_sum_channels_and_banks(self, device):
        for index in range(16):
            device.service(index * 4096, 1024, is_write=index % 3 == 0, now_ps=index * 10**6)
        assert device.total_bytes == 16 * 1024
        assert device.write_bytes == 6 * 1024
        assert device.read_bytes == 10 * 1024
        assert device.total_accesses == 16
        assert device.row_hits + device.row_misses + device.row_closed == 16
