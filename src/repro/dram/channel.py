"""A DRAM channel: banks, ranks, a shared data bus and service-time computation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.dram.address import DecodedAddress
from repro.dram.bank import Bank, RowBufferState
from repro.dram.rank import Rank
from repro.dram.timing import DramTimingPs
from repro.sim.config import DramConfig


@dataclass(frozen=True)
class ChannelServiceResult:
    """Outcome of serving one transaction on a channel."""

    data_start_ps: int
    completion_ps: int
    state: RowBufferState


class Channel:
    """One DRAM channel with its own banks and data bus.

    The data bus is the shared bandwidth bottleneck: every transaction
    occupies it for the duration of its burst.  Bank preparation (precharge +
    activation) happens in parallel with other banks' bursts, which is how
    bank-level parallelism shows up in aggregate bandwidth.
    """

    def __init__(self, index: int, config: DramConfig, timing: DramTimingPs) -> None:
        self.index = index
        self.config = config
        self.timing = timing
        self.bus_free_at_ps = 0
        self.banks: Dict[Tuple[int, int], Bank] = {}
        self.ranks: Dict[int, Rank] = {}
        for rank in range(config.ranks_per_channel):
            self.ranks[rank] = Rank(rank)
            for bank in range(config.banks_per_rank):
                self.banks[(rank, bank)] = Bank(rank=rank, index=bank)
        #: Banks and their ranks by flat bank slot (rank * banks_per_rank +
        #: bank), the coordinate the memory controller keeps per transaction.
        self._banks_per_rank = config.banks_per_rank
        self._slot_banks: List[Bank] = list(self.banks.values())
        self._slot_ranks: List[Rank] = [
            self.ranks[bank.rank] for bank in self._slot_banks
        ]
        #: Burst time per transfer size at the current timing; DMAs use one
        #: size each, so this holds a handful of entries.
        self._burst_ps: Dict[int, int] = {}
        self.bytes_served = 0
        self.write_bytes = 0
        self.busy_time_ps = 0

    def set_timing(self, timing: DramTimingPs) -> None:
        """Switch the channel to a new resolved timing (DVFS)."""
        self.timing = timing
        self._burst_ps.clear()

    def is_row_hit(self, decoded: DecodedAddress) -> bool:
        """Would an access to this address hit the currently open row?"""
        bank = self.banks[decoded.bank_key]
        return bank.classify(decoded.row) is RowBufferState.HIT

    def row_buffer_hit_rate(self) -> float:
        """Aggregate row-buffer hit rate over all banks of the channel."""
        hits = sum(bank.hits for bank in self.banks.values())
        total = sum(bank.total_accesses for bank in self.banks.values())
        return hits / total if total else 0.0

    def service(
        self, decoded: DecodedAddress, size_bytes: int, is_write: bool, now_ps: int
    ) -> ChannelServiceResult:
        """Serve one transaction and return its timing.

        The caller (the memory controller) is responsible for only issuing one
        transaction at a time per channel scheduling slot; the channel itself
        enforces bus and bank availability.
        """
        if size_bytes <= 0:
            raise ValueError(f"transfer size must be positive, got {size_bytes}")
        data_start_ps, completion_ps, state = self.service_prepared(
            decoded.rank * self._banks_per_rank + decoded.bank,
            decoded.row,
            size_bytes,
            is_write,
            now_ps,
        )
        return ChannelServiceResult(
            data_start_ps=data_start_ps, completion_ps=completion_ps, state=state
        )

    def service_prepared(
        self,
        bank_slot: int,
        row: int,
        size_bytes: int,
        is_write: bool,
        now_ps: int,
    ) -> Tuple[int, int, RowBufferState]:
        """The service-time computation on pre-decoded coordinates.

        Single source of truth for channel timing: :meth:`service` delegates
        here, and the batched memory controller calls it (bound once in
        :attr:`DramDevice.channel_services`) with the bank slot and row it
        decoded once at enqueue.  Returns ``(data_start_ps, completion_ps,
        state)``.

        One flat function, because it runs once per DRAM transaction: the
        row-buffer classification (:meth:`Bank.classify`), the rank's
        tRRD/tFAW activation window (:meth:`Rank.earliest_activation_ps` /
        :meth:`Rank.record_activation`) and the bank commit
        (:meth:`Bank.record_access`) are inlined with their checks, and the
        burst time comes from a per-size cache that :meth:`set_timing`
        clears.
        """
        bank = self._slot_banks[bank_slot]
        timing = self.timing
        open_row = bank.open_row

        bank_available_ps = bank.ready_at_ps
        if bank_available_ps < now_ps:
            bank_available_ps = now_ps
        if open_row == row:
            state = RowBufferState.HIT
            data_ready_ps = bank_available_ps + timing.row_hit_ps
        else:
            # A precharge (row miss only) plus an activation is required; the
            # activation must respect the rank's tRRD/tFAW window.
            if open_row is None:
                state = RowBufferState.CLOSED
                activation_ps = bank_available_ps
            else:
                state = RowBufferState.MISS
                activation_ps = bank_available_ps + timing.t_rp_ps
            rank = self._slot_ranks[bank_slot]
            activations = rank._activations
            if activations:
                last_ps = activations[-1]
                if activation_ps < last_ps + timing.t_rrd_ps:
                    activation_ps = last_ps + timing.t_rrd_ps
                if (
                    len(activations) == Rank.FAW_WINDOW
                    and activation_ps < activations[0] + timing.t_faw_ps
                ):
                    activation_ps = activations[0] + timing.t_faw_ps
                if activation_ps < last_ps:
                    raise ValueError(
                        "activations must be recorded in non-decreasing time order"
                    )
            activations.append(activation_ps)
            rank.total_activations += 1
            data_ready_ps = activation_ps + timing.t_rcd_ps + timing.cl_ps

        burst_ps = self._burst_ps.get(size_bytes)
        if burst_ps is None:
            burst_ps = timing.burst_ps(size_bytes, self.config.bus_bytes_per_cycle)
            self._burst_ps[size_bytes] = burst_ps
        data_start_ps = data_ready_ps
        if data_start_ps < self.bus_free_at_ps:
            data_start_ps = self.bus_free_at_ps
        completion_ps = data_start_ps + burst_ps

        ready_at_ps = completion_ps + (timing.t_wr_ps if is_write else timing.t_rtp_ps)
        if ready_at_ps < 0:
            raise ValueError("ready_at_ps must be non-negative")
        bank.open_row = row
        bank.ready_at_ps = ready_at_ps
        if state is RowBufferState.HIT:
            bank.hits += 1
        elif state is RowBufferState.MISS:
            bank.misses += 1
        else:
            bank.closed_accesses += 1
        self.bus_free_at_ps = completion_ps
        self.bytes_served += size_bytes
        if is_write:
            self.write_bytes += size_bytes
        self.busy_time_ps += burst_ps
        return data_start_ps, completion_ps, state

    def next_free_ps(self) -> int:
        """Earliest time the data bus becomes available again."""
        return self.bus_free_at_ps
