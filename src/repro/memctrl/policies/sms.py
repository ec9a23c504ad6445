"""Staged-Memory-Scheduler-style batch scheduling (Ausavarungnirun et al., ISCA 2012).

SMS — reference [4] of the paper — decouples scheduling into batch formation
(per-source groups of row-local requests) and a batch scheduler that
alternates between shortest-job-first (favouring latency-sensitive sources
with small batches) and round-robin (guaranteeing bandwidth-heavy sources
forward progress).  This reproduction keeps that two-stage structure at the
transaction level:

* a *batch* is everything a source currently has visible to the scheduler;
* the batch scheduler serves the source with the smallest batch for
  ``sjf_weight`` out of every ``sjf_weight + 1`` decisions and round-robins
  over sources otherwise, a deterministic stand-in for the probabilistic
  alternation of the original design.

SMS was designed for CPU+GPU systems; it has no channel for the diverse QoS
targets of Table 2, which is why it appears here only as a baseline.
"""

from __future__ import annotations

from typing import Dict, List

from repro.memctrl.scheduler import SchedulingContext, SchedulingPolicy
from repro.memctrl.transaction import Transaction


class SmsPolicy(SchedulingPolicy):
    """Batch-based scheduling alternating shortest-job-first and round-robin."""

    name = "sms"

    def __init__(self, sjf_weight: int = 9) -> None:
        if sjf_weight < 1:
            raise ValueError("sjf_weight must be at least 1")
        self.sjf_weight = sjf_weight
        self._decision = 0
        self._last_served_turn: Dict[str, int] = {}
        self._turn = 0

    def _batches(self, candidates: List[Transaction]) -> Dict[str, List[Transaction]]:
        batches: Dict[str, List[Transaction]] = {}
        for transaction in candidates:
            batches.setdefault(transaction.dma, []).append(transaction)
        return batches

    def _serve_source(self, batch: List[Transaction]) -> Transaction:
        chosen = self.oldest(batch)
        self._turn += 1
        self._last_served_turn[chosen.dma] = self._turn
        return chosen

    def select(
        self, candidates: List[Transaction], context: SchedulingContext
    ) -> Transaction:
        self._check_candidates(candidates)
        batches = self._batches(candidates)
        self._decision += 1
        use_round_robin = self._decision % (self.sjf_weight + 1) == 0
        if use_round_robin:
            source = min(
                batches,
                key=lambda name: (self._last_served_turn.get(name, -1), name),
            )
        else:
            source = min(
                batches,
                key=lambda name: (len(batches[name]), self._last_served_turn.get(name, -1), name),
            )
        return self._serve_source(batches[source])
