"""Store-and-forward router with per-port queues and arbitrated switch allocation."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.memctrl.columnar import ColumnarStore, make_selector
from repro.noc.arbiter import NocArbiter
from repro.noc.link import Link
from repro.noc.packet import Packet
from repro.sim.clock import NS
from repro.sim.engine import Engine

PacketSink = Callable[[Packet], None]


class Router:
    """One router (switch) of the NoC tree.

    Packets arrive on named input ports, wait in per-port queues, and compete
    for the single output link.  When the link is idle the arbiter picks the
    winning packet among everything queued — modelling per-priority virtual
    channels, so an urgent packet is never stuck behind a bulk transfer that
    happens to share its input port.  The winner occupies the link for its
    serialisation delay plus the router's pipeline latency and is handed to
    the downstream sink (another router or the memory controller).

    The candidate set is maintained incrementally, mirroring the memory
    controller's per-channel index: ``_candidates`` maps transaction uid to
    ``(packet, owning port)`` and is updated on receive and forward, so an
    arbitration reads the queued packets directly instead of rebuilding a
    map of every port queue per decision, and the winner is removed in O(1)
    instead of a linear queue scan.  Selection is unaffected: every policy
    breaks ties on total per-transaction keys (enqueue time, uid), never on
    candidate order, and the parity test in ``tests/test_noc_index_parity.py``
    asserts bit-identical results against a rebuild-per-arbitration reference.
    """

    def __init__(
        self,
        name: str,
        engine: Engine,
        arbiter: NocArbiter,
        output_link: Link,
        sink: Optional[PacketSink] = None,
        latency_ns: float = 5.0,
    ) -> None:
        if latency_ns < 0:
            raise ValueError("router latency must be non-negative")
        self.name = name
        self.engine = engine
        self.arbiter = arbiter
        self.output_link = output_link
        self.latency_ps = round(latency_ns * NS)
        self._sink = sink
        # Per-port insertion-ordered queues (uid -> packet) plus the flat
        # incrementally maintained candidate index over all ports.
        self._ports: Dict[str, Dict[int, Packet]] = {}
        self._candidates: Dict[int, Tuple[Packet, Dict[int, Packet]]] = {}
        self._busy = False
        self._gate: Optional[Callable[[], bool]] = None
        self.forwarded_packets = 0
        self.forwarded_bytes = 0
        self.stalled_attempts = 0

    def set_sink(self, sink: PacketSink) -> None:
        """Connect the router's output to its downstream consumer."""
        self._sink = sink

    def set_gate(self, gate: Callable[[], bool]) -> None:
        """Install a back-pressure gate.

        While the gate returns False the router keeps its packets queued at
        the input ports; :meth:`kick` re-arbitrates once the downstream
        resource (e.g. the memory controller's entry pool) has space again.
        """
        self._gate = gate

    def kick(self) -> None:
        """Re-attempt switch allocation (called when back-pressure releases)."""
        self._try_forward()

    def add_port(self, port_name: str) -> None:
        """Declare an input port; receiving on an undeclared port also creates it."""
        self._ports.setdefault(port_name, {})

    def receive(self, port_name: str, packet: Packet) -> None:
        """Accept a packet on an input port and try to allocate the switch."""
        port = self._ports.setdefault(port_name, {})
        uid = packet.transaction.uid
        port[uid] = packet
        self._candidates[uid] = (packet, port)
        self._try_forward()

    def occupancy(self) -> int:
        """Total packets waiting across all input ports."""
        return len(self._candidates)

    def _try_forward(self) -> None:
        if self._busy or self._sink is None:
            return
        if not self._candidates:
            return
        if self._gate is not None and not self._gate():
            self.stalled_attempts += 1
            return
        chosen_txn = self.arbiter.select(
            [packet.transaction for packet, _ in self._candidates.values()],
            self.engine.now_ps,
        )
        packet, port = self._candidates.pop(chosen_txn.uid)
        del port[chosen_txn.uid]
        self._busy = True
        finish_ps = self.output_link.reserve(self.engine.now_ps, packet.size_bytes)
        self.engine.schedule_at(finish_ps + self.latency_ps, self._deliver, packet)

    def _deliver(self, packet: Packet) -> None:
        packet.record_hop(self.name)
        self.forwarded_packets += 1
        self.forwarded_bytes += packet.size_bytes
        self._busy = False
        sink = self._sink
        if sink is not None:
            sink(packet)
        self._try_forward()


class BatchedRouter(Router):
    """The batched kernel's router: packetless, with columnar arbitration.

    Same arbitration semantics, link reservation, gate handling and
    statistics as :class:`Router`, with two structural changes:

    * transactions traverse the NoC bare instead of wrapped in
      :class:`~repro.noc.packet.Packet` objects (one allocation per hop
      saved; the per-hop trace only ever fed debugging);
    * the candidate set lives in a
      :class:`~repro.memctrl.columnar.ColumnarStore` in unsorted mode
      (arrival order at a router does not track age), so arbitration for the
      built-in policies is a selector scan over its columns.  Policies
      without a selector get the same insertion-ordered candidate list the
      scalar router would build.

    Only used in topologies built entirely from batched routers — the sinks
    wired by the topology builders are payload-opaque, so the bare
    transaction flows through to the network's controller sink.
    """

    def __init__(
        self,
        name: str,
        engine: Engine,
        arbiter: NocArbiter,
        output_link: Link,
        sink: Optional[PacketSink] = None,
        latency_ns: float = 5.0,
    ) -> None:
        super().__init__(name, engine, arbiter, output_link, sink, latency_ns)
        # Optimistically sorted: a leaf (cluster) router receives transactions
        # in creation order because DMAs inject synchronously at creation, so
        # its store stays on the O(1)/early-exit "oldest is the head" paths.
        # Interior routers (the root) merge links of different speeds, arrival
        # order diverges from age order, and the store's own push guard
        # degrades them to the scan paths — selection results are
        # identical either way.
        self._selector = make_selector(arbiter.policy)
        self._store = ColumnarStore.for_selector(
            self._selector, codebook={}, sorted_mode=True, track_rows=False
        )
        self._serve_direct = getattr(self._selector, "serve_direct", None)

    def receive(self, port_name: str, transaction) -> None:
        """Accept a transaction on an input port and try to allocate the switch."""
        store = self._store
        if not self._busy and not store.live and self._sink is not None:
            # Empty-idle bypass: the arbitration over a one-candidate set is
            # trivially this transaction, so skip the store round-trip and
            # only commit the selector's policy state.  Net state changes
            # (gate stall accounting included) are identical to the
            # push + _try_forward path.
            if self._gate is not None and not self._gate():
                self.stalled_attempts += 1
                store.push(transaction)
                return
            serve_direct = self._serve_direct
            engine = self.engine
            if serve_direct is not None and serve_direct(
                store, transaction, engine._now_ps
            ):
                self._busy = True
                finish_ps = self.output_link.reserve(
                    engine._now_ps, transaction.size_bytes
                )
                engine.schedule_call(
                    finish_ps + self.latency_ps, self._deliver, (transaction,)
                )
                return
        store.push(transaction)
        if not self._busy:
            self._try_forward()

    def occupancy(self) -> int:
        """Total transactions waiting across all input ports."""
        return self._store.live

    def kick(self) -> None:
        """Re-attempt switch allocation (called when back-pressure releases)."""
        if not self._busy and self._store.live:
            self._try_forward()

    def _try_forward(self) -> None:
        if self._busy or self._sink is None:
            return
        store = self._store
        if not store.live:
            return
        if self._gate is not None and not self._gate():
            self.stalled_attempts += 1
            return
        engine = self.engine
        selector = self._selector
        if selector is not None:
            index = selector.select(store, engine._now_ps)
            transaction = store.objs[index]
        else:
            transaction = self.arbiter.select(
                store.fallback_candidates(), engine._now_ps
            )
            index = store.index_of_uid(transaction.uid)
        store.remove_index(index)
        self._busy = True
        finish_ps = self.output_link.reserve(engine._now_ps, transaction.size_bytes)
        # Deliveries are never cancelled, so skip the Event handle entirely.
        engine.schedule_call(
            finish_ps + self.latency_ps, self._deliver, (transaction,)
        )

    def _deliver(self, transaction) -> None:
        self.forwarded_packets += 1
        self.forwarded_bytes += transaction.size_bytes
        self._busy = False
        sink = self._sink
        if sink is not None:
            sink(transaction)
        if self._store.live and not self._busy:
            self._try_forward()
