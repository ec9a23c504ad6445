"""Point-to-point NoC links with finite bandwidth."""

from __future__ import annotations

from repro.sim.clock import NS


class Link:
    """A link characterised by its bandwidth in bytes per nanosecond."""

    def __init__(self, name: str, bytes_per_ns: float) -> None:
        if bytes_per_ns <= 0:
            raise ValueError(f"link bandwidth must be positive, got {bytes_per_ns}")
        self.name = name
        self.bytes_per_ns = bytes_per_ns
        self.busy_until_ps = 0
        self.bytes_transferred = 0
        # Payload sizes are fixed per DMA, so a link only ever sees a handful
        # of distinct sizes; memoising the serialisation delay turns the
        # per-reserve float division into a dict hit.
        self._time_cache: dict = {}

    def transfer_time_ps(self, size_bytes: int) -> int:
        """Serialisation delay of a payload on this link."""
        time_ps = self._time_cache.get(size_bytes)
        if time_ps is None:
            if size_bytes <= 0:
                raise ValueError(f"payload size must be positive, got {size_bytes}")
            time_ps = max(1, round(size_bytes / self.bytes_per_ns * NS))
            self._time_cache[size_bytes] = time_ps
        return time_ps

    def reserve(self, now_ps: int, size_bytes: int) -> int:
        """Occupy the link for one payload; returns the transfer end time."""
        time_ps = self._time_cache.get(size_bytes)
        if time_ps is None:
            time_ps = self.transfer_time_ps(size_bytes)
        busy = self.busy_until_ps
        end = (now_ps if now_ps >= busy else busy) + time_ps
        self.busy_until_ps = end
        self.bytes_transferred += size_bytes
        return end

    def utilisation(self, elapsed_ps: int) -> float:
        """Fraction of elapsed time the link spent transferring data."""
        if elapsed_ps <= 0:
            raise ValueError("elapsed_ps must be positive")
        busy = self.bytes_transferred / self.bytes_per_ns * NS
        return min(1.0, busy / elapsed_ps)
