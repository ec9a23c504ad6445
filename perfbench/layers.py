"""Per-layer attribution for the traced pass: wrapper timers and profile grouping.

Everything here is installed only for the traced pass and removed after it,
so the untraced passes that give the end-to-end metrics run the program's
code exactly as a user would.

* :class:`LayerTimers` replaces public entry points (module functions and
  class methods) with wrappers that charge the call's *self* time to a named
  layer: the elapsed time minus the time spent in nested wrapped calls on
  the same thread.  Self times therefore never double count, and their sum
  can never exceed the wall time of the thread that made the calls.
* :func:`profile_self_by_package` groups a ``cProfile`` run's self time by
  ``repro.<package>``; time in functions outside the program (builtins,
  stdlib, numpy) is charged to the program package that called them.
"""

from __future__ import annotations

import functools
import inspect
import pstats
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Path fragment identifying the program's own source files in a profile.
_SRC_MARK = "/src/repro/"


class LayerTimers:
    """Self-time accounting for wrapped entry points, per layer name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> float:
        self._stack().append(0.0)
        return time.perf_counter()

    def _exit(self, layer: str, started: float) -> None:
        elapsed = time.perf_counter() - started
        stack = self._stack()
        nested = stack.pop()
        if stack:
            stack[-1] += elapsed
        with self._lock:
            self.self_s[layer] += elapsed - nested
            self.calls[layer] += 1

    def wrap(self, layer: str, function: Callable) -> Callable:
        """A timed stand-in for ``function`` charging ``layer``."""
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def timed_async(*args, **kwargs):
                started = self._enter()
                try:
                    return await function(*args, **kwargs)
                finally:
                    self._exit(layer, started)

            return timed_async

        @functools.wraps(function)
        def timed(*args, **kwargs):
            started = self._enter()
            try:
                return function(*args, **kwargs)
            finally:
                self._exit(layer, started)

        return timed

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def patch_method(self, cls: type, name: str, layer: str) -> None:
        """Wrap ``cls.name`` (defined on the class itself)."""
        original = cls.__dict__[name]
        self._restore.append((cls, name, original))
        setattr(cls, name, self.wrap(layer, original))

    def patch_function(self, function: Callable, layer: str) -> None:
        """Wrap a module-level function in every ``repro`` module binding it.

        Modules import entry points by name (``from repro.x import f``), so
        patching only the defining module would miss most call sites.
        """
        wrapped = self.wrap(layer, function)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


def _package_of(filename: str) -> Optional[str]:
    """``memctrl`` for ``.../src/repro/memctrl/columnar.py``, else ``None``."""
    path = filename.replace("\\", "/")
    at = path.rfind(_SRC_MARK)
    if at < 0:
        return None
    rest = path[at + len(_SRC_MARK):]
    head, sep, _ = rest.partition("/")
    return head if sep else "repro"


def profile_self_by_package(stats: pstats.Stats) -> Dict[str, float]:
    """Self seconds per ``repro`` package from a ``cProfile`` run.

    A function outside the program is charged to the packages of its
    callers, split by the self time it spent under each caller; a caller
    that is itself outside the program charges ``other``.
    """
    totals: Dict[str, float] = defaultdict(float)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        package = _package_of(filename)
        if package is not None:
            totals[package] += tt
            continue
        if not callers:
            totals["other"] += tt
            continue
        for (caller_file, _cl, _cn), caller_stats in callers.items():
            caller_tt = caller_stats[2]
            totals[_package_of(caller_file) or "other"] += caller_tt
    return dict(totals)
