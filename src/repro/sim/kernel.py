"""Simulation-kernel selection: the scalar reference vs the batched core.

The simulator ships two interchangeable execution kernels:

* ``"scalar"`` — the original object-per-event implementation.  Every
  scheduling decision scans Python lists, every transaction is a dataclass
  with a coherency hook, every NoC hop allocates a packet.  It is the
  readable reference the paper-facing code was written against.
* ``"batched"`` — the event-batched core.  Candidate sets are kept as
  parallel list columns scanned by per-policy selectors, addresses are
  decoded once per transaction, NoC hops are packetless, and the engine run
  loop is inlined.  Results are **bit-identical** to the scalar kernel: the
  batched components replicate every observable state transition (policy
  round-robin turns, aging services, float accumulation order, uid
  sequence), and ``tests/test_batched_kernel.py`` plus the CI parity job
  assert equality of full result dictionaries across every bundled scenario.

The kernel is *not* part of :class:`~repro.sim.config.SimulationConfig`:
both kernels produce the same results, so the choice is an execution detail
(like the number of worker processes), not an experiment parameter.  Keeping
it out of the config keeps scenario files, result fingerprints and cache
keys unchanged — a sweep may mix kernels and still share its result cache.

Selection order: an explicit ``kernel=`` argument to
:func:`repro.system.builder.build_system` /
:func:`repro.system.experiment.run_experiment` wins, then the
``REPRO_SIM_KERNEL`` environment variable, then the default ("batched").
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment variable consulted when no explicit kernel is requested.
KERNEL_ENV_VAR = "REPRO_SIM_KERNEL"

#: The kernels this build knows how to construct.
KNOWN_KERNELS = ("scalar", "batched")

#: Used when neither the caller nor the environment chooses.
DEFAULT_KERNEL = "batched"


def resolve_kernel(kernel: Optional[str] = None) -> str:
    """Resolve the kernel name to use for a run.

    ``None`` falls back to ``$REPRO_SIM_KERNEL``, then to
    :data:`DEFAULT_KERNEL`.  Unknown names raise ``ValueError`` so a typo in
    CI configuration fails loudly instead of silently benchmarking the wrong
    kernel.
    """
    if kernel is None:
        kernel = os.environ.get(KERNEL_ENV_VAR) or DEFAULT_KERNEL
    if kernel not in KNOWN_KERNELS:
        raise ValueError(
            f"unknown simulation kernel '{kernel}' (known: {', '.join(KNOWN_KERNELS)})"
        )
    return kernel
