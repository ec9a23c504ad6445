"""Memory-controller scheduling policies evaluated in the paper.

* :class:`FcfsPolicy` — first-come-first-serve.
* :class:`RoundRobinPolicy` — round-robin over the five transaction queues.
* :class:`FrFcfsPolicy` — first-ready FCFS (row hits first), the bandwidth
  upper bound of Fig. 8.
* :class:`FrameRateQosPolicy` — the frame-rate-based QoS baseline [Jeong et
  al., DAC 2012]: media cores are prioritised while they miss real-time
  deadlines, everyone else is served best-effort.
* :class:`PriorityQosPolicy` — the paper's Policy 1, priority-based
  round-robin with an aging backstop.
* :class:`PriorityRowBufferPolicy` — the paper's Policy 2 (QoS-RB), Policy 1
  extended with row-buffer-hit optimisation below the delta threshold.

Additional baselines from the related-work literature (not part of the
paper's own comparison, used by the extended benchmarks):

* :class:`AtlasPolicy` — least-attained-service scheduling.
* :class:`TcmPolicy` — two-cluster (latency vs. bandwidth) scheduling.
* :class:`SmsPolicy` — staged-memory-scheduler-style batch scheduling (the paper's
  reference [4]).
* :class:`EdfPolicy` — earliest-deadline-first with per-class budgets.
"""

from typing import Dict, Type

from repro.memctrl.policies.atlas import AtlasPolicy
from repro.memctrl.policies.edf import EdfPolicy
from repro.memctrl.policies.fcfs import FcfsPolicy
from repro.memctrl.policies.frame_rate_qos import FrameRateQosPolicy
from repro.memctrl.policies.frfcfs import FrFcfsPolicy
from repro.memctrl.policies.priority_qos import PriorityQosPolicy
from repro.memctrl.policies.priority_rowbuffer import PriorityRowBufferPolicy
from repro.memctrl.policies.round_robin import RoundRobinPolicy
from repro.memctrl.policies.sms import SmsPolicy
from repro.memctrl.policies.tcm import TcmPolicy
from repro.memctrl.scheduler import SchedulingPolicy

_POLICY_REGISTRY: Dict[str, Type[SchedulingPolicy]] = {
    FcfsPolicy.name: FcfsPolicy,
    RoundRobinPolicy.name: RoundRobinPolicy,
    FrFcfsPolicy.name: FrFcfsPolicy,
    FrameRateQosPolicy.name: FrameRateQosPolicy,
    PriorityQosPolicy.name: PriorityQosPolicy,
    PriorityRowBufferPolicy.name: PriorityRowBufferPolicy,
    AtlasPolicy.name: AtlasPolicy,
    TcmPolicy.name: TcmPolicy,
    SmsPolicy.name: SmsPolicy,
    EdfPolicy.name: EdfPolicy,
}


def available_policies() -> Dict[str, Type[SchedulingPolicy]]:
    """Mapping from policy name to policy class."""
    return dict(_POLICY_REGISTRY)


def register_policy(policy_cls: Type[SchedulingPolicy], replace: bool = False) -> None:
    """Register a user-defined scheduling policy under its ``name`` attribute.

    Registered policies become available to :func:`make_policy`, the system
    builder and the CLI, so downstream users can evaluate their own scheduler
    against the paper's workloads without modifying the package (see
    ``examples/custom_policy.py``).  Note that the NoC configuration validates
    arbitration names against :data:`repro.sim.config.KNOWN_ARBITRATIONS`;
    custom policies are accepted in the memory controller and, when passed as
    instances, in :class:`~repro.noc.arbiter.NocArbiter`.
    """
    if not issubclass(policy_cls, SchedulingPolicy):
        raise TypeError("policy_cls must subclass SchedulingPolicy")
    name = policy_cls.name
    if not name or name == SchedulingPolicy.name:
        raise ValueError("policy_cls must define a unique 'name' attribute")
    if name in _POLICY_REGISTRY and not replace:
        raise ValueError(f"policy '{name}' is already registered (pass replace=True)")
    _POLICY_REGISTRY[name] = policy_cls


def make_policy(name: str) -> SchedulingPolicy:
    """Instantiate a scheduling policy by its registry name."""
    try:
        policy_cls = _POLICY_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_POLICY_REGISTRY))
        raise ValueError(f"unknown scheduling policy '{name}' (known: {known})") from None
    return policy_cls()


__all__ = [
    "AtlasPolicy",
    "EdfPolicy",
    "FcfsPolicy",
    "FrFcfsPolicy",
    "FrameRateQosPolicy",
    "PriorityQosPolicy",
    "PriorityRowBufferPolicy",
    "RoundRobinPolicy",
    "SmsPolicy",
    "TcmPolicy",
    "available_policies",
    "make_policy",
    "register_policy",
]
