"""Golden result corpus: the simulator's results, pinned bit for bit.

Every bundled scenario runs under every registered policy at two traffic
scales, plus one run with a DVFS governor re-clocking the DRAM. Each point's
full result dict (trace included) is reduced to the sha256 of its canonical
JSON and compared against ``tests/data/golden_results.json``.

The scalar/batched parity test cannot catch a DRAM timing change, because
both kernels share the DRAM model; this corpus can. It is a regression pin,
not a model check: a deliberate model change regenerates it with

    PYTHONPATH=src python tests/test_golden_results.py

and says why in the change description.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.analysis.serialize import experiment_result_to_dict
from repro.dvfs.experiment import run_with_governor
from repro.dvfs.governor import PriorityPressureGovernor
from repro.memctrl.policies import available_policies
from repro.scenario.catalog import builtin_scenario_paths
from repro.sim.clock import US
from repro.store.manifest import canonical_json
from repro.system.experiment import run_experiment

CORPUS_PATH = Path(__file__).parent / "data" / "golden_results.json"

DURATION_PS = 100 * US
TRAFFIC_SCALES = (1.0, 0.2)
DVFS_KEY = "dvfs/case_b/priority_qos/priority_pressure"


def _digest(payload: Dict[str, object]) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def point_keys() -> List[Tuple[str, str, str, float]]:
    """(key, scenario, policy, traffic scale) for every corpus point."""
    return [
        (f"{scenario}/{policy}/{scale}", scenario, policy, scale)
        for scenario in builtin_scenario_paths()
        for policy in available_policies()
        for scale in TRAFFIC_SCALES
    ]


def point_digest(scenario: str, policy: str, scale: float) -> str:
    result = run_experiment(
        scenario, policy=policy, duration_ps=DURATION_PS, traffic_scale=scale
    )
    return _digest(experiment_result_to_dict(result, include_trace=True))


def dvfs_digest() -> str:
    """One governor-in-the-loop run: the DRAM is re-clocked mid-run."""
    outcome = run_with_governor(
        PriorityPressureGovernor(),
        scenario="case_b",
        policy="priority_qos",
        duration_ps=2 * DURATION_PS,
        traffic_scale=1.0,
        interval_ps=10 * US,
    )
    return _digest(
        {
            "experiment": experiment_result_to_dict(
                outcome.experiment, include_trace=True
            ),
            "residency": {str(freq): share for freq, share in outcome.residency.items()},
            "transitions": outcome.transitions,
            "mean_freq_mhz": outcome.mean_freq_mhz,
            "energy_j": outcome.energy.total_j,
        }
    )


def record() -> Dict[str, str]:
    corpus = {key: point_digest(*point) for key, *point in point_keys()}
    corpus[DVFS_KEY] = dvfs_digest()
    return corpus


@pytest.fixture(scope="module")
def corpus() -> Dict[str, str]:
    return json.loads(CORPUS_PATH.read_text())


def test_corpus_covers_every_scenario_and_policy(corpus):
    assert set(corpus) == {key for key, *_ in point_keys()} | {DVFS_KEY}


@pytest.mark.parametrize(
    "key,scenario,policy,scale", point_keys(), ids=[key for key, *_ in point_keys()]
)
def test_point_matches_golden_digest(corpus, key, scenario, policy, scale):
    assert point_digest(scenario, policy, scale) == corpus[key]


def test_dvfs_run_matches_golden_digest(corpus):
    assert dvfs_digest() == corpus[DVFS_KEY]


if __name__ == "__main__":
    CORPUS_PATH.parent.mkdir(parents=True, exist_ok=True)
    CORPUS_PATH.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {CORPUS_PATH}")
