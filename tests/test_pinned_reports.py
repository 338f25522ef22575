"""SA, GA and multi_run reports at fixed seeds, pinned to recorded ones.

Speed-ups to the metaheuristics must leave every answer, RNG draw and report
byte unchanged. The reports in ``data/meta_reports.json`` were recorded from
the code before candidates were priced through a per-run sizing memo; a
change that alters them on purpose re-records them with

    PYTHONPATH=src python tests/test_pinned_reports.py

and says why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from chargeplan.exact import report_to_dict  # noqa: E402
from chargeplan.metaheuristics import (  # noqa: E402
    GAParams,
    SAParams,
    genetic_algorithm,
    multi_run,
    simulated_annealing,
)
from gen import feasible_instance  # noqa: E402

PINNED = Path(__file__).parent / "data" / "meta_reports.json"


def _instances() -> dict:
    return {
        # c06's 20x5 family: tight caps, so some candidates cannot be sized
        "c06-9011": feasible_instance(9011, n_demand=20, n_station=5, cap_range=(6, 14)),
        # a proximity seed on which SA or GA once broke the closest-station rule
        "prox-320": replace(feasible_instance(320, n_demand=6, n_station=5), enforce_proximity=True),
        # twelve stations, so activations span more bits than the 5-station cases
        "wide-1": feasible_instance(1, n_demand=16, n_station=12, cap_range=(3, 8)),
        "wide-1-prox": replace(feasible_instance(1, n_demand=16, n_station=12, cap_range=(3, 8)),
                               enforce_proximity=True),
    }


SA = SAParams(max_iterations=400, assignment_randomness=0.2, seed=5)
GA = GAParams(max_iterations=400, assignment_randomness=0.2, seed=5)
RUNS = {
    "sa": lambda inst: simulated_annealing(inst, SA),
    "ga": lambda inst: genetic_algorithm(inst, GA),
    "multi-sa": lambda inst: multi_run(inst, "sa", replace(SA, max_iterations=150), n_runs=3),
    "multi-ga": lambda inst: multi_run(inst, "ga", replace(GA, max_iterations=150), n_runs=3),
}


def _report(instance, run: str) -> dict:
    # through JSON, as a report file holds it: tuples become lists
    return json.loads(json.dumps(report_to_dict(RUNS[run](instance))))


@pytest.fixture(scope="module")
def instances():
    return _instances()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["c06-9011", "prox-320", "wide-1", "wide-1-prox"])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_report_equals_pinned(instances, pinned, name, run):
    assert _report(instances[name], run) == pinned[f"{name}/{run}"]


if __name__ == "__main__":
    reports = {f"{name}/{run}": _report(inst, run) for name, inst in _instances().items() for run in sorted(RUNS)}
    PINNED.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="utf-8")
