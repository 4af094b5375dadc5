"""The committed facts of each bundled plan, recomputed and compared.

plan_facts.json holds one record per bundled scenario: the solve's status,
iteration count and residual audit, the model's size (variables, equality
rows and nonzeros of compile_plan's triplets), the objective and the snap.
Each number sits next to the tolerance it is compared at, and the file
names the commit, BLAS thread count and host that wrote it.

Rewrite the file after an intended change, from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_plan_facts.py

and list in CHANGES.md each value that moved.
"""

import json
import os
import platform
import re
import subprocess
from pathlib import Path

import numpy as np
import pytest
import scipy

from safeflight import socp
from safeflight.cli import bundled_scenarios, load_scenario
from safeflight.planner import compile_plan, plan

FACTS = Path(__file__).with_name("plan_facts.json")

# (atol, rtol) of each number: |got - value| <= atol + rtol |value|. Each is
# the largest spread measured over the 8 bundled plans when the solve runs
# on each of OpenBLAS's kernels (OPENBLAS_CORETYPE = Core2, Prescott,
# Nehalem, Sandybridge, Haswell, Zen, SkylakeX), a stand-in for another
# machine's BLAS. Never widen one to let a change pass.
TOLERANCES = {
    "status": (0, 0),
    "variables": (0, 0),  # the model's size does not depend on the BLAS
    "equality_rows": (0, 0),
    "nonzeros": (0, 0),
    "iterations": (2, 0),  # example2_window: 18, and 20 on Core2 and Prescott
    # 1.0e-9 (example3_c2_s1_c3 in 18 and 17 iterations); up to 2.9e-9 has
    # been seen under last-bit changes of the model.
    "objective": (0, 3e-9),
    "snap": (0, 5e-6),  # 4.8e-6 of hover's roundoff snap, 4.4e-19; 1.2e-6 elsewhere
    "max_residual": (4e-9, 0),  # margin_demo: 3.6e-9, and 7.6e-11 in 15 iterations
}


def plan_facts(name: str) -> dict:
    """The facts of one bundled scenario's plan, by the names of TOLERANCES."""
    scenario = load_scenario(name).planning
    pl = plan(scenario)
    sol = pl.solution
    _, _, vals, _, cones = compile_plan(scenario)[0].cp._triplets()
    return {
        "status": sol.status,
        "iterations": sol.iterations,
        "variables": int(sol.x.size),
        "equality_rows": cones.zero,
        "nonzeros": int(vals.size),
        "objective": sol.objective,
        "snap": pl.snap,
        "max_residual": sol.max_residual,
    }


def _within(got, fact: dict) -> bool:
    value = fact["value"]
    if isinstance(value, str):
        return got == value
    return abs(got - value) <= fact["atol"] + fact["rtol"] * abs(value)


@pytest.fixture(scope="module")
def table():
    return json.loads(FACTS.read_text())


def test_covers_every_bundled_scenario(table):
    assert list(table["plans"]) == bundled_scenarios()


@pytest.mark.parametrize("name", bundled_scenarios())
def test_plan_matches_the_committed_facts(table, name):
    facts = table["plans"][name]
    got = plan_facts(name)
    assert list(got) == list(facts)
    moved = {key: (got[key], fact) for key, fact in facts.items() if not _within(got[key], fact)}
    assert not moved, f"{name}: recomputed value, committed fact: {moved}"


def _describe_commit() -> str:
    """The checkout's commit, with -dirty if the working tree differs from it."""
    try:
        run = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=FACTS.parent, capture_output=True
        )
    except OSError:
        return "unknown"
    return run.stdout.decode().strip() or "unknown"


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or platform.machine()


def write_table() -> None:
    plans = {}
    for name in bundled_scenarios():
        plans[name] = {
            key: {"value": value, "atol": TOLERANCES[key][0], "rtol": TOLERANCES[key][1]}
            for key, value in plan_facts(name).items()
        }
    capped = bool(socp._BLAS_SETTERS)  # the solve ran each OpenBLAS it found on one thread
    table = {
        "commit": _describe_commit(),
        "blas_threads": 1 if capped else os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "host": {
            "cpu": _cpu(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "plans": plans,
    }
    # One line per fact: its value and tolerances side by side.
    fact = re.compile(r'\{\n\s+("value".*),\n\s+("atol".*),\n\s+("rtol".*)\n\s+\}')
    FACTS.write_text(fact.sub(r"{\1, \2, \3}", json.dumps(table, indent=2)) + "\n")


if __name__ == "__main__":
    write_table()
