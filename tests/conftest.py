"""Shared fixtures: bundled scenarios and cached plans.

Planning Example-1 takes a noticeable fraction of a second and several test
modules need the same plan, so solves are cached for the whole session.
"""

import numpy as np
import pytest

from safeflight.cli import load_scenario
from safeflight.planner import plan


@pytest.fixture(scope="session")
def example1_scenario():
    return load_scenario("example1")


@pytest.fixture(scope="session")
def example1_plan(example1_scenario):
    return plan(example1_scenario.planning)


@pytest.fixture(scope="session")
def hover_scenario():
    return load_scenario("hover")


@pytest.fixture(scope="session")
def hover_plan(hover_scenario):
    return plan(hover_scenario.planning)


@pytest.fixture(scope="session")
def bundled_plan():
    """Solved plan of a bundled scenario by name, each solved once per session."""
    plans = {}

    def get(name):
        if name not in plans:
            plans[name] = plan(load_scenario(name).planning)
        return plans[name]

    return get


@pytest.fixture()
def rng():
    return np.random.default_rng(91)
