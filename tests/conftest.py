"""Shared fixtures: bundled scenarios and cached plans.

Planning Example-1 takes a noticeable fraction of a second and several test
modules need the same plan, so solves are cached for the whole session.
"""

import numpy as np
import pytest

from oracles import csc_scaled_matrix
from safeflight import socp
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


@pytest.fixture()
def assert_reference_scaling(monkeypatch):
    """Check a cone program's scaled matrix, as its solve builds it, bit for bit.

    One solve without iterations records what _interior_point computes: the
    Ruiz scalings d and c, the dense equality rows E that _KKT receives and
    the CSR cone rows that _ScaledMatrix receives. Each must equal its part
    of oracles.csc_scaled_matrix, CSR arrays included.
    """

    def check(prog):
        seen = {}

        def spy(func):
            def record(*args):
                out = func(*args)
                seen.setdefault(func.__name__, (args, out))
                return out

            return record

        with monkeypatch.context() as patch:
            for name in ("_equilibrate", "_ScaledMatrix", "_KKT"):
                patch.setattr(socp, name, spy(getattr(socp, name)))
            prog.solve(max_iter=0)
        d, c, A = csc_scaled_matrix(prog)
        p = prog._triplets()[4].zero
        got_d, got_c = seen["_equilibrate"][1]
        G = seen["_ScaledMatrix"][0][0]  # the CSR cone rows
        E = seen["_KKT"][0][2]  # the dense equality rows
        pairs = [(got_d, d), (got_c, c), (E, A[:p].toarray())]
        pairs += [(getattr(G, a), getattr(A[p:], a)) for a in ("indptr", "indices", "data")]
        for got, want in pairs:
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    return check
