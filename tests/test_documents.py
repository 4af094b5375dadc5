"""The one-walk document checker against its two-walk reference in tests/oracles.py.

violation and checked must give the reference's path and message for every
broken document, and for every valid one the same converted document: the
same keys in the same order, and at each node a value of the same Python
type, float at number nodes and int at integer nodes.
"""

import copy
import importlib.resources
import json
import math

import numpy as np
import pytest
import yaml

from oracles import schema_checked, schema_violation
from safeflight.cli import SCENARIO_SCHEMA, bundled_scenarios
from safeflight.documents import checked, violation
from safeflight.planner import PLAN_SCHEMA
from test_cli import BAD_PLAN_DOCUMENTS, scenario_mutations, schema_mutations
from test_fuzz import mutate

MUTATIONS_PER_KIND = 200


def same_document(got, want) -> bool:
    """Equal values of equal Python types throughout, keys in the same order; NaN equals NaN."""
    if type(got) is not type(want):
        return False
    if isinstance(want, dict):
        return list(got) == list(want) and all(same_document(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(same_document, got, want))
    if isinstance(want, float) and math.isnan(want):
        return math.isnan(got)
    return got == want


def outcome(check, doc, schema):
    """("ok", converted document) or ("error", message)."""
    try:
        return "ok", check(doc, schema)
    except ValueError as exc:
        return "error", str(exc)


def assert_matches_reference(doc, schema, label):
    assert violation(doc, schema) == schema_violation(doc, schema), label
    got, want = outcome(checked, doc, schema), outcome(schema_checked, doc, schema)
    assert got[0] == want[0], (label, got[1], want[1])
    if want[0] == "error":
        assert got[1] == want[1], label
    else:
        assert same_document(got[1], want[1]), label


def scenario_docs():
    root = importlib.resources.files("safeflight") / "scenarios"
    return {n: yaml.safe_load((root / f"{n}.yaml").read_text()) for n in bundled_scenarios()}


@pytest.fixture(scope="module")
def plan_docs(bundled_plan):
    return {n: json.loads(json.dumps(bundled_plan(n).to_dict())) for n in bundled_scenarios()}


def seeded_mutations(docs: dict, seed: int):
    """(label, document): test_fuzz.mutate edits of docs, MUTATIONS_PER_KIND of each kind."""
    rng = np.random.default_rng(seed)
    names = sorted(docs)
    counts = {"number": 0, "drop": 0, "type": 0}
    while min(counts.values()) < MUTATIONS_PER_KIND:
        name = names[rng.integers(len(names))]
        doc, what = mutate(docs[name], rng)
        kind = what.split()[0]
        if counts[kind] < MUTATIONS_PER_KIND:
            counts[kind] += 1
            yield f"{name}: {what}", doc


def test_bundled_scenarios():
    for name, doc in scenario_docs().items():
        assert_matches_reference(doc, SCENARIO_SCHEMA, name)
        assert violation(doc, SCENARIO_SCHEMA) is None


def test_bundled_plan_documents(plan_docs):
    for name, doc in plan_docs.items():
        assert_matches_reference(doc, PLAN_SCHEMA, name)
        assert checked(doc, PLAN_SCHEMA) == doc


def test_bad_plan_documents(hover_plan):
    for label, edit, _ in BAD_PLAN_DOCUMENTS:
        doc = hover_plan.to_dict()
        if edit is None:
            doc = [doc]
        else:
            edit(doc)
        assert_matches_reference(doc, PLAN_SCHEMA, label)


def test_seeded_scenario_mutations():
    for label, doc in seeded_mutations(scenario_docs(), 28):
        assert_matches_reference(doc, SCENARIO_SCHEMA, label)


def test_seeded_plan_mutations(plan_docs):
    for label, doc in seeded_mutations(plan_docs, 28):
        assert_matches_reference(doc, PLAN_SCHEMA, label)


def test_per_node_mutations(hover_plan):
    for label, doc in scenario_mutations():
        assert_matches_reference(doc, SCENARIO_SCHEMA, label)
    for label, doc in schema_mutations(hover_plan.to_dict(), PLAN_SCHEMA):
        assert_matches_reference(doc, PLAN_SCHEMA, label)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(t0=10**400, zeta=[10**400]),
        lambda d: d.update(zeta=[10**400], t0=10**400),
        lambda d: d.update(n=10**20, t0=10**400),
        lambda d: d.update(t0=10**400, degree="5"),
        lambda d: d.update(n=10**20, control_points=[[1.0, True]] * 3),
        lambda d: d.update(tf=None, control_points=[[1.0, "x"]] * 3, comment=1),
        lambda d: d.update(degree=5.0, n=2.0**53),
        lambda d: d.update(n=2**53 + 1),
        lambda d: d.update(degree=2.0**53 + 2),
        lambda d: d.update(t0=None, tf="x"),
        lambda d: d.update(zeta=[1.0, None], control_points=[[True]] * 3),
        lambda d: d.pop("n") and d.update(zeta_mode="x"),
    ],
    ids=[
        "two-big-t0-first",
        "two-big-zeta-first",
        "beyond-then-big",
        "big-and-type",
        "beyond-and-bool",
        "three-errors",
        "integral-floats",
        "beyond-by-one",
        "integral-float-beyond",
        "two-types",
        "two-arrays",
        "required-and-enum",
    ],
)
@pytest.mark.parametrize("order", [1, -1], ids=["schema-order", "reversed"])
def test_several_errors_in_one_document(hover_plan, edit, order):
    # The two walks report a violation before any conversion error, the first
    # violation in the schema's order among the shallowest, and the first
    # conversion error in the document's key order; the one walk must too.
    doc = copy.deepcopy(hover_plan.to_dict())
    edit(doc)
    doc = dict(list(doc.items())[::order])
    assert_matches_reference(doc, PLAN_SCHEMA, "edited")


def test_a_schema_is_compiled_once_per_object():
    from safeflight import documents

    doc = scenario_docs()["hover"]
    checked(doc, SCENARIO_SCHEMA)
    walk = documents._WALKS[id(SCENARIO_SCHEMA)]
    checked(doc, SCENARIO_SCHEMA)
    assert documents._WALKS[id(SCENARIO_SCHEMA)] is walk
    twin = copy.deepcopy(SCENARIO_SCHEMA)
    assert checked(doc, twin) == checked(doc, SCENARIO_SCHEMA)
    assert documents._WALKS[id(twin)][0] is twin


def test_the_walk_cache_is_cleared_past_32_schemas():
    from safeflight import documents

    documents._WALKS.clear()
    schemas = [{"enum": [i]} for i in range(40)]
    for i, schema in enumerate(schemas):
        assert violation(i + 1, schema) == ((), f"{i + 1} is not one of [{i}]")
        assert checked(i, schema) == i
        assert len(documents._WALKS) == i % 32 + 1
    assert documents._WALKS[id(schemas[-1])][0] is schemas[-1]
