"""Every IVM node's schema is derived once per build, and is right.

A view build derives each plan node's output schema from its children's,
children first (``_derive_schemas``); the evaluator nodes, the columnar
guard and the view take theirs from that one derivation.  ``Plan.schema``
re-walks the whole subtree, so calling it per node made a build
O(depth^2).  For every view of every shipped program shape:

* each node's schema equals ``plan.schema(db)`` computed from scratch;
* a fresh build calls ``Plan.output_schema`` exactly once per distinct
  plan node.
"""

from collections import Counter

import pytest

from repro.datastore import plan as P
from repro.datastore.ivm import MaterializedView
from tests.grounding.test_bulk_load import BUILDERS

PLAN_CLASSES = (P.Scan, P.Select, P.Project, P.Rename, P.Extend, P.Join,
                P.Union)


def node_inputs(node):
    """The child evaluator nodes of ``node``, in ``Plan.inputs`` order."""
    if hasattr(node, "children"):
        return node.children
    if hasattr(node, "left"):
        return (node.left, node.right)
    if hasattr(node, "child"):
        return (node.child,)
    return ()


def plan_nodes(plan, node):
    """``(plan node, evaluator node)`` pairs of the whole tree."""
    yield plan, node
    children = node_inputs(node)
    assert len(children) == len(plan.inputs())
    for child_plan, child_node in zip(plan.inputs(), children):
        yield from plan_nodes(child_plan, child_node)


def distinct_nodes(plan):
    """The distinct plan node objects under ``plan``, by id."""
    nodes = {id(plan): plan}
    for child in plan.inputs():
        nodes.update(distinct_nodes(child))
    return nodes


@pytest.fixture(params=sorted(BUILDERS))
def app(request):
    app = BUILDERS[request.param]()
    app.grounder                      # defines every view
    return app


def test_every_node_schema_equals_a_fresh_derivation(app):
    db = app.db
    for name in db.views.names():
        view = db.views[name]
        assert view.schema == view.plan.schema(db), name
        for plan, node in plan_nodes(view.plan, view._evaluator._root):
            assert node.schema == plan.schema(db), (name, plan)


def test_a_build_derives_each_node_schema_once(app, monkeypatch):
    calls = Counter()
    for cls in PLAN_CLASSES:
        original = cls.output_schema

        def counted(self, db, *inputs, _original=original):
            calls[id(self)] += 1
            return _original(self, db, *inputs)
        monkeypatch.setattr(cls, "output_schema", counted)
    db = app.db
    for name in db.views.names():
        plan = db.views[name].plan
        calls.clear()
        MaterializedView(f"probe::{name}", plan, db)
        assert calls == Counter(dict.fromkeys(distinct_nodes(plan), 1)), name
