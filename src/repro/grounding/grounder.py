"""Grounding: translate DDlog rules + data into a factor graph.

"Grounding takes place when DeepDive translates the set of relations and
rules into a concrete factor graph upon which probabilistic inference is
possible" (Section 4.1).  The grounder here is *always incremental* after its
initial load, exactly as the paper prescribes: every rule body is a
DRed-maintained materialized view, and base-relation change batches patch the
factor graph through view deltas instead of re-grounding.

Responsibilities:

* run candidate-mapping (derivation) rules and keep their output relations in
  sync with the database;
* ground feature rules into tied-weight ``IS_TRUE`` factors;
* ground inference rules into ``IMPLY``/``AND``/``OR``/``EQUAL`` factors;
* resolve distant-supervision evidence (``_Ev`` relations) onto variables,
  with majority-vote conflict resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Hashable, Iterable, Sequence

import numpy as np

from repro import obs
from repro.datastore import Database
from repro.datastore.relation import Row
from repro.obs.config import EngineConfig
from repro.ddlog.ast import (FixedWeight, HeadConnective, PerRuleWeight,
                             RuleKind, UdfWeight, Var, VarWeight)
from repro.ddlog.program import DDlogProgram
from repro.ddlog.validate import evidence_base
from repro.factorgraph import (FactorFunction, FactorGraph, decode_key,
                               encode_key)
from repro.grounding.expansion import derived_relation_plans, expanded_rule_body

_CONNECTIVE_FUNCTIONS = {
    HeadConnective.IMPLY: FactorFunction.IMPLY,
    HeadConnective.AND: FactorFunction.AND,
    HeadConnective.OR: FactorFunction.OR,
    HeadConnective.EQUAL: FactorFunction.EQUAL,
}


class GroundingError(ValueError):
    """Raised for grounding-time inconsistencies."""


@dataclass
class GroundingDelta:
    """Summary of one incremental grounding round (the paper's dV and dF).

    ``touched_keys`` lists the variable keys whose factors or evidence
    changed -- the seed set for incremental inference (Section 4.2).
    """

    factors_added: int = 0
    factors_removed: int = 0
    variables_added: int = 0
    variables_removed: int = 0
    evidence_changed: int = 0
    touched_keys: set = field(default_factory=set)

    @property
    def total_changes(self) -> int:
        return (self.factors_added + self.factors_removed
                + self.variables_added + self.variables_removed
                + self.evidence_changed)


@dataclass
class WeightProvenance:
    """Where a weight came from, for the error-analysis document."""

    rule_text: str
    description: str
    rule_index: int


class Grounder:
    """Incremental grounder over one program and one database.

    Construction performs the initial load -- view materialization, then the
    grounding event "every visible row appeared" -- and :meth:`apply_changes`
    afterwards grounds the DRed view deltas through the same event routine.
    The factor graph is available as :attr:`graph`.
    """

    def __init__(self, program: DDlogProgram, db: Database,
                 config: EngineConfig | None = None) -> None:
        self._set_up(program, db, config, FactorGraph(), {})
        with obs.span("grounding.initial_load") as sp:
            self._initial_load()
            sp.set(variables=len(self.graph.variables),
                   factors=len(self.graph.factors))

    # ----------------------------------------------------------------- set-up
    def _set_up(self, program: DDlogProgram, db: Database,
                config: EngineConfig | None, graph: FactorGraph,
                state: dict) -> None:
        """Bind the grounder to ``program``, ``db`` and ``graph``, adopt the
        bookkeeping ``state`` (a :meth:`state_dict`; empty for a new
        grounder) and define the views."""
        program.validate()
        self.program = program
        self.db = db
        self.config = config if config is not None \
            else getattr(db, "config", None)
        self.graph = graph
        self.weight_provenance: dict[Hashable, WeightProvenance] = {
            decode_key(key): WeightProvenance(rule_text, description,
                                              rule_index)
            for key, rule_text, description, rule_index
            in state.get("weight_provenance", [])
        }
        program.create_relations(db)
        self._derived = derived_relation_plans(program.ast, program.udfs)
        self._rules = list(program.ast.rules)
        # (rule_index, body_row) -> ids of the factors grounded from that
        # row (consecutive: a range, or a list once restored)
        self._row_factors: dict[tuple[int, Row], Sequence[int]] = {
            (index, decode_key(row)): list(factor_ids)
            for index, row, factor_ids in state.get("row_factors", [])
        }
        # var relation -> tuple -> [negative, positive] distant-supervision
        # votes (indexed by the label)
        self._evidence_votes: dict[str, dict[Row, list[int]]] = {
            relation: {decode_key(values): [negative, positive]
                       for values, positive, negative in votes}
            for relation, votes in state.get("evidence_votes", {}).items()
        }
        self._view_rules: dict[str, int] = {}
        self._recipes: dict[int, _Recipe] = {}
        with obs.span("grounding.define_views") as sp:
            self._define_views()
            sp.set(views=len(db.views.names()))

    def _define_views(self) -> None:
        views = self.db.views
        # DDlog expansion inlines derived-relation plans by object identity
        # into every consuming view, so a build-scoped store cache lets the
        # columnar initial load compute each shared subtree once.  The cache
        # must not outlive this method: base relations mutate afterwards.
        build_cache: dict[int, Any] = {}
        for name, plan in self._derived.items():
            views.define(f"derived::{name}", plan, build_cache)
        for index, rule in enumerate(self._rules):
            if rule.kind == RuleKind.DERIVATION:
                continue
            plan = expanded_rule_body(rule, self.program.ast, self.program.udfs,
                                      self._derived)
            view_name = f"rule::{index}"
            views.define(view_name, plan, build_cache)
            self._view_rules[view_name] = index
            self._recipes[index] = self._compile_rule(
                index, views[view_name].schema)

    def _initial_load(self) -> None:
        views = self.db.views
        for name in self._derived:
            relation = self.db[name]
            relation.clear()
            # view rows already passed schema validation on their way in
            relation.insert_many(views[f"derived::{name}"].iter_visible(),
                                 validate=False)
        self._ground_events({name: (views[name].iter_visible(), ())
                             for name in self._view_rules})

    # ---------------------------------------------------- checkpoint support
    def state_dict(self) -> dict:
        """JSON-compatible snapshot of the grounder's mutable bookkeeping.

        Together with the database dump and the serialized factor graph this
        is everything :meth:`restore` needs to resume incremental grounding
        exactly where this grounder stands: the row->factor-id map DRed
        retractions consult, the distant-supervision vote counters, and the
        weight-provenance table.  Factor ids refer to the graph's id space,
        which the checkpoint's segment-array graph image preserves
        exactly.
        """
        return {
            "row_factors": [
                [index, encode_key(row), list(factor_ids)]
                for (index, row), factor_ids in self._row_factors.items()
            ],
            "evidence_votes": {
                relation: [
                    [encode_key(values), positive, negative]
                    for values, (negative, positive) in votes.items()
                ]
                for relation, votes in self._evidence_votes.items()
            },
            "weight_provenance": [
                [encode_key(key), p.rule_text, p.description, p.rule_index]
                for key, p in self.weight_provenance.items()
            ],
        }

    @classmethod
    def restore(cls, program: DDlogProgram, db: Database, graph: FactorGraph,
                state: dict, config: EngineConfig | None = None) -> "Grounder":
        """Rebuild a grounder from checkpointed parts without re-grounding.

        ``db`` must be the restored database (base relations, derived
        relations, variable tuples and evidence rows all present) and
        ``graph`` the id-exact deserialized factor graph.  Views are
        re-materialized from the database — deterministic given its contents
        — while the graph and the grounding bookkeeping are adopted as-is,
        so subsequent :meth:`apply_changes` rounds behave bit-identically to
        the grounder that was checkpointed.
        """
        self = cls.__new__(cls)
        self._set_up(program, db, config, graph, state)
        return self

    # ----------------------------------------------------------- public API
    def apply_changes(self, inserts: dict[str, list[Sequence[Any]]] | None = None,
                      deletes: dict[str, list[Sequence[Any]]] | None = None,
                      ) -> GroundingDelta:
        """Apply base-relation changes and patch the factor graph via DRed."""
        with obs.span("grounding.apply_changes") as sp:
            delta = self._apply_changes(inserts, deletes)
            sp.set(factors_added=delta.factors_added,
                   factors_removed=delta.factors_removed,
                   variables_added=delta.variables_added,
                   variables_removed=delta.variables_removed)
        return delta

    def _apply_changes(self, inserts, deletes) -> GroundingDelta:
        events = self.db.views.apply_changes(inserts=inserts, deletes=deletes)
        for view_name, (appeared, disappeared) in events.items():
            if view_name.startswith("derived::"):
                relation = self.db[view_name.removeprefix("derived::")]
                for row in appeared:
                    relation.insert(row)
                for row in disappeared:
                    relation.delete(row)
        delta = self._ground_events(events)
        if obs.enabled():
            obs.count("grounding.rounds")
            obs.count("grounding.touched_keys", len(delta.touched_keys))
        return delta

    def _ground_events(self, events: dict) -> GroundingDelta:
        """Patch the graph with ``view name -> (appeared, disappeared)``
        row events.

        Supervision events go first, so variables created by rule grounding
        see their labels; then each feature or inference rule retracts its
        disappeared rows and grounds its appeared ones.
        """
        delta = GroundingDelta()
        rule_events = [(self._view_rules[name], event)
                       for name, event in events.items()
                       if name in self._view_rules]
        for index, (appeared, disappeared) in rule_events:
            if self._rules[index].kind == RuleKind.SUPERVISION:
                self._apply_supervision(index, appeared, disappeared, delta)
        for index, (appeared, disappeared) in rule_events:
            if self._rules[index].kind != RuleKind.SUPERVISION:
                for row in disappeared:
                    self._unground_row(index, row, delta)
                self._ground_rule(index, appeared, delta)
        return delta

    def variable_marginal_keys(self) -> list[Hashable]:
        """Keys of all current variables (relation name + tuple)."""
        return self.graph.variable_keys()

    # ------------------------------------------------------------- grounding
    def _compile_rule(self, index: int, schema) -> "_Recipe":
        """Precompute a rule's positional head readers and weight resolver.

        The rule view's rows arrive schema-validated, so head tuples can be
        assembled by position (re-validating only when the view's column type
        differs from the target relation's) and weight labels resolved
        without materializing a row dict -- the per-row hot path of
        grounding.
        """
        rule = self._rules[index]
        inference = rule.kind == RuleKind.INFERENCE
        heads = tuple((head.relation, self._make_head_reader(head, schema))
                      for head in (rule.heads if inference else rule.heads[:1]))
        if rule.kind not in (RuleKind.FEATURE, RuleKind.INFERENCE):
            return _Recipe(heads)
        spec = rule.weight
        if inference:
            function = _CONNECTIVE_FUNCTIONS[rule.connective]
            negated = tuple(head.negated for head in rule.heads)
        else:
            function, negated = FactorFunction.IS_TRUE, (False,)
        return _Recipe(
            heads, _weight_labels(index, spec, schema, self.program.udfs),
            function, negated,
            initial_value=spec.value if isinstance(spec, FixedWeight) else 0.0,
            fixed=isinstance(spec, FixedWeight),
            description="per-rule" if isinstance(spec, PerRuleWeight) else None)

    def _make_head_reader(self, head, schema) -> Callable[[Row], Row]:
        from repro.datastore.types import coerce

        target = self.db[head.relation].schema
        parts: list[tuple[int | None, Any]] = []
        revalidate = False
        for position, term in enumerate(head.terms):
            if isinstance(term, Var):
                view_position = schema.position(term.name)
                parts.append((view_position, None))
                if schema.columns[view_position].type \
                        is not target.columns[position].type:
                    revalidate = True
            else:
                parts.append((None, coerce(term.value,
                                           target.columns[position].type)))
        pick = _picker(parts)
        if revalidate:
            validate = target.validate_row
            return lambda row: validate(pick(row))
        return pick

    def _weight_ids(self, index: int, labels: list) -> list[int]:
        """Weight ids of ``labels``, one per label: a label's tied weight
        (and its provenance) is created the first time any rule row names
        it."""
        recipe = self._recipes[index]
        keys = [f"rule{index}:{label}" for label in labels]
        ids: dict[str, int] = {}
        for key, label in zip(keys, labels):
            if key not in ids:
                ids[key] = self.graph.weight(key, recipe.initial_value,
                                             recipe.fixed)
                self._note_weight(key, index,
                                  recipe.description or str(label))
        return list(map(ids.__getitem__, keys))

    def _ground_rule(self, index: int, rows: Iterable[Row],
                     delta: GroundingDelta) -> None:
        """Ground the appeared ``rows`` of one rule's view, all at once.

        Only the weight resolver runs per row; head keys are interned and
        factors appended for all the rows together, in row order, so ids and
        the row->factor bookkeeping equal those of grounding the rows one at
        a time.  Every head key grounded counts as touched.
        """
        recipe = self._recipes[index]
        labels_of = recipe.labels
        grounded = [(row, labels) for row in rows
                    if (labels := labels_of(row))]
        if not grounded:
            return
        rows, labels = zip(*grounded)
        weight_ids = self._weight_ids(index, list(chain.from_iterable(labels)))
        keys = [(relation, read(row))
                for row in rows for relation, read in recipe.heads]
        var_ids, created = self.graph.intern(keys)
        ids = np.array(var_ids, dtype=np.int64)
        if created:
            # intern appends the created keys in order: the newest ids
            self._label_new_variables(created,
                                      int(ids.max()) + 1 - len(created))
        per_row = np.fromiter(map(len, labels), dtype=np.int64,
                              count=len(labels))
        members = np.repeat(ids.reshape(len(rows), len(recipe.heads)),
                            per_row, axis=0)
        factors = self.graph.add_factors(recipe.function, members, weight_ids,
                                         recipe.negated)
        ends = (np.cumsum(per_row) + factors.start).tolist()
        self._row_factors.update(zip(
            [(index, row) for row in rows],
            map(range, [factors.start] + ends[:-1], ends)))
        delta.variables_added += len(created)
        delta.factors_added += len(factors)
        delta.touched_keys.update(keys)
        if obs.enabled():
            obs.count("grounding.factors", len(factors), rule=index)
            obs.count("grounding.variables", len(created), rule=index)

    def _unground_row(self, index: int, row: Row, delta: GroundingDelta) -> None:
        factor_ids = self._row_factors.pop((index, row), None)
        if not factor_ids:
            return
        factors = self.graph.factors
        touched_vars: set[int] = set()
        for factor_id in factor_ids:
            factor = factors.get(factor_id)
            if factor is None:
                continue
            touched_vars.update(factor.var_ids)
            self.graph.remove_factor(factor_id)
            delta.factors_removed += 1
        variables = self.graph.variables
        for var_id in touched_vars:
            variable = variables.get(var_id)
            if variable is not None:
                delta.touched_keys.add(variable.key)
        for var_id in touched_vars:
            variable = variables.get(var_id)
            if variable is not None and not variable.factor_count \
                    and variable.evidence is None:
                self._remove_variable_and_tuple(variable.key)
                delta.variables_removed += 1

    def _remove_variable_and_tuple(self, key: Hashable) -> None:
        relation_name, values = key
        self.graph.remove_variable(key)
        relation = self.db[relation_name]
        if relation.count(values):
            relation.delete(values)

    def _label_new_variables(self, keys: list[tuple[str, Row]],
                             first_id: int) -> None:
        """Keep the tuples of the new variables ``keys`` (ids ``first_id``
        on, in order) in their relations and label them from the votes,
        one head relation at a time."""
        for name in dict.fromkeys(name for name, _ in keys):
            members = [(var_id, values) for var_id, (key_name, values)
                       in enumerate(keys, first_id) if key_name == name]
            relation = self.db[name]
            count, insert = relation.count, relation.insert
            for _, values in members:
                if not count(values):
                    insert(values)
            votes = self._evidence_votes.get(name)
            labels = [(var_id, label) for var_id, values in members
                      if (label := _majority(votes.get(values))) is not None
                      ] if votes else []
            if labels:
                self.graph.set_evidence_ids(*zip(*labels))

    # --------------------------------------------------------------- weights
    def _note_weight(self, key: str, index: int, description: str) -> None:
        if key not in self.weight_provenance:
            self.weight_provenance[key] = WeightProvenance(
                rule_text=self._rules[index].text, description=description,
                rule_index=index)

    # -------------------------------------------------------------- evidence
    def _apply_supervision(self, index: int, appeared: Iterable[Row],
                           disappeared: Iterable[Row],
                           delta: GroundingDelta) -> None:
        """Fold one supervision rule's row event into the votes and the
        evidence relation, in one pass, then re-resolve the label of every
        variable whose votes it touched."""
        rule = self._rules[index]
        relation_name = evidence_base(rule.head.relation)
        ((_, read_head),) = self._recipes[index].heads
        evidence_relation = self.db[rule.head.relation]
        votes = self._evidence_votes.setdefault(relation_name, {})
        touched: dict[Row, None] = {}
        for rows, direction, write in (
                (appeared, 1, evidence_relation.insert),
                (disappeared, -1, evidence_relation.delete)):
            for row in rows:
                head_values = read_head(row)
                values = head_values[:-1]
                tally = votes.get(values)
                if tally is None:
                    tally = votes[values] = [0, 0]
                tally[bool(head_values[-1])] += direction
                touched[values] = None
                write(head_values)
        graph = self.graph
        for values in touched:
            key = (relation_name, values)
            if not graph.has_variable(key):
                continue
            variable = graph.variables[graph.variable_id(key)]
            label = _majority(votes[values])
            if variable.evidence != label:
                graph.set_evidence(key, label)
                delta.evidence_changed += 1
                delta.touched_keys.add(key)
            if label is None and not variable.factor_count:
                self._remove_variable_and_tuple(key)
                delta.variables_removed += 1


def _majority(tally: list[int] | None) -> bool | None:
    """The label a ``[negative, positive]`` vote tally resolves to; ties
    (and no votes) abstain."""
    if tally is None or tally[0] == tally[1]:
        return None
    return tally[1] > tally[0]


def ground(program: DDlogProgram, db: Database) -> FactorGraph:
    """One-shot convenience: ground ``program`` over ``db`` and return the graph."""
    return Grounder(program, db).graph


@dataclass(frozen=True)
class _Recipe:
    """How one rule grounds a row of its view.

    Holds no reference to the grounder, so a dropped grounder is freed by
    reference counting rather than waiting for the cyclic collector.
    """

    heads: tuple[tuple[str, Callable[[Row], Row]], ...]  # (relation, reader)
    labels: Callable[[Row], list] | None = None          # row -> weight labels
    function: FactorFunction = FactorFunction.IS_TRUE
    negated: tuple[bool, ...] = (False,)
    initial_value: float = 0.0                           # of weights it creates
    fixed: bool = False
    description: str | None = None                       # None: the label


def _picker(parts: list[tuple[int | None, Any]]) -> Callable[[Row], tuple]:
    """``row -> tuple`` of ``parts``: each a row position, or a constant
    (position ``None``).  Constants are read from the end of ``row +
    constants``, so one ``itemgetter`` picks every part."""
    constants = tuple(value for position, value in parts if position is None)
    tail = iter(range(-len(constants), 0))
    positions = [next(tail) if position is None else position
                 for position, _ in parts]
    if len(positions) <= 1:
        if constants or not positions:
            return lambda row: constants
        (position,) = positions
        return lambda row: (row[position],)
    if constants:
        pick = itemgetter(*positions)
        return lambda row: pick(row + constants)
    return itemgetter(*positions)


def _weight_labels(index: int, spec, schema,
                   udfs) -> Callable[[Row], list]:
    """``row -> labels`` of the tied weights one rule row grounds: the
    weight key of label ``x`` is ``rule<index>:x``."""
    if isinstance(spec, (FixedWeight, PerRuleWeight)):
        constant = ["fixed" if isinstance(spec, FixedWeight) else "*"]
        return lambda row: constant
    if isinstance(spec, VarWeight):
        position = schema.position(spec.var)
        return lambda row: [row[position]]
    if isinstance(spec, UdfWeight):
        udf = udfs[spec.udf]
        arguments = _picker([(schema.position(a.name), None)
                             if isinstance(a, Var) else (None, a.value)
                             for a in spec.args])

        def per_udf(row: Row) -> list:
            values = arguments(row)
            try:
                result = udf(*values)
            except Exception as exc:    # noqa: BLE001 - rewrapped with context
                from repro.ddlog.compiler import UdfError
                raise UdfError(spec.udf, values, exc) from exc
            if result is None:
                return []
            return [result] if isinstance(result, (str, int, float, bool)) \
                else list(result)
        return per_udf
    raise GroundingError(f"rule {index} has no weight specification")
