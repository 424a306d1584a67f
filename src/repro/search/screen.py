"""Memoized candidate lower bounds: prune plans before scheduling them.

For each candidate plan the screen computes a *valid* lower bound on its
TREESCHEDULE response time from two sides, mirroring the Section 7 bound
``LB = max{ l(S)/P, h }`` (:mod:`repro.core.bounds`):

* **Congestion.**  The total work vector of an operator is componentwise
  non-decreasing in its degree of parallelism
  (:meth:`~repro.core.cloning.ParallelTimeCurve.total`), so summing the
  ``n = 1`` vectors over all operators under-estimates the work any
  actual parallelization must push through the ``P`` sites.  Each
  component is summed with :func:`math.fsum`, which rounds the exact sum
  once: the bound does not depend on the order the operators are
  visited in, and there is one code path with or without numpy.

* **Critical path.**  The response time is the sum of synchronized phase
  makespans; an operator's phase lasts at least
  ``t_min(op) = min_N T_par(op, N)`` (Equation (1) minimized over all
  degrees ``1..P``), and a blocking edge forces its consumer into a
  strictly later phase.  A longest-path DP over the operator DAG carries
  ``(closed, open)`` per operator — the sum of finished pipeline
  segments and the running segment's max — and ``h`` is the best
  ``closed + open`` anywhere.  Both the makespan argument per phase and
  the phase-disjointness of consecutive segments are exact, so
  ``h <= response_time`` always holds: *a pruned candidate can never
  beat the incumbent*, which is what keeps pruning winner-invariant.

Both sides are computed bottom-up from **subplan summaries** without
expanding the candidate into an operator tree.  Every subtree below the
root has a *structure key* — a leaf ``(relation, tuples)``, a join
``(method, materialize, build_id, probe_id)`` — and is interned to a
small id once per :class:`StructureKeys` (with its output cardinality)
and, in a :class:`ScreenContext`, summarized once: its operators'
``n = 1`` total work vectors, its output operator's ``(closed, open)``
pair and its internal ``h``.  None of these depend on what lies above
the subtree, because its output always feeds a pipeline consumer.  A
candidate is its root's structure key, and its bound
(:meth:`ScreenContext.bound`) combines its two children's summaries
with the root join's own operators, which have no pipeline consumer and
are never materialized.

Keys come from one place: the plan enumerator
(:mod:`repro.search.enumerator`) builds them with
:meth:`StructureKeys.join_key` — the exhaustive DP, the greedy and random
contractions, and mutations, which re-intern only the path from the
root to the re-shaped subtree.  Plans are deduped and bounded as keys,
and :meth:`StructureKeys.plan` builds the canonical tree of the few that
get scored, so every shared subtree is summarized once per search and
no tree is built or walked before scoring.  The search bounds its
keys with :func:`candidate_lower_bounds`, which also accepts plan trees:
:meth:`StructureKeys.root_key` reads a key off an existing tree.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

from repro.core.cloning import (
    DEFAULT_COORDINATOR_POLICY,
    CoordinatorPolicy,
    OperatorSpec,
    ParallelTimeCurve,
    minimum_parallel_time,
)
from repro.core.granularity import CommunicationModel
from repro.core.resource_model import OverlapModel
from repro.cost.cost_model import operator_cost
from repro.cost.params import SystemParameters
from repro.exceptions import PlanStructureError
from repro.plans.join_tree import BaseRelationNode, JoinMethod, JoinNode, PlanNode
from repro.plans.physical_ops import OperatorKind
from repro.plans.relations import Relation

__all__ = ["ScreenContext", "StructureKeys", "candidate_lower_bounds"]

#: An operator's ``(closed, open)`` critical-path state.
Segment = tuple[float, float]


class _Summary(NamedTuple):
    """What a candidate needs to know about one of its subplans."""

    #: ``(closed, open)`` of the operator producing the output.
    segment: Segment
    #: The best ``closed + open`` over the subplan's operators.
    h: float
    #: Per work-vector component, the ``n = 1`` total work of every
    #: operator in the subplan.
    columns: tuple[tuple[float, ...], ...]


def _segment(t: float, blocking: Sequence[Segment], pipeline: Sequence[Segment]) -> Segment:
    """One operator's ``(closed, open)`` from its producers' states.

    ``t`` is the operator's ``t_min``; producers are visited blocking
    first, then pipeline, each in edge-insertion order.  A blocking
    producer closes its segment; a pipeline producer extends it.  Ties
    on ``closed + open`` prefer the larger closed part.
    """
    closed, open_max = 0.0, t
    for s, m in blocking:
        if s + m + t > closed + open_max or (
            s + m + t == closed + open_max and s + m > closed
        ):
            closed, open_max = s + m, t
    for s, m in pipeline:
        cand = (s, max(m, t))
        if cand[0] + cand[1] > closed + open_max or (
            cand[0] + cand[1] == closed + open_max and cand[0] > closed
        ):
            closed, open_max = cand
    return closed, open_max


class StructureKeys:
    """Interned subplan structure keys and their output cardinalities.

    A leaf's key is ``(relation, tuples)``; a join's is ``(method,
    materialize, build_id, probe_id)``, its children interned to ids in
    the order they are first seen, so equal structures get equal keys
    and a child's id is smaller than any id of a subplan holding it.
    Keys need no cost context; :class:`ScreenContext` adds one.
    """

    def __init__(self) -> None:
        #: subplan structure key -> id, and id -> key and output tuples.
        self._ids: dict[tuple, int] = {}
        self._keys: list[tuple] = []
        self._tuples: list[int] = []

    @staticmethod
    def leaf_key(relation: Relation) -> tuple:
        """The structure key of a base-relation subplan."""
        return (relation.name, relation.tuples)

    def tuples(self, key: tuple) -> int:
        """The output cardinality of the subplan with structure ``key``."""
        if len(key) == 2:
            return key[1]
        return max(self._tuples[key[2]], self._tuples[key[3]])

    def join_key(self, left: tuple, right: tuple) -> tuple:
        """The structure key of a hash join of two subplans' keys.

        ``left`` must be the key of the canonical edge's smaller-named
        endpoint's fragment: the smaller output builds and on a
        cardinality tie ``left`` builds, the orientation rule of the
        plan enumerator.  Both inputs are interned.
        """
        left_id = self.intern(left)
        right_id = self.intern(right)
        if self._tuples[left_id] <= self._tuples[right_id]:
            return (JoinMethod.HASH, False, left_id, right_id)
        return (JoinMethod.HASH, False, right_id, left_id)

    def root_key(self, plan: PlanNode) -> tuple:
        """The structure key of ``plan``'s root; its subtrees are interned."""
        if isinstance(plan, BaseRelationNode):
            return self.leaf_key(plan.relation)
        if isinstance(plan, JoinNode):
            return (
                plan.method,
                plan.materialize_output,
                self.intern(self.root_key(plan.build_side)),
                self.intern(self.root_key(plan.probe_side)),
            )
        raise PlanStructureError(f"unknown plan node type {type(plan).__name__}")

    def key(self, key_id: int) -> tuple:
        """The structure key interned as ``key_id``."""
        return self._keys[key_id]

    def intern(self, key: tuple) -> int:
        """The id of a non-root subplan's structure key."""
        key_id = self._ids.get(key)
        if key_id is None:
            key_id = self._ids[key] = len(self._keys)
            self._tuples.append(self.tuples(key))
            self._keys.append(key)
        return key_id

    def plan(self, key: tuple) -> PlanNode:
        """The canonical plan whose root has structure ``key``.

        Join ids are assigned in post-order (``J0`` first), exactly as
        :func:`~repro.search.canonical.canonical_plan` assigns them, so
        the tree equals the canonical copy of any plan with this key.
        """
        counter = 0

        def build(key: tuple) -> PlanNode:
            nonlocal counter
            if len(key) == 2:
                return BaseRelationNode(Relation(name=key[0], tuples=key[1]))
            method, materialize, build_id, probe_id = key
            build_side = build(self._keys[build_id])
            probe_side = build(self._keys[probe_id])
            join = JoinNode(
                f"J{counter}",
                build_side,
                probe_side,
                method=method,
                materialize_output=materialize,
            )
            counter += 1
            return join

        return build(key)


class ScreenContext(StructureKeys):
    """Scheduling context plus the search-long subplan memo.

    One context serves one ``(p, params, comm, overlap, policy)``
    setting for the whole search; reusing it across scoring rounds is
    what makes shared subplans near-free to screen.  Every interned
    subplan is summarized once, when it is first interned.
    """

    def __init__(
        self,
        *,
        p: int,
        params: SystemParameters,
        comm: CommunicationModel,
        overlap: OverlapModel,
        policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
        capacities: "Sequence[float] | None" = None,
    ) -> None:
        super().__init__()
        self.p = p
        self.params = params
        self.comm = comm
        self.overlap = overlap
        self.policy = policy
        #: heterogeneous relaxation terms (``None`` keeps the historical
        #: homogeneous bound byte-for-byte): congestion divides by the
        #: total capacity instead of ``p``, the critical path by the
        #: fastest site's speed — both sides stay valid lower bounds.
        self.total_capacity = (
            None if capacities is None else float(sum(capacities))
        )
        self.max_capacity = None if capacities is None else max(capacities)
        #: ``(kind, input, output, has_pipeline_consumer)`` ->
        #: ``(t_min, n = 1 total work components)``.
        self._operators: dict[tuple, tuple[float, tuple[float, ...]]] = {}
        #: id -> summary of the interned subplan.
        self._summaries: list[_Summary] = []

    def _operator(
        self, kind: OperatorKind, input_tuples: int, output_tuples: int, consumer: bool
    ) -> tuple[float, tuple[float, ...]]:
        """``t_min`` and the ``n = 1`` total work of one operator, memoized."""
        key = (kind, input_tuples, output_tuples, consumer)
        cached = self._operators.get(key)
        if cached is not None:
            return cached
        work, data_volume = operator_cost(
            kind, input_tuples, output_tuples, consumer, self.params
        )
        curve = ParallelTimeCurve(
            OperatorSpec(name=kind.value, work=work, data_volume=data_volume),
            self.comm,
            self.policy,
        )
        t_min = minimum_parallel_time(curve, self.p, self.overlap)
        total = curve.total(1).components
        self._operators[key] = cached = (t_min, total)
        return cached

    def intern(self, key: tuple) -> int:
        """The id of a non-root subplan's structure key, summarizing it once."""
        key_id = self._ids.get(key)
        if key_id is None:
            if len(key) == 2:
                summary = self._scan(key[1], consumer=True)
            else:
                summary = self._join(*key, is_root=False)
            key_id = super().intern(key)
            self._summaries.append(summary)
        return key_id

    def _scan(self, tuples: int, *, consumer: bool) -> _Summary:
        t, total = self._operator(OperatorKind.SCAN, 0, tuples, consumer)
        closed, open_max = segment = _segment(t, (), ())
        return _Summary(segment, closed + open_max, tuple((c,) for c in total))

    def _join(
        self,
        method: JoinMethod,
        materialize: bool,
        build_id: int,
        probe_id: int,
        *,
        is_root: bool,
    ) -> _Summary:
        """Summarize a join from its inputs' summaries.

        Wires the join's operators exactly as
        :func:`~repro.plans.operator_tree.expand_plan` does; the root's
        output has no pipeline consumer and is never materialized.
        """
        left = self._summaries[build_id]
        right = self._summaries[probe_id]
        left_tuples = self._tuples[build_id]
        right_tuples = self._tuples[probe_id]
        out = max(left_tuples, right_tuples)
        own: list[tuple[float, ...]] = []
        segments: list[Segment] = []

        def add(kind, input_tuples, output_tuples, consumer, blocking=(), pipeline=()):
            t, total = self._operator(kind, input_tuples, output_tuples, consumer)
            own.append(total)
            segment = _segment(t, blocking, pipeline)
            segments.append(segment)
            return segment

        if method is JoinMethod.HASH:
            build = add(OperatorKind.BUILD, left_tuples, 0, False, (), (left.segment,))
            output = add(
                OperatorKind.PROBE, right_tuples, out, not is_root,
                (build,), (right.segment,),
            )
        elif method is JoinMethod.SORT_MERGE:
            sort_l = add(OperatorKind.SORT, left_tuples, left_tuples, False, (), (left.segment,))
            sort_r = add(OperatorKind.SORT, right_tuples, right_tuples, False, (), (right.segment,))
            output = add(
                OperatorKind.MERGE, left_tuples + right_tuples, out, not is_root,
                (sort_l, sort_r),
            )
        else:
            raise PlanStructureError(f"unknown join method {method!r}")
        if materialize and not is_root:
            store = add(OperatorKind.STORE, out, 0, False, (), (output,))
            output = add(OperatorKind.RESCAN, 0, out, True, (store,))
        h = max(left.h, right.h, *(closed + open_max for closed, open_max in segments))
        columns = tuple(
            left_column + right_column + own_column
            for left_column, right_column, own_column in zip(
                left.columns, right.columns, zip(*own)
            )
        )
        return _Summary(output, h, columns)

    def bound(self, key: tuple) -> float:
        """The valid response-time lower bound of the plan with root ``key``."""
        if len(key) == 2:
            summary = self._scan(key[1], consumer=False)
        else:
            summary = self._join(*key, is_root=True)
        h = summary.h
        if self.max_capacity is not None:
            h /= self.max_capacity
        denom = float(self.p) if self.total_capacity is None else self.total_capacity
        length = max(math.fsum(column) for column in summary.columns)
        return max(length / denom, h)


def candidate_lower_bounds(
    candidates: Sequence[PlanNode | tuple], ctx: ScreenContext
) -> list[float]:
    """A valid response-time lower bound per candidate.

    A candidate is its root's structure key in ``ctx`` (as the plan
    enumerator yields it) or a plan tree, whose root key is read off
    with :meth:`StructureKeys.root_key` (the tree is not modified).
    Bounds are deterministic functions of the plan structure and the
    context, independent of candidate order, worker count and store
    state.
    """
    return [
        ctx.bound(ctx.root_key(c) if isinstance(c, PlanNode) else c)
        for c in candidates
    ]
