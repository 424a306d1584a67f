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
root is interned to a small id — a leaf by ``(relation, tuples)``, a
join by ``(method, materialize, build_id, probe_id)`` — and summarized
once per :class:`ScreenContext`: its operators' ``n = 1`` total work
vectors, its output operator's ``(closed, open)`` pair and its internal
``h``.  None of these depend on what lies above the subtree, because its
output always feeds a pipeline consumer.  A candidate's bound then
combines its two children's summaries with the root join's own
operators, which have no pipeline consumer and are never materialized.
The DP shares subplans between candidates and local-search mutations
keep most of a plan, so almost every subtree is summarized once per
search.
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
)
from repro.core.granularity import CommunicationModel
from repro.core.resource_model import OverlapModel
from repro.cost.cost_model import operator_cost
from repro.cost.params import SystemParameters
from repro.exceptions import PlanStructureError
from repro.plans.join_tree import BaseRelationNode, JoinMethod, JoinNode, PlanNode
from repro.plans.physical_ops import OperatorKind

__all__ = ["ScreenContext", "candidate_lower_bounds"]

#: An operator's ``(closed, open)`` critical-path state.
Segment = tuple[float, float]


class _Summary(NamedTuple):
    """What a candidate needs to know about one of its subplans."""

    #: Output cardinality.
    tuples: int
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


class ScreenContext:
    """Scheduling context plus the search-long subplan memo.

    One context serves one ``(p, params, comm, overlap, policy)``
    setting for the whole search; reusing it across scoring rounds is
    what makes shared subplans near-free to screen.
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
        #: subplan key -> id, and id -> summary.
        self._ids: dict[tuple, int] = {}
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
        t_min = min(curve.t_par(n, self.overlap) for n in range(1, self.p + 1))
        total = curve.total(1).components
        self._operators[key] = cached = (t_min, total)
        return cached

    def _summary_id(self, node: PlanNode) -> int:
        """Intern the subtree at ``node`` (never the root) and summarize it."""
        if isinstance(node, BaseRelationNode):
            key: tuple = (node.relation.name, node.relation.tuples)
        elif isinstance(node, JoinNode):
            key = (
                node.method,
                node.materialize_output,
                self._summary_id(node.build_side),
                self._summary_id(node.probe_side),
            )
        else:
            raise PlanStructureError(f"unknown plan node type {type(node).__name__}")
        summary_id = self._ids.get(key)
        if summary_id is None:
            if isinstance(node, BaseRelationNode):
                summary = self._scan(node.relation.tuples, consumer=True)
            else:
                summary = self._join(*key, is_root=False)
            summary_id = self._ids[key] = len(self._summaries)
            self._summaries.append(summary)
        return summary_id

    def _scan(self, tuples: int, *, consumer: bool) -> _Summary:
        t, total = self._operator(OperatorKind.SCAN, 0, tuples, consumer)
        closed, open_max = segment = _segment(t, (), ())
        return _Summary(tuples, segment, closed + open_max, tuple((c,) for c in total))

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
        out = max(left.tuples, right.tuples)
        own: list[tuple[float, ...]] = []
        segments: list[Segment] = []

        def add(kind, input_tuples, output_tuples, consumer, blocking=(), pipeline=()):
            t, total = self._operator(kind, input_tuples, output_tuples, consumer)
            own.append(total)
            segment = _segment(t, blocking, pipeline)
            segments.append(segment)
            return segment

        if method is JoinMethod.HASH:
            build = add(OperatorKind.BUILD, left.tuples, 0, False, (), (left.segment,))
            output = add(
                OperatorKind.PROBE, right.tuples, out, not is_root,
                (build,), (right.segment,),
            )
        elif method is JoinMethod.SORT_MERGE:
            sort_l = add(OperatorKind.SORT, left.tuples, left.tuples, False, (), (left.segment,))
            sort_r = add(OperatorKind.SORT, right.tuples, right.tuples, False, (), (right.segment,))
            output = add(
                OperatorKind.MERGE, left.tuples + right.tuples, out, not is_root,
                (sort_l, sort_r),
            )
        else:
            raise PlanStructureError(f"unknown join method {method!r}")
        if materialize and not is_root:
            store = add(OperatorKind.STORE, out, 0, False, (), (output,))
            output = add(OperatorKind.RESCAN, 0, out, True, (store,))
        h = max(left.h, right.h, *(closed + open_max for closed, open_max in segments))
        columns = tuple(
            left_column + right_column + tuple(total[k] for total in own)
            for k, (left_column, right_column) in enumerate(
                zip(left.columns, right.columns)
            )
        )
        return _Summary(out, output, h, columns)

    def _lower_bound(self, plan: PlanNode) -> float:
        """The valid response-time lower bound of one candidate plan."""
        if isinstance(plan, JoinNode):
            summary = self._join(
                plan.method,
                plan.materialize_output,
                self._summary_id(plan.build_side),
                self._summary_id(plan.probe_side),
                is_root=True,
            )
        elif isinstance(plan, BaseRelationNode):
            summary = self._scan(plan.relation.tuples, consumer=False)
        else:
            raise PlanStructureError(f"unknown plan node type {type(plan).__name__}")
        h = summary.h
        if self.max_capacity is not None:
            h /= self.max_capacity
        denom = float(self.p) if self.total_capacity is None else self.total_capacity
        length = max(math.fsum(column) for column in summary.columns)
        return max(length / denom, h)


def candidate_lower_bounds(
    plans: Sequence[PlanNode], ctx: ScreenContext
) -> list[float]:
    """A valid response-time lower bound per candidate plan.

    Reads each candidate's bound off the context's subplan summaries
    (the plan trees are not modified).  Bounds are deterministic
    functions of the plan structure and the context, independent of
    candidate order, worker count and store state.
    """
    return [ctx._lower_bound(plan) for plan in plans]
