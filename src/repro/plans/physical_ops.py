"""Physical operators of the macro-expanded operator tree (Figure 1(b)).

An execution plan tree is "macro-expanded" into an *operator tree* by
refining each node into physical operators — ``scan``, ``build``, and
``probe`` for the hash-join plans of the Section 6 testbed:

* ``scan(R)`` reads base relation ``R`` from disk and streams its tuples
  (repartitioned over the interconnect, assumption A5) to its consumer;
* ``build(J)`` consumes the inner input stream of join ``J`` and
  constructs the in-memory hash table (assumption A1: the table is
  memory-resident);
* ``probe(J)`` consumes the outer input stream, probes the hash table and
  streams result tuples to its consumer (or to the query's client when
  ``J`` is the plan root).

Edges between operators carry two kinds of timing constraints:
*pipelining* (producer and consumer run concurrently) and *blocking*
(the consumer cannot start before the producer completes — here, the
``build(J) -> probe(J)`` edge, since the hash table must be complete
before probing begins).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from repro.exceptions import ImmutableAnnotationError, PlanStructureError
from repro.plans.relations import Relation

if TYPE_CHECKING:  # core's schedulers import this module
    from repro.core.cloning import OperatorSpec

__all__ = [
    "OperatorKind",
    "EdgeKind",
    "PhysicalOperator",
    "scan_op",
    "build_op",
    "probe_op",
    "sort_op",
    "merge_op",
    "store_op",
    "rescan_op",
    "anchor_operator_name",
    "use_annotation",
    "active_annotation",
]


#: The annotation view consulted by :meth:`PhysicalOperator.require_spec`
#: before falling back to the spec attached to the node.  Scoped with
#: :func:`use_annotation`; a context variable so concurrent schedulers in
#: different threads/tasks cannot observe each other's view.
_ACTIVE_ANNOTATION: ContextVar[Mapping[str, OperatorSpec] | None] = ContextVar(
    "repro_active_annotation", default=None
)


@contextmanager
def use_annotation(annotation: Mapping[str, OperatorSpec] | None) -> Iterator[None]:
    """Make ``annotation`` the active spec view for the ``with`` body.

    While active, :meth:`PhysicalOperator.require_spec` resolves specs
    from this name-keyed mapping (a
    :class:`~repro.cost.annotate.PlanAnnotation`) instead of the specs
    attached to the operator nodes — the mechanism that lets one shared,
    immutable operator tree be scheduled under many different
    :class:`~repro.cost.params.SystemParameters` without ever rewriting
    the tree.  ``None`` is accepted and is a no-op, so callers can pass
    an optional annotation through unconditionally.
    """
    if annotation is None:
        yield
        return
    token = _ACTIVE_ANNOTATION.set(annotation)
    try:
        yield
    finally:
        _ACTIVE_ANNOTATION.reset(token)


def active_annotation() -> Mapping[str, OperatorSpec] | None:
    """The annotation view installed by :func:`use_annotation`, if any."""
    return _ACTIVE_ANNOTATION.get()


class OperatorKind(Enum):
    """The physical operator vocabulary.

    ``SCAN``/``BUILD``/``PROBE`` are the hash-join testbed of Section 6;
    ``SORT``/``MERGE`` extend the library to sort-merge joins — the paper
    notes TREESCHEDULE "can be applied to *any* bushy plan" (§6.1), and
    sort-merge plans exercise a different blocking structure (two
    blocking producers per join instead of one).  ``STORE``/``RESCAN``
    are materialization points: a join's output is written to disk and
    re-read by the consumer in a later phase — §3.1's example of a rooted
    operator ("scanning the materialized result of a previous task") and
    the serialization device deep plans need [HCY94].
    """

    SCAN = "scan"
    BUILD = "build"
    PROBE = "probe"
    SORT = "sort"
    MERGE = "merge"
    STORE = "store"
    RESCAN = "rescan"


class EdgeKind(Enum):
    """Timing constraint carried by an operator-tree edge (Figure 1(b))."""

    #: Thin edge: producer and consumer execute concurrently.
    PIPELINE = "pipeline"
    #: Thick edge: consumer starts only after producer completes.
    BLOCKING = "blocking"


@dataclass(eq=False)
class PhysicalOperator:
    """One node of the operator tree.

    Identity is by object (two operators with equal fields are still
    distinct nodes); ``name`` is unique within a plan and keys constraint
    (A) during scheduling.

    Attributes
    ----------
    name:
        Unique name, e.g. ``"scan(R3)"`` or ``"probe(J2)"``.
    kind:
        Operator kind (scan / build / probe).
    input_tuples:
        Tuples consumed from the operator's pipelined input stream
        (0 for scans, which read from disk).
    output_tuples:
        Tuples produced on the operator's pipelined output stream
        (0 for builds, whose product — the hash table — stays in memory).
    relation:
        The base relation, for scans.
    join_id:
        The owning join, for builds and probes.
    spec:
        The scheduler-facing :class:`~repro.core.cloning.OperatorSpec`,
        filled in by :func:`repro.cost.annotate.annotate_plan`.
        **Write-once**: attaching a spec to an unannotated operator is
        allowed exactly once; re-assigning a *different* spec raises
        :class:`~repro.exceptions.ImmutableAnnotationError` (re-assigning
        an equal spec is an idempotent no-op).  Annotating the same tree
        under different parameters goes through the detached
        :meth:`~repro.cost.annotate.PlanAnnotation.with_params` view.
    """

    name: str
    kind: OperatorKind
    input_tuples: int = 0
    output_tuples: int = 0
    relation: Relation | None = None
    join_id: str | None = None
    spec: OperatorSpec | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise PlanStructureError("operator name must be non-empty")
        if self.input_tuples < 0 or self.output_tuples < 0:
            raise PlanStructureError(
                f"operator {self.name!r}: tuple counts must be >= 0"
            )
        if self.kind is OperatorKind.SCAN and self.relation is None:
            raise PlanStructureError(f"scan {self.name!r} needs a relation")
        if (
            self.kind
            in (
                OperatorKind.BUILD,
                OperatorKind.PROBE,
                OperatorKind.MERGE,
                OperatorKind.STORE,
                OperatorKind.RESCAN,
            )
            and not self.join_id
        ):
            raise PlanStructureError(f"{self.kind.value} {self.name!r} needs a join_id")

    def __setattr__(self, name: str, value: object) -> None:
        # Operator specs are write-once so cached/shared operator trees can
        # never have their cost annotation rewritten underneath another
        # consumer.  Setting an equal spec stays an idempotent no-op.
        if name == "spec" and value is not None:
            current = getattr(self, "spec", None)
            if current is not None and value != current:
                raise ImmutableAnnotationError(
                    f"operator {self.name!r} already carries a cost annotation; "
                    "attached specs are immutable — re-annotate under different "
                    "parameters with PlanAnnotation.with_params(...) instead"
                )
        super().__setattr__(name, value)

    @property
    def annotated(self) -> bool:
        """``True`` once the cost model attached an :class:`OperatorSpec`."""
        return self.spec is not None

    def require_spec(self) -> OperatorSpec:
        """Return this operator's spec, raising when unannotated.

        Resolution order: the annotation view installed by
        :func:`use_annotation` (if any) wins over the spec attached to
        the node, so shared trees can be scheduled under a side-table
        annotation computed for different system parameters.
        """
        annotation = _ACTIVE_ANNOTATION.get()
        if annotation is not None:
            spec = annotation.get(self.name)
            if spec is not None:
                return spec
        if self.spec is None:
            raise PlanStructureError(
                f"operator {self.name!r} has no cost annotation; run "
                "repro.cost.annotate.annotate_plan first"
            )
        return self.spec

    def __repr__(self) -> str:
        return f"PhysicalOperator({self.name!r})"

    def __hash__(self) -> int:  # identity hash; names enforce uniqueness separately
        return id(self)


def scan_op(relation: Relation) -> PhysicalOperator:
    """Construct the scan operator for a base relation."""
    return PhysicalOperator(
        name=f"scan({relation.name})",
        kind=OperatorKind.SCAN,
        input_tuples=0,
        output_tuples=relation.tuples,
        relation=relation,
    )


def build_op(join_id: str, input_tuples: int) -> PhysicalOperator:
    """Construct the build operator of join ``join_id``."""
    return PhysicalOperator(
        name=f"build({join_id})",
        kind=OperatorKind.BUILD,
        input_tuples=input_tuples,
        output_tuples=0,
        join_id=join_id,
    )


def probe_op(join_id: str, outer_tuples: int, output_tuples: int) -> PhysicalOperator:
    """Construct the probe operator of join ``join_id``."""
    return PhysicalOperator(
        name=f"probe({join_id})",
        kind=OperatorKind.PROBE,
        input_tuples=outer_tuples,
        output_tuples=output_tuples,
        join_id=join_id,
    )


def sort_op(join_id: str, side: str, input_tuples: int) -> PhysicalOperator:
    """Construct one sort operator of a sort-merge join.

    ``side`` distinguishes the two inputs (``"l"`` / ``"r"``); a sort
    consumes its (repartitioned) input, materializes sorted runs locally,
    and emits the sorted stream to the merge after completion (blocking).
    """
    if side not in ("l", "r"):
        raise PlanStructureError(f"sort side must be 'l' or 'r', got {side!r}")
    return PhysicalOperator(
        name=f"sort{side}({join_id})",
        kind=OperatorKind.SORT,
        input_tuples=input_tuples,
        output_tuples=input_tuples,
        join_id=join_id,
    )


def store_op(join_id: str, tuples: int) -> PhysicalOperator:
    """Construct the store operator materializing join ``join_id``'s output."""
    return PhysicalOperator(
        name=f"store({join_id})",
        kind=OperatorKind.STORE,
        input_tuples=tuples,
        output_tuples=0,
        join_id=join_id,
    )


def rescan_op(join_id: str, tuples: int) -> PhysicalOperator:
    """Construct the rescan of join ``join_id``'s materialized output.

    Rooted at the store's home: the paper's §3.1 example of a rooted
    operator.
    """
    return PhysicalOperator(
        name=f"rescan({join_id})",
        kind=OperatorKind.RESCAN,
        input_tuples=0,
        output_tuples=tuples,
        join_id=join_id,
    )


def anchor_operator_name(op: PhysicalOperator) -> str | None:
    """The name of the operator whose home roots ``op``, if any.

    * a hash join's probe runs at its build's home (the hash table);
    * a rescan runs at its store's home (the materialized partitions).

    Returns ``None`` for floating operator kinds.  Every scheduler uses
    this single rule, so new rooted kinds only need to be added here.
    """
    if op.kind is OperatorKind.PROBE:
        return f"build({op.join_id})"
    if op.kind is OperatorKind.RESCAN:
        return f"store({op.join_id})"
    return None


def merge_op(join_id: str, left_tuples: int, right_tuples: int, output_tuples: int) -> PhysicalOperator:
    """Construct the merge operator of a sort-merge join.

    Consumes both sorted streams (their combined cardinality is recorded
    as ``input_tuples``) and emits the join result.
    """
    return PhysicalOperator(
        name=f"merge({join_id})",
        kind=OperatorKind.MERGE,
        input_tuples=left_tuples + right_tuples,
        output_tuples=output_tuples,
        join_id=join_id,
    )
