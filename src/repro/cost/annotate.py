"""Cost annotation: derive an :class:`OperatorSpec` for every operator.

Step 2 of the paper's scheduling pipeline (Section 3.2): "For each
operator, determine its individual resource requirements using hardware
parameters, DBMS statistics, and conventional optimizer cost models."
:func:`annotate_plan` walks a macro-expanded operator tree, derives each
operator's zero-communication work vector (the [HCY94]-style model of
:mod:`repro.cost.cost_model`) and its interconnect data volume ``D``
(:mod:`repro.cost.communication`), and returns the result as an
immutable :class:`PlanAnnotation` — a frozen ``operator name ->
OperatorSpec`` side table.

Immutability contract (see DESIGN.md §2.4): annotation never rewrites an
operator tree.  :func:`annotate_plan` additionally *attaches* each spec
to its node — but exactly once; a second annotation of the same tree
under different parameters raises
:class:`~repro.exceptions.ImmutableAnnotationError` instead of mutating
shared state.  Re-annotation is expressed with
:meth:`PlanAnnotation.with_params`, which computes a fresh detached view
over the same tree; schedulers consume it through
:func:`repro.plans.physical_ops.use_annotation` (threaded automatically
by the engine registry via ``ScheduleRequest.annotation``).  This is
what makes workload cohorts shareable between experiments without the
defensive ``copy.deepcopy`` the experiment runner historically paid per
sweep point.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.exceptions import PlanStructureError
from repro.core.cloning import OperatorSpec
from repro.plans.generator import GeneratedQuery
from repro.plans.operator_tree import OperatorTree
from repro.plans.physical_ops import PhysicalOperator, use_annotation
from repro.cost.cost_model import operator_cost
from repro.cost.params import SystemParameters

__all__ = [
    "PlanAnnotation",
    "AnnotatedQuery",
    "compute_operator_spec",
    "compute_plan_annotation",
    "annotate_operator",
    "annotate_plan",
]


def compute_operator_spec(
    op: PhysicalOperator, op_tree: OperatorTree, params: SystemParameters
) -> OperatorSpec:
    """Derive the :class:`OperatorSpec` for one operator (pure)."""
    if op not in op_tree:
        raise PlanStructureError(f"operator {op.name!r} not in the given tree")
    work, data_volume = operator_cost(
        op.kind,
        op.input_tuples,
        op.output_tuples,
        op_tree.pipeline_consumer(op) is not None,
        params,
    )
    return OperatorSpec(name=op.name, work=work, data_volume=data_volume)


@dataclass(frozen=True)
class PlanAnnotation(Mapping[str, OperatorSpec]):
    """An immutable ``operator name -> OperatorSpec`` view of one tree.

    A frozen side table: the annotation of ``op_tree`` under ``params``,
    independent of whatever specs are (or are not) attached to the tree's
    nodes.  Being detached and immutable, any number of annotations of
    the same tree — one per parameter variant of a sensitivity sweep —
    can coexist and be cached or shipped to worker processes without
    copying the tree.

    Use :meth:`with_params` to re-annotate under different parameters,
    and :meth:`activate` (or ``ScheduleRequest.annotation``) to make this
    view the one :meth:`~repro.plans.physical_ops.PhysicalOperator.require_spec`
    resolves during scheduling.
    """

    op_tree: OperatorTree = field(repr=False)
    params: SystemParameters
    specs: Mapping[str, OperatorSpec] = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", MappingProxyType(dict(self.specs)))

    # -- Mapping protocol ------------------------------------------------
    def __getitem__(self, name: str) -> OperatorSpec:
        try:
            return self.specs[name]
        except KeyError:
            raise PlanStructureError(
                f"no operator named {name!r} in this annotation"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    # -- derived views ---------------------------------------------------
    def spec_of(self, op: PhysicalOperator) -> OperatorSpec:
        """The spec of one operator node (keyed by its unique name)."""
        return self[op.name]

    def with_params(self, params: SystemParameters | None = None, **overrides: float) -> "PlanAnnotation":
        """Re-annotate the same tree under different parameters.

        Pass a full :class:`SystemParameters`, or keyword field overrides
        applied to this annotation's parameters via
        :meth:`SystemParameters.scaled`.  Returns a *new* detached
        :class:`PlanAnnotation`; neither this view nor the tree is
        modified.
        """
        if params is not None and overrides:
            raise PlanStructureError(
                "pass either a SystemParameters or field overrides, not both"
            )
        new_params = params if params is not None else self.params.scaled(**overrides)
        if new_params == self.params:
            return self
        return compute_plan_annotation(self.op_tree, new_params)

    def activate(self):
        """Context manager making this view the active spec resolution."""
        return use_annotation(self)

    def attach(self) -> "PlanAnnotation":
        """Attach every spec to its operator node (write-once).

        Raises
        ------
        ImmutableAnnotationError
            If any node already carries a *different* spec — attached
            annotations are immutable; keep this view detached instead.
        """
        for op in self.op_tree.operators:
            op.spec = self.specs[op.name]
        return self

    def __repr__(self) -> str:
        return f"PlanAnnotation({len(self.specs)} operators)"


def compute_plan_annotation(
    op_tree: OperatorTree, params: SystemParameters
) -> PlanAnnotation:
    """Annotate ``op_tree`` under ``params`` without touching its nodes."""
    specs = {
        op.name: compute_operator_spec(op, op_tree, params)
        for op in op_tree.operators
    }
    return PlanAnnotation(op_tree=op_tree, params=params, specs=specs)


@dataclass(frozen=True)
class AnnotatedQuery:
    """One generated query bound to one immutable cost annotation.

    The pairing the experiment layer hands around: the *shared*
    structural :class:`~repro.plans.generator.GeneratedQuery` (never
    copied, never mutated) plus the :class:`PlanAnnotation` for one
    :class:`~repro.cost.params.SystemParameters` point.  Delegating
    properties keep the historical ``query.operator_tree`` /
    ``query.task_tree`` call sites working unchanged.
    """

    query: GeneratedQuery
    annotation: PlanAnnotation

    @property
    def operator_tree(self):
        return self.query.operator_tree

    @property
    def task_tree(self):
        return self.query.task_tree

    @property
    def catalog(self):
        return self.query.catalog

    @property
    def graph(self):
        return self.query.graph

    @property
    def plan(self):
        return self.query.plan

    @property
    def num_joins(self) -> int:
        return self.query.num_joins

    def with_params(self, params: SystemParameters | None = None, **overrides: float) -> "AnnotatedQuery":
        """Re-annotate the same underlying query (structure shared)."""
        return AnnotatedQuery(
            query=self.query, annotation=self.annotation.with_params(params, **overrides)
        )

    def __repr__(self) -> str:
        return f"AnnotatedQuery({self.query!r})"


def annotate_operator(
    op: PhysicalOperator, op_tree: OperatorTree, params: SystemParameters
) -> OperatorSpec:
    """Compute and attach (write-once) the spec for one operator.

    Raises
    ------
    ImmutableAnnotationError
        If the operator already carries a different spec.
    """
    spec = compute_operator_spec(op, op_tree, params)
    op.spec = spec
    return spec


def annotate_plan(op_tree: OperatorTree, params: SystemParameters) -> PlanAnnotation:
    """Annotate every operator of ``op_tree``; returns the frozen view.

    The computed specs are additionally attached to the operator nodes —
    exactly once.  Annotating an unannotated tree (or re-annotating with
    identical parameters) succeeds idempotently; re-annotating a tree
    that already carries *different* specs raises
    :class:`~repro.exceptions.ImmutableAnnotationError` — use
    :meth:`PlanAnnotation.with_params` for a detached re-annotation of a
    shared tree.
    """
    return compute_plan_annotation(op_tree, params).attach()
