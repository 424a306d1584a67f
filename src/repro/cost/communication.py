"""Per-operator interconnect data volumes (``D`` of Section 4.3).

The communication model ``W_c(op, N) = alpha*N + beta*D`` needs, per
operator, the total size ``D`` (bytes) of the operator's input and output
data sets transferred over the interconnect.  Under assumption **A5
(dynamically repartitioned pipelined outputs)** every pipeline edge
crosses the interconnect: the producer's output stream is repartitioned to
serve as the consumer's input, costing network-interface time ``beta`` per
byte at *both* endpoints.  Consequently, for the hash-join operator
vocabulary:

* ``scan(R)`` — sends its output downstream: ``D = bytes(|R|)``;
* ``build(J)`` — receives its inner input stream: ``D = bytes(|inner|)``
  (the hash table itself stays local, A1);
* ``probe(J)`` — receives the outer stream and, unless it is the plan
  root, sends its result stream: ``D = bytes(|outer|) + bytes(|result|)``
  (a root probe delivers results to the client without repartitioning:
  ``D = bytes(|outer|)``).
"""

from __future__ import annotations

from repro.exceptions import PlanStructureError
from repro.plans.operator_tree import OperatorTree
from repro.plans.physical_ops import PhysicalOperator
from repro.cost.cost_model import operator_cost
from repro.cost.params import SystemParameters

__all__ = ["operator_data_volume"]


def operator_data_volume(
    op: PhysicalOperator, op_tree: OperatorTree, params: SystemParameters
) -> float:
    """Return ``D`` (bytes over the interconnect) for one operator.

    Parameters
    ----------
    op:
        The physical operator.
    op_tree:
        The containing operator tree (determines whether the operator's
        output is pipelined to a consumer or delivered to the client).
    params:
        Supplies the tuple size.

    The formulas live in :func:`repro.cost.cost_model.operator_cost`.
    """
    if op not in op_tree:
        raise PlanStructureError(f"operator {op.name!r} not in the given tree")
    has_pipeline_consumer = op_tree.pipeline_consumer(op) is not None
    return operator_cost(
        op.kind, op.input_tuples, op.output_tuples, has_pipeline_consumer, params
    )[1]
