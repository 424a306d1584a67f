"""Per-operator work vectors from catalog statistics ([HCY94]-style model).

The experiments estimate the CPU and disk components of each operator's
work vector with the cost-model equations of Hsiao, Chen and Yu [HCY94],
instantiated with the Table 2 primitives.  With the default 3-resource
layout (CPU, DISK, NETWORK):

* ``scan(R)`` — reads ``pages(R)`` pages and extracts ``|R|`` tuples::

      CPU  = (pages(R) * instr_read_page + |R| * instr_extract_tuple) / MIPS
      DISK = pages(R) * disk_seconds_per_page

* ``build(J)`` — receives its ``|inner|`` input tuples (each must be
  extracted from the repartitioned stream, A5) and hashes them into the
  in-memory table (assumption A1: no spill, hence no disk component)::

      CPU  = |inner| * (instr_extract_tuple + instr_hash_tuple) / MIPS

* ``probe(J)`` — receives and extracts ``|outer|`` tuples, probes the
  table with each, and constructs the ``|result|`` output tuples::

      CPU  = (|outer| * (instr_extract_tuple + instr_probe_table)
              + |result| * instr_extract_tuple) / MIPS

The NETWORK component of the *processing* work vector is zero: all network
time is communication overhead (``beta * D``) accounted for by the
Section 4.3 model via each operator's data volume ``D`` (see
:mod:`repro.cost.communication`).  :func:`operator_cost` is the one
formula both are read from: a pure function of the operator's kind,
tuple counts and whether a pipeline consumer reads its output.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError, PlanStructureError
from repro.core.work_vector import DEFAULT_DIMENSIONALITY, Resource, WorkVector
from repro.cost.params import SystemParameters
from repro.plans.physical_ops import OperatorKind

__all__ = [
    "scan_work_vector",
    "build_work_vector",
    "probe_work_vector",
    "sort_work_vector",
    "merge_work_vector",
    "store_work_vector",
    "rescan_work_vector",
    "work_vector_3d",
    "operator_cost",
]


def work_vector_3d(cpu_seconds: float, disk_seconds: float) -> WorkVector:
    """Assemble a 3-dimensional processing work vector.

    The network component is always zero for processing work: network
    interface time is communication overhead and handled separately.
    """
    if cpu_seconds < 0 or disk_seconds < 0:
        raise ConfigurationError("work components must be >= 0")
    components = [0.0] * DEFAULT_DIMENSIONALITY
    components[Resource.CPU] = cpu_seconds
    components[Resource.DISK] = disk_seconds
    return WorkVector(components)


def scan_work_vector(tuples: int, params: SystemParameters) -> WorkVector:
    """Work vector of a base-relation scan of ``tuples`` tuples."""
    if tuples < 0:
        raise ConfigurationError(f"tuple count must be >= 0, got {tuples}")
    pages = params.pages(tuples)
    cpu = params.cpu_seconds(
        pages * params.instr_read_page + tuples * params.instr_extract_tuple
    )
    disk = pages * params.disk_seconds_per_page
    return work_vector_3d(cpu, disk)


def build_work_vector(input_tuples: int, params: SystemParameters) -> WorkVector:
    """Work vector of a hash-table build over ``input_tuples`` tuples.

    Each incoming tuple is extracted from the (repartitioned) input
    stream and hashed into the table.
    """
    if input_tuples < 0:
        raise ConfigurationError(f"tuple count must be >= 0, got {input_tuples}")
    cpu = params.cpu_seconds(
        input_tuples * (params.instr_extract_tuple + params.instr_hash_tuple)
    )
    return work_vector_3d(cpu, 0.0)


def probe_work_vector(
    outer_tuples: int, result_tuples: int, params: SystemParameters
) -> WorkVector:
    """Work vector of a probe: ``outer_tuples`` probes, ``result_tuples`` out.

    Each outer tuple is extracted from the repartitioned input stream and
    probes the hash table; each result tuple is constructed (extracted)
    for the output stream.
    """
    if outer_tuples < 0 or result_tuples < 0:
        raise ConfigurationError("tuple counts must be >= 0")
    cpu = params.cpu_seconds(
        outer_tuples * (params.instr_extract_tuple + params.instr_probe_table)
        + result_tuples * params.instr_extract_tuple
    )
    return work_vector_3d(cpu, 0.0)


def sort_work_vector(tuples: int, params: SystemParameters) -> WorkVector:
    """Work vector of a two-pass external sort over ``tuples`` tuples.

    Reconstruction (Table 2 has no comparison primitive): each incoming
    tuple is extracted on ingest and extracted again when the sorted
    runs are merged out (``2 * instr_extract_tuple`` per tuple); sorted
    runs are written to disk and re-read once (``instr_write_page`` +
    ``instr_read_page`` CPU and two disk passes per page).
    """
    if tuples < 0:
        raise ConfigurationError(f"tuple count must be >= 0, got {tuples}")
    pages = params.pages(tuples)
    cpu = params.cpu_seconds(
        pages * (params.instr_write_page + params.instr_read_page)
        + 2 * tuples * params.instr_extract_tuple
    )
    disk = 2 * pages * params.disk_seconds_per_page
    return work_vector_3d(cpu, disk)


def store_work_vector(tuples: int, params: SystemParameters) -> WorkVector:
    """Work vector of materializing ``tuples`` tuples to disk.

    Each incoming (repartitioned) tuple is extracted; full pages are
    written.
    """
    if tuples < 0:
        raise ConfigurationError(f"tuple count must be >= 0, got {tuples}")
    pages = params.pages(tuples)
    cpu = params.cpu_seconds(
        pages * params.instr_write_page + tuples * params.instr_extract_tuple
    )
    return work_vector_3d(cpu, pages * params.disk_seconds_per_page)


def rescan_work_vector(tuples: int, params: SystemParameters) -> WorkVector:
    """Work vector of re-reading a materialized result (same as a scan)."""
    return scan_work_vector(tuples, params)


def merge_work_vector(
    left_tuples: int, right_tuples: int, result_tuples: int, params: SystemParameters
) -> WorkVector:
    """Work vector of the merge phase of a sort-merge join.

    Each input tuple of either sorted stream is extracted and advanced
    through the merge; each result tuple is constructed.  Both inputs
    arrive pre-sorted over the interconnect, so there is no disk work
    (the sorts carried the run I/O).
    """
    if left_tuples < 0 or right_tuples < 0 or result_tuples < 0:
        raise ConfigurationError("tuple counts must be >= 0")
    cpu = params.cpu_seconds(
        (left_tuples + right_tuples + result_tuples) * params.instr_extract_tuple
    )
    return work_vector_3d(cpu, 0.0)


def operator_cost(
    kind: OperatorKind,
    input_tuples: int,
    output_tuples: int,
    has_pipeline_consumer: bool,
    params: SystemParameters,
) -> tuple[WorkVector, float]:
    """``(work vector, D)`` of one physical operator (pure).

    The only copy of the per-kind formulas: cost annotation
    (:func:`repro.cost.annotate.compute_operator_spec`), the data-volume
    accessor (:func:`repro.cost.communication.operator_data_volume`) and
    the plan-search screen all read them from here.
    ``has_pipeline_consumer`` is ``False`` for the plan root, whose
    output goes to the client without repartitioning, and for operators
    whose only consumer is blocking.
    """
    bytes_in = float(params.bytes_of(input_tuples))
    bytes_out = float(params.bytes_of(output_tuples))
    if kind is OperatorKind.SCAN:
        return (
            scan_work_vector(output_tuples, params),
            bytes_out if has_pipeline_consumer else 0.0,
        )
    if kind is OperatorKind.BUILD:
        return build_work_vector(input_tuples, params), bytes_in
    if kind is OperatorKind.PROBE:
        work = probe_work_vector(input_tuples, output_tuples, params)
        return work, bytes_in + bytes_out if has_pipeline_consumer else bytes_in
    if kind is OperatorKind.SORT:
        # Receives its repartitioned input and, after completion, ships
        # the sorted stream to the merge (a blocking consumer, so the
        # pipeline-consumer flag does not apply).
        return sort_work_vector(input_tuples, params), bytes_in + bytes_out
    if kind is OperatorKind.MERGE:
        # input_tuples records both sorted streams combined; the split is
        # immaterial to the cost (both sides cost extract per tuple).
        work = merge_work_vector(input_tuples, 0, output_tuples, params)
        return work, bytes_in + bytes_out if has_pipeline_consumer else bytes_in
    if kind is OperatorKind.STORE:
        # Receives the repartitioned result stream; the pages stay local.
        return store_work_vector(input_tuples, params), bytes_in
    if kind is OperatorKind.RESCAN:
        # Reads locally (rooted at the store); ships to its consumer.
        return (
            rescan_work_vector(output_tuples, params),
            bytes_out if has_pipeline_consumer else 0.0,
        )
    raise PlanStructureError(f"unknown operator kind {kind!r}")
