"""Query task trees (Figure 1(c), Section 3.1).

A *query task* is a maximal subgraph of the operator tree containing only
pipelining edges — an operator pipeline whose members execute
concurrently.  The *query task tree* represents each task as a single
node; its edges are induced by the blocking edges of the operator tree
(here: ``build(J) -> probe(J)``), so a task must await the completion of
all its child tasks.

For hash-join plans every task has exactly one *sink* operator — either a
build (whose hash table feeds a probe in the parent task) or the plan's
root probe/scan — which is what makes the blocking structure a tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import PlanStructureError
from repro.plans.operator_tree import OperatorTree
from repro.plans.physical_ops import OperatorKind, PhysicalOperator

__all__ = ["Task", "TaskTree", "build_task_tree"]


@dataclass(eq=False)
class Task:
    """One query task: a maximal pipeline of physical operators.

    Attributes
    ----------
    task_id:
        Identifier unique within the task tree (``"T0"``, ``"T1"``, ...).
    operators:
        The pipeline's operators, in topological (producer-first) order.
    """

    task_id: str
    operators: list[PhysicalOperator] = field(default_factory=list)

    @property
    def sink(self) -> PhysicalOperator:
        """The pipeline's terminal operator (a build, or the plan root)."""
        if not self.operators:
            raise PlanStructureError(f"task {self.task_id!r} is empty")
        return self.operators[-1]

    @property
    def operator_names(self) -> list[str]:
        """Names of the member operators, in pipeline order."""
        return [op.name for op in self.operators]

    def __contains__(self, op: PhysicalOperator) -> bool:
        return any(member is op for member in self.operators)

    def __len__(self) -> int:
        return len(self.operators)

    def __repr__(self) -> str:
        return f"Task({self.task_id!r}, {len(self.operators)} operators)"

    def __hash__(self) -> int:
        return id(self)


class TaskTree:
    """The tree of query tasks, with precedence given by blocking edges."""

    def __init__(self, tasks: list[Task], root: Task, parents: dict[Task, Task]):
        self._tasks = tasks
        self._root = root
        self._parents = parents
        self._children: dict[Task, list[Task]] = {t: [] for t in tasks}
        for child, parent in parents.items():
            self._children[parent].append(child)
        self._depths: dict[Task, int] = {}
        self._compute_depths()

    def _compute_depths(self) -> None:
        self._depths[self._root] = 0
        stack = [self._root]
        while stack:
            task = stack.pop()
            for child in self._children[task]:
                self._depths[child] = self._depths[task] + 1
                stack.append(child)
        if len(self._depths) != len(self._tasks):
            raise PlanStructureError("task precedence graph is not a tree")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tasks(self) -> list[Task]:
        """All tasks (creation order)."""
        return list(self._tasks)

    @property
    def root(self) -> Task:
        """The task containing the plan's root operator (executed last)."""
        return self._root

    def parent(self, task: Task) -> Task | None:
        """The task that must await ``task``'s completion (None at root)."""
        return self._parents.get(task)

    def children(self, task: Task) -> list[Task]:
        """The tasks ``task`` depends on."""
        return list(self._children[task])

    def depth(self, task: Task) -> int:
        """Edges from ``task`` up to the root (root has depth 0)."""
        return self._depths[task]

    @property
    def height(self) -> int:
        """The height of the task tree — also the number of phases minus 1
        is ``height``; a single-task tree has height 0 and one phase."""
        return max(self._depths.values())

    def __len__(self) -> int:
        return len(self._tasks)

    def task_of(self, op: PhysicalOperator) -> Task:
        """The task containing ``op``."""
        for task in self._tasks:
            if op in task:
                return task
        raise PlanStructureError(f"operator {op.name!r} belongs to no task")

    def independent(self, a: Task, b: Task) -> bool:
        """True when there is no precedence path between ``a`` and ``b``.

        Independent tasks can exploit independent parallelism
        (Section 3.1).
        """
        if a is b:
            return False
        return not self._is_ancestor(a, b) and not self._is_ancestor(b, a)

    def _is_ancestor(self, ancestor: Task, descendant: Task) -> bool:
        node: Task | None = descendant
        while node is not None:
            node = self._parents.get(node)
            if node is ancestor:
                return True
        return False

    def __repr__(self) -> str:
        return f"TaskTree({len(self)} tasks, height={self.height})"


def build_task_tree(op_tree: OperatorTree) -> TaskTree:
    """Derive the query task tree from an operator tree (Figure 1(b) → (c)).

    Tasks are the weakly connected components of the pipeline-edge
    subgraph; task precedence follows the blocking edges.  Task ids are
    assigned in topological execution order of the member operators, so
    deterministic inputs give deterministic ids.
    """
    order = op_tree.operators
    topo_index = {op: i for i, op in enumerate(order)}
    neighbors: dict[PhysicalOperator, list[PhysicalOperator]] = {op: [] for op in order}
    for u, v in op_tree.pipeline_edges():
        neighbors[u].append(v)
        neighbors[v].append(u)
    # Components are discovered from the operator with the smallest
    # topological index, so scanning in topological order numbers the
    # tasks by the position of their first operator.
    components: list[list[PhysicalOperator]] = []
    seen: set[PhysicalOperator] = set()
    for start in order:
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        stack = [start]
        while stack:
            for other in neighbors[stack.pop()]:
                if other not in seen:
                    seen.add(other)
                    component.append(other)
                    stack.append(other)
        components.append(component)

    tasks: list[Task] = []
    task_of_op: dict[PhysicalOperator, Task] = {}
    for i, component in enumerate(components):
        ordered = sorted(component, key=lambda op: topo_index[op])
        task = Task(task_id=f"T{i}", operators=ordered)
        tasks.append(task)
        for op in component:
            task_of_op[op] = task

    # Sanity: a task's sink must be a blocking producer (build or sort)
    # or the plan root.
    root_op = op_tree.root
    for task in tasks:
        sink = task.sink
        if sink is not root_op and sink.kind not in (
            OperatorKind.BUILD,
            OperatorKind.SORT,
            OperatorKind.STORE,
        ):
            raise PlanStructureError(
                f"task {task.task_id!r} ends in {sink.name!r}, which is neither "
                "a blocking producer (build/sort) nor the plan root"
            )

    parents: dict[Task, Task] = {}
    for u, v in op_tree.blocking_edges():
        child, parent = task_of_op[u], task_of_op[v]
        if child is parent:
            raise PlanStructureError(
                f"blocking edge {u.name!r} -> {v.name!r} stays inside one task"
            )
        if child in parents and parents[child] is not parent:
            raise PlanStructureError(
                f"task {child.task_id!r} has two parents"
            )
        parents[child] = parent

    root_task = task_of_op[root_op]
    if root_task in parents:
        raise PlanStructureError("the root task must not have a parent")
    return TaskTree(tasks=tasks, root=root_task, parents=parents)
