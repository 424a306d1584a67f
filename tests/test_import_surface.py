"""What a process loads when it imports the library.

perfbench pays for every module its import surface loads, in each fresh
interpreter; so does every CLI run and pool worker.  These tests pin that
surface, check that numpy stays off it, and check the lazy packages'
contract: an exported name is read from its defining module on every
access and is never stored in the package.

A change that moves the pinned set updates :data:`SURFACE_MODULES`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.plans

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: perfbench's import surface (``perfbench/workloads.py``).
SURFACE = ("repro.search.search", "repro.experiments.runner", "repro.serve", "repro.store")

#: Every ``repro`` module a fresh interpreter holds after importing
#: :data:`SURFACE`, one package per line.
SURFACE_MODULES = sorted(
    """
    repro repro._lazy repro.exceptions
    repro.core repro.core.batch repro.core.bounds repro.core.cloning
    repro.core.cluster repro.core.granularity repro.core.malleable
    repro.core.operator_schedule repro.core.optimal repro.core.placement_heap
    repro.core.reschedule repro.core.resource_model repro.core.schedule
    repro.core.site repro.core.skew repro.core.tree_schedule
    repro.core.vector_packing repro.core.work_vector
    repro.cost repro.cost.annotate repro.cost.communication repro.cost.cost_model
    repro.cost.params
    repro.engine repro.engine.driver repro.engine.metrics repro.engine.registry
    repro.engine.result
    repro.experiments repro.experiments.parallel repro.experiments.runner
    repro.obs repro.obs.export repro.obs.metrics_stream repro.obs.names
    repro.obs.timeline repro.obs.tracer
    repro.plans repro.plans.generator repro.plans.join_tree
    repro.plans.operator_tree repro.plans.phases repro.plans.physical_ops
    repro.plans.query_graph repro.plans.relations repro.plans.task_tree
    repro.search repro.search.canonical repro.search.enumerator
    repro.search.pareto repro.search.score repro.search.screen
    repro.search.search
    repro.serve repro.serve.admission repro.serve.clock repro.serve.executor
    repro.serve.governor repro.serve.pool repro.serve.service
    repro.serve.telemetry repro.serve.workload
    repro.store repro.store.artifact_store
    """.split()
)


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


def _loaded_after(*modules: str) -> dict:
    return _run(
        "import importlib, json, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps({\n"
        "    'repro': sorted(n for n in sys.modules\n"
        "                    if n == 'repro' or n.startswith('repro.')),\n"
        "    'numpy': 'numpy' in sys.modules,\n"
        "}))\n"
    )


class TestSurface:
    def test_surface_modules_pinned(self):
        loaded = _loaded_after(*SURFACE)
        assert loaded["repro"] == SURFACE_MODULES
        assert not loaded["numpy"]

    def test_unused_layers_stay_unloaded(self):
        loaded = set(_loaded_after(*SURFACE)["repro"])
        for prefix in ("repro.sim", "repro.baselines", "repro.memory"):
            assert not any(
                name == prefix or name.startswith(prefix + ".") for name in loaded
            ), prefix
        for name in (
            "repro.experiments.figures",
            "repro.obs.session",
            "repro.plans.stats",
        ):
            assert name not in loaded
        assert {"repro.core.malleable", "repro.core.reschedule"} <= loaded

    def test_import_repro_runs_no_submodule(self):
        loaded = _loaded_after("repro")
        assert loaded == {"repro": ["repro", "repro._lazy"], "numpy": False}

    def test_every_module_imports_first(self, tmp_path):
        # No package import fixes the order any more, so an import cycle
        # shows only when its far end is imported first: import each
        # module into an interpreter holding no repro module.  Bytecode
        # goes to tmp_path so each round does not recompile the package.
        result = _run(
            "import importlib, json, pkgutil, sys\n"
            "sys.dont_write_bytecode = False\n"
            f"sys.pycache_prefix = {str(tmp_path)!r}\n"
            "import repro\n"
            "names = ['repro'] + [info.name for info in\n"
            "    pkgutil.walk_packages(repro.__path__, 'repro.')\n"
            "    if not info.name.endswith('.__main__')]\n"
            "failed = {}\n"
            "for name in names:\n"
            "    for loaded in [n for n in sys.modules\n"
            "                   if n == 'repro' or n.startswith('repro.')]:\n"
            "        del sys.modules[loaded]\n"
            "    try:\n"
            "        importlib.import_module(name)\n"
            "    except ImportError as exc:\n"
            "        failed[name] = str(exc)\n"
            "print(json.dumps({'imported': len(names), 'failed': failed}))\n"
        )
        assert result["failed"] == {}
        assert result["imported"] > len(SURFACE_MODULES)


class TestWithoutNumpy:
    def test_plans_import_and_draws_fail_cleanly(self):
        result = _run(
            "import json, pkgutil, sys\n"
            "sys.modules['numpy'] = None\n"
            "import repro.plans\n"
            "from repro import PAPER_PARAMETERS, Catalog, QueryGraph, Relation\n"
            "from repro.core.resource_model import ConvexCombinationOverlap\n"
            "from repro.exceptions import ConfigurationError\n"
            "from repro.experiments.plan_selection import select_best_plan\n"
            "from repro.plans.generator import generate_workload\n"
            "imported = []\n"
            "for info in pkgutil.walk_packages(repro.plans.__path__, 'repro.plans.'):\n"
            "    __import__(info.name)\n"
            "    imported.append(info.name)\n"
            "errors = {}\n"
            "try:\n"
            "    generate_workload(3, 2, seed=0)\n"
            "except ConfigurationError as exc:\n"
            "    errors['generate_workload'] = str(exc)\n"
            "catalog = Catalog([Relation('A', 1000), Relation('B', 2000)])\n"
            "try:\n"
            "    select_best_plan(\n"
            "        QueryGraph(['A', 'B'], [('A', 'B')]), catalog, k=2, seed=0, p=4,\n"
            "        params=PAPER_PARAMETERS,\n"
            "        comm=PAPER_PARAMETERS.communication_model(),\n"
            "        overlap=ConvexCombinationOverlap(0.5),\n"
            "    )\n"
            "except ConfigurationError as exc:\n"
            "    errors['select_best_plan'] = str(exc)\n"
            "print(json.dumps({'imported': imported, 'errors': errors}))\n"
        )
        expected = sorted(
            f"repro.plans.{name}"
            for name in (
                "generator", "join_tree", "operator_tree", "phases",
                "physical_ops", "query_graph", "relations", "stats",
                "task_tree", "transform",
            )
        )
        assert sorted(result["imported"]) == expected
        assert result["errors"] == {
            "generate_workload": (
                "workload generation needs numpy; install the 'repro[numpy]' extra"
            ),
            "select_best_plan": (
                "plan sampling needs numpy; install the 'repro[numpy]' extra"
            ),
        }


class TestLazyPackages:
    def test_names_resolve_on_every_access(self, monkeypatch):
        from repro.plans import operator_tree

        original = operator_tree.expand_plan
        assert repro.plans.expand_plan is original
        assert repro.expand_plan is original
        assert "expand_plan" not in vars(repro.plans)
        assert "expand_plan" not in vars(repro)

        def stand_in(plan):
            raise AssertionError("not called")

        monkeypatch.setattr(operator_tree, "expand_plan", stand_in)
        assert repro.plans.expand_plan is stand_in
        assert repro.expand_plan is stand_in
        monkeypatch.undo()
        assert repro.expand_plan is original

    def test_dir_and_unknown_names(self):
        assert set(repro.plans.__all__) <= set(dir(repro.plans))
        assert "__version__" in repro.__all__
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.plans.nope  # noqa: B018

    def test_submodule_named_like_its_export(self):
        # Importing repro.baselines.opt_bound binds the submodule on the
        # package; the package keeps the function under that name.
        import repro.baselines.opt_bound
        from repro.baselines import opt_bound

        assert callable(opt_bound) and opt_bound.__module__ == "repro.baselines.opt_bound"
        assert repro.opt_bound is opt_bound
