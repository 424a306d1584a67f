"""Committed serve outputs pin the service's virtual-time behaviour.

``tests/data/golden_serve/<config>/`` holds what four CLI ``serve`` runs
produced: the printed stdout, ``ServiceReport.summary()``, every job's
``(started, finished)`` pair and, for the telemetry run, the
``metrics.prom``/``metrics.jsonl`` exports.  The service is
deterministic virtual-time code, so a faster event loop, pool or
executor must reproduce every file byte for byte.  A change that is
*meant* to move service results regenerates the fixtures with::

    PYTHONPATH=src python tests/test_serve_golden.py

and says why in its description.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

GOLDEN_ROOT = Path(__file__).resolve().parent / "data" / "golden_serve"

_CLOSED = [
    "serve", "--duration", "150", "--arrival", "closed", "--clients", "6",
    "--think-mean", "15", "--seed", "42", "--max-coresident", "3",
]

#: config name -> CLI arguments (the serve-smoke / telemetry-smoke runs
#: plus the default open-arrival run).
CONFIGS = {
    "closed": _CLOSED,
    "elastic": _CLOSED + [
        "--cluster", "fast:4:2.0,std:12:1.0,slow:4:0.5", "--resize", "75:0:4.0",
    ],
    "telemetry": _CLOSED + ["--json", "--telemetry"],
    "open": ["serve", "--duration", "600", "--seed", "7"],
}


def capture(argv: list[str], workdir: Path) -> dict[str, bytes]:
    """Run one CLI serve invocation; return its golden files by name."""
    from repro.experiments.cli import main
    from repro.serve import SchedulerService

    reports = []
    original = SchedulerService.run

    def run(self):
        report = original(self)
        reports.append(report)
        return report

    metrics_dir = workdir / "metrics"
    extra = ["--no-cache"]
    if "--telemetry" in argv:
        extra += ["--metrics-out", str(metrics_dir)]
    stdout = io.StringIO()
    with mock.patch.object(SchedulerService, "run", run), redirect_stdout(
        stdout
    ), redirect_stderr(io.StringIO()):
        assert main(argv + extra) == 0
    (report,) = reports
    jobs = [[r.job_id, r.outcome, r.started, r.finished] for r in report.records]
    files = {
        "stdout.txt": stdout.getvalue().encode(),
        "summary.json": (json.dumps(report.summary(), indent=1) + "\n").encode(),
        "jobs.json": (
            "[\n" + ",\n".join(json.dumps(job) for job in jobs) + "\n]\n"
        ).encode(),
    }
    if metrics_dir.exists():
        for name in ("metrics.prom", "metrics.jsonl"):
            files[name] = (metrics_dir / name).read_bytes()
    return files


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_serve_run_reproduces_golden_files(name, tmp_path):
    pytest.importorskip("numpy")
    files = capture(CONFIGS[name], tmp_path)
    golden_dir = GOLDEN_ROOT / name
    assert sorted(files) == sorted(p.name for p in golden_dir.iterdir())
    for filename, content in files.items():
        assert content == (golden_dir / filename).read_bytes(), (name, filename)


def _regenerate() -> None:  # pragma: no cover - maintenance entry point
    import tempfile

    for name, argv in CONFIGS.items():
        with tempfile.TemporaryDirectory() as tmp:
            files = capture(argv, Path(tmp))
        target = GOLDEN_ROOT / name
        target.mkdir(parents=True, exist_ok=True)
        for old in target.iterdir():
            old.unlink()
        for filename, content in files.items():
            (target / filename).write_bytes(content)
        print(f"wrote {target}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
