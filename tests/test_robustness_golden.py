"""Committed robustness outputs pin the fluid simulator's numbers.

``tests/data/golden_robustness/<policy>.json`` holds what ``repro-experiments
robustness --quick --queries 3 --intensities 0 0.5 --json`` printed for
each ``--policy``.  Intensity 0 runs every site fault-free; intensity
0.5 runs a seeded fault plan, so fault-free and faulted sites are both
covered.  The printed values are full-precision means of
simulated/analytic ratios, so even a one-ulp move in one site's
completion time can show up here.  A change that is *meant* to move
simulated times regenerates the fixtures with::

    PYTHONPATH=src python tests/test_robustness_golden.py

and says why in its description.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

GOLDEN_ROOT = Path(__file__).resolve().parent / "data" / "golden_robustness"

POLICIES = ("optimal_stretch", "fair_share", "serial")

ARGV = [
    "robustness", "--quick", "--queries", "3", "--intensities", "0", "0.5",
    "--json", "--no-cache",
]


def capture(policy: str) -> bytes:
    """Run one CLI robustness invocation; return its stdout."""
    from repro.experiments.cli import main

    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        assert main(ARGV + ["--policy", policy]) == 0
    return stdout.getvalue().encode()


@pytest.mark.parametrize("policy", POLICIES)
def test_robustness_reproduces_golden_output(policy):
    pytest.importorskip("numpy")  # workload generation
    assert capture(policy) == (GOLDEN_ROOT / f"{policy}.json").read_bytes()


def _regenerate() -> None:  # pragma: no cover - maintenance entry point
    GOLDEN_ROOT.mkdir(parents=True, exist_ok=True)
    for policy in POLICIES:
        target = GOLDEN_ROOT / f"{policy}.json"
        target.write_bytes(capture(policy))
        print(f"wrote {target}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
