"""The observability vocabulary is declared once, in repro.obs.names.

Every counter, timer, span and instant name is a constant built by
:func:`repro.obs.names.declare`; the ``KNOWN_*`` sets are derived from
those declarations, and no call site in ``src/repro`` spells a name as a
string literal.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.obs import names

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Recording calls whose first argument is a vocabulary name.
RECORDING_CALLS = ("span", "count", "timer", "instant_event")

DERIVED = {
    "counter": names.KNOWN_COUNTER_NAMES,
    "timer": names.KNOWN_TIMER_NAMES,
    "span": names.KNOWN_SPAN_NAMES,
    "instant": names.KNOWN_INSTANT_NAMES,
    "instant_prefix": frozenset(names.INSTANT_NAME_PREFIXES),
}


def _is_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str)
    if isinstance(node, ast.JoinedStr):
        return any(isinstance(part, ast.Constant) for part in node.values)
    if isinstance(node, ast.BinOp):
        return _is_literal(node.left) or _is_literal(node.right)
    return False


def _literal_names(tree: ast.AST):
    """(line, code) of every recorded name spelled as a literal."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            called = getattr(func, "attr", None) or getattr(func, "id", None)
            if called in RECORDING_CALLS and _is_literal(node.args[0]):
                yield node.lineno, ast.unparse(node)
            # recorder.timers.get("run", 0.0) / counters.get(...)
            if (
                called == "get"
                and isinstance(func, ast.Attribute)
                and getattr(func.value, "attr", None) in ("counters", "timers")
                and _is_literal(node.args[0])
            ):
                yield node.lineno, ast.unparse(node)
        # recorder.timers["run"] = ...
        if (
            isinstance(node, ast.Subscript)
            and getattr(node.value, "attr", None) in ("counters", "timers")
            and _is_literal(node.slice)
        ):
            yield node.lineno, ast.unparse(node)


def test_source_tree_is_scanned():
    modules = list(SRC.rglob("*.py"))
    assert len(modules) > 50
    assert SRC / "obs" / "names.py" in modules


def test_no_recorded_name_is_a_literal_at_its_call_site():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}: {code}"
        for path in sorted(SRC.rglob("*.py"))
        for line, code in _literal_names(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def test_scan_flags_literals():
    tree = ast.parse(
        "tracer.span('shelf')\n"
        "metrics.count(f'straggler {label}')\n"
        "instant_event('skew ' + label, at=0.0)\n"
        "rec.timers['run'] = 1.0\n"
        "rec.counters.get('phases', 0.0)\n"
        "tracer.span(SPAN_SHELF)\n"
        "instant_event(INSTANT_SKEW + label, at=0.0)\n"
    )
    assert [line for line, _ in _literal_names(tree)] == [1, 2, 3, 4, 5]


def test_every_declaration_lands_in_exactly_one_derived_set():
    for declaration in names.VOCABULARY:
        assert declaration.name in DERIVED[declaration.kind]
    # Together with the line above: no derived set holds an undeclared
    # name or a name twice, so each declaration fills exactly one slot.
    assert sum(len(derived) for derived in DERIVED.values()) == len(names.VOCABULARY)


def test_constants_are_the_declarations():
    prefixes = {
        "COUNTER_": "counter",
        "TIMER_": "timer",
        "SPAN_": "span",
        "INSTANT_": ("instant", "instant_prefix"),
    }
    constants = {
        (key, value)
        for key, value in vars(names).items()
        if isinstance(value, str) and key.startswith(tuple(prefixes))
    }
    assert len(constants) == len(names.VOCABULARY)
    for key, value in constants:
        kinds = next(kind for prefix, kind in prefixes.items() if key.startswith(prefix))
        assert any(
            d.name == value and d.kind in kinds for d in names.VOCABULARY
        ), key


def test_every_declaration_has_a_doc():
    assert all(d.doc.strip() for d in names.VOCABULARY)


def test_declare_rejects_duplicates_and_unknown_kinds():
    with pytest.raises(ValueError, match="declared twice"):
        names.declare("counter", names.COUNTER_CLONES_MOVED, "again")
    with pytest.raises(ValueError, match="unknown name kind"):
        names.declare("gauge", "queue_depth", "not a recorder kind")
