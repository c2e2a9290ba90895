"""The susceptibility rows have one solve path: only the row solve gates them,
and only it and its gate eliminate."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the program's code
SOURCES = sorted((ROOT / "src" / "bathcool").glob("*.py"))


def _callers(name: str) -> list:
    """``(module, function)`` of every call of ``name`` in the program, by the
    top-level definition that holds it (None at module level)."""
    found = []
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            holder = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called == name:
                        found.append((path.stem, holder))
    return found


def test_only_the_row_solve_gates():
    assert _callers("_gate") == [("spectra", "_solve_rows")]


def test_only_the_row_solve_and_its_gate_eliminate():
    assert set(_callers("_eliminate")) == {("spectra", "_solve_rows"), ("spectra", "_gate")}
