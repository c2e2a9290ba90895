"""The susceptibility rows have one solve path: only the row solve gates them,
and only it and its gate eliminate.  Only a pencil's preparation folds drifts
into Lyapunov operators, and only its modal form eigendecomposes one.  A
covariance call certifies at one site, and forms drift matrices only for
the points its certificate leaves to the eigensolve.  The sweeps read a
batch's point errors by index, not by type."""

import ast
from pathlib import Path

import numpy as np

from bathcool import errors, spectra, sweeps

from conftest import make_spec
from test_spectra import _record_lu_solves

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


def test_only_a_pencil_preparation_folds_drifts():
    # a covariance call adds the prepared L0 + G*L1; it folds no drift itself
    assert _callers("_operator") == [("spectra", "_prepare_noise")]


def test_only_a_pencil_preparation_eigendecomposes_a_folded_operator():
    # the modal form of _Noise is prepared once per pencil; a covariance call
    # runs eigenvalue solves of drifts (eigvals) and of Sigma (eigvalsh) only
    assert _callers("eig") == [("spectra", "_Noise")]


def _readers(attribute: str) -> set:
    """``(module, function)`` of every read of ``.attribute`` in the program."""
    found = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            holder = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == attribute:
                    found.add((path.stem, holder))
    return found


def test_only_drift_rows_form_drift_matrices():
    # the certificate works on folded coordinates: a covariance call forms
    # A0 + G*A1 only through _drifts, for the points the eigensolve words
    # and those whose finiteness G and the pencil's norms leave open
    assert _readers("a0") == {("spectra", "_drifts")}
    assert _callers("_drifts") == [("spectra", "_occupations")] * 2


def test_drift_rows_are_formed_for_uncertified_points_alone(monkeypatch):
    formed, drifts = [], spectra._drifts

    def counted(noise, g, points):
        formed.append(len(points))
        return drifts(noise, g, points)

    monkeypatch.setattr(spectra, "_drifts", counted)
    # a certified batch: the README sweep of 301 points, on the modal form
    result = sweeps.sweep_cooperativity(make_spec(c_ab=50.0), np.geomspace(1e-2, 1e3, 301), "full")
    assert formed == [] and not any(result.errors)
    # the README sweep over C_OM in [0.1, 1e5], 61 points: 15 unstable ones
    result = sweeps.sweep_cooperativity(make_spec(c_ab=50.0), np.geomspace(0.1, 1e5, 61), "full")
    assert formed == [15] and sum(e is not None for e in result.errors) == 15
    # the same range at 121 points, on the modal form: its 30 points past the
    # pole go from the certificate to the eigensolve, and none to the LU
    formed.clear()
    lu = _record_lu_solves(monkeypatch)
    result = sweeps.sweep_cooperativity(make_spec(c_ab=50.0), np.geomspace(0.1, 1e5, 121), "full")
    assert formed == [30] and lu == [] and sum(e is not None for e in result.errors) == 30


def test_a_covariance_call_certifies_at_one_site():
    # one gate pass for the modal form and the LU: the certificate runs once
    # per call, and a certified Sigma above the residual gate is solved again
    # by the LU with no second certificate
    assert _callers("certified") == [("spectra", "_occupations")]


def test_sweeps_read_point_errors_by_index_not_by_type():
    # a batch's occupations are one record of arrays with its errors by
    # index, so the sweeps make no isinstance test against a package error
    # to tell a failed point from a value (an except clause is no such test)
    error_types = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.BathcoolError)
    }
    tree = ast.parse((ROOT / "src" / "bathcool" / "sweeps.py").read_text(encoding="utf-8"))
    tested = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            tested += [n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)]
            tested += [n.attr for n in ast.walk(node.args[1]) if isinstance(n, ast.Attribute)]
    assert not error_types & set(tested)
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_value" not in defined
