"""The susceptibility rows have one solve path: only the row solve gates them,
and only it and its gate eliminate.  Only a pencil's preparation folds drifts
into Lyapunov operators, and only its modal form, the one part of a pencil
prepared on first use, eigendecomposes one.  A covariance call certifies at
one site, and forms drift matrices only for the points its certificate
leaves to the eigensolve, and reads n and its slope from the folded
coordinates, bitwise the Hermitian matrices' readout.  The sweeps read a
batch's point errors by index, not by type."""

import ast
import functools
from pathlib import Path

import numpy as np
import pytest

from bathcool import build_full_system, build_rwa_system, errors, spectra, sweeps

from conftest import make_spec
from test_spectra import (
    _beam_spec,
    _criterion_7_draws,
    _drift_pencil,
    _drive,
    _record_lu_solves,
    _shared_pencil,
)

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
    # a covariance call adds the prepared L0 + G*L1; it folds no drift itself,
    # and the preparation folds its one pencil (L1, L0) in one product
    assert _callers("_operator") == [("spectra", "_prepare_noise")]


def test_only_a_pencil_preparation_eigendecomposes_a_folded_operator():
    # the modal form of _Noise is prepared once per pencil; a covariance call
    # runs eigenvalue solves of drifts (eigvals) and of Sigma (eigvalsh) only
    assert _callers("eig") == [("spectra", "_Noise")]


def test_only_the_modal_form_is_prepared_lazily():
    # a pencil prepares all that its certificate reads; only the modal form,
    # which a call of fewer than _MODAL_POINTS points never reads, waits for one
    lazy = [name for name, value in vars(spectra._Noise).items() if isinstance(value, functools.cached_property)]
    assert lazy == ["modal"]


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


def _captured_solves(monkeypatch) -> list:
    """The folded Sigma rows (n, m, 1) that each solve of a covariance call
    returns, in order: stacked LU solves and modal solves alike."""
    found, solve, modal = [], np.linalg.solve, spectra._modal_solve

    def by_modes(*args):
        found.append(modal(*args)[..., None])
        return found[-1][..., 0]

    monkeypatch.setattr(np.linalg, "solve", lambda a, b: found.append(solve(a, b)) or found[-1])
    monkeypatch.setattr(spectra, "_modal_solve", by_modes)
    return found


def _hermitian_readout(pencil, y, r) -> np.ndarray:
    """<x^2> of x = v_r + v_c, c = perm[r], summed over the Hermitian matrices
    of the folded rows ``y``: Sigma_rr + Sigma_rc + Sigma_cr + Sigma_cc."""
    s = spectra._hermitian(y[..., 0], pencil.fold[2], pencil.perm.size)
    c = pencil.perm[r]
    return (s[:, r, r] + s[:, r, c] + s[:, c, r] + s[:, c, c]).real


@pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
def test_occupations_are_read_from_the_folded_coordinates_bitwise(monkeypatch, builder):
    # the README pencil by LU (1 and 25 points) and by its modal form (301),
    # for modes a and b; the beam up to its pole; criterion-7 draws; and
    # drifts as the pencil (A, 0), whose slopes are 0
    rotating_wave = builder is build_rwa_system
    cases = []
    for spec, c_om in [(make_spec(c_ab=50.0), np.geomspace(1e-2, 1e3, n)) for n in (1, 25, 301)] + [
        (_beam_spec(), np.geomspace(1e2, 2.9e4, n)) for n in (3, 64)
    ] + [(spec, np.geomspace(1e-2, 1e2, 8)) for spec in _criterion_7_draws(6, seed=34)]:
        pencil, _, _, row = _shared_pencil(spec, rotating_wave)
        cases += [(pencil, _drive(spec, c_om), r) for r in (row, row + 2)]
    for model in [builder(spec) for spec in _criterion_7_draws(6, seed=35)]:
        cases.append((_drift_pencil(model), np.zeros(1), model.index("a")))
    for pencil, g, r in cases:
        _ = pencil.modal  # prepared, with its own solve, before the capture
        ys = _captured_solves(monkeypatch)
        record = spectra._occupations(pencil, g, r, slopes=True)
        monkeypatch.undo()
        assert not record.errors and len(ys) == 2  # Sigma, then its slope
        x, dx = (_hermitian_readout(pencil, y, r) for y in ys)
        assert record.n.tobytes() == np.maximum((x - 1.0) / 2.0, 0.0).tobytes()
        assert record.slope.tobytes() == (dx / 2.0).tobytes()


def test_a_certified_point_costs_its_solves_and_one_cholesky(monkeypatch):
    # a one-point call with its slope, as each secant step of find_optimum
    # makes: the Sigma solve, the slope's solve and the certificate's
    # Cholesky test, and no eigensolve
    counts = dict.fromkeys(("solve", "cholesky", "eigvals", "eigvalsh"), 0)
    for name in counts:
        def counted(*args, name=name, call=getattr(np.linalg, name)):
            counts[name] += 1
            return call(*args)

        monkeypatch.setattr(np.linalg, name, counted)
    spec = make_spec(c_ab=50.0)
    point = sweeps._n_effs(spec, "full")([7.1 * spec.mode_b.gamma], slopes=True)
    assert not point.errors and counts == {"solve": 2, "cholesky": 1, "eigvals": 0, "eigvalsh": 0}


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
