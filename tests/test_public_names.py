"""The package's public surface: one list of names, each with a caller."""

import ast
import importlib
import pkgutil
import re
import types
from pathlib import Path

import bathcool

ROOT = Path(__file__).resolve().parents[1]

# the program's code, the benchmark's and the installed-package smoke test
SOURCES = [
    *(p for p in sorted((ROOT / "src" / "bathcool").glob("*.py")) if p.name != "__init__.py"),
    *sorted((ROOT / "bench").glob("*.py")),
    ROOT / ".github" / "packaging-smoke.sh",
]

# the paper's closed forms, public as references with no caller in the program
CLOSED_FORMS = (
    "chi_a",  # chi_a(w) = [-i(w - w_a) + gamma_a/2 + lambda^2 chi_b(w)]^-1
    "cooling_limit_ratio",  # min n_eff/nbar = 2/(1 + sqrt(1 + C_ab))
    "narrowed_linewidth",  # gamma_a + Gamma_a = gamma_a sqrt(1 + C_ab) at the optimum
)


def _exported() -> set:
    return {
        name
        for name, value in vars(bathcool).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def _text_outside(path: Path, name: str) -> str:
    """The text of ``path`` without its ``__all__`` and the definition of ``name``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if path.suffix == ".py":
        for node in ast.parse("\n".join(lines)).body:
            own = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
            listing = isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            )
            if own or listing:
                for i in range(node.lineno - 1, node.end_lineno):
                    lines[i] = ""
    return "\n".join(lines)


def test_package_exports_the_union_of_the_modules_all():
    modules = [
        importlib.import_module(f"bathcool.{m.name}") for m in pkgutil.iter_modules(bathcool.__path__)
    ]
    declared = {name for m in modules for name in getattr(m, "__all__", ())}
    assert _exported() == declared


def test_every_public_name_has_a_caller():
    exported = _exported()
    assert set(CLOSED_FORMS) <= exported
    uncalled = [
        name
        for name in sorted(exported - set(CLOSED_FORMS))
        if not any(re.search(rf"\b{name}\b", _text_outside(p, name)) for p in SOURCES)
    ]
    assert uncalled == []
