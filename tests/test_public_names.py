"""The package's public surface: one list of names, each with a caller."""

import ast
import importlib
import io
import pkgutil
import re
import tokenize
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
# public names whose caller is still to come, each with its reason
AWAITING_A_CALLER = (
    "sweep_detuning",  # the optimum maps over mode splitting (ROADMAP item 10)
)

# the token types that are not code: comments and string literals, f-strings' text included
_NOT_CODE = {tokenize.COMMENT, tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


def _exported() -> set:
    return {
        name
        for name, value in vars(bathcool).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def _code_outside(path: Path, name: str) -> str:
    """The code of ``path`` without its ``__all__`` and the definition of
    ``name``: no comments and no string literals, docstrings included.  A
    shell script keeps all but its comment lines, as its ``python -c``
    programs are string literals of the shell."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if path.suffix != ".py":
        return "\n".join(line for line in lines if not line.lstrip().startswith("#"))
    for node in ast.parse("\n".join(lines)).body:
        own = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        listing = isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        )
        if own or listing:
            for i in range(node.lineno - 1, node.end_lineno):
                lines[i] = ""
    tokens = tokenize.generate_tokens(io.StringIO("\n".join(lines) + "\n").readline)
    return " ".join(t.string for t in tokens if t.type not in _NOT_CODE)


def test_package_exports_the_union_of_the_modules_all():
    modules = [
        importlib.import_module(f"bathcool.{m.name}") for m in pkgutil.iter_modules(bathcool.__path__)
    ]
    declared = {name for m in modules for name in getattr(m, "__all__", ())}
    assert _exported() == declared


def test_every_public_name_has_a_caller():
    exported = _exported()
    exempt = set(CLOSED_FORMS) | set(AWAITING_A_CALLER)
    assert exempt <= exported
    uncalled = [
        name
        for name in sorted(exported - exempt)
        if not any(re.search(rf"\b{name}\b", _code_outside(p, name)) for p in SOURCES)
    ]
    assert uncalled == []


def test_comments_and_strings_are_not_callers(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        '''"""sweep_detuning in a docstring"""
x = 1  # sweep_detuning in a comment
y = f"sweep_detuning {x}"
''',
        encoding="utf-8",
    )
    assert "sweep_detuning" not in _code_outside(path, "x")
    assert re.search(r"\bx\b", _code_outside(path, "sweep_detuning"))
