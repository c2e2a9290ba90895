"""Command-line interface: config ingestion and deterministic table output.

Config files are INI-style (one key = value or key: value per line under
[sections], full-line # and ; comments); frequencies are given in Hz and
converted to angular units (rad/s) at this boundary, nowhere else.
Subcommands: spectrum | sweep | optimize | design | sense.

Exit codes: 0 success, 1 usage/config error, 2 physics/regime error,
3 numerical failure, an arithmetic or a linear-algebra error included.
"""

from __future__ import annotations

import argparse
import difflib
import functools
import json
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .analytics import _FLAG_SETS, RegimeFlags, cooperativity_ab, force_noise_psd, optical_damping
from .design import (
    BeamGeometry,
    Material,
    design_to_system,
    load_material,
)
from .errors import BathcoolError, ConfigError, NumericsError, PhysicsError
from .model import CavityDrive, MechanicalMode, SystemSpec, build_full_system, build_rwa_system
from .spectra import DEFAULT_LOG_POINTS, DEFAULT_POINTS_PER_LW
from .spectra import force_spectrum_numeric, make_grid, position_spectrum
from .sweeps import (
    DEFAULT_POINTS_PER_DECADE,
    DEFAULT_RANGE,
    find_optimum,
    sweep_cooperativity,
)

TWO_PI = 2.0 * math.pi

MODES = ("a", "b", "c")
# most grid points of a [grid] and C_OM points of a [sweep]: at 1e5 points the
# full spectrum's elimination of its rows a + a_dag, e_a and e_a_dag, a (6, 9, n/2)
# stack over omega >= 0, takes 43 MB, a full sweep 800 MiB
_MAX_GRID_POINTS = 100_000

# section -> {key: required}
_SCHEMA = {
    "run": {
        "task": True,
        "fidelity": False,
        "select": False,
        "output": False,
        "format": False,
    },
    "system": {
        "omega_a_hz": True,
        "gamma_a_hz": True,
        "omega_b_hz": True,
        "gamma_b_hz": True,
        "lambda_hz": True,
        "temperature_k": True,
        "temperature_b_k": False,
        "mass_a_kg": False,
    },
    "cavity": {
        "kappa_hz": True,
        "detuning_hz": True,
        "g0_hz": True,
        "alpha": False,
        "pump_hz": False,
    },
    "grid": {
        "span_linewidths": False,
        "points_per_linewidth": False,
        "log_points": False,
    },
    "sweep": {
        "c_om_min": False,
        "c_om_max": False,
        "points_per_decade": False,
    },
    "optimize": {
        "c_om_min": False,
        "c_om_max": False,
    },
    "design": {
        "l_left_m": True,
        "l_right_m": True,
        "h_m": True,
        "w_m": True,
        "material": False,
        "temperature_k": True,
        "youngs_modulus_pa": False,
        "density_kg_m3": False,
        "tec_per_k": False,
        "heat_capacity_j_m3k": False,
    },
    "sense": {},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description."""

    task: str
    fidelity: str
    select: str
    system: SystemSpec | None
    design_inputs: dict | None
    grid: dict
    sweep: dict
    optimize: dict
    output: str | None
    format: str
    echo: dict


def _float(section, key, raw):
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: not a finite number: {raw!r}")
    return value


def _c_om_range(section: str, items: dict) -> dict:
    """``c_om_min`` and ``c_om_max`` of ``section``, 0 < c_om_min < c_om_max."""
    lo = _float(section, "c_om_min", items.get("c_om_min", DEFAULT_RANGE[0]))
    hi = _float(section, "c_om_max", items.get("c_om_max", DEFAULT_RANGE[1]))
    if not 0 < lo < hi:
        raise ConfigError(
            f"[{section}] needs 0 < c_om_min < c_om_max, got {lo!r} and {hi!r}"
        )
    return {"c_om_min": lo, "c_om_max": hi}


def _grid(items: dict) -> dict:
    """``make_grid`` keyword arguments from [grid]."""
    kw = {k: _float("grid", k, v) for k, v in items.items()}
    for key, ok, need in (
        ("span_linewidths", lambda v: v >= 5, ">= 5"),
        ("points_per_linewidth", lambda v: v > 0, "> 0"),
        ("log_points", lambda v: v >= 0 and v.is_integer(), "a whole number >= 0"),
    ):
        if key in kw and not ok(kw[key]):
            raise ConfigError(f"[grid] {key} must be {need}, got {items[key]!r}")
    # each of the at most 6 drift eigenvalues adds round(10 ppl) + 1 dense
    # and 2 log_points tail points
    ppl = kw.get("points_per_linewidth", DEFAULT_POINTS_PER_LW)
    bound = 6 * (np.round(10 * ppl) + 1 + 2 * kw.get("log_points", DEFAULT_LOG_POINTS))
    if bound > _MAX_GRID_POINTS:
        raise ConfigError(
            f"[grid] allows up to {bound:.6g} grid points, more than {_MAX_GRID_POINTS}"
        )
    if "log_points" in kw:
        kw["log_points"] = int(kw["log_points"])
    return kw


def _check_keys(section: str, items: dict):
    known = _SCHEMA[section]
    for key in items:
        if key not in known:
            hint = difflib.get_close_matches(key, known, n=1)
            extra = f" (did you mean {hint[0]!r}?)" if hint else ""
            raise ConfigError(f"unknown key {key!r} in [{section}]{extra}")
    for key, required in known.items():
        if required and key not in items:
            raise ConfigError(f"missing required key {key!r} in [{section}]")


def _build_cavity(items: dict) -> CavityDrive:
    """The drive of [cavity]: from ``pump_hz`` if given, else from ``alpha`` (default 0)."""
    if "alpha" in items and "pump_hz" in items:
        raise ConfigError("[cavity] gives both alpha and pump_hz; give one")
    g = lambda k, d=None: _float("cavity", k, items[k]) if k in items else d
    kappa = g("kappa_hz") * TWO_PI
    detuning = g("detuning_hz") * TWO_PI
    g0 = g("g0_hz") * TWO_PI
    try:
        if "pump_hz" in items:
            return CavityDrive.from_pump(g("pump_hz") * TWO_PI, detuning, kappa, g0)
        return CavityDrive(kappa=kappa, detuning=detuning, g0=g0, alpha=g("alpha", 0.0))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_system(items: dict, cav_items: dict) -> SystemSpec:
    g = lambda k, d=None: _float("system", k, items[k]) if k in items else d
    t = g("temperature_k")
    tb = g("temperature_b_k", t)
    if g("gamma_a_hz") < 0 or g("gamma_b_hz") < 0:
        raise ConfigError("gamma must be >= 0")
    cavity = _build_cavity(cav_items)
    try:
        return SystemSpec(
            mode_a=MechanicalMode(g("omega_a_hz") * TWO_PI, g("gamma_a_hz") * TWO_PI, t),
            mode_b=MechanicalMode(g("omega_b_hz") * TWO_PI, g("gamma_b_hz") * TWO_PI, tb),
            cavity=cavity,
            coupling=g("lambda_hz") * TWO_PI,
            mass_a=g("mass_a_kg"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _design_inputs(d: dict, cav_items: dict | None) -> dict:
    """Beam geometry, temperature, material and optional cavity of a design task."""
    g = lambda k: _float("design", k, d[k])
    custom = ("youngs_modulus_pa", "density_kg_m3", "tec_per_k", "heat_capacity_j_m3k")
    try:
        inputs = {
            "geometry": BeamGeometry(
                L_left=g("l_left_m"), L_right=g("l_right_m"), h=g("h_m"), w=g("w_m")
            ),
            "temperature": g("temperature_k"),
        }
        if not inputs["temperature"] > 0:
            raise ValueError("temperature_k must be > 0")
        missing = [k for k in custom if k not in d]
        if not missing:
            inputs["material"] = Material(
                *(g(k) for k in custom), name=d.get("material", "custom")
            )
        elif len(missing) < len(custom):
            raise ValueError(f"a custom material also needs {', '.join(missing)}")
        else:
            inputs["material"] = load_material(d.get("material", "silicon_nitride"))
    except ValueError as exc:
        raise ConfigError(f"[design] {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"[design] {exc.args[0]}") from exc
    if cav_items is not None:
        inputs["cavity"] = _build_cavity(cav_items)
    return inputs


def config_from_dict(sections: dict) -> RunConfig:
    """Validate a {section: {key: str}} mapping into a RunConfig."""
    for section in sections:
        if section not in _SCHEMA:
            hint = difflib.get_close_matches(section, _SCHEMA, n=1)
            extra = f" (did you mean [{hint[0]}]?)" if hint else ""
            raise ConfigError(f"unknown section [{section}]{extra}")
        _check_keys(section, sections[section])
    run = sections.get("run")
    if run is None:
        raise ConfigError("missing [run] section")
    task = run["task"]
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
    fidelity = run.get("fidelity", "rwa")
    if fidelity not in ("rwa", "full"):
        raise ConfigError(f"fidelity must be rwa|full, got {fidelity!r}")
    select = run.get("select", "a")
    if select not in MODES:
        raise ConfigError(f"select must be one of {MODES}, got {select!r}")
    fmt = run.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv|json, got {fmt!r}")

    system = None
    design_inputs = None
    if task == "design":
        if "design" not in sections:
            raise ConfigError("task 'design' needs a [design] section")
        design_inputs = _design_inputs(sections["design"], sections.get("cavity"))
    else:
        if "system" not in sections or "cavity" not in sections:
            raise ConfigError(f"task {task!r} needs [system] and [cavity] sections")
        system = _build_system(sections["system"], sections["cavity"])

    grid = _grid(sections.get("grid", {}))
    sweep_items = sections.get("sweep", {})
    per_decade = _float(
        "sweep",
        "points_per_decade",
        sweep_items.get("points_per_decade", DEFAULT_POINTS_PER_DECADE),
    )
    if not (per_decade >= 1 and per_decade.is_integer()):
        raise ConfigError(f"[sweep] points_per_decade must be a whole number >= 1, got {per_decade!r}")
    sweep = _c_om_range("sweep", sweep_items)
    # at least 2 points; capped before rounding, which raises on an inf count
    count = math.log10(sweep["c_om_max"] / sweep["c_om_min"]) * per_decade
    sweep["points"] = max(2, int(round(min(count, _MAX_GRID_POINTS))) + 1)
    if sweep["points"] > _MAX_GRID_POINTS:
        raise ConfigError(f"[sweep] asks for {count + 1:.6g} C_OM points, over {_MAX_GRID_POINTS}")
    optimize = _c_om_range("optimize", sections.get("optimize", {}))
    return RunConfig(
        task=task,
        fidelity=fidelity,
        select=select,
        system=system,
        design_inputs=design_inputs,
        grid=grid,
        sweep=sweep,
        optimize=optimize,
        output=run.get("output"),
        format=fmt,
        echo={s: dict(kv) for s, kv in sections.items()},
    )


def _parse_error(lineno: int, what: str) -> ConfigError:
    return ConfigError(f"config parse error: line {lineno}: {what}")


def _read_ini(text: str) -> dict:
    """``{section: {key: value}}`` of INI text, in file order.

    The dict is the one ``configparser.ConfigParser(interpolation=None)``
    reads from every text it accepts, save two: a continuation line (a line
    indented deeper than the option line before it in its section) is an
    error, not part of a multi-line value, and ``[DEFAULT]`` is an ordinary
    section.  A full-line comment starts with ``#`` or ``;``; a key is
    compared in lower case; a section or key may appear once.
    """
    sections = {}
    items = None
    option_indent = None  # of the last option line since the last header
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        indent = len(raw) - len(raw.lstrip())
        if option_indent is not None and indent > option_indent:
            raise _parse_error(lineno, f"{line!r} is indented as a continuation; "
                               "a value takes one line")
        if line[0] == "[" and (close := line.rfind("]")) >= 2:
            name = line[1:close]
            if name in sections:
                raise _parse_error(lineno, f"duplicate section [{name}]")
            items = sections[name] = {}
            option_indent = None
            continue
        if items is None:
            raise _parse_error(lineno, f"{line!r} comes before any [section] header")
        key, sep, value = line.partition("=")
        if ":" in key:
            key, sep, value = line.partition(":")
        if not sep:
            raise _parse_error(lineno, f"{line!r} is not key = value or key: value")
        key = key.rstrip().lower()
        if not key:
            raise _parse_error(lineno, f"{line!r} has no key")
        if key in items:
            raise _parse_error(lineno, f"duplicate key {key!r} in [{name}]")
        items[key] = value.strip()
        option_indent = indent
    return sections


def parse_config(text: str) -> RunConfig:
    """Parse and validate INI-style config text into a RunConfig."""
    return config_from_dict(_read_ini(text))


def _require_positive(task: str, **values):
    """ConfigError unless every [system] value is > 0."""
    for key, value in values.items():
        if not value > 0:
            raise ConfigError(f"task {task!r} needs [system] {key} > 0")


def _build_model(config: RunConfig):
    builder = build_rwa_system if config.fidelity == "rwa" else build_full_system
    return builder(config.system)


def _flags_str(flags) -> str:
    """A sweep table's flags entry: "error" for a failed point, "ok", or the failed tests."""
    if flags is None:
        return "error"
    if flags.ok:
        return "ok"
    bad = [f.name for f in fields(RegimeFlags) if not getattr(flags, f.name)]
    return "violated:" + "+".join(bad)


# the entry of each flags value a sweep can hold (None or one of _FLAG_SETS), by
# identity: hashing a frozen dataclass per row cost about 90 us per 301 rows
_FLAG_STRS = {id(flags): _flags_str(flags) for flags in (None, *_FLAG_SETS)}


def _run_spectrum(config: RunConfig):
    model = _build_model(config)
    grid = make_grid(model, **config.grid)
    result = position_spectrum(model, config.select, grid)
    header = ["omega_rad_s", "Sxx_per_rad_s"]
    columns = [result.grid.points, result.values]
    summary = {
        "n_eff": result.n_eff,
        "n_eff_error_rel": result.n_eff_error,
        "T_eff_K": result.T_eff,
        "select": result.select,
        "n_points": int(result.grid.points.size),
    }
    return header, columns, summary


def _run_sweep(config: RunConfig):
    # C_OM = Gamma/gamma_b
    _require_positive("sweep", gamma_b_hz=config.system.mode_b.gamma)
    s = config.sweep
    values = np.geomspace(s["c_om_min"], s["c_om_max"], s["points"])
    result = sweep_cooperativity(config.system, values, fidelity=config.fidelity)
    header = ["C_OM", "n_eff", "T_ratio", "linewidth_rad_s", "flags"]
    flags = [_FLAG_STRS[id(f)] for f in result.validity_flags]
    columns = [result.axis_values, result.n_eff, result.T_ratio, result.linewidths, flags]
    finite = np.isfinite(result.n_eff)
    if not finite.any():
        raise PhysicsError("every sweep point failed")
    imin = int(np.nanargmin(result.n_eff))
    nbar = config.system.mode_a.nbar
    summary = {
        "C_OM_star": float(result.axis_values[imin]),
        "n_eff_min": float(result.n_eff[imin]),
        "n_ratio_min": float(result.n_eff[imin] / nbar) if nbar > 0 else None,
        "T_ratio_min": float(result.T_ratio[imin]),
        "C_ab": cooperativity_ab(config.system),
        "n_errors": sum(e is not None for e in result.errors),
    }
    return header, columns, summary


def _run_optimize(config: RunConfig):
    _require_positive("optimize", gamma_b_hz=config.system.mode_b.gamma)
    o = config.optimize
    c_star, n_star = find_optimum(
        config.system,
        bracket=(o["c_om_min"], o["c_om_max"]),
        fidelity=config.fidelity,
    )
    nbar = config.system.mode_a.nbar
    header = ["C_OM_star", "n_eff_star", "n_ratio_star"]
    ratio = n_star / nbar if nbar > 0 else math.nan
    columns = [np.array([v]) for v in (c_star, n_star, ratio)]
    summary = {
        "C_OM_star": c_star,
        "n_eff_star": n_star,
        "n_ratio_min": ratio if nbar > 0 else None,
        "C_ab": cooperativity_ab(config.system),
    }
    return header, columns, summary


def _run_design(config: RunConfig):
    d = config.design_inputs
    cavity = d.get("cavity") or CavityDrive(
        kappa=TWO_PI * 1e6, detuning=-TWO_PI * 1e6, g0=0.0, alpha=0.0
    )
    try:
        report = design_to_system(d["geometry"], d["material"], d["temperature"], cavity)
    except (ValueError, ArithmeticError) as exc:  # e.g. a length whose square overflows
        raise ConfigError(f"[design] no finite design for this beam: {exc}") from exc
    b = report.budget
    # (row name, summary key, value, units)
    table = [
        ("omega0", "omega0_rad_s", b.omega0, "rad_s"),
        ("lambda", "lambda_rad_s", b.coupling, "rad_s"),
        ("gamma_clamp", "gamma_clamp_rad_s", b.gamma_clamp, "rad_s"),
        ("gamma_ted", "gamma_ted_rad_s", b.gamma_ted, "rad_s"),
        ("Q_clamp", "Q_clamp", b.Q_clamp, "dimensionless"),
        ("Q_ted", "Q_ted", b.Q_ted, "dimensionless"),
        ("epsilon", "epsilon", report.epsilon, "dimensionless"),
        ("C_ab", "C_ab", report.C_ab, "dimensionless"),
    ]
    names, keys, values, units = map(list, zip(*table))
    summary = dict(zip(keys, values), material=d["material"].name, warnings=list(report.warnings))
    return ["quantity", "value", "units"], [names, np.array(values), units], summary


def _run_sense(config: RunConfig):
    spec = config.system
    if spec.mass_a is None:
        raise ConfigError("task 'sense' requires mass_a_kg in [system]")
    # the force noise is normalized to the bare mode a at its bath temperature
    _require_positive(
        "sense", gamma_a_hz=spec.mode_a.gamma, gamma_b_hz=spec.mode_b.gamma,
        temperature_k=spec.mode_a.bath_temperature,
    )
    model = _build_model(config)
    grid = make_grid(model, **config.grid)
    result = force_spectrum_numeric(model, spec, grid)
    header = ["omega_rad_s", "S_FF_N2_per_Hz", "factor"]
    columns = [result.grid.points, result.s_ff, result.factor]
    i_res = int(np.argmin(np.abs(result.grid.points - spec.mode_a.omega)))
    gamma = optical_damping(spec.cavity.alpha_g0, spec.cavity.kappa)
    closed = force_noise_psd(spec, gamma, spec.mode_a.bath_temperature)
    cab = cooperativity_ab(spec)
    summary = {
        "factor_at_omega_a": float(result.factor[i_res]),
        "S_FF_at_omega_a_N2_per_Hz": float(result.s_ff[i_res]),
        "factor_closed_form": closed.factor,
        "factor_conventional": 1.0 + cab,
        "reduction_vs_conventional": (1.0 + cab) / closed.factor,
        "classical_limit_ok": closed.classical,
    }
    return header, columns, summary


_RUNNERS = {
    "spectrum": _run_spectrum,
    "sweep": _run_sweep,
    "optimize": _run_optimize,
    "design": _run_design,
    "sense": _run_sense,
}
TASKS = tuple(_RUNNERS)


def _write_table(path, header, columns, fmt):
    """Write a table given by its columns: float ndarrays, or lists of str."""
    if fmt == "csv":
        # each float column is formatted at once, by repr, which is str of a float
        cells = [list(map(repr, c.tolist())) if isinstance(c, np.ndarray) else c for c in columns]
        text = "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"
    else:
        # a non-finite float is written as null: JSON has no NaN or Infinity
        finite = lambda c: np.where(np.isfinite(c), c, None).tolist()
        rows = zip(*(finite(c) if isinstance(c, np.ndarray) else c for c in columns))
        table = {"columns": header, "rows": [list(r) for r in rows]}
        text = json.dumps(table, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


@np.errstate(over="raise", divide="raise", invalid="raise")
def run(config: RunConfig, out: str | None = None):
    """Execute a validated config; write table + JSON summary artifacts.

    Returns the summary dict.  Output is byte-identical for identical
    (config, version).  numpy's floating-point errors raise (see main).
    """
    header, columns, summary = _RUNNERS[config.task](config)
    summary = dict(summary)
    summary["task"] = config.task
    summary["fidelity"] = config.fidelity
    summary["tool_version"] = __version__
    summary["config_echo"] = config.echo
    out = out or config.output
    if out:
        ext = ".csv" if config.format == "csv" else ".json"
        base = out[: -len(ext)] if out.endswith(ext) else out
        _write_table(base + ext, header, columns, config.format)
        with open(base + ".summary.json", "w") as fh:
            _dump_summary(summary, fh)
    return summary


def _dump_summary(summary: dict, fh):
    """Write ``summary`` as indented JSON, each non-finite float value as null."""
    finite = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in summary.items()}
    fh.write(json.dumps(finite, sort_keys=True, indent=2, allow_nan=False) + "\n")


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors (a missing --config, an unknown task or
    choice) are ConfigErrors: exit 1 and one JSON line, as a bad config's."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no state in it."""
    parser = _Parser(
        prog="bathcool",
        description="Optomechanical bath-engineering cooling toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="task")
    for task in TASKS:
        p = sub.add_parser(task, help=f"run the {task} task")
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", default=None, help="output base path")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--fidelity", choices=("rwa", "full"), default=None)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)  # --help and --version exit 0 here
        if args.task is None:
            parser.print_help(sys.stderr)
            return 1
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {args.config!r} is not UTF-8 text: {exc}") from exc
        config = parse_config(text)
        if config.task != args.task:
            raise ConfigError(
                f"config task {config.task!r} does not match subcommand {args.task!r}"
            )
        if args.fidelity:
            config = replace(config, fidelity=args.fidelity)
        if args.format:
            config = replace(config, format=args.format)
        summary = run(config, out=args.out)
    except OSError as exc:
        _emit_error("config_error", str(exc))
        return 1
    except BathcoolError as exc:
        _emit_error(exc.kind, str(exc))
        return exc.exit_code
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # run's FloatingPointError included
        _emit_error(NumericsError.kind, f"{type(exc).__name__}: {exc}")
        return NumericsError.exit_code
    if not (args.out or config.output):
        _dump_summary(summary, sys.stdout)
    return 0


def _emit_error(kind: str, message: str):
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
