"""Command-line interface: config ingestion and deterministic table output.

Config files are INI-style (key = value under [sections]); frequencies
are given in Hz and converted to angular units (rad/s) at this boundary,
nowhere else.  Subcommands: spectrum | sweep | optimize | design | sense.

Exit codes: 0 success, 1 usage/config error, 2 physics/regime error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import difflib
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .analytics import cooperativity_ab, force_noise_psd, optical_damping
from .design import (
    BeamGeometry,
    CavityDrive,
    Material,
    design_to_system,
    load_material,
)
from .errors import (
    BathcoolError,
    ConfigError,
    NumericsError,
    PhysicsError,
)
from .model import (
    MechanicalMode,
    SystemSpec,
    build_full_system,
    build_rwa_system,
    thermal_occupation,
)
from .spectra import force_spectrum_numeric, make_grid, position_spectrum
from .sweeps import (
    DEFAULT_POINTS_PER_DECADE,
    DEFAULT_RANGE,
    find_optimum,
    sweep_cooperativity,
)

TWO_PI = 2.0 * math.pi

TASKS = ("spectrum", "sweep", "optimize", "design", "sense")
MODES = ("a", "b", "c")

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
        "bath_temperature_k": False,
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
    g = lambda k, d=None: _float("cavity", k, items[k]) if k in items else d
    kappa = g("kappa_hz") * TWO_PI
    detuning = g("detuning_hz") * TWO_PI
    g0 = g("g0_hz") * TWO_PI
    t_cav = g("bath_temperature_k", 0.0)
    try:
        if "pump_hz" in items:
            return CavityDrive.from_pump(
                g("pump_hz") * TWO_PI, detuning, kappa, g0, bath_temperature=t_cav
            )
        return CavityDrive(
            kappa=kappa,
            detuning=detuning,
            g0=g0,
            alpha=g("alpha", 0.0),
            bath_temperature=t_cav,
        )
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
        if set(custom) <= set(d):
            inputs["material"] = Material(
                *(g(k) for k in custom), name=d.get("material", "custom")
            )
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

    grid = {
        k: _float("grid", k, v) for k, v in sections.get("grid", {}).items()
    }
    sweep_items = sections.get("sweep", {})
    per_decade = _float(
        "sweep",
        "points_per_decade",
        sweep_items.get("points_per_decade", DEFAULT_POINTS_PER_DECADE),
    )
    if per_decade < 1:
        raise ConfigError(f"[sweep] points_per_decade must be >= 1, got {per_decade!r}")
    sweep = {**_c_om_range("sweep", sweep_items), "points_per_decade": int(per_decade)}
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


def parse_config(text: str) -> RunConfig:
    """Parse and validate INI-style config text into a RunConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    sections = {s: dict(parser.items(s)) for s in parser.sections()}
    return config_from_dict(sections)


def _grid_kwargs(config: RunConfig) -> dict:
    kw = {}
    if "span_linewidths" in config.grid:
        kw["span_linewidths"] = config.grid["span_linewidths"]
    if "points_per_linewidth" in config.grid:
        kw["points_per_linewidth"] = config.grid["points_per_linewidth"]
    if "log_points" in config.grid:
        kw["log_points"] = int(config.grid["log_points"])
    return kw


def _build_model(config: RunConfig):
    builder = build_rwa_system if config.fidelity == "rwa" else build_full_system
    return builder(config.system)


def _flags_str(flags) -> str:
    if flags is None:
        return "error"
    if flags.ok:
        return "ok"
    bad = [
        name
        for name in ("degenerate", "sideband", "hierarchy", "cooperative")
        if not getattr(flags, name)
    ]
    return "violated:" + "+".join(bad)


def _run_spectrum(config: RunConfig):
    model = _build_model(config)
    grid = make_grid(model, **_grid_kwargs(config))
    result = position_spectrum(model, config.select, grid)
    header = ["omega_rad_s", "Sxx_per_rad_s"]
    rows = list(zip(result.grid.points.tolist(), result.values.tolist()))
    summary = {
        "n_eff": result.n_eff,
        "n_eff_error_rel": result.n_eff_error,
        "T_eff_K": result.T_eff,
        "select": result.select,
        "n_points": int(result.grid.points.size),
    }
    return header, rows, summary


def _run_sweep(config: RunConfig):
    s = config.sweep
    decades = math.log10(s["c_om_max"] / s["c_om_min"])
    n = max(2, int(round(decades * s["points_per_decade"])) + 1)
    values = np.geomspace(s["c_om_min"], s["c_om_max"], n)
    result = sweep_cooperativity(config.system, values, fidelity=config.fidelity)
    header = ["C_OM", "n_eff", "T_ratio", "linewidth_rad_s", "flags"]
    rows = [
        (
            result.axis_values[i],
            result.n_eff[i],
            result.T_ratio[i],
            result.linewidths[i],
            _flags_str(result.validity_flags[i]),
        )
        for i in range(values.size)
    ]
    finite = np.isfinite(result.n_eff)
    if not finite.any():
        raise PhysicsError("every sweep point failed")
    imin = int(np.nanargmin(result.n_eff))
    nbar = thermal_occupation(
        config.system.mode_a.omega, config.system.mode_a.bath_temperature
    )
    summary = {
        "C_OM_star": float(result.axis_values[imin]),
        "n_eff_min": float(result.n_eff[imin]),
        "n_ratio_min": float(result.n_eff[imin] / nbar) if nbar > 0 else None,
        "T_ratio_min": float(result.T_ratio[imin]),
        "C_ab": cooperativity_ab(config.system),
        "n_errors": sum(e is not None for e in result.errors),
    }
    return header, rows, summary


def _run_optimize(config: RunConfig):
    o = config.optimize
    c_star, n_star = find_optimum(
        config.system,
        bracket=(o["c_om_min"], o["c_om_max"]),
        fidelity=config.fidelity,
    )
    nbar = thermal_occupation(
        config.system.mode_a.omega, config.system.mode_a.bath_temperature
    )
    header = ["C_OM_star", "n_eff_star", "n_ratio_star"]
    ratio = n_star / nbar if nbar > 0 else math.nan
    rows = [(c_star, n_star, ratio)]
    summary = {
        "C_OM_star": c_star,
        "n_eff_star": n_star,
        "n_ratio_min": ratio if nbar > 0 else None,
        "C_ab": cooperativity_ab(config.system),
    }
    return header, rows, summary


def _run_design(config: RunConfig):
    d = config.design_inputs
    cavity = d.get("cavity") or CavityDrive(
        kappa=TWO_PI * 1e6, detuning=-TWO_PI * 1e6, g0=0.0, alpha=0.0
    )
    report = design_to_system(d["geometry"], d["material"], d["temperature"], cavity)
    b = report.budget
    header = ["quantity", "value", "units"]
    rows = [
        ("omega0", b.omega0, "rad_s"),
        ("lambda", b.coupling, "rad_s"),
        ("gamma_clamp", b.gamma_clamp, "rad_s"),
        ("gamma_ted", b.gamma_ted, "rad_s"),
        ("Q_clamp", b.Q_clamp, "dimensionless"),
        ("Q_ted", b.Q_ted, "dimensionless"),
        ("epsilon", report.epsilon, "dimensionless"),
        ("C_ab", report.C_ab, "dimensionless"),
    ]
    summary = {
        "omega0_rad_s": b.omega0,
        "lambda_rad_s": b.coupling,
        "gamma_clamp_rad_s": b.gamma_clamp,
        "gamma_ted_rad_s": b.gamma_ted,
        "Q_clamp": b.Q_clamp,
        "Q_ted": b.Q_ted,
        "epsilon": report.epsilon,
        "C_ab": report.C_ab,
        "material": d["material"].name,
        "warnings": list(report.warnings),
    }
    return header, rows, summary


def _run_sense(config: RunConfig):
    spec = config.system
    if spec.mass_a is None:
        raise ConfigError("task 'sense' requires mass_a_kg in [system]")
    model = _build_model(config)
    grid = make_grid(model, **_grid_kwargs(config))
    result = force_spectrum_numeric(model, spec, grid)
    header = ["omega_rad_s", "S_FF_N2_per_Hz", "factor"]
    rows = list(
        zip(result.grid.points.tolist(), result.s_ff.tolist(), result.factor.tolist())
    )
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
    return header, rows, summary


_RUNNERS = {
    "spectrum": _run_spectrum,
    "sweep": _run_sweep,
    "optimize": _run_optimize,
    "design": _run_design,
    "sense": _run_sense,
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_table(path, header, rows, fmt):
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(
            {"columns": header, "rows": [list(r) for r in rows]},
            sort_keys=True,
        ) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def run(config: RunConfig, out: str | None = None):
    """Execute a validated config; write table + JSON summary artifacts.

    Returns the summary dict.  Output is byte-identical for identical
    (config, version).
    """
    header, rows, summary = _RUNNERS[config.task](config)
    summary = dict(summary)
    summary["task"] = config.task
    summary["fidelity"] = config.fidelity
    summary["tool_version"] = __version__
    summary["config_echo"] = config.echo
    out = out or config.output
    if out:
        ext = ".csv" if config.format == "csv" else ".json"
        base = out[: -len(ext)] if out.endswith(ext) else out
        _write_table(base + ext, header, rows, config.format)
        with open(base + ".summary.json", "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
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

    args = parser.parse_args(argv)
    if args.task is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        with open(args.config) as fh:
            config = parse_config(fh.read())
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
    except ConfigError as exc:
        _emit_error(exc.kind, str(exc))
        return 1
    except PhysicsError as exc:
        _emit_error(exc.kind, str(exc))
        return 2
    except NumericsError as exc:
        _emit_error(exc.kind, str(exc))
        return 3
    except BathcoolError as exc:  # pragma: no cover - safety net
        _emit_error(exc.kind, str(exc))
        return 3
    if not (args.out or config.output):
        json.dump(summary, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    return 0


def _emit_error(kind: str, message: str):
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
