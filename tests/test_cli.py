import contextlib
import functools
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bathcool import __version__, analytics, cli, sweeps
from bathcool.cli import main, parse_config
from bathcool.errors import ConfigError
from bathcool.model import intracavity_amplitude

from conftest import TWO_PI

GAMMA_B_HZ = 1e3
LAMBDA_HZ = math.sqrt(50.0 * 1.0 * GAMMA_B_HZ) / 2.0  # C_ab = 50
KAPPA_HZ = 3e5
# drive realizing C_OM = sqrt(51): alpha*g0 = sqrt(Gamma*kappa)/2
_ALPHA = math.sqrt(math.sqrt(51.0) * GAMMA_B_HZ * KAPPA_HZ) / 2.0 / 10.0


def base_config(task, extra="", fidelity="rwa"):
    return f"""
[run]
task = {task}
fidelity = {fidelity}

[system]
omega_a_hz = 1e6
gamma_a_hz = 1.0
omega_b_hz = 1e6
gamma_b_hz = {GAMMA_B_HZ}
lambda_hz = {LAMBDA_HZ!r}
temperature_k = 300
mass_a_kg = 1e-12

[cavity]
kappa_hz = {KAPPA_HZ}
detuning_hz = -1e6
g0_hz = 10
alpha = {_ALPHA!r}
{extra}
"""


DESIGN_CONFIG = """
[run]
task = design

[design]
l_left_m = 20.01e-6
l_right_m = 19.99e-6
h_m = 0.3e-6
w_m = 0.3e-6
material = silicon_nitride
temperature_k = 300
"""
# silicon nitride's constants with a Young's modulus 250 times lower
CUSTOM_MATERIAL = """youngs_modulus_pa = 1e9
density_kg_m3 = 3100
tec_per_k = 2.2e-6
heat_capacity_j_m3k = 2.2e6
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_angular_conversion_at_boundary(self):
        config = parse_config(base_config("spectrum"))
        spec = config.system
        assert spec.mode_a.omega == pytest.approx(TWO_PI * 1e6, rel=1e-15)
        assert spec.coupling == pytest.approx(TWO_PI * LAMBDA_HZ, rel=1e-15)
        assert spec.cavity.detuning == pytest.approx(-TWO_PI * 1e6, rel=1e-15)
        assert spec.cavity.alpha == pytest.approx(_ALPHA)  # not a frequency
        assert spec.mass_a == 1e-12
        assert config.fidelity == "rwa"
        assert config.select == "a"

    def test_unknown_key_suggests_fix(self):
        text = base_config("spectrum").replace("kappa_hz", "kapa_hz")
        with pytest.raises(ConfigError, match="kappa_hz"):
            parse_config(text)

    def test_unknown_section_suggests_fix(self):
        text = base_config("spectrum").replace("[cavity]", "[cavety]")
        with pytest.raises(ConfigError, match="cavity"):
            parse_config(text)

    def test_missing_required_key(self):
        text = base_config("spectrum").replace("g0_hz = 10", "")
        with pytest.raises(ConfigError, match="g0_hz"):
            parse_config(text)

    def test_bad_task_and_fidelity(self):
        with pytest.raises(ConfigError, match="task"):
            parse_config(base_config("fly"))
        with pytest.raises(ConfigError, match="fidelity"):
            parse_config(base_config("spectrum", fidelity="exact"))

    def test_non_numeric_value(self):
        text = base_config("spectrum").replace("= 300", "= warm")
        with pytest.raises(ConfigError, match="not a number"):
            parse_config(text)

    def test_config_echo_round_trip(self):
        config = parse_config(base_config("spectrum"))
        assert config.echo["system"]["omega_a_hz"] == "1e6"


class TestMainExitCodes:
    def test_optimize_success(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config("optimize"))
        assert main(["optimize", "--config", path]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["C_OM_star"] == pytest.approx(math.sqrt(51.0), rel=1e-3)
        assert summary["n_ratio_min"] == pytest.approx(
            2.0 / (1.0 + math.sqrt(51.0)), rel=1e-4
        )
        assert summary["task"] == "optimize"

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["optimize", "--config", str(tmp_path / "nope.ini")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config_error"

    def test_config_error_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config("fly"))
        assert main(["optimize", "--config", path]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config_error"

    def test_task_subcommand_mismatch(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config("optimize"))
        assert main(["sweep", "--config", path]) == 1
        assert "does not match" in json.loads(capsys.readouterr().err)["message"]

    def test_physics_error_exit_2(self, tmp_path, capsys):
        extra = "\n[optimize]\nc_om_min = 100\nc_om_max = 1000\n"
        path = write_config(tmp_path, base_config("optimize", extra=extra))
        assert main(["optimize", "--config", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "physics_error"

    def test_fidelity_override(self, tmp_path, capsys):
        extra = "\n[optimize]\nc_om_min = 1\nc_om_max = 60\n"
        path = write_config(tmp_path, base_config("optimize", extra=extra))
        assert main(["optimize", "--config", path, "--fidelity", "full"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["fidelity"] == "full"
        assert summary["C_OM_star"] == pytest.approx(math.sqrt(51.0), rel=0.05)


class TestConfigBoundary:
    """Out-of-domain values exit 1 with one JSON object on stderr."""

    @pytest.mark.parametrize(
        "task, extra, replace_from, replace_to",
        [
            ("sweep", "\n[sweep]\nc_om_min = 0\n", None, None),
            ("optimize", "\n[optimize]\nc_om_min = 0\n", None, None),
            ("sweep", "\n[sweep]\nc_om_min = -1\n", None, None),
            ("optimize", "\n[optimize]\nc_om_min = -1\n", None, None),
            ("sweep", "\n[sweep]\nc_om_min = abc\n", None, None),
            ("optimize", "\n[optimize]\nc_om_min = abc\n", None, None),
            ("sweep", "\n[sweep]\nc_om_min = 10\nc_om_max = 1\n", None, None),
            ("sweep", "\n[sweep]\npoints_per_decade = 0\n", None, None),
            ("sweep", "\n[sweep]\npoints_per_decade = 1.9\n", None, None),
            ("optimize", "", "temperature_k = 300", "temperature_k = inf"),
            ("sweep", "", "temperature_k = 300", "temperature_k = nan"),
            ("spectrum", "\n[grid]\nspan_linewidths = 3\n", None, None),
            ("spectrum", "\n[grid]\nlog_points = -5\n", None, None),
            ("spectrum", "\n[grid]\nlog_points = 2.5\n", None, None),
            ("spectrum", "\n[grid]\npoints_per_linewidth = -1\n", None, None),
            ("spectrum", "\n[grid]\npoints_per_linewidth = 1e308\n", None, None),
            ("sense", "\n[grid]\nlog_points = 1e12\n", None, None),
            ("optimize", "", "gamma_b_hz = 1000.0", "gamma_b_hz = 0"),
            ("sense", "", "gamma_a_hz = 1.0", "gamma_a_hz = 0"),
            ("sense", "", "temperature_k = 300", "temperature_k = 0"),
        ],
        ids=[
            "sweep-c_om_min-zero",
            "optimize-c_om_min-zero",
            "sweep-c_om_min-negative",
            "optimize-c_om_min-negative",
            "sweep-c_om_min-text",
            "optimize-c_om_min-text",
            "sweep-range-reversed",
            "sweep-points_per_decade-zero",
            "sweep-points_per_decade-fraction",
            "temperature-inf",
            "temperature-nan",
            "grid-span_linewidths-below-5",
            "grid-log_points-negative",
            "grid-log_points-fraction",
            "grid-points_per_linewidth-negative",
            "grid-points_per_linewidth-huge",
            "grid-log_points-huge",
            "optimize-gamma_b-zero",
            "sense-gamma_a-zero",
            "sense-temperature-zero",
        ],
    )
    def test_rejected_with_exit_1(
        self, tmp_path, capsys, task, extra, replace_from, replace_to
    ):
        text = base_config(task, extra=extra)
        if replace_from:
            assert replace_from in text
            text = text.replace(replace_from, replace_to)
        path = write_config(tmp_path, text)
        assert main([task, "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)  # exactly one JSON object
        assert err["error"] == "config_error"

    @pytest.mark.parametrize(
        "task, text",
        [
            (
                "design",
                DESIGN_CONFIG + "\n[cavity]\nkappa_hz = abc\ndetuning_hz = -1e6\ng0_hz = 10\n",
            ),
            ("design", DESIGN_CONFIG.replace("= silicon_nitride", "= unobtainium")),
            ("design", DESIGN_CONFIG.replace("l_left_m = 20.01e-6", "l_left_m = -20.01e-6")),
            ("design", DESIGN_CONFIG.replace("temperature_k = 300", "temperature_k = 0")),
            ("spectrum", base_config("spectrum").replace("[system]", "select = q\n\n[system]")),
        ],
        ids=[
            "design-cavity-text",
            "design-material-unknown",
            "design-length-negative",
            "design-temperature-zero",
            "select-unknown",
        ],
    )
    def test_domain_errors_rejected_with_exit_1(self, tmp_path, capsys, task, text):
        path = write_config(tmp_path, text)
        assert main([task, "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)  # exactly one JSON object
        assert err["error"] == "config_error"

    def test_grid_cap_names_the_point_count(self, tmp_path, capsys, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("grid built")

        monkeypatch.setattr(cli, "make_grid", refused)
        # 6 * (round(10 * 20) + 1 + 2 * 8500) = 103206 points
        text = base_config("spectrum", extra="\n[grid]\nlog_points = 8500\n")
        assert main(["spectrum", "--config", write_config(tmp_path, text)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config_error"
        assert "103206" in err["message"]
        # 6 * (201 + 2 * 8000) = 97206 points are allowed
        text = base_config("spectrum", extra="\n[grid]\nlog_points = 8000\n")
        assert parse_config(text).grid == {"log_points": 8000}

    @pytest.mark.parametrize("task", ["sweep", "optimize"])
    def test_zero_g0_at_full_fidelity(self, tmp_path, task):
        # the sweep sets G = |alpha|*g0 directly, so g0 does not matter
        extra = (
            "\n[sweep]\nc_om_min = 1\nc_om_max = 100\npoints_per_decade = 5\n"
            "\n[optimize]\nc_om_min = 1\nc_om_max = 60\n"
        )
        tables = []
        for g0 in ("10", "0"):
            text = base_config(task, extra=extra).replace("g0_hz = 10", f"g0_hz = {g0}")
            path = write_config(tmp_path, text, name=f"g0_{g0}.ini")
            out = str(tmp_path / f"g0_{g0}")
            assert main([task, "--config", path, "--fidelity", "full", "--out", out]) == 0
            tables.append((tmp_path / f"g0_{g0}.csv").read_text())
        assert tables[0] == tables[1]

    def test_cavity_bath_temperature_is_an_unknown_key(self, tmp_path, capsys):
        # the cavity input is vacuum; a cavity temperature is not a setting
        text = base_config("spectrum", extra="bath_temperature_k = 4")
        path = write_config(tmp_path, text)
        assert main(["spectrum", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "config_error"
        assert "bath_temperature_k" in err["message"]


class TestCavityDrive:
    """[cavity] takes the drive as ``alpha`` or as ``pump_hz``, not both."""

    def test_alpha_and_pump_together_exit_1(self, tmp_path, capsys):
        text = base_config("spectrum").replace(f"alpha = {_ALPHA!r}", "alpha = 5\npump_hz = 1e9")
        assert main(["spectrum", "--config", write_config(tmp_path, text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "config_error"
        assert "alpha" in err["message"] and "pump_hz" in err["message"]

    def test_pump_gives_the_n_eff_of_its_alpha(self, tmp_path, capsys):
        alpha = abs(intracavity_amplitude(TWO_PI * 1e9, -TWO_PI * 1e6, TWO_PI * KAPPA_HZ))
        summaries = []
        for drive in ("pump_hz = 1e9", f"alpha = {alpha!r}"):
            text = base_config("spectrum").replace(f"alpha = {_ALPHA!r}", drive)
            assert drive in text
            path = write_config(tmp_path, text, name=f"{drive.split()[0]}.ini")
            assert main(["spectrum", "--config", path]) == 0
            summaries.append(json.loads(capsys.readouterr().out))
        assert summaries[0]["n_eff"] == summaries[1]["n_eff"]


_NO_RUN = base_config("spectrum").replace("[run]\ntask = spectrum\nfidelity = rwa\n", "")


class TestConfigErrorPaths:
    """Each of these configs exits 1 with no stdout and one config_error line."""

    @pytest.mark.parametrize(
        "task, text, needle",
        [
            ("spectrum", _NO_RUN, "missing [run]"),
            ("spectrum", base_config("spectrum").replace("fidelity = rwa", "format = xml"), "format"),
            ("design", "[run]\ntask = design\n", "[design]"),
            ("sweep", "[run]\ntask = sweep\n", "[system] and [cavity]"),
            ("spectrum", base_config("spectrum").replace("[run]", "[run"), "parse error"),
            ("sense", base_config("sense").replace("mass_a_kg = 1e-12", ""), "mass_a_kg"),
            ("sweep", base_config("sweep", "\n[sweep]\npoints_per_decade = 1e17\n"), "5e+17"),
            # 600 decades: the count is inf before it is rounded
            ("sweep", base_config("sweep", "\n[sweep]\nc_om_min = 1e-300\nc_om_max = 1e300\n"),
             "over 100000"),
            # (L_left / h)^2 overflows in the clamped-free frequency
            ("design",
             DESIGN_CONFIG.replace("= 20.01e-6", "= 1e200").replace("= 19.99e-6", "= 1e200"),
             "no finite design"),
            # (L / h)^2 overflows in the clamping Q
            ("design", DESIGN_CONFIG.replace("h_m = 0.3e-6", "h_m = 1e-300"), "no finite design"),
            # a custom material needs all four keys
            ("design", DESIGN_CONFIG + "youngs_modulus_pa = 1e9\n",
             "needs density_kg_m3, tec_per_k, heat_capacity_j_m3k"),
            ("design", DESIGN_CONFIG + CUSTOM_MATERIAL.replace("heat_capacity_j_m3k = 2.2e6\n", ""),
             "needs heat_capacity_j_m3k"),
        ],
        ids=["missing-run", "format-xml", "design-no-design", "sweep-no-system",
             "unparsable-header", "sense-no-mass", "sweep-oversized", "sweep-inf-count",
             "design-arms-overflow", "design-thickness-underflow", "design-material-one-key",
             "design-material-three-keys"],
    )
    def test_exit_1_with_one_config_error(self, tmp_path, capsys, task, text, needle):
        assert main([task, "--config", write_config(tmp_path, text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "config_error"
        assert needle in err["message"]


class TestSweepCap:
    """A [sweep] may ask for at most as many C_OM points as a [grid] may."""

    def test_cap_names_the_point_count(self, tmp_path, capsys, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("sweep run")

        monkeypatch.setattr(cli, "sweep_cooperativity", refused)
        # one decade at 100000 points per decade is 100001 points
        extra = "\n[sweep]\nc_om_min = 1\nc_om_max = 10\npoints_per_decade = 100000\n"
        text = base_config("sweep", extra=extra)
        assert main(["sweep", "--config", write_config(tmp_path, text), "--fidelity", "full"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "config_error"
        assert "100001" in err["message"]
        # 99999 per decade is 100000 points, which are allowed
        text = text.replace("= 100000", "= 99999")
        assert parse_config(text).sweep == {"c_om_min": 1.0, "c_om_max": 10.0, "points": 100000}


class TestOverflowingDrive:
    @pytest.mark.parametrize("fidelity", ["rwa", "full"])
    def test_is_one_numerical_failure(self, tmp_path, capsys, fidelity):
        # |alpha| g0 overflows to inf: the builders refuse it before the
        # drift is formed, so numpy never warns (RuntimeWarning is an error here)
        text = base_config("spectrum").replace("g0_hz = 10", "g0_hz = 1e200")
        text = text.replace(f"alpha = {_ALPHA!r}", "alpha = 1e200")
        path = write_config(tmp_path, text)
        assert main(["spectrum", "--config", path, "--fidelity", fidelity]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        error = json.loads(line)
        assert error["error"] == "numerical_failure"
        assert error["message"] == "linearized coupling |alpha|*g0 = inf is not finite"


class TestHugeCavityLinewidth:
    @pytest.mark.parametrize("fidelity", ["rwa", "full"])
    @pytest.mark.parametrize("task", ["spectrum", "sense"])
    @pytest.mark.parametrize(
        "kappa_hz, needle",
        [("1e306", "frequency grid extent"), ("1e300", "susceptibility residual nan")],
    )
    def test_is_one_numerical_failure(self, tmp_path, capsys, kappa_hz, needle, task, fidelity):
        # the packaging smoke script's undriven system: at 1e306 the grid's
        # extent overflows and make_grid refuses it; at 1e300 the grid is
        # finite but the residual gate's square sums overflow, and the NaN
        # residual fails the gate; numpy never warns (RuntimeWarning is an
        # error here)
        text = base_config(task).replace(f"kappa_hz = {KAPPA_HZ}", f"kappa_hz = {kappa_hz}")
        text = text.replace(f"alpha = {_ALPHA!r}", "")
        path = write_config(tmp_path, text)
        assert main([task, "--config", path, "--fidelity", fidelity]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        error = json.loads(line)
        assert error["error"] == "numerical_failure"
        assert error["message"].startswith(needle)


class TestSweepToTheFloatRange:
    def test_full_sweep_to_1e300_is_quiet(self, tmp_path, capsys):
        # past C_OM ~ 1e200 the unstable drifts overflow the certificate's
        # norms, and past 1e298 G itself: each is a point error, with
        # nothing on stderr (RuntimeWarning is an error here)
        sweep = "\n[sweep]\nc_om_min = 0.01\nc_om_max = 1e300\npoints_per_decade = 5\n"
        path = write_config(tmp_path, base_config("sweep", sweep, fidelity="full"))
        out = str(tmp_path / "s")
        assert main(["sweep", "--config", path, "--fidelity", "full", "--out", out]) == 0
        assert capsys.readouterr().err == ""
        with open(out + ".csv") as f:
            rows = [line.rstrip("\n").split(",") for line in f][1:]
        assert len(rows) == 1511
        assert [row[-1] for row in rows[-3:]] == ["error"] * 3
        with open(out + ".summary.json") as f:
            assert json.load(f)["n_errors"] == sum(row[-1] == "error" for row in rows)


# the README system over C_OM in [0.1, 1e5]: at full fidelity 46 stable
# points, then 15 unstable ones
_MIXED_SWEEP = "\n[sweep]\nc_om_min = 0.1\nc_om_max = 100000\npoints_per_decade = 10\n"


class TestSweepTable:
    """The sweep CSV is the SweepResult, one row per point, floats by repr."""

    @pytest.fixture
    def sweep_results(self, monkeypatch):
        results, sweep = [], cli.sweep_cooperativity
        monkeypatch.setattr(cli, "sweep_cooperativity", lambda *a, **k: results.append(
            sweep(*a, **k)) or results[-1])
        return results

    @pytest.mark.parametrize("fidelity", ["rwa", "full"])
    @pytest.mark.parametrize("extra", ["", _MIXED_SWEEP], ids=["readme", "mixed"])
    def test_csv_bytes(self, tmp_path, sweep_results, fidelity, extra):
        path = write_config(tmp_path, base_config("sweep", extra=extra))
        out = str(tmp_path / "result")
        assert main(["sweep", "--config", path, "--out", out, "--fidelity", fidelity]) == 0
        (res,) = sweep_results
        columns = (res.axis_values, res.n_eff, res.T_ratio, res.linewidths)
        rows = [
            ",".join([*map(repr, values), cli._flags_str(flags)])
            for *values, flags in zip(*(c.tolist() for c in columns), res.validity_flags)
        ]
        lines = ["C_OM,n_eff,T_ratio,linewidth_rad_s,flags", *rows]
        assert (tmp_path / "result.csv").read_text() == "\n".join(lines) + "\n"
        errors = sum(e is not None for e in res.errors)
        assert errors == (15 if extra and fidelity == "full" else 0)
        assert rows[-1].endswith(",error") == bool(errors)

    @pytest.mark.parametrize("fidelity", ["rwa", "full"])
    def test_flags_entries_are_the_shared_flag_sets(self, tmp_path, sweep_results, fidelity):
        # the table words each flags entry by its identity (cli._FLAG_STRS)
        shared = {id(flags) for flags in (None, *analytics._FLAG_SETS)}
        for extra in ("", _MIXED_SWEEP):
            path = write_config(tmp_path, base_config("sweep", extra=extra))
            assert main(["sweep", "--config", path, "--out", str(tmp_path / "result"), "--fidelity", fidelity]) == 0
        assert len(sweep_results) == 2 and (fidelity == "rwa" or None in sweep_results[1].validity_flags)
        assert all({id(flags) for flags in res.validity_flags} <= shared for res in sweep_results)

    def test_columns_write_the_row_wise_str_text(self, tmp_path):
        # the CSV formats each float column at once; its text is what str
        # of every cell, row by row, writes
        special = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e16, 1e-5]
        rng = np.random.default_rng(5)
        draws = rng.choice((-1.0, 1.0), 2000) * 10.0 ** rng.uniform(-320, 308, 2000)
        x = np.concatenate((special, draws, rng.standard_normal(2000)))
        columns = [x, x[::-1].copy(), [f"flag{i % 7}" for i in range(x.size)]]
        path = tmp_path / "table.csv"
        cli._write_table(str(path), ["x", "y", "flags"], columns, "csv")
        rows = zip(x.tolist(), x[::-1].tolist(), columns[2])
        expected = "\n".join(["x,y,flags", *(",".join(map(str, r)) for r in rows)]) + "\n"
        assert path.read_text() == expected

    @pytest.mark.parametrize("fidelity", ["full", "rwa"])
    def test_no_scalar_closed_forms_per_point(self, tmp_path, monkeypatch, fidelity):
        # a sweep without line fits evaluates the flags, the closed-form
        # linewidths and, at rwa, n_eff as columns only
        def refused(*args, **kwargs):
            raise AssertionError("scalar closed form called by a sweep")

        for name in ("regime_flags", "induced_damping_detuned", "n_eff_closed_form"):
            for module in (analytics, sweeps):  # wherever the sweeps may bind it
                monkeypatch.setattr(module, name, refused, raising=False)
        path = write_config(tmp_path, base_config("sweep", extra=_MIXED_SWEEP))
        assert main(["sweep", "--config", path, "--fidelity", fidelity]) == 0


class TestArtifacts:
    def test_sweep_csv_and_summary(self, tmp_path):
        extra = "\n[sweep]\nc_om_min = 0.1\nc_om_max = 100\npoints_per_decade = 20\n"
        path = write_config(tmp_path, base_config("sweep", extra=extra))
        out = str(tmp_path / "result")
        assert main(["sweep", "--config", path, "--out", out]) == 0
        table = (tmp_path / "result.csv").read_text()
        lines = table.strip().split("\n")
        assert lines[0] == "C_OM,n_eff,T_ratio,linewidth_rad_s,flags"
        assert len(lines) == 62  # header + 3 decades * 20 + 1 points
        for line in lines[1:]:
            for cell in line.split(",")[:4]:
                float(cell)  # plain numbers, not numpy scalar reprs
        summary = json.loads((tmp_path / "result.summary.json").read_text())
        assert summary["C_OM_star"] == pytest.approx(math.sqrt(51.0), rel=0.06)
        assert summary["C_ab"] == pytest.approx(50.0, rel=1e-9)
        assert summary["n_errors"] == 0
        assert summary["tool_version"]
        assert summary["config_echo"]["run"]["task"] == "sweep"

    def test_deterministic_reruns(self, tmp_path):
        path = write_config(tmp_path, base_config("spectrum"))
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert main(["spectrum", "--config", path, "--out", out1]) == 0
        assert main(["spectrum", "--config", path, "--out", out2]) == 0
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
        s1 = (tmp_path / "r1.summary.json").read_text()
        s2 = (tmp_path / "r2.summary.json").read_text()
        assert s1 == s2

    def test_json_format(self, tmp_path):
        path = write_config(tmp_path, base_config("optimize"))
        out = str(tmp_path / "res")
        assert main(["optimize", "--config", path, "--out", out, "--format", "json"]) == 0
        table = json.loads((tmp_path / "res.json").read_text())
        assert table["columns"] == ["C_OM_star", "n_eff_star", "n_ratio_star"]
        assert len(table["rows"]) == 1

    def test_spectrum_summary_fields(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config("spectrum"))
        assert main(["spectrum", "--config", path]) == 0
        summary = json.loads(capsys.readouterr().out)
        nbar_ish = 6.24e6  # 300 K at 1 MHz
        assert 0 < summary["n_eff"] < nbar_ish
        assert summary["T_eff_K"] < 300.0
        assert summary["select"] == "a"

    def test_sense_summary_matches_closed_form(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config("sense"))
        assert main(["sense", "--config", path]) == 0
        summary = json.loads(capsys.readouterr().out)
        expected = 1.0 + 50.0 / (1.0 + math.sqrt(51.0)) ** 2
        assert summary["factor_closed_form"] == pytest.approx(expected, rel=1e-6)
        assert summary["factor_at_omega_a"] == pytest.approx(expected, rel=1e-3)
        assert summary["reduction_vs_conventional"] == pytest.approx(29.07, rel=1e-2)

    def test_design_task(self, tmp_path, capsys):
        text = """
[run]
task = design

[design]
l_left_m = 20.01e-6
l_right_m = 19.99e-6
h_m = 0.3e-6
w_m = 0.3e-6
material = silicon_nitride
temperature_k = 300
"""
        path = write_config(tmp_path, text)
        assert main(["design", "--config", path]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["Q_clamp"] == pytest.approx(7.87e3, rel=1e-2)
        assert summary["Q_ted"] > 1e10
        assert summary["omega0_rad_s"] == pytest.approx(TWO_PI * 1.088e6, rel=1e-2)
        assert summary["warnings"] == []

    def test_design_custom_material(self, tmp_path, capsys):
        text = DESIGN_CONFIG + CUSTOM_MATERIAL
        assert main(["design", "--config", write_config(tmp_path, text)]) == 0
        custom = json.loads(capsys.readouterr().out)
        assert main(["design", "--config", write_config(tmp_path, DESIGN_CONFIG)]) == 0
        shipped = json.loads(capsys.readouterr().out)
        # 250 times softer than silicon nitride: sqrt(250) times lower in frequency
        assert custom["omega0_rad_s"] == pytest.approx(shipped["omega0_rad_s"] / math.sqrt(250.0))

    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 1
        assert "spectrum" in capsys.readouterr().err


def _strict(text: str):
    """``text`` parsed as strict JSON, which has no NaN or Infinity."""
    def refused(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refused)


class TestStrictJson:
    """Every JSON artifact is strict JSON: a non-finite float is written as null."""

    def test_full_sweep_table(self, tmp_path):
        path = write_config(tmp_path, base_config("sweep", extra=_MIXED_SWEEP, fidelity="full"))
        out = str(tmp_path / "res")
        assert main(["sweep", "--config", path, "--out", out, "--format", "json"]) == 0
        rows = _strict((tmp_path / "res.json").read_text())["rows"]
        assert {row[3] for row in rows} == {None}  # no line fit, no full linewidth
        assert sum(row[1] is None for row in rows) == 15  # the unstable points
        assert _strict((tmp_path / "res.summary.json").read_text())["n_errors"] == 15

    def test_zero_temperature_summary(self, tmp_path, capsys):
        text = base_config("sweep").replace("temperature_k = 300", "temperature_k = 0")
        assert main(["sweep", "--config", write_config(tmp_path, text)]) == 0
        assert _strict(capsys.readouterr().out)["T_ratio_min"] is None

    def test_undamped_mode_a_summary(self, tmp_path):
        text = base_config("sweep").replace("gamma_a_hz = 1.0", "gamma_a_hz = 0")
        out = str(tmp_path / "res")
        assert main(["sweep", "--config", write_config(tmp_path, text), "--out", out]) == 0
        assert _strict((tmp_path / "res.summary.json").read_text())["C_ab"] is None

    @pytest.mark.parametrize("fidelity", ["rwa", "full"])
    def test_cavity_spectrum_at_zero_detuning(self, tmp_path, capsys, fidelity):
        # the spectrum and n_eff are defined; a mode at zero frequency has no temperature
        text = base_config("spectrum", fidelity=fidelity).replace(
            "detuning_hz = -1e6", "detuning_hz = 0"
        ).replace("[run]", "[run]\nselect = c")
        assert main(["spectrum", "--config", write_config(tmp_path, text)]) == 0
        captured = capsys.readouterr()
        summary = _strict(captured.out)
        assert captured.err == ""
        assert summary["T_eff_K"] is None and summary["n_eff"] >= 0


class TestCachedParser:
    """The parser is built once per process; no call carries into the next."""

    def test_calls_are_independent(self, tmp_path):
        extra = "\n[sweep]\nc_om_min = 0.1\nc_om_max = 100\npoints_per_decade = 4\n"
        path = write_config(tmp_path, base_config("sweep", extra=extra))
        calls = [
            ["--format", "csv", "--fidelity", "rwa"],
            ["--format", "json", "--fidelity", "full"],
            ["--format", "csv", "--fidelity", "rwa"],
            [],  # the config's own: csv, rwa
        ]
        for k, options in enumerate(calls):
            out = str(tmp_path / f"r{k}")
            assert main(["sweep", "--config", path, "--out", out, *options]) == 0
        assert cli._parser() is cli._parser()
        summaries = [json.loads((tmp_path / f"r{k}.summary.json").read_text()) for k in range(4)]
        assert [s["fidelity"] for s in summaries] == ["rwa", "full", "rwa", "rwa"]
        csv = (tmp_path / "r0.csv").read_bytes()
        assert (tmp_path / "r2.csv").read_bytes() == csv
        assert (tmp_path / "r3.csv").read_bytes() == csv
        assert json.loads((tmp_path / "r1.json").read_text())["columns"][0] == "C_OM"
        assert not (tmp_path / "r1.csv").exists()

    def test_bad_argv_then_a_good_call(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config("optimize"))
        # a usage error is a config error: exit 1 and one JSON line, no usage text
        bad = (["optimize", "--config", path, "--fidelity", "exact"], ["optimize"], ["optimise"],
               ["optimize", "--config", path, "--format", "xml"])
        for argv in bad:
            assert main(argv) == 1
            captured = capsys.readouterr()
            (line,) = captured.err.splitlines()
            assert json.loads(line)["error"] == "config_error" and captured.out == ""
        assert main(["optimize", "--config", path]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["fidelity"] == "rwa" and captured.err == ""

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"{__version__}\n"


_FUZZ_SYSTEM = {
    "system": {
        "omega_a_hz": "1e6",
        "gamma_a_hz": "1.0",
        "omega_b_hz": "1e6",
        "gamma_b_hz": "1e3",
        "lambda_hz": "111.8",
        "temperature_k": "300",
        "temperature_b_k": "300",
        "mass_a_kg": "1e-12",
    },
    "cavity": {
        "kappa_hz": "3e5",
        "detuning_hz": "-1e6",
        "g0_hz": "10",
        "alpha": "2314.0",
    },
}
_FUZZ_GRID = {"span_linewidths": "10", "points_per_linewidth": "4", "log_points": "20"}
# task -> [section] -> {key: a valid value}; the grid values, sweep points
# and C_OM ranges are small, so that no draw builds a large grid or sweep
FUZZ_SECTIONS = {
    "spectrum": {**_FUZZ_SYSTEM, "grid": _FUZZ_GRID},
    "sense": {**_FUZZ_SYSTEM, "grid": _FUZZ_GRID},
    "sweep": {
        **_FUZZ_SYSTEM,
        "sweep": {"c_om_min": "3", "c_om_max": "30", "points_per_decade": "4"},
    },
    "optimize": {**_FUZZ_SYSTEM, "optimize": {"c_om_min": "1", "c_om_max": "60"}},
    "design": {
        "design": {
            "l_left_m": "20.01e-6",
            "l_right_m": "19.99e-6",
            "h_m": "0.3e-6",
            "w_m": "0.3e-6",
            "material": "silicon_nitride",
            "temperature_k": "300",
            "youngs_modulus_pa": "250e9",
            "density_kg_m3": "3100",
            "tec_per_k": "2.2e-6",
            "heat_capacity_j_m3k": "2.2e6",
        },
        "cavity": {"kappa_hz": "3e5", "detuning_hz": "-1e6", "g0_hz": "10"},
    },
}
FUZZ_UNKNOWN = (
    ("system", "omega_c_hz"),
    ("cavity", "bath_temperature_k"),
    ("grid", "points"),
    ("sweep", "points"),
    ("optimize", "c_om"),
)
FUZZ_KINDS = ("malformed", "negative", "zero", "tiny", "huge", "inf", "nan", "missing")


def _fuzzed(kind, ok):
    try:
        negative = repr(-float(ok))
    except ValueError:
        negative = "-" + ok
    return {
        "malformed": "abc",
        "negative": negative,
        "zero": "0",
        "tiny": "1e-300",
        "huge": "1e300",
        "inf": "inf",
        "nan": "nan",
    }[kind]


def fuzz_text(task, fidelity, spoiled=(), unknown=None, with_cavity=True):
    """INI text for ``task`` with the values of ``spoiled`` ({(section, key):
    kind}) spoiled and ``unknown`` = (section, key) added."""
    spoiled = dict(spoiled)
    lines = [f"[run]\ntask = {task}\nfidelity = {fidelity}"]
    for section, items in FUZZ_SECTIONS[task].items():
        if section == "cavity" and not with_cavity:
            continue
        lines.append(f"\n[{section}]")
        for key, ok in items.items():
            kind = spoiled.get((section, key))
            if kind != "missing":
                lines.append(f"{key} = {_fuzzed(kind, ok) if kind else ok}")
        if unknown and unknown[0] == section:
            lines.append(f"{unknown[1]} = 1")
    return "\n".join(lines) + "\n"


@st.composite
def fuzz_cases(draw):
    """(task, INI text) at either fidelity, with up to three values spoiled
    and, in a third of the draws, one unknown key."""
    task = draw(st.sampled_from(tuple(FUZZ_SECTIONS)))
    fidelity = draw(st.sampled_from(("rwa", "full")))
    sections = FUZZ_SECTIONS[task]
    keys = [(section, key) for section, items in sections.items() for key in items]
    spoiled = draw(st.dictionaries(st.sampled_from(keys), st.sampled_from(FUZZ_KINDS), max_size=3))
    unknown = draw(st.sampled_from((None,) * 10 + FUZZ_UNKNOWN))
    with_cavity = task != "design" or draw(st.booleans())
    return task, fuzz_text(task, fidelity, spoiled, unknown, with_cavity)


_ZERO_G0 = {("cavity", "g0_hz"): "zero"}
# mode a with neither intrinsic damping nor coupling to b
_UNDAMPED_A = {("system", "gamma_a_hz"): "zero", ("system", "lambda_hz"): "zero"}
# extreme but accepted values that once ended in a traceback, or in a numpy
# warning on stderr: [system] key, kind, tasks, fidelities
_EXTREME = (
    ("omega_a_hz", "tiny", "spectrum sweep optimize sense", "rwa full"),  # hbar*omega/(kB*T) underflows
    ("omega_b_hz", "tiny", "spectrum sense", "rwa full"),
    ("omega_b_hz", "tiny", "sweep optimize", "full"),
    ("gamma_a_hz", "tiny", "sense", "rwa full"),  # the force baseline is 0
    ("gamma_b_hz", "tiny", "sweep optimize", "rwa"),  # (gamma_b + Gamma)^2 underflows
    ("gamma_b_hz", "tiny", "sense", "rwa full"),
    ("lambda_hz", "huge", "sweep", "rwa full"),  # lambda^2 overflows
    ("temperature_k", "huge", "spectrum", "rwa full"),  # kB*log1p(1/n_eff) underflows, T_eff does not
    ("temperature_k", "huge", "sweep", "rwa"),
    ("mass_a_kg", "tiny", "sense", "rwa full"),  # the force baseline is 0
)
_EXTREME_CASES = [
    *(
        (task, fuzz_text(task, fidelity, {("system", key): kind}))
        for key, kind, tasks, fidelities in _EXTREME
        for task in tasks.split()
        for fidelity in fidelities.split()
    ),
    *(
        ("sweep", fuzz_text("sweep", fidelity).replace("lambda_hz = 111.8", "lambda_hz = 1e160"))
        for fidelity in ("rwa", "full")
    ),
    # hbar*omega_a/(kB*T) is a subnormal, whose 1/expm1 overflows to inf
    *(
        (task, fuzz_text(task, fidelity, {("system", "temperature_k"): "huge"}).replace(
            "omega_a_hz = 1e6", "omega_a_hz = 10"
        ))
        for task in ("spectrum", "sweep", "optimize", "sense")
        for fidelity in ("rwa", "full")
    ),
    # the real-form eigensolve of this one C_OM's drift can fail to converge (LinAlgError)
    (
        "sweep",
        fuzz_text("sweep", "full", {("cavity", "detuning_hz"): "huge"}).replace(
            "c_om_min = 3\n", "c_om_min = 0.3831186849557287\n"
        ),
    ),
]


# cases whose ending is pinned, (task, INI text, exit code, stderr pattern):
# they once ended in a bare FloatingPointError or OverflowError
_PINNED_CASES = [
    # (gamma_b + Gamma)^2 underflows: a sweep of per-point rows, a search that
    # ends at the bracket (the optimum C_OM ~ sqrt(C_ab) is near 1e152)
    *(
        (task, fuzz_text(task, "rwa", {("system", "gamma_b_hz"): "tiny"}), code, pattern)
        for task, code, pattern in (("sweep", 0, ""), ("optimize", 2, '"physics_error"'))
    ),
    # the force baseline underflows to 0
    *(
        ("sense", fuzz_text("sense", fidelity, {("system", key): "tiny"}), 3, "force baseline")
        for key in ("mass_a_kg", "gamma_a_hz")
        for fidelity in ("rwa", "full")
    ),
    # mode b undamped and undriven: |f_b|^2 of the rwa force density
    # overflows at omega_b
    (
        "sense",
        fuzz_text("sense", "rwa", {("system", "gamma_b_hz"): "tiny", ("cavity", "alpha"): "missing"}),
        3,
        "force density hbar*m*omega_a/2 * sum_k |f_k|^2 (2*nbar_k + 1) overflows at omega = 6.28319e+06 rad/s",
    ),
    # C_OM = Gamma/gamma_b is near 7e303, so (1 + C_OM)^2 of the closed-form
    # force factor overflows; the factor is its limit 1
    *(
        ("sense", fuzz_text("sense", fidelity, {("system", "gamma_b_hz"): "tiny"}), 0, "")
        for fidelity in ("rwa", "full")
    ),
]


def _examples(cases):
    """A hypothesis ``@example(case=...)`` of each of ``cases``."""
    return lambda test: functools.reduce(lambda t, case: example(case=case)(t), cases, test)


class TestConfigFuzz:
    """Any config exits 0-3; a failure is one JSON object on stderr."""

    @settings(max_examples=300, deadline=None)
    @given(case=fuzz_cases())
    @example(case=("sweep", fuzz_text("sweep", "full", _ZERO_G0)))
    @example(case=("optimize", fuzz_text("optimize", "full", _ZERO_G0)))
    @example(case=("sweep", fuzz_text("sweep", "rwa", _UNDAMPED_A)))
    @example(case=("optimize", fuzz_text("optimize", "rwa", _UNDAMPED_A)))
    @_examples(_EXTREME_CASES)
    @_examples(_PINNED_CASES)
    def test_exit_code_and_one_json_error(self, case):
        task, text, *pinned = case
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.ini")
            with open(path, "w") as fh:
                fh.write(text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([task, "--config", path])
        assert code in (0, 1, 2, 3)
        if code == 0:
            assert err.getvalue() == ""
            assert json.loads(out.getvalue())["task"] == task
        else:
            assert out.getvalue() == ""
            assert "Traceback" not in err.getvalue()
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert set(json.loads(lines[0])) == {"error", "message"}
        if pinned:
            assert code == pinned[0] and pinned[1] in err.getvalue()
