import json
import math

import pytest

from bathcool.cli import main, parse_config
from bathcool.errors import ConfigError

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
            ("optimize", "", "temperature_k = 300", "temperature_k = inf"),
            ("sweep", "", "temperature_k = 300", "temperature_k = nan"),
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
            "temperature-inf",
            "temperature-nan",
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

    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 1
        assert "spectrum" in capsys.readouterr().err
