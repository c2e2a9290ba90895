"""Smoke tests of the benchmark, outside tier-1 (about two minutes):

    python3 -m pytest bench -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bathcool  # noqa: E402
import lyapunov  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = {
    "sweep-full": ["csv_nonplain_frac"],
    "optimize-full": ["c_star_rel_err"],
    "operating-point": ["task_s_p90", "err_bar_undercover_frac"],
}
COMMON_END_TO_END = [
    "setup_s", "task_cost_p50", "tasks_per_s", "task_s_p50", "failed_frac",
    "n_eff_rel_err_max", "peak_rss_mb",
]
PER_LAYER = [
    "spectra.solve_s", "spectra.solve_us_per_point", "spectra.spectrum_calls",
    "spectra.grid_calls", "spectra.grid_s", "spectra.grid_points",
    "spectra.quad_calls", "spectra.quad_s", "spectra.fit_calls", "spectra.fit_s",
    "spectra.fit_failed", "spectra.force_calls", "spectra.force_s",
    "sweeps.evals_per_optimize", "sweeps.self_s", "sweeps.point_errors",
    "model.build_calls", "model.build_s", "model.eig_calls", "model.eig_s",
    "model.eig_per_spectrum", "analytics.calls", "analytics.s", "cli.parse_s",
    "cli.self_s", "trace.overhead_frac",
]
# long enough for 100 operating-point tasks, so that task_s_p90 exists
SECONDS = {"sweep-full": 1, "optimize-full": 1, "operating-point": 12}


@pytest.mark.parametrize("build", [bathcool.build_full_system, bathcool.build_rwa_system])
def test_lyapunov_decoupled_limit_is_bath_occupation(build):
    spec = replace(workloads.readme_spec(bathcool, 50.0, 0.0), coupling=0.0)
    assert spec.cavity.alpha == 0.0
    n = lyapunov.occupation(build(spec))
    assert n == pytest.approx(spec.mode_a.nbar, rel=1e-12)


@pytest.mark.parametrize("c_ab", [10.0, 50.0, 100.0])
def test_lyapunov_matches_closed_form_at_rwa_optimum(c_ab):
    c_star = math.sqrt(1.0 + c_ab)
    spec = workloads.readme_spec(bathcool, c_ab, c_star)
    n = lyapunov.occupation(bathcool.build_rwa_system(spec))
    ratio = 2.0 / (1.0 + math.sqrt(1.0 + c_ab))
    # the closed form drops terms of order C_ab*gamma_a/(gamma_b + Gamma),
    # the parameter of its hierarchy condition
    rwa_error = c_ab * spec.mode_a.gamma / (spec.mode_b.gamma * (1.0 + c_star))
    assert n / spec.mode_a.nbar == pytest.approx(ratio, rel=rwa_error)


def run_bench(cwd, workload, trace, seconds=1):
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def printed_metrics(stdout):
    """{name: unit} of every "name = value unit" line."""
    out = {}
    for line in stdout.splitlines():
        name, sep, rest = line.partition(" = ")
        parts = rest.split()
        if sep and len(parts) == 2:
            out[name] = parts[1]
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(END_TO_END))
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace, SECONDS[workload])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    printed = printed_metrics(proc.stdout)
    named = PER_LAYER if trace else COMMON_END_TO_END + END_TO_END[workload]
    missing = [n for n in named if n not in printed]
    assert not missing, proc.stdout
    for m in declared:
        assert printed[m["name"]] == m["unit"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "operating-point", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
