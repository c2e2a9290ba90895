"""The benchmark's workloads: seeded inputs, one task, and its checks.

Each workload is a closed loop with one client.  ``run(k)`` performs
task ``k`` through bathcool's public entry points, looked up on their
modules at call time so that a traced run sees its wrappers;
``check(k, output)`` returns the gates task ``k`` failed.  Inputs come
only from the seed.  Reference values come from ``lyapunov``, never
from the code path under test.

sweep-full       CLI ``sweep --fidelity full`` over 301 C_OM points: many
                 independent points, the throughput case.
optimize-full    CLI ``optimize --fidelity full``: the same layers called
                 serially (48 dependent evaluations when this was
                 written), the latency case.
operating-point  one full answer for one configuration through the
                 library: closed form, exact spectrum, line fit, force
                 noise, and the RWA spectrum on the criterion-7 grid and
                 its halved grid.  The only user of fits, force noise,
                 the RWA basis and fine grids.
"""

from __future__ import annotations

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import lyapunov

TWO_PI = 2.0 * math.pi

# relative gap to the Lyapunov reference a reported n_eff may have; the
# tolerance criterion 7 puts on grid refinement
N_EFF_TOL = 1e-3
# relative gap of the full-fidelity optimum to the reference optimum;
# criterion 1's tolerance for the full optimum
C_STAR_TOL = 0.05

# the README system; C_ab is drawn per seed through lambda
README = {
    "omega_a_hz": 1e6,
    "gamma_a_hz": 1.0,
    "omega_b_hz": 1e6,
    "gamma_b_hz": 1e3,
    "temperature_k": 300.0,
    "mass_a_kg": 1e-12,
    "kappa_hz": 3e5,
    "detuning_hz": -1e6,
    "g0_hz": 10.0,
}
C_OM_RANGE = (1e-2, 1e3)
POINTS_PER_DECADE = 60  # 301 points over five decades


def _rel(value, ref) -> float:
    return abs(value - ref) / abs(ref)


# At numpy >= 2 the sweep CSV writes every numeric cell as the repr of a
# numpy scalar, "np.float64(0.01)".  That is a defect of the CLI; cells
# are read either way and the share not written as plain numbers is
# reported as csv_nonplain_frac, so the defect stays visible.
_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def _cell(text: str) -> tuple:
    """``(value, plain)`` of one numeric CSV cell."""
    m = _NUMPY_REPR.fullmatch(text)
    return float(m.group(1) if m else text), m is None


def _lambda_hz(c_ab: float) -> float:
    return math.sqrt(c_ab * README["gamma_a_hz"] * README["gamma_b_hz"]) / 2.0


def readme_spec(bathcool, c_ab: float, c_om: float):
    """The README system at (C_ab, C_OM), built from the raw inputs."""
    bc, p = bathcool, README
    gamma_b = TWO_PI * p["gamma_b_hz"]
    kappa = TWO_PI * p["kappa_hz"]
    g0 = TWO_PI * p["g0_hz"]
    alpha = math.sqrt(c_om * gamma_b * kappa) / 2.0 / g0
    t = p["temperature_k"]
    return bc.SystemSpec(
        mode_a=bc.MechanicalMode(TWO_PI * p["omega_a_hz"], TWO_PI * p["gamma_a_hz"], t),
        mode_b=bc.MechanicalMode(TWO_PI * p["omega_b_hz"], gamma_b, t),
        cavity=bc.CavityDrive(
            kappa=kappa, detuning=TWO_PI * p["detuning_hz"], g0=g0, alpha=alpha
        ),
        coupling=TWO_PI * _lambda_hz(c_ab),
        mass_a=p["mass_a_kg"],
    )


class CliWorkload:
    """One task is ``bathcool <task> --fidelity full`` on a generated INI."""

    task = ""
    root_span = "cli.main"

    def __init__(self, bathcool, seed: int, workdir):
        self.bathcool = bathcool
        rng = np.random.default_rng(seed)
        self.c_ab = float(10 ** rng.uniform(1.0, 2.0))  # log-uniform in [10, 100]
        self.config = workdir / f"{self.task}.ini"
        self.out = workdir / self.task
        self.config.write_text(self._ini())
        self.argv = [
            self.task, "--config", str(self.config), "--fidelity", "full",
            "--out", str(self.out),
        ]
        self.first = None  # artifacts of the first repeat
        self.first_problems = []
        self.errors = []  # relative n_eff gaps of the first repeat

    def _ini(self) -> str:
        p = README
        lo, hi = C_OM_RANGE
        return (
            f"[run]\ntask = {self.task}\n\n"
            "[system]\n"
            f"omega_a_hz = {p['omega_a_hz']!r}\n"
            f"gamma_a_hz = {p['gamma_a_hz']!r}\n"
            f"omega_b_hz = {p['omega_b_hz']!r}\n"
            f"gamma_b_hz = {p['gamma_b_hz']!r}\n"
            f"lambda_hz = {_lambda_hz(self.c_ab)!r}\n"
            f"temperature_k = {p['temperature_k']!r}\n"
            f"mass_a_kg = {p['mass_a_kg']!r}\n\n"
            "[cavity]\n"
            f"kappa_hz = {p['kappa_hz']!r}\n"
            f"detuning_hz = {p['detuning_hz']!r}\n"
            f"g0_hz = {p['g0_hz']!r}\n\n"
            f"[sweep]\nc_om_min = {lo!r}\nc_om_max = {hi!r}\n"
            f"points_per_decade = {POINTS_PER_DECADE}\n\n"
            f"[optimize]\nc_om_min = {lo!r}\nc_om_max = {hi!r}\n"
        )

    def spec_at(self, c_om: float):
        return readme_spec(self.bathcool, self.c_ab, c_om)

    def reference_n(self, c_om: float) -> float:
        return lyapunov.occupation(self.bathcool.model.build_full_system(self.spec_at(c_om)))

    def run(self, k):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.bathcool.cli.main(list(self.argv))
        return code, out.getvalue(), err.getvalue()

    def _artifacts(self, output) -> tuple:
        """(csv, summary, stdout, stderr) bytes; deletes the files read."""
        code, stdout, stderr = output
        files = []
        for suffix in (".csv", ".summary.json"):
            path = self.out.parent / (self.out.name + suffix)
            files.append(path.read_bytes() if path.exists() else None)
            path.unlink(missing_ok=True)
        return (*files, stdout.encode(), stderr.encode())

    def check(self, k, output) -> list:
        code = output[0]
        artifacts = self._artifacts(output)
        if code != 0:
            return [f"exit code {code}: {output[2].strip()[:200]}"]
        if None in artifacts[:2]:
            return ["missing CSV or summary"]
        if self.first is None:
            self.first = artifacts
            problems = self.check_content(*artifacts)
            self.first_problems = problems
            return problems
        if artifacts != self.first:
            return ["output differs from the first repeat"]
        return self.first_problems

    def check_content(self, csv, summary, stdout, stderr) -> list:
        raise NotImplementedError


class SweepFull(CliWorkload):
    name = "sweep-full"
    task = "sweep"
    nonplain_frac = math.nan

    def prepare_reference(self):
        lo, hi = C_OM_RANGE
        n = round(math.log10(hi / lo) * POINTS_PER_DECADE) + 1
        self.c_om = np.geomspace(lo, hi, n)
        self.ref = np.array([self.reference_n(c) for c in self.c_om])

    def check_content(self, csv, summary, stdout, stderr) -> list:
        problems = []
        if json.loads(summary).get("n_errors") != 0:
            problems.append("sweep summary n_errors != 0")
        lines = csv.decode().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != self.c_om.size:
            return problems + [f"{len(rows)} sweep rows, expected {self.c_om.size}"]
        cells = [[_cell(x) for x in r[:4]] for r in rows]
        plain = [ok for r in cells for _, ok in r]
        self.nonplain_frac = 1.0 - sum(plain) / len(plain)
        c_om = np.array([r[0][0] for r in cells])
        n_eff = np.array([r[1][0] for r in cells])
        if not np.allclose(c_om, self.c_om, rtol=1e-12, atol=0):
            problems.append("C_OM column differs from the requested grid")
        if any(r[4] == "error" for r in rows):
            problems.append("sweep row flagged as error")
        gaps = np.abs(n_eff - self.ref) / self.ref
        self.errors = [float(g) for g in gaps]
        if not np.all(gaps <= N_EFF_TOL):  # NaN fails too
            problems.append(f"n_eff off the Lyapunov reference by {np.nanmax(gaps):.3g}")
        return problems

    def accuracy(self) -> dict:
        return {
            "n_eff_rel_err_max": (max(self.errors, default=math.nan), "1"),
            "csv_nonplain_frac": (self.nonplain_frac, "1"),
        }


class OptimizeFull(CliWorkload):
    name = "optimize-full"
    task = "optimize"
    c_star_err = math.nan

    def prepare_reference(self):
        self.c_ref, _ = lyapunov.optimum(self.reference_n, C_OM_RANGE)

    def check_content(self, csv, summary, stdout, stderr) -> list:
        s = json.loads(summary)
        c_star, n_star = s["C_OM_star"], s["n_eff_star"]
        self.c_star_err = _rel(c_star, self.c_ref)
        self.errors = [_rel(n_star, self.reference_n(c_star))]
        problems = []
        if not self.c_star_err <= C_STAR_TOL:
            problems.append(f"C_OM* off the reference optimum by {self.c_star_err:.3g}")
        if not self.errors[0] <= N_EFF_TOL:
            problems.append(f"n_eff* off the Lyapunov reference by {self.errors[0]:.3g}")
        return problems

    def accuracy(self) -> dict:
        return {
            "n_eff_rel_err_max": (max(self.errors, default=math.nan), "1"),
            "c_star_rel_err": (self.c_star_err, "1"),
        }


class OperatingPoint:
    """One task answers one of N_CONFIGS seeded configurations, cycled.

    Configurations follow the criterion-7 distribution.  Even ones have
    omega_b = omega_a; odd ones split the modes by 0.1-10 gamma_b (either
    sign) with the cavity tuned to mode b's lower sideband.  A draw
    outside the closed form's hierarchy regime ((gamma_b + Gamma)/gamma_a
    >= 10 C_ab) is redrawn: there modes a and b hybridize into a doublet,
    the dressed linewidth that sets the fit window is not defined and
    fit_lorentzian rejects the window by design (about 3% of draws).
    """

    name = "operating-point"
    root_span = "bench.task"
    # enough configurations that no few of them set a run's median task
    N_CONFIGS = 256

    def __init__(self, bathcool, seed: int, workdir):
        self.bathcool = bathcool
        rng = np.random.default_rng(seed)
        self.specs = []
        while len(self.specs) < self.N_CONFIGS:
            spec = self._draw(rng, split=len(self.specs) % 2 == 1)
            if spec is not None:
                self.specs.append(spec)
        self.first = {}
        self.results = {}  # config index -> (n_eff, n_eff_error, reference) triples

    def _draw(self, rng, split: bool):
        bc = self.bathcool
        omega_hz = 10 ** rng.uniform(6, 7)
        gamma_a_hz = 10 ** rng.uniform(-2, 0)
        gamma_b_hz = gamma_a_hz * 10 ** rng.uniform(2, 4)
        c_ab = 10 ** rng.uniform(0, 2)
        c_om = 10 ** rng.uniform(-0.5, 1.3)
        t_a = 10 ** rng.uniform(-1, 3)
        t_b = t_a * 10 ** rng.uniform(-1, 1)
        delta_hz = 0.0
        if split:
            delta_hz = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-1, 1) * gamma_b_hz
        if gamma_b_hz * (1.0 + c_om) < 10.0 * c_ab * gamma_a_hz:
            return None
        lam_hz = math.sqrt(c_ab * gamma_a_hz * gamma_b_hz) / 2.0
        alpha = math.sqrt(c_om * gamma_b_hz * 3e5) / 2.0 / 10.0
        omega_b_hz = omega_hz + delta_hz
        return bc.SystemSpec(
            mode_a=bc.MechanicalMode(TWO_PI * omega_hz, TWO_PI * gamma_a_hz, t_a),
            mode_b=bc.MechanicalMode(TWO_PI * omega_b_hz, TWO_PI * gamma_b_hz, t_b),
            cavity=bc.CavityDrive(
                kappa=TWO_PI * 3e5,
                detuning=-TWO_PI * omega_b_hz,
                g0=TWO_PI * 10.0,
                alpha=alpha,
            ),
            coupling=TWO_PI * lam_hz,
            mass_a=1e-12,
        )

    def prepare_reference(self):
        model = self.bathcool.model
        self.ref = [
            (
                lyapunov.occupation(model.build_full_system(s)),
                lyapunov.occupation(model.build_rwa_system(s)),
            )
            for s in self.specs
        ]

    def run(self, k):
        bc = self.bathcool
        spec = self.specs[k % self.N_CONFIGS]
        summary = bc.analytics.cooling_summary(spec)
        full = bc.model.build_full_system(spec)
        exact = bc.spectra.position_spectrum(full, "a")
        half = 8.0 * summary.linewidth_a
        center = summary.omega_a_pulled
        fit = bc.spectra.fit_lorentzian(
            exact.grid, exact.values, (center - half, center + half)
        )
        force = bc.spectra.force_spectrum_numeric(full, spec)
        rwa = bc.model.build_rwa_system(spec)
        grid = bc.spectra.make_grid(rwa, points_per_linewidth=60, log_points=240)
        fine = bc.spectra.position_spectrum(rwa, "a", grid)
        coarse = bc.spectra.position_spectrum(rwa, "a", grid.halved())
        return exact, fit, force, fine, coarse

    def check(self, k, output) -> list:
        exact, fit, force, fine, coarse = output
        i = k % self.N_CONFIGS
        ref_full, ref_rwa = self.ref[i]
        problems = []
        for label, res in (("full", exact), ("rwa", fine), ("rwa halved", coarse)):
            if not np.all(res.values >= 0):
                problems.append(f"negative {label} spectrum")
        if not abs(coarse.n_eff - fine.n_eff) <= 1e-3 * fine.n_eff:
            problems.append("criterion-7 grid refinement disagrees")
        # the halved grid is only a refinement check; its gap is reported
        checked = ((exact, ref_full), (fine, ref_rwa), (coarse, ref_rwa))
        for res, ref in checked[:2]:
            if not _rel(res.n_eff, ref) <= N_EFF_TOL:
                problems.append(f"n_eff off the Lyapunov reference by {_rel(res.n_eff, ref):.3g}")
        if not (np.all(np.isfinite(force.factor)) and np.all(force.factor > 0)):
            problems.append("force-noise factor not finite and positive")
        answer = (
            exact.n_eff, fine.n_eff, coarse.n_eff, fit.center, fit.fwhm,
            float(force.factor.sum()),
        )
        if self.first.setdefault(i, answer) != answer:
            problems.append("answer differs from the first repeat of this configuration")
        self.results.setdefault(
            i, [(r.n_eff, r.n_eff_error, ref) for r, ref in checked]
        )
        return problems

    def accuracy(self) -> dict:
        triples = [t for per_config in self.results.values() for t in per_config]
        gaps = [_rel(n, ref) for n, _, ref in triples]
        under = [err < _rel(n, ref) for n, err, ref in triples]
        return {
            "n_eff_rel_err_max": (max(gaps, default=math.nan), "1"),
            "err_bar_undercover_frac": (
                sum(under) / len(under) if under else math.nan, "1",
            ),
        }


WORKLOADS = {w.name: w for w in (SweepFull, OptimizeFull, OperatingPoint)}
