"""bathcool benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload sweep-full --seed 1 --seconds 20 --trace 0

Run from anywhere; bathcool is imported from ``src/`` next to this
directory and nowhere else.  ``--workload all`` runs every workload, each
in its own process.  Each workload (see ``workloads.py``) is a closed
loop with one client, in one process, with BLAS and OpenMP pinned to one
thread.  Every task is checked; a task that raises, exits non-zero or
fails a check counts as failed and is never dropped.

``--trace 0`` measures the end-to-end metrics.  The gated ones are

* ``setup_s``: the import of bathcool, the generation of the inputs and
  one untimed warm-up task; the median of this process and SETUP_PROBES
  fresh processes;
* ``task_cost_p50``: the median task time in units of a reference kernel
  timed alongside it (see ``speed.py``), which removes most of the drift
  of a shared machine's speed;
* ``peak_rss_mb``: the peak resident memory of this process.

Wall-clock ``tasks_per_s``, ``task_s_p50`` and ``task_s_p90`` (with 100
tasks or more), ``failed_frac`` and the accuracy figures of each
workload against the Lyapunov reference are printed as well.

``--trace 1`` alternates untraced and traced tasks and reports per-layer
metrics per traced task, from spans around calls into bathcool's public
functions (see ``spans.py``).  The spans are written at the end to
``.bench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the metrics that
BENCHMARK.json declares); the lines above it print every metric by name
and unit, the sample count and the run environment.
"""

from __future__ import annotations

import os

# pin before numpy loads its BLAS
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("sweep-full", "optimize-full", "operating-point")
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 150

# the metrics of the final JSON line, as declared in BENCHMARK.json
END_TO_END = ("setup_s", "task_cost_p50", "peak_rss_mb")
PER_LAYER = (
    "spectra.solve_s",
    "spectra.solve_us_per_point",
    "spectra.spectrum_calls",
    "spectra.grid_calls",
    "spectra.grid_s",
    "spectra.grid_points",
    "spectra.quad_calls",
    "spectra.quad_s",
    "spectra.fit_calls",
    "spectra.fit_failed",
    "spectra.force_calls",
    "sweeps.evals_per_optimize",
    "sweeps.point_errors",
    "model.build_calls",
    "model.build_s",
    "model.eig_calls",
    "model.eig_s",
    "model.eig_per_spectrum",
    "analytics.calls",
    "analytics.s",
    "trace.overhead_frac",
)


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_bathcool():
    if not (SRC / "bathcool" / "__init__.py").is_file():
        raise SetupError(f"no bathcool sources under {SRC}")
    sys.path.insert(0, str(SRC))
    bathcool = importlib.import_module("bathcool")
    if Path(bathcool.__file__).resolve().parent != SRC / "bathcool":
        raise SetupError(f"imported bathcool from {bathcool.__file__}, not {SRC}")
    importlib.import_module("bathcool.cli")  # not imported by the package itself
    return bathcool


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # show_config's layout varies across numpy versions
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        git = []
    if len(git) == 2 and Path(git[0]).resolve() == ROOT:  # not an enclosing repository's
        commit = git[1]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def attempt(fn, *args):
    """Run one task; ``(output, None)`` or ``(None, error text)``."""
    try:
        return fn(*args), None
    except Exception as exc:  # every failure is counted, none ends the run
        return None, f"{type(exc).__name__}: {exc}"


class Task(NamedTuple):
    k: int
    t0: float
    t1: float
    traced: bool
    problems: list


def run_checked(wl, k, tracer=None) -> Task:
    """Time task ``k``, traced if a tracer is given, then check it."""
    if tracer is not None:
        tracer.task = k
        tracer.install()
    try:
        t0 = time.perf_counter()
        if tracer is None:
            output, error = attempt(wl.run, k)
        else:
            output, error = attempt(tracer.call, wl.root_span, wl.run, k)
        t1 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if error is None:
        problems, error = attempt(wl.check, k, output)
    problems = [error] if error is not None else problems
    return Task(k, t0, t1, tracer is not None, problems)


def setup(args, t_start, workdir):
    """Import, generate inputs, warm up: ``(workload, setup_s, output, error)``."""
    bathcool = import_bathcool()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[args.workload](bathcool, args.seed, workdir)
    output, error = attempt(wl.run, 0)
    return wl, time.perf_counter() - t_start, output, error


def probe_setup(args) -> float:
    """setup_s of a fresh process on the same inputs."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise SetupError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def timed_loop(wl, seconds: float, tracer=None) -> list:
    """Closed loop from task 1 until ``seconds`` have passed.

    With a tracer every second task runs traced, and the loop runs at
    least one task of each kind.
    """
    tasks = []
    t_loop = time.perf_counter()
    k = 1
    while True:
        tasks.append(run_checked(wl, k, tracer if tracer and k % 2 == 0 else None))
        k += 1
        if time.perf_counter() - t_loop >= seconds and (tracer is None or k > 2):
            return tasks


def end_to_end(tasks, setup_samples, probe) -> dict:
    split = [probe.split(t.t0, t.t1) for t in tasks]
    times = [program_s for program_s, _ in split]
    costs = [program_s / kernel_s for program_s, kernel_s in split]
    passed = sum(not t.problems for t in tasks)
    m = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "task_cost_p50": (statistics.median(costs), "ref"),
        "tasks_per_s": (passed / sum(times), "1/s"),
        "task_s_p50": (statistics.median(times), "s"),
    }
    if len(times) >= 100:  # ten samples beyond the 90th percentile
        m["task_s_p90"] = (statistics.quantiles(times, n=10, method="inclusive")[8], "s")
    m["ref_kernel_ms"] = (1e3 * statistics.median(probe.seconds), "ms")
    m["failed_frac"] = ((len(tasks) - passed) / len(tasks), "1")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    return m


def per_layer(tracer, tasks) -> dict:
    """Per-traced-task layer metrics from the recorded spans."""
    traced = [t.t1 - t.t0 for t in tasks if t.traced]
    plain = [t.t1 - t.t0 for t in tasks if not t.traced]
    n = len(traced)
    spans = tracer.spans
    selfs = tracer.self_times()
    calls, self_s, work, failed = {}, {}, {}, {}
    for s, own in zip(spans, selfs):
        name = s[2]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        work[name] = work.get(name, 0) + s[6]
        failed[name] = failed.get(name, 0) + int(s[7])

    def c(*names):
        return sum(calls.get(x, 0) for x in names)

    def t(*names):
        return sum(self_s.get(x, 0.0) for x in names)

    # evaluations per optimum search: models built inside find_optimum
    evals = 0
    for s in spans:
        if s[2] != "model.build_full_system":
            continue
        p = s[1]
        while p is not None and spans[p][2] != "sweeps.find_optimum":
            p = spans[p][1]
        evals += p is not None

    spectrum_points = work.get("spectra.position_spectrum", 0)
    solves = c("spectra.position_spectrum", "spectra.force_spectrum_numeric")
    untraced_p50 = statistics.median(plain)
    traced_p50 = statistics.median(traced)
    m = {
        "spectra.solve_s": (t("spectra.position_spectrum") / n, "s"),
        "spectra.solve_us_per_point": (
            1e6 * t("spectra.position_spectrum") / spectrum_points if spectrum_points else 0.0,
            "us",
        ),
        "spectra.spectrum_calls": (c("spectra.position_spectrum") / n, "count"),
        "spectra.grid_calls": (c("spectra.make_grid") / n, "count"),
        "spectra.grid_s": (t("spectra.make_grid") / n, "s"),
        "spectra.grid_points": (
            (spectrum_points + work.get("spectra.force_spectrum_numeric", 0)) / n, "count",
        ),
        "spectra.quad_calls": (c("spectra.integrate_occupation") / n, "count"),
        "spectra.quad_s": (t("spectra.integrate_occupation") / n, "s"),
        "spectra.fit_calls": (c("spectra.fit_lorentzian") / n, "count"),
        "spectra.fit_s": (t("spectra.fit_lorentzian") / n, "s"),
        "spectra.fit_failed": (failed.get("spectra.fit_lorentzian", 0) / n, "count"),
        "spectra.force_calls": (c("spectra.force_spectrum_numeric") / n, "count"),
        "spectra.force_s": (t("spectra.force_spectrum_numeric") / n, "s"),
        "sweeps.evals_per_optimize": (
            evals / c("sweeps.find_optimum") if c("sweeps.find_optimum") else 0.0, "count",
        ),
        "sweeps.self_s": (t("sweeps.sweep_cooperativity", "sweeps.find_optimum") / n, "s"),
        "sweeps.point_errors": (work.get("sweeps.sweep_cooperativity", 0) / n, "count"),
        "model.build_calls": (c("model.build_full_system", "model.build_rwa_system") / n, "count"),
        "model.build_s": (t("model.build_full_system", "model.build_rwa_system") / n, "s"),
        "model.eig_calls": (c("model.stability_eigenvalues") / n, "count"),
        "model.eig_s": (t("model.stability_eigenvalues") / n, "s"),
        "model.eig_per_spectrum": (
            c("model.stability_eigenvalues") / solves if solves else 0.0, "count",
        ),
        "analytics.calls": (c("analytics.n_eff_closed_form", "analytics.cooling_summary") / n, "count"),
        "analytics.s": (t("analytics.n_eff_closed_form", "analytics.cooling_summary") / n, "s"),
        "cli.parse_s": (t("cli.parse_config") / n, "s"),
        "cli.self_s": (t("cli.main") / n, "s"),
        "bench.self_s": (t("bench.task") / n, "s"),
        "trace.overhead_frac": (traced_p50 / untraced_p50 - 1.0, "1"),
        "trace.self_total_s": (sum(selfs) / n, "s"),
        "trace.tasks": (n, "count"),
    }
    return m


def report(metrics: dict, selected, correct: bool, attempted: int, failed: int):
    metrics = {
        k: (v if isinstance(v, int) else float(v), unit) for k, (v, unit) in metrics.items()
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in selected},
    }
    print(json.dumps(line))


def run_one(args) -> int:
    t_start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        wl, setup_s, warm_output, warm_error = setup(args, t_start, Path(tmp))
        if args.setup_only:
            if warm_error is not None:
                raise SetupError(f"warm-up task failed: {warm_error}")
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = environment(args)
        print("env = " + json.dumps(env, sort_keys=True))
        wl.prepare_reference()
        if warm_error is None:
            warm_problems, warm_error = attempt(wl.check, 0, warm_output)
        warm_problems = [warm_error] if warm_error is not None else warm_problems
        for p in warm_problems:
            print(f"warm-up task failed: {p}")

        if args.trace:
            tracer = importlib.import_module("spans").Tracer()
            for name in tracer.install():
                print(f"not traced (missing at this commit): {name}")
            tracer.uninstall()
            tasks = timed_loop(wl, args.seconds, tracer)
        else:
            with importlib.import_module("speed").SpeedProbe() as probe:
                tasks = timed_loop(wl, args.seconds)
    failures = {}
    for t in tasks:
        for p in t.problems:
            failures[p] = failures.get(p, 0) + 1
    for p, count in sorted(failures.items()):
        print(f"failed {count}x: {p}")
    failed = sum(bool(t.problems) for t in tasks)
    correct = failed == 0 and not warm_problems
    print(f"tasks = {len(tasks)} ({failed} failed)")

    if args.trace:
        metrics = per_layer(tracer, tasks)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, env)
        print(f"spans written to {path.relative_to(ROOT)}")
        report(metrics, PER_LAYER, correct, len(tasks), failed)
    else:
        samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        print("setup_s samples = " + json.dumps(samples))
        metrics = end_to_end(tasks, samples, probe)
        metrics.update(wl.accuracy())
        report(metrics, END_TO_END, correct, len(tasks), failed)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SetupError(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except SetupError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
