"""In-memory spans around calls into bathcool's public functions.

The wrappers are installed on the names as each calling module binds
them (``bathcool.sweeps.position_spectrum`` is the binding the sweep
loop calls), so no code under ``src/`` changes.  A span records its
name, parent, task index and start/end times; the self time of a span
is its duration minus the durations of its children.  A name that does
not exist at some commit is skipped and shows up as zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute, span name).  Span names are "<layer>.<function>".
PATCHES = (
    ("bathcool.cli", "parse_config", "cli.parse_config"),
    ("bathcool.cli", "sweep_cooperativity", "sweeps.sweep_cooperativity"),
    ("bathcool.cli", "find_optimum", "sweeps.find_optimum"),
    ("bathcool.sweeps", "build_full_system", "model.build_full_system"),
    ("bathcool.sweeps", "position_spectrum", "spectra.position_spectrum"),
    ("bathcool.sweeps", "fit_lorentzian", "spectra.fit_lorentzian"),
    ("bathcool.sweeps", "n_eff_closed_form", "analytics.n_eff_closed_form"),
    ("bathcool.spectra", "make_grid", "spectra.make_grid"),
    ("bathcool.spectra", "integrate_occupation", "spectra.integrate_occupation"),
    ("bathcool.spectra", "stability_eigenvalues", "model.stability_eigenvalues"),
    # library entry points of the operating-point workload
    ("bathcool.model", "build_full_system", "model.build_full_system"),
    ("bathcool.model", "build_rwa_system", "model.build_rwa_system"),
    ("bathcool.analytics", "cooling_summary", "analytics.cooling_summary"),
    ("bathcool.spectra", "position_spectrum", "spectra.position_spectrum"),
    ("bathcool.spectra", "fit_lorentzian", "spectra.fit_lorentzian"),
    ("bathcool.spectra", "force_spectrum_numeric", "spectra.force_spectrum_numeric"),
)


def _points(result) -> int:
    grid = getattr(result, "grid", None)
    return int(grid.points.size) if grid is not None else 0


def _sweep_errors(result) -> int:
    return sum(e is not None for e in getattr(result, "errors", ()))


# span name -> function of the return value giving the span's "work" count
WORK = {
    "spectra.position_spectrum": _points,
    "spectra.force_spectrum_numeric": _points,
    "sweeps.sweep_cooperativity": _sweep_errors,
}


class Tracer:
    """Span recorder.  Spans are lists ``[id, parent, name, task, t0, t1,
    work, failed]``, appended on entry and completed on exit."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.task = None

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [sid, parent, name, self.task, time.perf_counter(), None, 0, False]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[7] = True
            raise
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()
        work = WORK.get(name)
        if work is not None:
            span[6] = work(result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self):
        """Wrap every name in PATCHES that exists; returns the ones missing."""
        missing = []
        for module_name, attr, name in PATCHES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))
        return missing

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] += s[5] - s[4]
        return [s[5] - s[4] - child[s[0]] for s in self.spans]

    def write(self, path, header: dict):
        selfs = self.self_times()
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s, own in zip(self.spans, selfs):
                fh.write(
                    json.dumps(
                        {
                            "id": s[0],
                            "parent": s[1],
                            "name": s[2],
                            "task": s[3],
                            "start_s": s[4],
                            "end_s": s[5],
                            "self_s": own,
                            "work": s[6],
                            "failed": s[7],
                        }
                    )
                    + "\n"
                )
