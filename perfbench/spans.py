"""Span tracing of binmpec's public functions, installed from outside.

``Tracer.install`` wraps each traced function and rebinds the wrapper in
every loaded ``binmpec`` module that holds the original (the package uses
``from .x import f``, so one function can be bound under its name in
several modules).  Methods are wrapped on their class.  A binding the
scan cannot see (a closure or default argument holding the function)
shows up as a layer with no calls, which the benchmark checks.  ``uninstall`` restores every binding.

Spans are aggregated as they close: a per-name count, total time and
self time (the span's duration minus the time of its child spans), plus
per-name counters taken from arguments and results.  Only spans that
close while ``recording`` is true are aggregated, so a window of the run
can be measured while the same wrappers stay installed.
"""

import sys
import time
import warnings
from collections import defaultdict

# span name -> [(module, attribute), ...]; several functions may share a name
FUNCTIONS = {
    "linalg.matvec": [("binmpec.linalg", "matvec")],
    "linalg.spectral": [("binmpec.linalg", "spectral_norm_estimate")],
    "kernels.simplex_walk": [("binmpec.kernels", "simplex_walk")],
    "kernels.binary_scan": [("binmpec.kernels", "binary_scan")],
    "projections.project_feasible": [("binmpec.projections", "project_feasible")],
    "projections.capped_simplex": [("binmpec.projections", "project_capped_simplex")],
    "subsolver.fista": [("binmpec.subsolver", "minimize_fista")],
    "epm": [("binmpec.epm", "solve_epm")],
    "adm": [("binmpec.adm", "solve_adm")],
    "baselines.lp": [("binmpec.baselines", "solve_lp_round")],
    "baselines.iht": [("binmpec.baselines", "solve_iht")],
    "baselines.l2box": [("binmpec.baselines", "solve_l2box_admm")],
    "problems.build": [("binmpec.problems", name) for name in (
        "build_bisection", "build_constrained_segmentation",
        "build_dense_subgraph", "build_modularity", "build_mrf")],
    "problems.round_feasible": [("binmpec.problems", "round_feasible")],
    "oracle.brute_force": [("binmpec.oracle", "brute_force")],
}
# span name -> [(module, class, method), ...]; wrapped on the class itself
METHODS = {
    "problems.solver_view": [("binmpec.problems", "SolverView", "__init__")],
    "report.json": [("binmpec.report", "SolveReport", "to_json"),
                    ("binmpec.report", "SolveReport", "from_json")],
}


def _count_matvec(stats, args, result):
    M = args[0]
    stats["bytes_computed"] += 20 * M.nnz + 16 * M.n_rows


def _count_scan(stats, args, result):
    stats["points"] += 1 << args[0].shape[0]


def _count_capped(stats, args, result):
    stats["elements"] += len(args[0])


def _count_fista(stats, args, result):
    stats["iters"] += result[2]
    stats["converged"] += bool(result[3])


def _count_solver(stats, args, result):
    stats["steps"] += len(result.trace)
    stats["outer_iters"] += result.outer_iterations
    stats["converged"] += bool(result.converged)


def _count_oracle(stats, args, result):
    stats["feasible_points"] += result[2]


def _count_json(stats, args, result):
    # to_json only (from_json parses the same text); the digits of the
    # measured wall time vary from run to run, so they are not counted
    if isinstance(result, str):
        stats["bytes"] += len(result) - len(repr(args[0].wall_time_ms))


COUNTERS = {
    "linalg.matvec": _count_matvec,
    "kernels.binary_scan": _count_scan,
    "projections.capped_simplex": _count_capped,
    "subsolver.fista": _count_fista,
    "epm": _count_solver,
    "adm": _count_solver,
    "baselines.l2box": _count_solver,
    "oracle.brute_force": _count_oracle,
    "report.json": _count_json,
}


def _binmpec_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "binmpec" or name.startswith("binmpec."))]


class Tracer:
    """Installs span wrappers and aggregates what closes while recording."""

    def __init__(self):
        self.recording = False
        self.stats = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._restore = []
        self._warned = {}

    # -- aggregation ----------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)
        call = self._counting_warnings(fn) if name == "linalg.spectral" else fn

        def traced(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = call(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
            if tracer.recording:
                s = tracer.stats[name]
                s["calls"] += 1
                s["total_s"] += dt
                s["self_s"] += dt - child
                if counter is not None:
                    counter(s, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _counting_warnings(self, fn):
        # count power-iteration non-convergence, then hand every warning on
        def call(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            for w in caught:
                if (self.recording and issubclass(w.category, RuntimeWarning)
                        and "did not converge" in str(w.message)):
                    self.stats["linalg.spectral"]["nonconverged"] += 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                                       registry=self._warned)
            return result
        return call

    # -- installation ---------------------------------------------------
    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _binmpec_modules()
        for name, targets in FUNCTIONS.items():
            for mod_name, attr in targets:
                fn = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(name, fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, key, fn))
                            setattr(mod, key, wrapper)
        for name, targets in METHODS.items():
            for mod_name, cls_name, meth in targets:
                cls = getattr(sys.modules[mod_name], cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapper = self._wrap(name, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapper)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore = []
