"""Benchmark of record for binmpec.

    python3 perfbench/run.py --workload grid-image --seed 1 --seconds 15 --trace 0

Runs one workload in this process as a closed loop with one caller: each
solve starts when the previous one has returned and its output has been
checked.  BLAS threads are pinned to 1 before numpy loads.  binmpec is
imported from ``src`` next to this directory, so a checkout needs no
install; without it the command exits with code 2.

With ``--trace 0`` the workload is set up at least SETUP_REPS times
(set-up time is the import plus the median set-up), whole passes over its
jobs run while another fits in ``--seconds``, and the end-to-end metrics
are printed.  With ``--trace 1`` the
public functions of each binmpec module are wrapped from outside
(spans.py); one set-up and one pass run traced and give the per-layer
metrics, then one untraced pass gives the tracing overhead.

Every reported time is scaled to a reference machine speed.  A fixed spin
of interpreter work is timed before the import, between set-up steps and
between operations; each timed interval is multiplied by CAL_REF_S over
the mean of the two spin times that bracket it.  On a host whose speed
drifts over seconds (a shared vCPU) the same work then reports nearly the
same figure, while a change to binmpec moves it as before.  The run's
median speed factor is printed, so wall times can be recovered.

Every output is checked (checks.py).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics that BENCHMARK.json declares for the mode.  The exit code is 1
when any operation failed.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BINMPEC_THREADS")
SETUP_REPS = 3  # at least; more while the set-ups total under SETUP_MIN_S
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 15
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
CAL_SPINS = 5  # spins per calibration; their median is used
CAL_REF_S = 4.0e-4  # one spin's time at the reference speed
PAPER_METHODS = ("epm", "adm")
BASELINES = ("lp", "iht", "l2box")
SOLVERS = {"epm": "solve_epm", "adm": "solve_adm", "lp": "solve_lp_round",
           "iht": "solve_iht", "l2box": "solve_l2box_admm"}
# layers each workload must reach in a traced run
COMMON_LAYERS = (
    "linalg.matvec", "linalg.spectral", "kernels.simplex_walk",
    "projections.project_feasible", "projections.capped_simplex",
    "subsolver.fista", "epm", "adm", "baselines.lp", "problems.build",
    "problems.solver_view", "problems.round_feasible", "report.json")
EXPECTED_LAYERS = {
    "grid-image": COMMON_LAYERS + ("baselines.iht",),
    "modularity-blocks": COMMON_LAYERS,
    "oracle-mixed": COMMON_LAYERS + ("baselines.iht", "baselines.l2box",
                                     "kernels.binary_scan", "oracle.brute_force"),
}


class ConfigError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(EXPECTED_LAYERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_binmpec():
    """Import binmpec from the checkout's src; returns (module, scaled seconds)."""
    if not os.path.isfile(os.path.join(SRC, "binmpec", "__init__.py")):
        raise ConfigError("binmpec sources not found under %s" % SRC)
    sys.path.insert(0, SRC)
    before = calibrate()
    t0 = time.perf_counter()
    import binmpec
    import_s = scaled(time.perf_counter() - t0, before, calibrate())
    if os.path.dirname(os.path.dirname(os.path.abspath(binmpec.__file__))) != SRC:
        raise ConfigError("imported binmpec from %s, not from %s" % (binmpec.__file__, SRC))
    return binmpec, import_s


def spin():
    """Seconds taken by a fixed piece of interpreter work."""
    t0 = time.perf_counter()
    s = 0
    d = {}
    for i in range(4000):
        d[i & 63] = s
        s = (s * 31 + i) & 0xFFFFF
    return time.perf_counter() - t0


def calibrate():
    return statistics.median(spin() for _ in range(CAL_SPINS))


def speed(before, after):
    """Reference speed over the speed measured around an interval."""
    return CAL_REF_S / (0.5 * (before + after))


def scaled(seconds, before, after):
    return seconds * speed(before, after)


def declared_metrics():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc)) from exc
    return spec["end_to_end"], spec["per_layer"]


def environment(B, np):
    return {
        "backend": B.kernels.active_backend(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
    }


class Op:
    """One timed call into binmpec and what the benchmark learned from it."""

    __slots__ = ("job", "method", "solve_s", "total_s", "objective", "f_star",
                 "failures", "speed")

    def __init__(self, job, method):
        self.job = job
        self.method = method
        self.solve_s = self.total_s = 0.0  # scaled by speed once the op ends
        self.speed = 1.0
        self.objective = self.f_star = None
        self.failures = []


def run_op(B, checks, job, method, f_star):
    """Run one solve (with its JSON round trip) or one enumeration."""
    op = Op(job, method)
    try:
        if method == "oracle":
            t0 = time.perf_counter()
            result = B.brute_force(job.problem)
            op.solve_s = op.total_s = time.perf_counter() - t0
            op.objective = op.f_star = result[1]
            op.failures = checks.oracle_failures(job.problem, result)
            return op
        solve = getattr(B, SOLVERS[method])
        t0 = time.perf_counter()
        report = solve(job.problem)
        t1 = time.perf_counter()
        parsed = B.SolveReport.from_json(report.to_json())
        t2 = time.perf_counter()
        op.solve_s, op.total_s = t1 - t0, t2 - t0
        op.objective = report.objective_binary
        op.f_star = f_star
        op.failures = checks.report_failures(job.problem, report, parsed, f_star)
    except Exception:  # a raising solve is a counted failure, not a crash
        op.failures = ["raised: " + traceback.format_exc(limit=3).strip()]
    return op


def run_pass(B, checks, plan, first):
    """One pass over the plan.  ``first`` holds pass-1 ops to compare with."""
    ops = []
    f_star = {}
    before = calibrate()
    for index, (job, method) in enumerate(plan):
        op = run_op(B, checks, job, method, f_star.get(job.label))
        after = calibrate()
        op.speed = speed(before, after)
        op.solve_s *= op.speed
        op.total_s *= op.speed
        before = after
        if method == "oracle" and op.f_star is not None:
            f_star[job.label] = op.f_star
        if first is not None and not op.failures:
            ref = first[index]
            if ref.objective is not None and op.objective != ref.objective:
                op.failures.append("objective %r differs from pass 1 (%r)"
                                   % (op.objective, ref.objective))
        ops.append(op)
    return ops


def make_plan(jobs):
    plan = []
    for job in jobs:
        if job.oracle:
            plan.append((job, "oracle"))
        plan.extend((job, m) for m in job.methods)
    return plan


def percentile(values, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) of the values."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def end_to_end(checks, ops, first, setup_s, setup_reps, passes):
    """Every end-to-end metric: name -> (value, unit, note)."""
    m = {"setup_s": (setup_s, "s", "import + median of %d set-ups" % setup_reps)}
    total = sum(op.total_s for op in ops)
    m["solves_per_s"] = (len(ops) / total, "1/s",
                         "%d operations in %d passes" % (len(ops), passes))
    for meth in PAPER_METHODS:
        ts = [op.solve_s * 1e3 for op in ops if op.method == meth]
        m[meth + "_ms_p50"] = (statistics.median(ts), "ms", "n=%d" % len(ts))
    paper = [op.solve_s * 1e3 for op in ops if op.method in PAPER_METHODS]
    distinct = sum(op.method in PAPER_METHODS for op in first)
    if distinct < 2 * TAIL_BEYOND:
        raise ConfigError("%d epm+adm solves per pass; the tail needs %d"
                          % (distinct, 2 * TAIL_BEYOND))
    q = 1.0 - TAIL_BEYOND / distinct
    m["solve_ms_tail"] = (percentile(paper, q), "ms", "p%.0f of n=%d (%d per pass)"
                          % (100 * q, len(paper), distinct))
    base = sum(op.solve_s for op in ops if op.method in BASELINES) / passes
    m["baselines_s"] = (base, "s", "per pass")
    oracle = [op.solve_s * 1e3 for op in ops if op.method == "oracle"]
    if oracle:
        m["oracle_ms_p50"] = (statistics.median(oracle), "ms", "n=%d" % len(oracle))
    for meth in PAPER_METHODS:
        ex = [op.objective - checks.objective_floor(op.job.problem)
              for op in first if op.method == meth and op.objective is not None]
        m[meth + "_objective_excess"] = (statistics.fmean(ex), "objective",
                                         "mean of %d instances" % len(ex))
    graded = [op for op in first if op.method in PAPER_METHODS and op.f_star is not None]
    if graded:
        hit = sum(op.objective <= op.f_star + checks.tolerance(op.f_star) for op in graded)
        m["optimal_frac"] = (hit / len(graded), "ratio", "%d of %d" % (hit, len(graded)))
    m["speed_factor"] = (statistics.median(op.speed for op in ops), "ratio",
                         "times above are wall times multiplied by this factor")
    failed = sum(bool(op.failures) for op in ops)
    m["failed_frac"] = (failed / len(ops), "ratio", "%d of %d" % (failed, len(ops)))
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", "")
    return m


def per_layer(tracer, traced, untraced):
    """Every per-layer metric of the traced window: name -> (value, unit, note)."""
    m = {}

    def get(span, key):
        return tracer.stats[span][key]

    def ratio(a, b):
        return a / b if b else 0.0

    for span in sorted(EXPECTED_LAYERS["oracle-mixed"]):  # every traced span
        m[span + ".calls"] = (int(get(span, "calls")), "count", "")
        m[span + ".self_s"] = (get(span, "self_s"), "s", "")
    m["linalg.matvec.bytes_computed"] = (int(get("linalg.matvec", "bytes_computed")),
                                         "bytes", "20*nnz + 16*n per call")
    m["linalg.spectral.nonconverged"] = (int(get("linalg.spectral", "nonconverged")),
                                         "count", "")
    m["kernels.binary_scan.points"] = (int(get("kernels.binary_scan", "points")),
                                       "count", "sum of 2^m")
    m["projections.capped_simplex.elements"] = (
        int(get("projections.capped_simplex", "elements")), "count", "")
    m["subsolver.fista.iters"] = (int(get("subsolver.fista", "iters")), "count", "")
    m["subsolver.fista.converged_frac"] = (
        ratio(get("subsolver.fista", "converged"), get("subsolver.fista", "calls")),
        "ratio", "")
    for span in PAPER_METHODS:
        m[span + ".steps"] = (int(get(span, "steps")), "count", "trace rows")
        m[span + ".outer_iters"] = (int(get(span, "outer_iters")), "count", "")
        m[span + ".converged_frac"] = (ratio(get(span, "converged"), get(span, "calls")),
                                       "ratio", "")
    m["baselines.l2box.iters"] = (int(get("baselines.l2box", "outer_iters")), "count", "")
    m["oracle.feasible_ratio"] = (
        ratio(get("oracle.brute_force", "feasible_points"),
              get("kernels.binary_scan", "points")), "ratio", "feasible / enumerated")
    m["report.json.bytes"] = (int(get("report.json", "bytes")), "bytes", "")
    t_on = sum(op.total_s for op in traced)
    t_off = sum(op.total_s for op in untraced)
    m["trace.overhead_frac"] = (t_on / t_off - 1.0, "ratio",
                                "traced %.3f s vs untraced %.3f s, same %d ops"
                                % (t_on, t_off, len(traced)))
    return m


def print_metrics(metrics, declared, out):
    direction = {d["name"]: d["better"] for d in declared}
    for name, (value, unit, note) in metrics.items():
        tag = "better %s" % direction[name] if name in direction else "not in BENCHMARK.json"
        shown = "%d" % value if isinstance(value, int) else "%.6g" % value
        out.write("metric %-38s %-16s %-9s %s%s\n"
                  % (name, shown, unit, tag, ("; " + note) if note else ""))


def build(make_jobs, B, seed):
    """Build the jobs one by one; returns (jobs, scaled seconds)."""
    jobs = []
    total = 0.0
    steps = make_jobs(B, seed)
    before = calibrate()
    while True:
        t0 = time.perf_counter()
        job = next(steps, None)
        dt = time.perf_counter() - t0
        after = calibrate()
        total += scaled(dt, before, after)
        before = after
        if job is None:
            return jobs, total
        jobs.append(job)


def set_up(make_jobs, B, seed, repeat):
    """Build the jobs, repeating to time set-up.  Returns (jobs, scaled seconds each)."""
    jobs = None
    build_s = []
    while True:
        built, seconds = build(make_jobs, B, seed)
        build_s.append(seconds)
        jobs = jobs or built
        if not repeat or len(build_s) == SETUP_MAX_REPS:
            return jobs, build_s
        if len(build_s) >= SETUP_REPS and sum(build_s) >= SETUP_MIN_S:
            return jobs, build_s


def bench(args, B, import_s, declared_e2e, declared_layers, out):
    """Run one workload and print its metrics; returns the exit code."""
    import numpy as np

    sys.path.insert(0, HERE)
    import checks
    import spans
    import workloads

    env = environment(B, np)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace)
    out.write("env %s\n" % json.dumps(env, sort_keys=True))

    make_jobs = workloads.WORKLOADS[args.workload]
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.recording = True
            jobs, _ = set_up(make_jobs, B, args.seed, repeat=False)
            plan = make_plan(jobs)
            first = run_pass(B, checks, plan, None)
            tracer.recording = False
        finally:
            tracer.uninstall()
        untraced = run_pass(B, checks, plan, first)
        ops = first + untraced
        metrics = per_layer(tracer, first, untraced)
        missing = [s for s in EXPECTED_LAYERS[args.workload]
                   if tracer.stats[s]["calls"] == 0]
        declared = declared_layers
    else:
        jobs, build_s = set_up(make_jobs, B, args.seed, repeat=True)
        plan = make_plan(jobs)
        start = time.perf_counter()
        first = run_pass(B, checks, plan, None)
        ops = list(first)
        passes = 1
        # another whole pass only if it should end within --seconds
        while (time.perf_counter() - start) * (passes + 1) / passes <= args.seconds:
            ops += run_pass(B, checks, plan, first)
            passes += 1
        metrics = end_to_end(checks, ops, first, import_s + statistics.median(build_s),
                             len(build_s), passes)
        missing = []
        declared = declared_e2e

    absent = [d["name"] for d in declared if d["name"] not in metrics]
    if absent:
        raise ConfigError("declared metrics not measured: %s" % absent)
    print_metrics(metrics, declared, out)
    failures = [op for op in ops if op.failures]
    for op in failures:
        out.write("FAILED %s %s: %s\n" % (op.job.label, op.method, "; ".join(op.failures)))
    for span in missing:
        out.write("FAILED traced layer %s made no calls on %s\n" % (span, args.workload))
    failed = len(failures) + len(missing)
    result = {
        "correct": failed == 0,
        "attempted": len(ops) + (len(EXPECTED_LAYERS[args.workload]) if args.trace else 0),
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]][0], "unit": d["unit"]}
                    for d in declared},
    }
    out.write(json.dumps(result) + "\n")
    return 0 if failed == 0 else 1


def main(argv=None):
    args = parse_args(argv)
    for v in THREAD_VARS:
        os.environ[v] = "1"
    try:
        declared_e2e, declared_layers = declared_metrics()
        B, import_s = import_binmpec()
        return bench(args, B, import_s, declared_e2e, declared_layers, sys.stdout)
    except ConfigError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
