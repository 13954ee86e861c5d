"""Output checks that read only the stored problem data.

Nothing here calls binmpec code: objectives are recomputed from the CSR
arrays with numpy, and constraints are rechecked from the feasible set's
fields.  Each check returns a list of readable failures, empty when the
output is correct.
"""

import numpy as np


def _bounds(problem):
    return (-1.0, 1.0) if problem.domain == "pm1" else (0.0, 1.0)


def tolerance(f):
    """Absolute slack for comparing objective values near f."""
    return 1e-9 * max(1.0, abs(f))


def objective(problem, x):
    """0.5 x'Ax + b'x + c from the instance's stored arrays."""
    obj = problem.objective
    A = obj.A
    x = np.asarray(x, dtype=np.float64)
    rows = np.repeat(np.arange(A.n_rows), np.diff(A.row_offsets))
    Ax = np.bincount(rows, weights=A.values * x[A.col_indices], minlength=A.n_rows)
    return 0.5 * float(x @ Ax) + float(obj.b @ x) + obj.c


def objective_floor(problem):
    """c + sum_i min(b_i lo, b_i hi): a lower bound, since A is PSD."""
    lo, hi = _bounds(problem)
    b = problem.objective.b
    return problem.objective.c + float(np.minimum(b * lo, b * hi).sum())


def binary_violations(problem, x):
    """Box, pins, sum and blocks of a claimed binary feasible point."""
    lo, hi = _bounds(problem)
    fs = problem.feasible_set
    x = np.asarray(x, dtype=np.float64)
    out = []
    if x.shape != (problem.n,):
        return ["x has shape %r, expected (%d,)" % (x.shape, problem.n)]
    if not np.all((x == lo) | (x == hi)):
        out.append("x is not binary in {%g, %g}" % (lo, hi))
    for i, v in fs.pinned:
        if x[i] != v:
            out.append("pin %d: %g != %g" % (i, x[i], v))
    if fs.sum_constraint is not None and abs(x.sum() - fs.sum_constraint) > 1e-9:
        out.append("sum %g != %g" % (x.sum(), fs.sum_constraint))
    if fs.simplex_blocks is not None:
        sums = x.reshape(-1, fs.simplex_blocks).sum(axis=1)
        if np.any(sums != 1.0):
            out.append("%d blocks do not sum to 1" % int((sums != 1.0).sum()))
    return out


def report_failures(problem, report, parsed, f_star=None):
    """Failures of one solve: feasibility, objective, oracle bound, JSON."""
    out = []
    if not report.feasible:
        out.append("solver returned feasible=False")
    out += binary_violations(problem, report.x_binary)
    f = objective(problem, report.x_binary)
    if abs(f - report.objective_binary) > tolerance(f):
        out.append("objective_binary %r, recomputed %r" % (report.objective_binary, f))
    if f_star is not None and report.objective_binary < f_star - tolerance(f_star):
        out.append("objective %r beats the enumerated optimum %r"
                   % (report.objective_binary, f_star))
    if parsed != report:
        out.append("SolveReport.from_json(to_json()) differs from the report")
    return out


def oracle_failures(problem, result):
    """Failures of one enumeration: a feasible minimizer with its value."""
    x, f_star, count = result
    out = binary_violations(problem, x)
    if count < 1:
        out.append("no feasible point counted")
    f = objective(problem, x)
    if abs(f - f_star) > tolerance(f):
        out.append("f* %r, recomputed %r" % (f_star, f))
    return out
