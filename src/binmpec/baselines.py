"""Reference methods: relax-and-round, iterative hard thresholding, and
an ADMM splitting over the l2 box-sphere intersection."""

import time
from dataclasses import dataclass

import numpy as np

from .linalg import matvec
from .problems import finish_solve, round_feasible
from .projections import project_feasible, projector
from .subsolver import QuadraticModel, check_counts, check_positive, minimize_fista

MU_CAP = 1e10
LP_TOL = 1e-7  # FISTA tolerance of the lp relaxation


@dataclass
class BaselineConfig:
    tol: float = 1e-6
    max_iter: int = 500
    penalty0: float = 0.1
    sigma: float = float(np.sqrt(10.0))
    inner_T: int = 10

    def __post_init__(self):
        check_positive(self, "tol", "penalty0", "sigma")
        check_counts(self, "max_iter", "inner_T")
        if self.sigma <= 1:
            raise ValueError("sigma must exceed 1")


def solve_lp_round(problem):
    """Solve the box relaxation to high accuracy, then round feasibly.

    On bisection the relaxation's minimizer is x = 0: f = x'Lx >= 0 = f(0)
    and 0 meets sum(x) = 0.  FISTA then stops at its start, and rounding's
    lowest-index tie rule puts the first n/2 nodes at +1 and the rest at
    -1, so the answer follows the node numbering.
    """
    start = time.perf_counter()
    fs = problem.feasible_set
    x0 = project_feasible(np.full(fs.n, 0.5 * (fs.lo + fs.hi)), fs)
    x, fx, _, converged = minimize_fista(
        QuadraticModel(problem.objective), projector(fs), x0,
        tol=LP_TOL, max_iter=20000)
    rep = finish_solve(problem, "lp", x, start, 0.0, 1, [(1, fx, 0.0, 0.0)], converged,
                       x_relaxed=x, objective_relaxed=fx)
    # the second trace row is the rounded answer's objective
    rep.trace += ((2, rep.objective_binary, 0.0, 0.0),)
    return rep


def solve_iht(problem, config=None, x0=None):
    """Projected gradient with a hard binary projection each step.

    Keeps the best feasible binary iterate seen; stops when the binary
    point repeats or after max_iter steps.
    """
    config = config or BaselineConfig()
    start = time.perf_counter()
    fs = problem.feasible_set
    if fs.simplex_blocks is not None:
        raise ValueError("hard thresholding does not support assignment blocks")
    obj = problem.objective
    if x0 is None:
        x0 = np.full(fs.n, 0.5 * (fs.lo + fs.hi))
    x, ok = round_feasible(x0, fs)
    if not ok:
        raise ValueError("could not form a feasible binary starting point")
    step = 1.0 / obj.lipschitz
    best_x = x
    Ax = matvec(obj.A, x)
    best_f = obj.value(x, Ax)
    trace = [(0, best_f, 0.0, 0.0)]
    converged = False
    it = 0
    for it in range(1, config.max_iter + 1):
        # one product per step: A xn scores xn and gives the next gradient
        xn, ok = round_feasible(x - step * (Ax + obj.b), fs)
        if not ok:
            break
        Axn = matvec(obj.A, xn)
        fn = obj.value(xn, Axn)
        trace.append((it, fn, 0.0, 0.0))
        if fn < best_f:
            best_f = fn
            best_x = xn
        if np.array_equal(xn, x):
            converged = True
            break
        x, Ax = xn, Axn
    # best_x is feasible binary, so the shared rounding returns it unchanged
    return finish_solve(problem, "iht", best_x, start, 0.0, it, trace, converged)


def _sphere_step(p):
    """Nearest point on the radius-sqrt(n) sphere, n = len(p).

    Every point of the sphere is nearest to the center; the first axis
    direction is picked there so the step stays deterministic.
    """
    n = p.shape[0]
    sqrt_n = float(np.sqrt(n))
    nrm = float(np.linalg.norm(p))
    if nrm <= 1e-12:
        z = np.zeros(n)
        z[0] = sqrt_n
        return z
    return (sqrt_n / nrm) * p


def solve_l2box_admm(problem, config=None):
    """Splitting x (box) against z (radius-sqrt(n) sphere) with scaled duals.

    The sphere is the l2 surrogate for the binary vertex set; the gap
    column records n - <x, z>.
    """
    config = config or BaselineConfig()
    start = time.perf_counter()
    view = problem.solver_view
    obj = view.objective
    n = view.n

    mu = config.penalty0
    x = view.project(np.zeros(n))
    project = projector(view.feasible_set, warm=True)
    z = _sphere_step(np.zeros(n))
    u = np.zeros(n)
    trace = []
    converged = False
    it = 0
    gap = float(n)
    for it in range(1, config.max_iter + 1):
        model = QuadraticModel(obj, mu=mu, w=z - u)
        x, _, _, _ = minimize_fista(model, project, x, tol=1e-7, max_iter=2000)
        z = _sphere_step(x + u)
        u = u + x - z
        gap = float(n) - float(np.dot(x, z))
        trace.append((it, obj.value(x, model.product(x)), gap, mu))
        if float(np.linalg.norm(x - z)) <= config.tol:
            converged = True
            break
        if it % config.inner_T == 0:
            mu = min(mu * config.sigma, MU_CAP)

    return finish_solve(problem, "l2box", view.to_original(x), start, gap, it, trace,
                        converged, x_relaxed=x)
