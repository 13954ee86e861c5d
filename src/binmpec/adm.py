"""Alternating direction method on the augmented bilinear Lagrangian.

L(x, v, rho) = f(x) + rho (n - <x, v>) + (alpha/2)(n - <x, v>)^2 with a
multiplier step rho += alpha * gap after each alternation.  The gap
n - <x, v> is nonnegative whenever x lies in the box and v in the
sqrt(n) ball, so the multiplier sequence is monotone.  The multiplier
is clamped at twice the objective's function Lipschitz bound: past that
threshold the Lagrangian is already exact, so extra multiplier mass
only hurts conditioning.
"""

import time
from dataclasses import dataclass

import numpy as np

from .problems import SolverView, finish_solve
from .subsolver import QuadraticModel, check_schedule, minimize_fista

ALPHA_CAP = 1e6


@dataclass
class AdmConfig:
    alpha0: float = 0.001
    sigma: float = float(np.sqrt(10.0))
    inner_T: int = 10
    feas_tol: float = 1e-8
    max_outer: int = 100
    inner_tol: float = 1e-5
    inner_max_iter: int = 2000

    def __post_init__(self):
        check_schedule(self, "alpha0")


@dataclass
class RankOneQp:
    """min 0.5 x'(gamma I + b b')x + <x, c> over the ball ||x|| <= beta."""

    gamma: float
    b: np.ndarray
    c: np.ndarray
    beta: float

    def __post_init__(self):
        self.gamma = float(self.gamma)
        self.beta = float(self.beta)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.c = np.asarray(self.c, dtype=np.float64)
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.b.shape != self.c.shape:
            raise ValueError("b and c must have equal length")


def solve_rank_one_ball_qp(q, tol=1e-10):
    """Global minimizer via the dual scalar theta >= 0.

    The stationarity system gives x(theta) = -(gamma I + theta I + bb')^{-1} c,
    expanded by the Sherman-Morrison identity; ||x(theta)|| is monotone
    decreasing, so the boundary case reduces to a one-dimensional
    bisection.  Returns (x, theta) satisfying the KKT conditions.
    """
    r = float(np.dot(q.b, q.b))
    t = float(np.dot(q.b, q.c))
    cnorm = float(np.linalg.norm(q.c))
    # split c against span{b}: evaluating the Sherman-Morrison form as
    # -c_perp/eta - b t/(r(eta+r)) avoids the cancellation of two huge
    # parallel terms when eta is tiny and c is nearly parallel to b
    c_perp = q.c - (t / r) * q.b if r > 0.0 else q.c

    def x_of(theta):
        eta = q.gamma + theta
        if r > 0.0:
            return -c_perp / eta - q.b * (t / (r * (eta + r)))
        return -q.c / eta

    if cnorm == 0.0:
        return np.zeros_like(q.c), 0.0

    theta_lo = 0.0 if q.gamma > 0.0 else 1e-14
    x0 = x_of(max(theta_lo, 1e-300))
    if float(np.linalg.norm(x0)) <= q.beta * (1.0 + 1e-12):
        return x0, theta_lo

    theta_hi = max(cnorm / q.beta - q.gamma, theta_lo) + 1.0
    for _ in range(200):
        if float(np.linalg.norm(x_of(theta_hi))) <= q.beta:
            break
        theta_hi *= 2.0
    for _ in range(300):
        if theta_hi - theta_lo <= tol * max(1.0, theta_hi):
            break
        mid = 0.5 * (theta_lo + theta_hi)
        if float(np.linalg.norm(x_of(mid))) > q.beta:
            theta_lo = mid
        else:
            theta_hi = mid
    return x_of(theta_hi), theta_hi


def adm_v_update(x, rho, alpha, n):
    """Closed-form v-step: minimize over the sqrt(n) ball.

    With u = <x, v>, the objective 0.5 alpha u^2 - (rho + alpha n) u is
    minimized at u* = min((rho + alpha n)/alpha, sqrt(n)||x||); since
    (rho + alpha n)/alpha = n + rho/alpha >= n >= sqrt(n)||x|| on the box,
    the ball constraint always saturates and v = sqrt(n) x / ||x||.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = np.asarray(x, dtype=np.float64)
    nrm = float(np.linalg.norm(x))
    if nrm <= 1e-12:
        return np.zeros_like(x)
    u_star = min((rho + alpha * n) / alpha, np.sqrt(n) * nrm)
    return (u_star / (nrm * nrm)) * x


def solve_adm(problem, config=None, seed=0):
    """Run the alternating direction iteration; returns a SolveReport."""
    config = config or AdmConfig()
    start = time.perf_counter()
    view = SolverView(problem)
    obj = view.objective
    n = view.n
    l_hat = view.function_lipschitz()

    x = view.initial_point(seed)
    project = view.warm_projector()
    v = np.zeros(n)
    rho = 0.0
    rho_cap = 2.0 * l_hat
    alpha = config.alpha0
    trace = []
    t = 0
    converged = False
    outer_used = 0
    gap = float(n)
    for outer in range(config.max_outer):
        outer_used = outer + 1
        for _ in range(config.inner_T):
            # the Lagrangian less its constant rho * n, which moves no step
            model = QuadraticModel(obj, obj.b - rho * v, alpha=alpha, u=v, t=n)
            x, _, _, _ = minimize_fista(
                model, project, x,
                tol=config.inner_tol, max_iter=config.inner_max_iter)
            v = adm_v_update(x, rho, alpha, n)
            gap = float(n) - float(np.dot(x, v))
            rho = min(rho + alpha * gap, rho_cap)
            t += 1
            trace.append((t, obj.value(x, model.product(x)), gap, rho))
            if gap <= config.feas_tol:
                converged = True
                break
        if converged:
            break
        alpha = min(alpha * config.sigma, ALPHA_CAP)

    return finish_solve(problem, "adm", view.to_original(x), start, gap, outer_used,
                        trace, converged, x_relaxed=x, l_hat=l_hat, rho_cap=rho_cap)
