"""Alternating direction method on the augmented bilinear Lagrangian.

L(x, v, rho) = f(x) + rho (n - <x, v>) + (alpha/2)(n - <x, v>)^2 with a
multiplier step rho += alpha * gap after each alternation.  The gap
n - <x, v> is nonnegative whenever x lies in the box and v in the
sqrt(n) ball, so the multiplier sequence is monotone.  The multiplier
is clamped at twice the objective's function Lipschitz bound: past that
threshold the Lagrangian is already exact, so extra multiplier mass
only hurts conditioning.  The v-step sees v only through u = <x, v>, and
since rho >= 0 and x lies in the box its unconstrained optimum
u = n + rho/alpha is at least n >= sqrt(n)||x||, so the ball binds and
the step is epm's v = sqrt(n) x / ||x||, free of rho and alpha.
"""

import time
from dataclasses import dataclass

import numpy as np

from .epm import epm_v_update
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
        if self.alpha0 > ALPHA_CAP:
            raise ValueError("alpha0 must not exceed ALPHA_CAP = %g" % ALPHA_CAP)


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
            v = epm_v_update(x)
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
