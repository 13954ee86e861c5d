"""Block coordinate descent on the augmented bilinear reformulation.

Both solvers minimize f(x) + rho gap + (alpha/2) gap^2, gap = n - <x, v>,
over x in the box (intersected with the problem's side constraints) and
v in the sqrt(n) ball, alternating exact block steps (``alternate``).
After each sweep the multiplier steps rho += alpha gap, clamped at
2 * L_hat, where L_hat bounds the objective's change per unit step over
the box: past that threshold the penalty is exact and minimizers are
binary.  The exact penalty method is the case alpha = 0, where the
multiplier step is idle and rho itself escalates on a fixed schedule up
to the cap; ``adm`` starts at rho = 0 and escalates alpha instead.
One ``PenaltyConfig`` holds both schedules: ``solve_epm`` reads rho0,
``solve_adm`` alpha0.
"""

import time
from dataclasses import dataclass

import numpy as np

from .problems import finish_solve
from .projections import projector
from .subsolver import (INNER_MAX_ITER, INNER_TOL, QuadraticModel, check_counts,
                        check_positive, minimize_fista)

ALPHA_CAP = 1e6


@dataclass
class PenaltyConfig:
    rho0: float = 0.01
    alpha0: float = 0.001
    sigma: float = float(np.sqrt(10.0))
    inner_T: int = 10
    feas_tol: float = 1e-8
    max_outer: int = 100
    inner_tol: float = INNER_TOL
    inner_max_iter: int = INNER_MAX_ITER

    def __post_init__(self):
        check_positive(self, "rho0", "alpha0", "sigma", "feas_tol", "inner_tol")
        if self.sigma <= 1:
            raise ValueError("sigma must exceed 1")
        if self.alpha0 > ALPHA_CAP:
            raise ValueError("alpha0 must not exceed ALPHA_CAP = %g" % ALPHA_CAP)
        check_counts(self, "inner_T", "max_outer", "inner_max_iter")


def epm_v_update(x):
    """Maximizer of <x, v> over the sqrt(n) ball: sqrt(n) x / ||x||.

    At x = 0 every feasible v is optimal; 0 is returned so the next
    x-step reduces to the plain convex relaxation.
    """
    x = np.asarray(x, dtype=np.float64)
    nrm = float(np.linalg.norm(x))
    if nrm <= 1e-12:
        return np.zeros_like(x)
    return np.sqrt(x.shape[0]) * x / nrm


def alternate(problem, method, config, seed, rho0, alpha0):
    """Alternate the x- and v-steps in rounds of ``config.inner_T`` sweeps.

    With alpha0 = 0 (the exact penalty) rho grows by sigma between rounds
    and a run stops once the gap is within ``feas_tol`` and x has settled;
    otherwise alpha grows by sigma up to ``ALPHA_CAP`` and the gap alone
    stops it.  Returns the SolveReport named ``method``.
    """
    start = time.perf_counter()
    view = problem.solver_view
    obj = view.objective
    n = view.n

    l_hat = view.function_lipschitz()
    rho_cap = 2.0 * l_hat

    x = view.initial_point(seed)
    project = projector(view.feasible_set, warm=True)
    v = np.zeros(n)
    rho = min(rho0, rho_cap)
    alpha = alpha0
    gap = float(n)
    trace = []
    t = 0
    converged = False
    outer_used = 0
    for outer in range(config.max_outer):
        outer_used = outer + 1
        for _ in range(config.inner_T):
            x_prev = x
            # the Lagrangian less its constant rho * n, which moves no step
            model = QuadraticModel(obj, obj.b - rho * v, alpha=alpha, u=v, t=n)
            x, _, _, _ = minimize_fista(
                model, project, x_prev,
                tol=config.inner_tol, max_iter=config.inner_max_iter)
            v = epm_v_update(x)
            gap = float(n) - float(np.dot(x, v))
            rho = min(rho + alpha * gap, rho_cap)
            t += 1
            trace.append((t, obj.value(x, model.product(x)), gap, rho))
            # the exact penalty (alpha = 0) also waits for x to settle
            settled = alpha or (np.linalg.norm(x - x_prev) / max(np.linalg.norm(x_prev), 1.0)
                                <= config.inner_tol)
            if gap <= config.feas_tol and settled:
                converged = True
                break
        if converged:
            break
        if alpha:
            alpha = min(alpha * config.sigma, ALPHA_CAP)
        else:
            rho = min(rho_cap, rho * config.sigma)

    return finish_solve(problem, method, view.to_original(x), start, gap, outer_used,
                        trace, converged, x_relaxed=x, l_hat=l_hat, rho_cap=rho_cap)


def solve_epm(problem, config=None, seed=0):
    """Run the penalty iteration; returns a SolveReport."""
    config = config or PenaltyConfig()
    return alternate(problem, "epm", config, seed, config.rho0, 0.0)
