"""Exact penalty iteration for the bilinear binary reformulation.

Minimizes f(x) + rho (n - <x, v>) over x in the box (intersected with the
problem's side constraints) and v in the sqrt(n) ball, alternating exact
block steps while escalating rho on a fixed schedule up to the cap
2 * L_hat, where L_hat bounds the objective's change per unit step over
the box.  At the cap the penalty is exact: minimizers are binary.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .problems import SolverView, round_feasible, check_binary_feasible
from .report import SolveReport
from .subsolver import QuadraticModel, minimize_fista


@dataclass
class EpmConfig:
    rho0: float = 0.01
    sigma: float = float(np.sqrt(10.0))
    inner_T: int = 10
    feas_tol: float = 1e-8
    max_outer: int = 100
    lipschitz_override: float | None = None
    inner_tol: float = 1e-5
    inner_max_iter: int = 2000

    def __post_init__(self):
        if self.rho0 <= 0:
            raise ValueError("rho0 must be positive")
        if self.sigma <= 1:
            raise ValueError("sigma must exceed 1")
        if self.inner_T < 1:
            raise ValueError("inner_T must be at least 1")
        if self.feas_tol <= 0 or self.max_outer < 1:
            raise ValueError("feas_tol must be positive and max_outer at least 1")
        if self.lipschitz_override is not None and not (
                np.isfinite(self.lipschitz_override) and self.lipschitz_override > 0):
            raise ValueError("lipschitz_override must be finite and positive")
        if not (np.isfinite(self.inner_tol) and self.inner_tol > 0):
            raise ValueError("inner_tol must be finite and positive")
        if self.inner_max_iter < 1:
            raise ValueError("inner_max_iter must be at least 1")


@dataclass
class SolverState:
    x: np.ndarray
    v: np.ndarray
    rho: float
    outer_iter: int
    gap: float
    trace: list = field(default_factory=list)


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


def _initial_x(view, seed):
    # tiny seeded noise, projected; breaks the symmetry of the all-zero
    # fixed point while keeping the first x-step within noise of the
    # plain relaxation
    rng = np.random.default_rng(seed)
    return view.project(1e-6 * rng.uniform(-1.0, 1.0, view.n))


def solve_epm(problem, config=None, seed=0):
    """Run the penalty iteration; returns a SolveReport."""
    config = config or EpmConfig()
    start = time.perf_counter()
    view = SolverView(problem)
    obj = view.objective
    n = view.n

    l_hat = (config.lipschitz_override if config.lipschitz_override is not None
             else view.function_lipschitz())
    rho_cap = 2.0 * l_hat

    state = SolverState(x=_initial_x(view, seed), v=np.zeros(n),
                        rho=min(config.rho0, rho_cap), outer_iter=0, gap=float(n))
    t = 0
    converged = False
    for outer in range(config.max_outer):
        state.outer_iter = outer + 1
        for _ in range(config.inner_T):
            x_prev = state.x
            model = QuadraticModel(obj, obj.b - state.rho * state.v)
            state.x, _, _, _ = minimize_fista(
                model, view.project, x_prev,
                tol=config.inner_tol, max_iter=config.inner_max_iter)
            state.v = epm_v_update(state.x)
            state.gap = float(n) - float(np.dot(state.x, state.v))
            t += 1
            state.trace.append((t, obj.value(state.x, model.product(state.x)),
                                state.gap, state.rho))
            x_change = (np.linalg.norm(state.x - x_prev)
                        / max(np.linalg.norm(x_prev), 1.0))
            if state.gap <= config.feas_tol and x_change <= config.inner_tol:
                converged = True
                break
        if converged:
            break
        state.rho = min(rho_cap, state.rho * config.sigma)

    y = view.to_original(state.x)
    x_binary, feasible = round_feasible(y, problem.feasible_set, problem.domain)
    feasible = feasible and check_binary_feasible(
        x_binary, problem.feasible_set, problem.domain)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    meta = dict(problem.meta)
    meta.update({"domain": problem.domain, "l_hat": l_hat, "rho_cap": rho_cap})
    return SolveReport(
        method="epm",
        problem=meta,
        x_binary=tuple(x_binary),
        objective_binary=problem.objective.value(x_binary),
        complementarity_gap_final=state.gap,
        outer_iterations=state.outer_iter,
        wall_time_ms=elapsed_ms,
        trace=tuple(state.trace),
        feasible=feasible,
        converged=converged,
        x_relaxed=tuple(state.x),
    )
