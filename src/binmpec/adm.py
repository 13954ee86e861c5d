"""Alternating direction method on the augmented bilinear Lagrangian.

L(x, v, rho) = f(x) + rho (n - <x, v>) + (alpha/2)(n - <x, v>)^2 with a
multiplier step rho += alpha * gap after each alternation: ``epm.alternate``
started at rho = 0, escalating alpha.  The gap n - <x, v> is nonnegative
whenever x lies in the box and v in the sqrt(n) ball, so the multiplier
sequence is monotone.  The v-step sees v only through u = <x, v>, and
since rho >= 0 and x lies in the box its unconstrained optimum
u = n + rho/alpha is at least n >= sqrt(n)||x||, so the ball binds and
the step is epm's v = sqrt(n) x / ||x||, free of rho and alpha.
"""

from dataclasses import dataclass

import numpy as np

from .epm import ALPHA_CAP, alternate
from .subsolver import check_schedule
# unused here: perfbench's tracer test reads minimize_fista off this module
from .subsolver import minimize_fista  # noqa: F401


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
    return alternate(problem, "adm", config, seed, 0.0, config.alpha0)
