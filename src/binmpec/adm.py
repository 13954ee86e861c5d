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

from .epm import PenaltyConfig, alternate
# unused here: perfbench's tracer test reads minimize_fista off this module
from .subsolver import minimize_fista  # noqa: F401


def solve_adm(problem, config=None, seed=0):
    """Run the alternating direction iteration; returns a SolveReport."""
    config = config or PenaltyConfig()
    return alternate(problem, "adm", config, seed, 0.0, config.alpha0)
