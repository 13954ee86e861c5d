"""Accelerated projected gradient descent for the convex x-subproblems."""

from dataclasses import dataclass

import numpy as np

from .linalg import SparseMatrix, matvec, spectral_norm_estimate
from .projections import project_feasible


class QuadraticObjective:
    """f(x) = 0.5 x'Ax + b'x + c with a validated gradient Lipschitz bound.

    ``lipschitz`` must dominate the spectral norm of A (checked against a
    power-iteration estimate with a 0.1% slack at construction).
    """

    __slots__ = ("A", "b", "c", "lipschitz", "spectral_est")

    def __init__(self, A, b, c=0.0, lipschitz=None):
        if not isinstance(A, SparseMatrix):
            raise TypeError("A must be a SparseMatrix")
        if A.n_rows != A.n_cols:
            raise ValueError("A must be square")
        if not A.symmetric:
            raise ValueError("A must carry the symmetric flag")
        self._set_terms(A, b, c)
        self.spectral_est = spectral_norm_estimate(A) if A.nnz else 0.0
        if lipschitz is None:
            lipschitz = max(1.01 * self.spectral_est, 1e-9)
        self.lipschitz = float(lipschitz)
        if self.lipschitz <= 0:
            raise ValueError("lipschitz must be positive")
        if self.lipschitz < 0.999 * self.spectral_est:
            raise ValueError("lipschitz %g below spectral estimate %g"
                             % (self.lipschitz, self.spectral_est))

    def _set_terms(self, A, b, c):
        self.A = A
        self.b = np.array(b, dtype=np.float64).reshape(-1)
        if self.b.shape[0] != A.n_rows:
            raise ValueError("b length must match A")
        if not np.all(np.isfinite(self.b)):
            raise ValueError("b must be finite")
        self.c = float(c)

    def scaled(self, alpha, b, c=0.0):
        """0.5 x'(alpha A)x + b'x + c for alpha > 0.

        ||alpha A|| = alpha ||A||, so the spectral estimate and the
        Lipschitz bound are carried over by the same factor instead of being
        estimated again; for a power-of-two alpha both are exact.
        """
        alpha = float(alpha)
        if not alpha > 0.0:
            raise ValueError("scale must be positive")
        out = QuadraticObjective.__new__(QuadraticObjective)
        out._set_terms(self.A.scaled(alpha), b, c)
        out.spectral_est = alpha * self.spectral_est
        out.lipschitz = alpha * self.lipschitz
        return out

    @property
    def n(self):
        return self.A.n_rows

    def value(self, x):
        return 0.5 * float(np.dot(x, matvec(self.A, x))) + float(np.dot(self.b, x)) + self.c

    def grad(self, x):
        return matvec(self.A, x) + self.b


@dataclass
class SubproblemResult:
    x: np.ndarray
    objective: float
    iterations: int
    converged: bool


def minimize_fista(value, grad, lipschitz, project, x0, tol=1e-5, max_iter=2000):
    """FISTA with a monotone restart.

    Accepts value/gradient callbacks so callers can add penalty or
    augmented terms on top of a quadratic.  Whenever the accelerated
    candidate raises the objective, the momentum is discarded and a plain
    projected-gradient step is taken instead, so the objective sequence
    never increases.  Stops when the relative iterate change drops below
    tol.
    """
    step = 1.0 / float(lipschitz)
    x = project(np.asarray(x0, dtype=np.float64))
    fx = value(x)
    y = x
    tk = 1.0
    iterations = 0
    converged = False
    for it in range(max_iter):
        x_new = project(y - step * grad(y))
        f_new = value(x_new)
        if f_new > fx + 1e-12:
            x_new = project(x - step * grad(x))
            f_new = value(x_new)
            tk = 1.0
        rel = np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1.0)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        y = x_new + ((tk - 1.0) / t_next) * (x_new - x)
        x, fx, tk = x_new, f_new, t_next
        iterations = it + 1
        if rel <= tol:
            converged = True
            break
    return x, fx, iterations, converged


def solve_qp(obj, linear_extra, fset, x0, tol=1e-5, max_iter=2000):
    """Minimize obj(x) + <linear_extra, x> over the feasible set."""
    if fset.n != obj.n:
        raise ValueError("feasible set dimension mismatch")
    if linear_extra is None:
        extra = np.zeros(obj.n)
    else:
        extra = np.asarray(linear_extra, dtype=np.float64)
        if extra.shape[0] != obj.n:
            raise ValueError("linear_extra length mismatch")

    def value(x):
        return obj.value(x) + float(np.dot(extra, x))

    def grad(x):
        return obj.grad(x) + extra

    x, fx, iterations, converged = minimize_fista(
        value, grad, obj.lipschitz, lambda z: project_feasible(z, fset),
        x0, tol=tol, max_iter=max_iter)
    return SubproblemResult(x=x, objective=fx, iterations=iterations, converged=converged)
