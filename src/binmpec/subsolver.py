"""Accelerated projected gradient descent for the convex x-subproblems."""

from dataclasses import dataclass

import numpy as np

from .linalg import NormBound, SparseMatrix, matvec, spectral_norm_estimate
from .projections import project_feasible


class QuadraticObjective:
    """f(x) = 0.5 x'Ax + b'x + c with a certified gradient Lipschitz bound.

    ``norm_bound`` is the certified upper bound on ||A|| that
    ``spectral_norm_estimate`` returns, and ``lipschitz`` is 1.01 times
    it, at least 1e-9.
    """

    __slots__ = ("A", "b", "c", "lipschitz", "norm_bound")

    def __init__(self, A, b, c=0.0):
        if not isinstance(A, SparseMatrix):
            raise TypeError("A must be a SparseMatrix")
        self.norm_bound = spectral_norm_estimate(A)  # rejects a non-square or unflagged A
        self._set_terms(A, b, c)
        self.lipschitz = max(1.01 * self.norm_bound, 1e-9)
        if not np.isfinite(self.lipschitz):
            raise ValueError("the norm bound of A overflows")

    def _set_terms(self, A, b, c):
        self.A = A
        self.b = np.array(b, dtype=np.float64).reshape(-1)
        if self.b.shape[0] != A.n_rows:
            raise ValueError("b length must match A")
        if not np.all(np.isfinite(self.b)):
            raise ValueError("b must be finite")
        self.c = float(c)

    def scaled(self, alpha, b, c=0.0):
        """0.5 x'(alpha A)x + b'x + c for a finite alpha > 0.

        ||alpha A|| = alpha ||A||, so the norm bound and the Lipschitz
        bound are carried over by the same factor instead of being bounded
        again; for a power-of-two alpha both are exact.
        """
        alpha = float(alpha)
        if not 0.0 < alpha < np.inf:
            raise ValueError("scale must be finite and positive")
        out = QuadraticObjective.__new__(QuadraticObjective)
        out._set_terms(self.A.scaled(alpha), b, c)
        bound = self.norm_bound
        out.norm_bound = NormBound(alpha * bound, bound.method, alpha * bound.lam_min)
        out.lipschitz = alpha * self.lipschitz
        return out

    @property
    def n(self):
        return self.A.n_rows

    def value(self, x, Ax=None):
        """f(x); ``Ax``, when given, is A x and saves the product."""
        if Ax is None:
            Ax = matvec(self.A, x)
        return 0.5 * float(np.dot(x, Ax)) + float(np.dot(self.b, x)) + self.c

    def grad(self, x):
        return matvec(self.A, x) + self.b


@dataclass
class SubproblemResult:
    x: np.ndarray
    objective: float
    iterations: int
    converged: bool


def check_positive(config, *names):
    """Raise ValueError unless every named field of config is finite and positive."""
    for name in names:
        value = getattr(config, name)
        if not (np.isfinite(value) and value > 0):
            raise ValueError("%s must be finite and positive" % name)


def check_counts(config, *names):
    """Raise ValueError unless every named field of config is an integer
    of at least 1; numpy integers count, bools do not."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError("%s must be an integer of at least 1" % name)


def check_schedule(config, first):
    """The settings check EpmConfig and AdmConfig share.

    ``first`` names the schedule's starting weight (rho0 or alpha0).  The
    weights and tolerances must be finite and positive, the growth factor
    sigma must exceed 1 and every count must be an integer of at least 1.
    """
    check_positive(config, first, "sigma", "feas_tol", "inner_tol")
    if config.sigma <= 1:
        raise ValueError("sigma must exceed 1")
    check_counts(config, "inner_T", "max_outer", "inner_max_iter")


class QuadraticModel:
    """The x-subproblem of every solver, on a QuadraticObjective's A:

        f(x) = 0.5 x'Ax + <l, x> + c + 0.5 mu ||x - w||^2
               + 0.5 alpha (t - <u, x>)^2

    ``linear`` (l) defaults to the objective's b, and c is the objective's.
    The two penalty terms are evaluated centred, as written: folded into
    A + mu I + alpha uu' they would bring a constant such as 0.5 alpha t^2,
    whose rounding alone exceeds FISTA's restart margin.  ``lipschitz`` =
    L_A + mu + alpha ||u||^2 bounds the gradient's Lipschitz constant.

    ``evaluate`` takes one product with A and ``grad`` reuses it; the
    product at the last evaluated point stays available through
    ``product``.
    """

    __slots__ = ("A", "linear", "c", "mu", "w", "alpha", "u", "t", "lipschitz",
                 "_x", "_Ax")

    def __init__(self, objective, linear=None, mu=0.0, w=None, alpha=0.0, u=None, t=0.0):
        self.A = objective.A
        self.linear = objective.b if linear is None else linear
        self.c = objective.c
        self.mu, self.w = float(mu), w
        self.alpha, self.u, self.t = float(alpha), u, float(t)
        if not (self.mu >= 0.0 and self.alpha >= 0.0):
            raise ValueError("penalty weights must be nonnegative")
        lipschitz = objective.lipschitz + self.mu
        if self.alpha:
            lipschitz += self.alpha * float(np.dot(u, u))
        if not (np.isfinite(lipschitz) and lipschitz > 0.0):
            raise ValueError("Lipschitz constant %r must be finite and positive"
                             % lipschitz)
        self.lipschitz = lipschitz
        self._x = self._Ax = None

    def evaluate(self, x):
        """(f(x), A x) with one product."""
        Ax = matvec(self.A, x)
        self._x, self._Ax = x, Ax
        f = 0.5 * float(np.dot(x, Ax)) + float(np.dot(self.linear, x)) + self.c
        if self.mu:
            d = x - self.w
            f += 0.5 * self.mu * float(np.dot(d, d))
        if self.alpha:
            g = self.t - float(np.dot(self.u, x))
            f += 0.5 * self.alpha * g * g
        return f, Ax

    def grad(self, x, Ax):
        """Gradient at x from the product Ax; no product of its own."""
        g = Ax + self.linear
        if self.mu:
            g += self.mu * (x - self.w)
        if self.alpha:
            g -= (self.alpha * (self.t - float(np.dot(self.u, x)))) * self.u
        return g

    def product(self, x):
        """A x, reused when x is the point evaluated last."""
        return self._Ax if x is self._x else matvec(self.A, x)


def minimize_fista(model, project, x0, tol=1e-5, max_iter=2000):
    """FISTA with a monotone restart on a QuadraticModel.

    Whenever the accelerated candidate raises the objective, the momentum
    is discarded and a plain projected-gradient step is taken instead, so
    the objective sequence never increases.  Stops when the relative
    iterate change drops below tol.  Each iteration takes one product with
    A (two on a restart): the product at an iterate serves its value and
    its next gradient, and the extrapolated point's follows by linearity,
    A y = A x_new + beta (A x_new - A x).  The returned x is the model's
    last evaluated point.
    """
    step = 1.0 / model.lipschitz
    x = project(np.asarray(x0, dtype=np.float64))
    fx, Ax = model.evaluate(x)
    y, Ay = x, Ax
    tk = 1.0
    iterations = 0
    converged = False
    for it in range(max_iter):
        x_new = project(y - step * model.grad(y, Ay))
        f_new, Ax_new = model.evaluate(x_new)
        if f_new > fx + 1e-12:
            x_new = project(x - step * model.grad(x, Ax))
            f_new, Ax_new = model.evaluate(x_new)
            tk = 1.0
        rel = np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1.0)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        beta = (tk - 1.0) / t_next
        y = x_new + beta * (x_new - x)
        Ay = Ax_new + beta * (Ax_new - Ax)
        x, Ax, fx, tk = x_new, Ax_new, f_new, t_next
        iterations = it + 1
        if rel <= tol:
            converged = True
            break
    return x, fx, iterations, converged


def solve_qp(obj, linear_extra, fset, x0, tol=1e-5, max_iter=2000):
    """Minimize obj(x) + <linear_extra, x> over the feasible set."""
    if fset.n != obj.n:
        raise ValueError("feasible set dimension mismatch")
    linear = obj.b
    if linear_extra is not None:
        extra = np.asarray(linear_extra, dtype=np.float64)
        if extra.shape[0] != obj.n:
            raise ValueError("linear_extra length mismatch")
        linear = obj.b + extra
    x, fx, iterations, converged = minimize_fista(
        QuadraticModel(obj, linear), lambda z: project_feasible(z, fset),
        x0, tol=tol, max_iter=max_iter)
    return SubproblemResult(x=x, objective=fx, iterations=iterations, converged=converged)
