"""Accelerated projected gradient descent for the convex x-subproblems."""

import math
import numbers

import numpy as np

from .linalg import SparseMatrix, check_dimension, matvec

# every x-step's FISTA tolerance and iteration budget: epm's and adm's
# (PenaltyConfig.inner_tol, inner_max_iter) and l2box's
INNER_TOL = 1e-5
INNER_MAX_ITER = 2000


class QuadraticObjective:
    """f(x) = 0.5 x'Ax + b'x + c with a certified gradient Lipschitz bound.

    ``norm_bound`` is A's certificate (``SparseMatrix.certificate``: an
    upper bound on ||A|| and how A >= 0 was shown), and
    ``lipschitz`` is 1.01 times the bound, at least 1e-9.
    """

    __slots__ = ("A", "b", "c", "lipschitz", "norm_bound")

    def __init__(self, A, b, c=0.0):
        if not isinstance(A, SparseMatrix):
            raise TypeError("A must be a SparseMatrix")
        self.A = A
        self.b = np.array(b, dtype=np.float64).reshape(-1)
        if self.b.shape[0] != A.n_rows:
            raise ValueError("b length must match A")
        if not np.all(np.isfinite(self.b)):
            raise ValueError("b must be finite")
        self.c = float(c)
        self.norm_bound = A.certificate()
        self.lipschitz = max(1.01 * self.norm_bound, 1e-9)
        if not np.isfinite(self.lipschitz):
            raise ValueError("the norm bound of A overflows")

    @property
    def n(self):
        return self.A.n_rows

    def value(self, x, Ax=None):
        """f(x); ``Ax``, when given, is A x and saves the product."""
        if Ax is None:
            Ax = matvec(self.A, x)
        return 0.5 * float(np.dot(x, Ax)) + float(np.dot(self.b, x)) + self.c


def check_positive(config, *names):
    """Raise ValueError unless every named field of config is a finite,
    positive real number; bools and strings do not count."""
    for name in names:
        value = getattr(config, name)
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not (math.isfinite(value) and value > 0)):
            raise ValueError("%s must be finite and positive" % name)


def check_counts(config, *names):
    """Raise ValueError unless every named field of config is an integer
    of at least 1; numpy integers count, bools do not."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError("%s must be an integer of at least 1" % name)


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
    ``product``.  Both take A's prepared product (``SparseMatrix.product``),
    bound here, which checks nothing: a point must be a float64 vector of
    shape (n,), as ``minimize_fista`` checks its start once.
    """

    __slots__ = ("A", "linear", "c", "mu", "w", "alpha", "u", "t", "lipschitz",
                 "_product", "_x", "_Ax")

    def __init__(self, objective, linear=None, mu=0.0, w=None, alpha=0.0, u=None, t=0.0):
        self.A = objective.A
        self.linear = objective.b if linear is None else np.asarray(linear)
        self.c = objective.c
        self.mu, self.w = float(mu), w
        self.alpha, self.t = float(alpha), float(t)
        self.u = None if u is None else np.asarray(u)
        if not (self.mu >= 0.0 and self.alpha >= 0.0):
            raise ValueError("penalty weights must be nonnegative")
        if (self.mu and w is None) or (self.alpha and u is None):
            raise ValueError("mu > 0 needs w and alpha > 0 needs u")
        for name, vec in (("linear", self.linear), ("w", w), ("u", self.u)):
            if vec is not None and np.shape(vec) != (self.A.n_rows,):
                raise ValueError("%s of shape %r, A has %d rows"
                                 % (name, np.shape(vec), self.A.n_rows))
        lipschitz = objective.lipschitz + self.mu
        if self.alpha:
            lipschitz += self.alpha * float(np.dot(u, u))
        if not (np.isfinite(lipschitz) and lipschitz > 0.0):
            raise ValueError("Lipschitz constant %r must be finite and positive"
                             % lipschitz)
        self.lipschitz = lipschitz
        self._product = self.A.product()
        self._x = self._Ax = None

    def evaluate(self, x):
        """(f(x), A x) with one product."""
        Ax = self._product(x)
        self._x, self._Ax = x, Ax
        f = 0.5 * float(x.dot(Ax)) + float(self.linear.dot(x)) + self.c
        if self.mu:
            d = x - self.w
            f += 0.5 * self.mu * float(d.dot(d))
        if self.alpha:
            g = self.t - float(self.u.dot(x))
            f += 0.5 * self.alpha * g * g
        return f, Ax

    def grad(self, x, Ax):
        """Gradient at x from the product Ax; no product of its own."""
        g = Ax + self.linear
        if self.mu:
            g += self.mu * (x - self.w)
        if self.alpha:
            g -= (self.alpha * (self.t - float(self.u.dot(x)))) * self.u
        return g

    def product(self, x):
        """A x, reused when x is the point evaluated last."""
        return self._Ax if x is self._x else self._product(x)


def minimize_fista(model, project, x0, tol=INNER_TOL, max_iter=INNER_MAX_ITER):
    """FISTA with a monotone restart on a QuadraticModel.

    Whenever the accelerated candidate raises the objective, the momentum
    is discarded and a plain projected-gradient step is taken instead, so
    the objective sequence never increases.  Stops when the relative
    iterate change ||x_new - x|| / max(||x||, 1) drops below tol; each
    norm is sqrt(v'v), as ``np.linalg.norm`` takes it for a 1-D vector.
    Each iteration takes one product with A (two on a restart): the
    product at an iterate serves its value and its next gradient, and the
    extrapolated point's follows by linearity, A y = A x_new + beta
    (A x_new - A x).  Both extrapolations are formed in place on fresh
    differences.  The projected start's shape is checked once, as
    ``matvec`` checks it; the model's products check nothing.  The
    returned x is the model's last evaluated point.
    """
    step = 1.0 / model.lipschitz
    x = project(np.asarray(x0, dtype=np.float64))
    check_dimension(model.A, x)
    fx, Ax = model.evaluate(x)
    x_norm = math.sqrt(float(x.dot(x)))
    y, Ay = x, Ax
    tk = 1.0
    iterations = 0
    converged = False
    for it in range(max_iter):
        x_new = project(_step(y, step, model.grad(y, Ay)))
        f_new, Ax_new = model.evaluate(x_new)
        if f_new > fx + 1e-12:
            x_new = project(_step(x, step, model.grad(x, Ax)))
            f_new, Ax_new = model.evaluate(x_new)
            tk = 1.0
        dx = x_new - x
        rel = math.sqrt(float(dx.dot(dx))) / max(x_norm, 1.0)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
        beta = (tk - 1.0) / t_next
        # y = x_new + beta dx and A y = A x_new + beta (A x_new - A x),
        # the same products and sums with no temporaries
        y = dx
        y *= beta
        y += x_new
        Ay = Ax_new - Ax
        Ay *= beta
        Ay += Ax_new
        x, Ax, fx, tk = x_new, Ax_new, f_new, t_next
        iterations = it + 1
        if rel <= tol:
            converged = True
            break
        x_norm = math.sqrt(float(x.dot(x)))
    return x, fx, iterations, converged


def _step(x, step, g):
    """x - step * g, in place on the gradient g, which is made anew per call."""
    g *= step
    return np.subtract(x, g, out=g)
