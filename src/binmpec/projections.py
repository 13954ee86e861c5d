"""Exact Euclidean projections onto the feasible sets used by the solvers."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .reformulations import domain_bounds

# the ufunc behind ndarray.clip, without its Python wrapper; unlike
# np.minimum(np.maximum(...)) it keeps -0.0
try:
    from numpy._core.umath import clip as _clip  # numpy 2
except ImportError:
    from numpy.core.umath import clip as _clip  # numpy 1.24


BINARY_TOL = 1e-9  # how far a pin or a target may sit from a binary value


def as_integer(value, name):
    """``value`` as an int; a ValueError naming it unless it is an integer
    value, as 6, numpy's 6 or 6.0 are and 6.7, "6" and nan are not."""
    if type(value) is int:  # graph edges take this path once per endpoint
        return value
    try:
        integral = int(value) == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError("%s must be an integer, got %r" % (name, value))
    return int(value)


def as_real(value, name):
    """``value`` as a float; a ValueError naming it for text, which
    ``float`` would parse, so "1" and b"1" are refused as as_integer does."""
    if isinstance(value, (str, bytes, bytearray)) or is_text_array(value):
        raise ValueError("%s must be a number, got %r" % (name, value))
    return float(value)


def is_text_array(a):
    """Whether ``a`` is an array of strings or bytes, which numpy casts to
    floats without complaint."""
    kind = getattr(getattr(a, "dtype", None), "kind", None)
    return kind in ("U", "S") or (
        kind == "O" and any(isinstance(v, (str, bytes, bytearray)) for v in a.flat))


@dataclass(frozen=True)
class FeasibleSet:
    """The n-coordinate binary domain's box plus at most one more constraint.

    ``domain`` is ``"pm1"`` or ``"zeroone"`` (see
    ``reformulations.domain_bounds``); every coordinate lies in the box
    [lo, hi] of its two binary values.  On top of the box a set takes at
    most one of ``pinned``, which freezes coordinates, ``sum_constraint``,
    which fixes the coordinate sum to k, and ``simplex_blocks``, which
    partitions the coordinates into consecutive one-hot blocks of that
    size, one coordinate per block at hi; any two raise ``ValueError``.

    Construction prepares what projection, rounding and the oracle read:
    the floats ``lo``, ``hi`` and ``span`` = hi - lo, whose map
    y = (x - lo) / span to [0, 1] commutes with projection;
    ``pin_index``/``pin_value`` (the pins in order, read-only), the pin
    mask, ``sum_target`` (the mapped sum), and binary targets to
    ``BINARY_TOL``: ``nonbinary_pin``, the position in ``pinned`` of the
    first pin at neither bound (or None), and ``sum_ones``, the
    coordinates at hi in every binary point (-1 where there is none).
    """

    n: int
    domain: str
    sum_constraint: float | None = None
    pinned: tuple = field(default_factory=tuple)
    simplex_blocks: int | None = None

    def __post_init__(self):
        n = as_integer(self.n, "n")
        if n < 0:
            raise ValueError("coordinate count must be nonnegative, got %d" % n)
        lo, hi = domain_bounds(self.domain)
        span = hi - lo
        pinned = tuple((as_integer(i, "pinned index"), as_real(v, "pinned value"))
                       for i, v in self.pinned)
        object.__setattr__(self, "pinned", pinned)
        if (bool(self.pinned) + (self.sum_constraint is not None)
                + (self.simplex_blocks is not None)) > 1:
            raise ValueError("a feasible set takes at most one of pins, a sum constraint "
                             "and simplex blocks")
        # slack scales with the box, so SolverView's image under 2x - 1 passes too
        slack = 1e-12 * span
        seen = set()
        for i, v in self.pinned:
            if not 0 <= i < n:
                raise ValueError("pinned index %d out of range" % i)
            if i in seen:
                raise ValueError("pinned index %d repeated" % i)
            seen.add(i)
            if not (lo - slack <= v <= hi + slack):
                raise ValueError("pinned value %g outside bounds at index %d" % (v, i))
        pin_index = np.array([i for i, _ in self.pinned], dtype=np.int64)
        pin_value = np.array([v for _, v in self.pinned], dtype=np.float64)
        mask = np.zeros(n, dtype=bool)
        mask[pin_index] = True
        for arr in (pin_index, pin_value, mask):
            arr.flags.writeable = False
        at_bound = ((np.abs(pin_value - lo) <= BINARY_TOL)
                    | (np.abs(pin_value - hi) <= BINARY_TOL))
        prep = {"n": n, "lo": lo, "hi": hi, "span": span,
                "pin_index": pin_index, "pin_value": pin_value, "_pin_mask": mask,
                "nonbinary_pin": None if at_bound.all() else int(np.argmin(at_bound)),
                "sum_target": None, "sum_ones": None}
        if self.sum_constraint is not None:
            k = prep["sum_constraint"] = as_real(self.sum_constraint, "sum_constraint")
            slack = 1e-9 * span
            if not (n * lo - slack <= k <= n * hi + slack):
                raise ValueError("sum constraint %g infeasible for the box" % k)
            target = (k - n * lo) / span if n else 0.0
            prep.update(sum_target=target, sum_ones=_ones(target, n))
        if self.simplex_blocks is not None:
            r = prep["simplex_blocks"] = as_integer(self.simplex_blocks, "simplex_blocks")
            if r < 1 or n % r != 0:
                raise ValueError("block size %d does not partition %d coordinates" % (r, n))
        for name, value in prep.items():
            object.__setattr__(self, name, value)

    def pin_mask(self):
        """Read-only mask of the pinned coordinates."""
        return self._pin_mask


def _ones(target, cap):
    """The integer within BINARY_TOL of a mapped target, if in [0, cap]; else -1."""
    t = round(target)
    return t if abs(target - t) <= BINARY_TOL and 0 <= t <= cap else -1


def _check_shape(a, fset):
    if a.shape != (fset.n,):
        raise ValueError("dimension mismatch: the set has %d coordinates, the input "
                         "has shape %r" % (fset.n, a.shape))


def project_box(a, fset):
    """Clamp to the box, then overwrite pinned coordinates."""
    a = np.asarray(a, dtype=np.float64)
    _check_shape(a, fset)
    return _box_projector(fset)(a)


def _box_projector(fset):
    lo, hi = fset.lo, fset.hi
    if not fset.pinned:
        return lambda a: _clip(a, lo, hi)
    pin_index, pin_value = fset.pin_index, fset.pin_value

    def project(a):
        x = _clip(a, lo, hi)
        x[pin_index] = pin_value
        return x
    return project


NEWTON_STEPS = 6  # Newton steps before the sorted walk takes over


def project_capped_simplex(a, k):
    """Projection onto {0 <= x <= 1, sum(x) = k}: Newton on the threshold.

    A 1-D call returns an already feasible ``a`` unchanged, so its own
    output comes back bit for bit.  Feasible means in [0, 1] with a sum
    within 1e-13 of k, or within four ulps of k once that is wider
    (k >= 512), since a float sum there lands no closer.  Otherwise the
    threshold comes from Newton (see ``_newton_tau``), started at the
    sorted walk's: the 2n break points are sorted once, O(n log n), and a
    single walk locates the crossing of the piecewise-linear
    coordinate-sum function.  The walk's threshold stands unrefined only
    when Newton from it does not settle.  There is no correction step.

    A 2-D ``a`` projects each row onto its own capped simplex, with ``k``
    one target per row (or one for all rows).  Each row target must lie
    in [0, 1], where the cap never binds: a row is sorted once and its
    threshold comes from the sorted prefix sums.  A target that is not
    finite is infeasible.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 2:
        return _project_capped_rows(a, k)
    n = a.shape[0]
    k, tol = _checked_target(k, n)
    fixed = _fixed_point(n, k)
    if fixed is not None:
        return fixed
    return _capped_vector(a, n, k, tol, None)[1]


def _checked_target(k, n):
    """k as a float, and the tolerance to which a sum meets it.

    Raises unless k lies in [0, n] to 1e-9 (NaN and inf fail too).
    """
    k = float(k)
    if not -1e-9 <= k <= n + 1e-9:
        raise ValueError("target sum %g infeasible for %d coordinates in [0, 1]" % (k, n))
    return k, max(1e-13, 4.0 * math.ulp(k))


def _fixed_point(n, k):
    """The projection when every point has the same one (n = 0 included), else None."""
    if k <= 1e-13:
        return np.zeros(n)
    if k >= n - 1e-13:
        return np.ones(n)
    return None


def _capped_vector(a, n, k, tol, tau):
    """(tau, x): the 1-D projection x of ``a`` once its target k is
    checked and not fixed, and its threshold.

    Newton starts at ``tau`` (None: cold) and falls back to the sorted
    walk when it does not settle from there.  An already feasible ``a``
    comes back as a copy, with ``tau`` as passed.
    """
    if (abs(np.add.reduce(a) - k) <= tol
            and np.minimum.reduce(a) >= 0.0 and np.maximum.reduce(a) <= 1.0):
        return tau, a.copy()
    found = None if tau is None else _newton_tau(a, k, tau)
    if found is None:
        walk = _sorted_tau(a, n, k)
        found = _newton_tau(a, k, walk)
        if found is None:
            found = walk, _clip(a - walk, 0.0, 1.0)
    return found


def _sorted_tau(a, n, k):
    bvals = np.concatenate((a - 1.0, a))
    order = np.argsort(bvals, kind="stable")
    # the first n break points, a - 1, turn a slope on; the last n turn it off
    deltas = np.where(order < n, 1, -1)
    return kernels.simplex_walk(bvals[order], deltas, n, k)


def _newton_tau(a, k, tau):
    """(tau, clip(a - tau, 0, 1)) at the crossing of g(tau) = k, by Newton.

    g(tau) = sum clip(a - tau, 0, 1) is linear between break points, with
    slope minus the number of coordinates strictly inside (0, 1); the
    piece is fixed by how many a - tau reach 1 and how many exceed 0, both
    monotone in tau, and both are counted on the clipped vector x, as its
    entries equal to 1 and its nonzero entries.  A step solves the linear
    equation of its piece, so a step that stays on its piece lands on the
    crossing.  On a flat piece that misses k the step starts from the
    piece's edge toward k, with the slope just past it.  Returns None
    after NEWTON_STEPS steps without settling (Newton can cycle on a
    function that is neither convex nor concave).  See Cominetti,
    Mascarenhas & Silva 2014 for Newton on this problem.
    """
    piece = None
    for _ in range(NEWTON_STEPS):
        d = a - tau
        x = _clip(d, 0.0, 1.0)
        miss = np.add.reduce(x) - k
        if abs(miss) <= 1e-13:
            return tau, x
        top = np.count_nonzero(x == 1.0)
        pos = np.count_nonzero(x)
        if (top, pos) == piece:
            return tau, x
        if pos > top:
            tau += miss / (pos - top)
        elif miss < 0.0:
            # the largest coordinates at 0 turn on below their a
            edge = a[d <= 0.0].max()
            tau = edge + miss / np.count_nonzero(a == edge)
        else:
            # the smallest coordinates at 1 turn off above their a - 1
            edge = a[d >= 1.0].min()
            tau = (edge - 1.0) + miss / np.count_nonzero(a == edge)
        piece = (top, pos)
    return None


def _project_capped_rows(a, k):
    m, n = a.shape
    k = _checked_row_targets(k, m, n)
    if n == 0:
        return a.copy()
    return _capped_rows(a, n, k)


def _checked_row_targets(k, m, n):
    """m row targets for rows of n coordinates, as floats; raises unless
    each lies in [0, min(n, 1)] to 1e-9."""
    k = np.asarray(k, dtype=np.float64)
    if k.shape != (m,):
        k = np.broadcast_to(k, (m,))
    cap = min(n, 1.0) + 1e-9
    # a NaN target makes both reductions NaN, and NaN fails both tests
    if not (k.min(initial=0.0) >= -1e-9 and k.max(initial=0.0) <= cap):
        bad = k[~((k >= -1e-9) & (k <= cap))][0]
        if -1e-9 <= bad <= n + 1e-9:
            raise ValueError("row target %g above 1; 2-D calls take targets in [0, 1]" % bad)
        raise ValueError("target sum %g infeasible for %d coordinates in [0, 1]" % (bad, n))
    return k


def _capped_rows(a, n, k):
    """The row-wise projection of an (m, n) ``a``, n > 0, onto checked targets k."""
    # one column per row: the kernel reduces along axis 0 of a contiguous
    # (n, m) array, with no per-row loop
    cols = a.T.copy()
    cols.sort(axis=0)
    tau = kernels.simplex_walk(cols[::-1], None, n, k)
    x = a - tau[:, None]
    return _clip(x, 0.0, 1.0, out=x)


def project_feasible(a, fset):
    """Exact projection dispatcher for a full FeasibleSet; ``a`` must have
    shape (n,).

    The checked entry for one-shot calls; a solve's x-steps project
    through one ``projector`` instead.  A sum or block set projects
    ``a``'s image in [0, 1] whole, the blocks as its rows.
    """
    a = np.asarray(a, dtype=np.float64)
    _check_shape(a, fset)
    if fset.sum_constraint is None and fset.simplex_blocks is None:
        return _box_projector(fset)(a)
    y = _to_unit(a, fset.lo, fset.span)
    if fset.sum_constraint is not None:
        y = project_capped_simplex(y, fset.sum_target)
    else:
        y = project_capped_simplex(y.reshape(-1, fset.simplex_blocks), 1.0).reshape(-1)
    return _from_unit(y, fset.lo, fset.span)


def projector(fset, warm=False):
    """The projection onto ``fset`` as one callable, built once per solve.

    ``projector(fset)(a)`` gives the bytes of ``project_feasible(a, fset)``
    for a float64 ``a`` of shape (n,), which it does not check.  With
    ``warm``, a sum set's projector keeps the threshold of its last
    capped-simplex projection and starts Newton there, so the 2n break
    points are sorted only on its first call or when Newton falls back;
    one solve's x-steps share one.  What depends only on the set is settled
    here: its kind and pins, the unit map's lo and span, and a sum
    target's fixed points and tolerance.  A call runs only the
    floating-point work, through the same helpers as
    ``project_capped_simplex``.
    """
    if fset.sum_constraint is not None:
        return _sum_projector(fset, warm)
    if fset.simplex_blocks is not None:
        return _block_projector(fset)
    return _box_projector(fset)


def _sum_projector(fset, warm):
    lo, span, n = fset.lo, fset.span, fset.n
    k, tol = _checked_target(fset.sum_target, n)
    fixed = _fixed_point(n, k)
    if fixed is not None:  # one point for every input
        x = _from_unit(fixed, lo, span)
        return lambda a: x.copy()
    tau = None  # the last threshold, kept only when warm

    def project(a):
        nonlocal tau
        last, y = _capped_vector(_to_unit(a, lo, span), n, k, tol, tau)
        if warm:
            tau = last
        return _from_unit(y, lo, span)
    return project


def _block_projector(fset):
    lo, span, r = fset.lo, fset.span, fset.simplex_blocks
    shape, ones = (-1, r), np.ones(fset.n // r)
    return lambda a: _from_unit(_capped_rows(_to_unit(a, lo, span).reshape(shape), r, ones),
                                lo, span).reshape(-1)


def _to_unit(a, lo, span):
    """(a - lo) / span, as a new array."""
    y = a - lo
    y /= span
    return y


def _from_unit(y, lo, span):
    """lo + span * y, in place on y, a projection's own output."""
    y *= span
    y += lo
    return y
