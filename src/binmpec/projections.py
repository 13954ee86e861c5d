"""Exact Euclidean projections onto the feasible sets used by the solvers."""

import math
import operator
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


@dataclass(frozen=True)
class FeasibleSet:
    """The n-coordinate binary domain's box plus at most one coupling constraint.

    ``domain`` is ``"pm1"`` or ``"zeroone"`` (see
    ``reformulations.domain_bounds``); every coordinate lies in the box
    [lo, hi] of its two binary values.  ``sum_constraint`` fixes the
    coordinate sum to k; ``simplex_blocks`` partitions the coordinates into
    consecutive one-hot blocks of that size, one coordinate per block at
    hi.  ``pinned`` freezes coordinates.  At most one of the two coupling
    constraints may be set.

    Construction prepares what projection, rounding and the oracle read:
    the floats ``lo``, ``hi`` and ``span`` = hi - lo, ``free`` (the
    unpinned coordinates, in index order), whose map y = (x - lo) / span
    to [0, 1] commutes with projection;
    ``pin_index``/``pin_value`` (the pins in order, read-only),
    ``pinned_total``, the pin mask, ``sum_target`` (the free coordinates'
    mapped sum) or ``block_groups`` (see ``_group_blocks``), and binary
    targets to ``BINARY_TOL``: ``nonbinary_pin``, the position in
    ``pinned`` of the first pin at neither bound (or None); ``sum_ones``
    and ``block_ones``, the free coordinates at hi in every binary point
    (-1 where there is none).
    """

    n: int
    domain: str
    sum_constraint: float | None = None
    pinned: tuple = field(default_factory=tuple)
    simplex_blocks: int | None = None

    def __post_init__(self):
        n = operator.index(self.n)
        if n < 0:
            raise ValueError("coordinate count must be nonnegative, got %d" % n)
        lo, hi = domain_bounds(self.domain)
        span = hi - lo
        object.__setattr__(self, "pinned", tuple((as_integer(i, "pinned index"), float(v))
                                                 for i, v in self.pinned))
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
        if self.sum_constraint is not None and self.simplex_blocks is not None:
            raise ValueError("sum constraint and simplex blocks are mutually exclusive")
        pin_index = np.array([i for i, _ in self.pinned], dtype=np.int64)
        pin_value = np.array([v for _, v in self.pinned], dtype=np.float64)
        mask = np.zeros(n, dtype=bool)
        mask[pin_index] = True
        free = np.flatnonzero(~mask)
        for arr in (pin_index, pin_value, mask, free):
            arr.flags.writeable = False
        at_bound = ((np.abs(pin_value - lo) <= BINARY_TOL)
                    | (np.abs(pin_value - hi) <= BINARY_TOL))
        pinned_total = sum(v for _, v in self.pinned)
        prep = {"n": n, "lo": lo, "hi": hi, "span": span, "free": free,
                "pin_index": pin_index, "pin_value": pin_value, "_pin_mask": mask,
                "pinned_total": pinned_total,
                "nonbinary_pin": None if at_bound.all() else int(np.argmin(at_bound)),
                "sum_target": None, "sum_ones": None, "block_groups": (), "block_ones": None}
        if self.sum_constraint is not None:
            k = prep["sum_constraint"] = float(self.sum_constraint)
            m = n - pin_index.shape[0]
            slack = 1e-9 * span
            if not (pinned_total + m * lo - slack <= k <= pinned_total + m * hi + slack):
                raise ValueError("sum constraint %g infeasible for the box" % k)
            target = (k - pinned_total - m * lo) / span if m else 0.0
            prep.update(sum_target=target, sum_ones=int(_ones(target, m)))
        if self.simplex_blocks is not None:
            r = prep["simplex_blocks"] = as_integer(self.simplex_blocks, "simplex_blocks")
            if r < 1 or n % r != 0:
                raise ValueError("block size %d does not partition %d coordinates" % (r, n))
            pinned_at = np.zeros(n)
            pinned_at[pin_index] = (pin_value - lo) / span
            over = np.flatnonzero(np.bincount(pin_index // r, weights=pinned_at[pin_index],
                                              minlength=n // r) > 1.0 + 1e-12)
            if over.shape[0]:
                raise ValueError("pinned values oversubscribe block %d" % over[0])
            groups = prep["block_groups"] = _group_blocks(mask.reshape(-1, r), pinned_at)
            ones = prep["block_ones"] = np.empty(n // r, dtype=np.int64)
            for blocks, free_idx, target in groups:
                ones[blocks] = _ones(target, free_idx.shape[1])
            ones.flags.writeable = False
        for name, value in prep.items():
            object.__setattr__(self, name, value)

    def pin_mask(self):
        """Read-only mask of the pinned coordinates."""
        return self._pin_mask


def _ones(target, cap):
    """The integer within BINARY_TOL of a mapped target, if in [0, cap]; else -1."""
    t = np.rint(target)
    ok = (np.abs(target - t) <= BINARY_TOL) & (t >= 0) & (t <= cap)
    return np.where(ok, t, -1).astype(np.int64)


def _group_blocks(pin2, pinned_at):
    """Blocks grouped by their number of free coordinates.

    One (blocks, free_idx, target) triple per count f, ascending: the
    block numbers, a (blocks x f) array of the coordinates that are free
    in each, in index order, and each block's free target, 1 minus the
    sum of its mapped pins (summed in index order), read-only.
    """
    nb, r = pin2.shape
    coords = np.arange(nb * r, dtype=np.int64).reshape(nb, r)
    n_free = r - pin2.sum(axis=1)
    groups = []
    for f in np.unique(n_free):
        rows = np.flatnonzero(n_free == f)
        sub, sub_pin = coords[rows], pin2[rows]
        pin_idx = sub[sub_pin].reshape(rows.shape[0], r - f)
        target = 1.0 - pinned_at[pin_idx].sum(axis=1)
        target.flags.writeable = False
        groups.append((rows, sub[~sub_pin].reshape(rows.shape[0], f), target))
    return tuple(groups)


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
    through one ``projector`` instead.  With nothing pinned, ``a``'s image
    in [0, 1] is projected whole, the blocks as its rows, with no gather
    or scatter.
    """
    a = np.asarray(a, dtype=np.float64)
    _check_shape(a, fset)
    if fset.sum_constraint is None and fset.simplex_blocks is None:
        return project_box(a, fset)
    lo, span = fset.lo, fset.span
    if not fset.pinned:
        y = _to_unit(a, lo, span)
        if fset.sum_constraint is not None:
            return _from_unit(project_capped_simplex(y, fset.sum_target), lo, span)
        for _, free_idx, target in fset.block_groups:  # one group; none when n = 0
            y = project_capped_simplex(y.reshape(free_idx.shape), target)
        return _from_unit(y, lo, span).reshape(-1)
    x = np.empty_like(a)
    x[fset.pin_index] = fset.pin_value
    if fset.sum_constraint is not None:
        y = _to_unit(a[fset.free], lo, span)
        x[fset.free] = _from_unit(project_capped_simplex(y, fset.sum_target), lo, span)
        return x
    # simplex blocks: one row-wise projection per count of free coordinates
    for _, free_idx, target in fset.block_groups:
        y = project_capped_simplex(_to_unit(a[free_idx], lo, span), target)
        x[free_idx] = _from_unit(y, lo, span)
    return x


def projector(fset, warm=False):
    """The projection onto ``fset`` as one callable, built once per solve.

    ``projector(fset)(a)`` gives the bytes of ``project_feasible(a, fset)``
    for a float64 ``a`` of shape (n,), which it does not check.  With
    ``warm``, a sum set's projector keeps the threshold of its last
    capped-simplex projection and starts Newton there, so the 2n break
    points are sorted only on its first call or when Newton falls back;
    one solve's x-steps share one.  What depends only on the set is settled
    here: its kind and pins, the unit map's lo and span, a sum target's
    fixed points and tolerance, and the block groups with their targets.
    A call runs only the floating-point work, through the same helpers
    as ``project_capped_simplex``.  A set that ``project_feasible``
    rejects on every call (a fully pinned block off its target) is
    rejected here, with the same error.
    """
    if fset.sum_constraint is not None:
        return _sum_projector(fset, warm)
    if fset.simplex_blocks is not None:
        return _block_projector(fset)
    return _box_projector(fset)


def _sum_projector(fset, warm):
    lo, span, free = fset.lo, fset.span, fset.free
    pin_index, pin_value = fset.pin_index, fset.pin_value
    m = free.shape[0]
    k, tol = _checked_target(fset.sum_target, m)
    fixed = _fixed_point(m, k)
    if fixed is not None:  # one point for every input
        x = y = _from_unit(fixed, lo, span)
        if fset.pinned:
            x = np.empty(fset.n)
            x[pin_index] = pin_value
            x[free] = y
        return lambda a: x.copy()
    tau = None  # the last threshold, kept only when warm

    def capped(y):
        nonlocal tau
        last, x = _capped_vector(y, m, k, tol, tau)
        if warm:
            tau = last
        return x
    if not fset.pinned:
        return lambda a: _from_unit(capped(_to_unit(a, lo, span)), lo, span)

    def project(a):
        x = np.empty_like(a)
        x[pin_index] = pin_value
        x[free] = _from_unit(capped(_to_unit(a[free], lo, span)), lo, span)
        return x
    return project


def _block_projector(fset):
    lo, span = fset.lo, fset.span
    pin_index, pin_value = fset.pin_index, fset.pin_value
    # (coordinates, free count, targets) per group; a group with no free
    # coordinate holds pins only
    groups = []
    for _, free_idx, target in fset.block_groups:
        nb, f = free_idx.shape
        target = _checked_row_targets(target, nb, f)
        if f:
            groups.append((free_idx, f, target))
    if fset.pinned or not groups:  # n = 0 has no group
        def project(a):
            x = np.empty_like(a)
            x[pin_index] = pin_value
            for free_idx, f, target in groups:
                y = _capped_rows(_to_unit(a[free_idx], lo, span), f, target)
                x[free_idx] = _from_unit(y, lo, span)
            return x
        return project
    [(free_idx, f, target)] = groups
    shape = free_idx.shape
    return lambda a: _from_unit(_capped_rows(_to_unit(a, lo, span).reshape(shape), f, target),
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
