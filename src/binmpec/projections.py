"""Exact Euclidean projections onto the feasible sets used by the solvers."""

from dataclasses import dataclass, field

import numpy as np

from . import kernels


@dataclass(frozen=True)
class FeasibleSet:
    """Box bounds plus at most one coupling constraint.

    ``sum_constraint`` fixes the coordinate sum to k; ``simplex_blocks``
    partitions the coordinates into consecutive blocks of that size, each
    summing to 1 (requires a [0, 1] box).  ``pinned`` freezes individual
    coordinates.  At most one of the two coupling constraints may be set.

    Construction also caches what the projections and the rounding read
    on every call: ``pin_index``/``pin_value`` (the pins in the given
    order, read-only), ``pinned_total`` (their sum), the pin mask and,
    for simplex blocks, ``block_groups`` (see ``_group_blocks``).
    """

    lower: np.ndarray
    upper: np.ndarray
    sum_constraint: float | None = None
    pinned: tuple = field(default_factory=tuple)
    simplex_blocks: int | None = None

    def __post_init__(self):
        lo = np.array(self.lower, dtype=np.float64).reshape(-1)
        up = np.array(self.upper, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "pinned", tuple((int(i), float(v)) for i, v in self.pinned))
        if lo.shape != up.shape:
            raise ValueError("lower/upper length mismatch")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(up))):
            raise ValueError("bounds must be finite")
        if np.any(lo > up):
            raise ValueError("lower bound exceeds upper bound")
        n = lo.shape[0]
        seen = set()
        for i, v in self.pinned:
            if not 0 <= i < n:
                raise ValueError("pinned index %d out of range" % i)
            if i in seen:
                raise ValueError("pinned index %d repeated" % i)
            seen.add(i)
            if not (lo[i] - 1e-12 <= v <= up[i] + 1e-12):
                raise ValueError("pinned value %g outside bounds at index %d" % (v, i))
        if self.sum_constraint is not None and self.simplex_blocks is not None:
            raise ValueError("sum constraint and simplex blocks are mutually exclusive")
        if self.sum_constraint is not None:
            k = float(self.sum_constraint)
            object.__setattr__(self, "sum_constraint", k)
            lo_eff = lo.copy()
            up_eff = up.copy()
            for i, v in self.pinned:
                lo_eff[i] = v
                up_eff[i] = v
            if not (lo_eff.sum() - 1e-9 <= k <= up_eff.sum() + 1e-9):
                raise ValueError("sum constraint %g infeasible for the box" % k)
        pin_index = np.array([i for i, _ in self.pinned], dtype=np.int64)
        pin_value = np.array([v for _, v in self.pinned], dtype=np.float64)
        mask = np.zeros(n, dtype=bool)
        mask[pin_index] = True
        for arr in (pin_index, pin_value, mask):
            arr.flags.writeable = False
        object.__setattr__(self, "pin_index", pin_index)
        object.__setattr__(self, "pin_value", pin_value)
        object.__setattr__(self, "pinned_total", sum(v for _, v in self.pinned))
        object.__setattr__(self, "_pin_mask", mask)
        object.__setattr__(self, "block_groups", ())
        if self.simplex_blocks is not None:
            r = int(self.simplex_blocks)
            object.__setattr__(self, "simplex_blocks", r)
            if r < 1 or n % r != 0:
                raise ValueError("block size %d does not partition %d coordinates" % (r, n))
            if np.any(lo != 0.0) or np.any(up != 1.0):
                raise ValueError("simplex blocks require a [0, 1] box")
            pinned_sums = np.bincount(pin_index // r, weights=pin_value, minlength=n // r)
            over = np.flatnonzero(pinned_sums > 1.0 + 1e-12)
            if over.shape[0]:
                raise ValueError("pinned values oversubscribe block %d" % over[0])
            object.__setattr__(self, "block_groups", _group_blocks(mask.reshape(-1, r)))

    @property
    def n(self):
        return self.lower.shape[0]

    def pin_mask(self):
        """Read-only mask of the pinned coordinates."""
        return self._pin_mask


def _group_blocks(pin2):
    """Blocks grouped by their number of free coordinates.

    One (blocks, free_idx, pin_idx) triple per count f, ascending: the
    block numbers, and a (blocks x f) and a (blocks x (r - f)) array of
    the coordinates that are free and pinned in each, in index order.
    """
    nb, r = pin2.shape
    coords = np.arange(nb * r, dtype=np.int64).reshape(nb, r)
    n_free = r - pin2.sum(axis=1)
    groups = []
    for f in np.unique(n_free):
        rows = np.flatnonzero(n_free == f)
        sub, sub_pin = coords[rows], pin2[rows]
        groups.append((rows, sub[~sub_pin].reshape(rows.shape[0], f),
                       sub[sub_pin].reshape(rows.shape[0], r - f)))
    return tuple(groups)


def project_box(a, fset):
    """Clamp to the box, then overwrite pinned coordinates."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape[0] != fset.n:
        raise ValueError("dimension mismatch")
    x = np.clip(a, fset.lower, fset.upper)
    x[fset.pin_index] = fset.pin_value
    return x


def project_ball(a, radius):
    """Euclidean projection onto the origin-centered ball of given radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    a = np.asarray(a, dtype=np.float64)
    nrm = np.linalg.norm(a)
    if nrm <= radius:
        return a.copy()
    return a * (radius / nrm)


def project_capped_simplex(a, k):
    """Projection onto {0 <= x <= 1, sum(x) = k} by break point search.

    O(n log n): the 2n break points are sorted once, then a single walk
    locates the crossing of the piecewise-linear coordinate-sum function.
    A 2-D ``a`` projects each row onto its own capped simplex, with ``k``
    one target per row (or one for all rows), by the same arithmetic.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 2:
        return _project_capped_rows(a, k)
    n = a.shape[0]
    k = float(k)
    if k < -1e-9 or k > n + 1e-9:
        raise ValueError("target sum %g infeasible for %d coordinates in [0, 1]" % (k, n))
    if n == 0:
        return a.copy()
    if k <= 1e-13:
        return np.zeros(n)
    if k >= n - 1e-13:
        return np.ones(n)
    bvals = np.concatenate((a - 1.0, a))
    deltas = np.concatenate((np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64)))
    order = np.argsort(bvals, kind="stable")
    tau = kernels.simplex_walk(bvals[order], deltas[order], n, k)
    x = np.clip(a - tau, 0.0, 1.0)
    # one exact correction over the strictly free coordinates
    miss = x.sum() - k
    if abs(miss) > 1e-13:
        free = (x > 1e-12) & (x < 1.0 - 1e-12)
        nf = int(free.sum())
        if nf:
            x[free] -= miss / nf
            np.clip(x, 0.0, 1.0, out=x)
    return x


def _project_capped_rows(a, k):
    m, n = a.shape
    k = np.broadcast_to(np.asarray(k, dtype=np.float64), (m,))
    bad = (k < -1e-9) | (k > n + 1e-9)
    if bad.any():
        raise ValueError("target sum %g infeasible for %d coordinates in [0, 1]"
                         % (k[bad][0], n))
    if n == 0:
        return a.copy()
    bvals = np.concatenate((a - 1.0, a), axis=1)
    deltas = np.concatenate((np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64)))
    order = np.argsort(bvals, axis=1, kind="stable")
    tau = kernels.simplex_walk(np.take_along_axis(bvals, order, axis=1), deltas[order], n, k)
    x = np.clip(a - tau[:, None], 0.0, 1.0)
    # one exact correction over the strictly free coordinates of each row
    miss = x.sum(axis=1) - k
    fix = np.abs(miss) > 1e-13
    if fix.any():
        free = (x > 1e-12) & (x < 1.0 - 1e-12) & fix[:, None]
        step = miss / np.maximum(free.sum(axis=1), 1)
        x -= np.where(free, step[:, None], 0.0)
        np.clip(x, 0.0, 1.0, out=x)
    x[k <= 1e-13] = 0.0
    x[k >= n - 1e-13] = 1.0
    return x


def _project_uniform_box_sum(a, lo, hi, k):
    # affine map to [0, 1]: projection commutes with coordinate-wise
    # scaling plus shift, so the capped simplex routine serves any
    # uniform box with a sum constraint
    if hi <= lo:
        return np.full(a.shape[0], lo)
    span = hi - lo
    y = project_capped_simplex((a - lo) / span, (k - a.shape[0] * lo) / span)
    return lo + span * y


def project_feasible(a, fset):
    """Exact projection dispatcher for a full FeasibleSet."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape[0] != fset.n:
        raise ValueError("dimension mismatch")
    if fset.sum_constraint is None and fset.simplex_blocks is None:
        return project_box(a, fset)
    x = np.empty_like(a)
    x[fset.pin_index] = fset.pin_value

    if fset.sum_constraint is not None:
        free = ~fset.pin_mask()
        af = a[free]
        lof = fset.lower[free]
        upf = fset.upper[free]
        kf = fset.sum_constraint - fset.pinned_total
        if af.shape[0] == 0:
            if abs(kf) > 1e-9:
                raise ValueError("pins contradict the sum constraint")
            return x
        lo = float(lof[0])
        hi = float(upf[0])
        if np.any(lof != lo) or np.any(upf != hi):
            raise ValueError("sum constraint requires uniform bounds on free coordinates")
        x[free] = _project_uniform_box_sum(af, lo, hi, kf)
        return x

    # simplex blocks: one row-wise projection per count of free coordinates
    for _, free_idx, pin_idx in fset.block_groups:
        target = 1.0 - x[pin_idx].sum(axis=1)
        x[free_idx] = project_capped_simplex(a[free_idx], target)
    return x
