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
    order, read-only), ``pinned_total`` (their sum), the pin mask, for a
    sum constraint ``sum_map`` (see ``_prepare_sum``) and, for simplex
    blocks, ``block_groups`` (see ``_group_blocks``).
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
        object.__setattr__(self, "sum_map", None)
        if self.sum_constraint is not None:
            object.__setattr__(self, "sum_map", _prepare_sum(
                lo, up, mask, self.sum_constraint - self.pinned_total))
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
            pinned_at = np.zeros(n)
            pinned_at[pin_index] = pin_value
            object.__setattr__(self, "block_groups",
                               _group_blocks(mask.reshape(-1, r), pinned_at))

    @property
    def n(self):
        return self.lower.shape[0]

    def pin_mask(self):
        """Read-only mask of the pinned coordinates."""
        return self._pin_mask


def _prepare_sum(lo, up, mask, k_free):
    """(free, lo, span, target): the sum projection as one capped simplex.

    ``free`` indexes the unpinned coordinates (a full slice when nothing
    is pinned); their bounds must share one ``lo`` and one ``lo + span``.
    The affine map y = (x - lo) / span takes them to [0, 1], where their
    sum must be ``target``.  Projection commutes with that map.  A zero
    span leaves nothing to project, and its target is unused.
    """
    free = slice(None)
    if mask.any():
        free = np.flatnonzero(~mask)
        free.flags.writeable = False
    lof, upf = lo[free], up[free]
    if lof.shape[0] == 0:
        return free, 0.0, 0.0, 0.0
    lo0 = float(lof[0])
    hi0 = float(upf[0])
    if np.any(lof != lo0) or np.any(upf != hi0):
        raise ValueError("sum constraint requires uniform bounds on free coordinates")
    span = hi0 - lo0
    target = (k_free - lof.shape[0] * lo0) / span if span > 0 else 0.0
    return free, lo0, span, target


def _group_blocks(pin2, pinned_at):
    """Blocks grouped by their number of free coordinates.

    One (blocks, free_idx, target) triple per count f, ascending: the
    block numbers, a (blocks x f) array of the coordinates that are free
    in each, in index order, and each block's free target, 1 minus the
    sum of its pins (summed in index order), read-only.
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


def project_box(a, fset):
    """Clamp to the box, then overwrite pinned coordinates."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape[0] != fset.n:
        raise ValueError("dimension mismatch")
    x = np.clip(a, fset.lower, fset.upper)
    x[fset.pin_index] = fset.pin_value
    return x


class WarmStart:
    """The threshold of the last capped-simplex projection of one solve.

    Passed to ``project_capped_simplex`` (through ``project_feasible``),
    it lets the next 1-D call start Newton from that threshold instead of
    sorting.  A fresh instance holds no threshold, so its first call
    sorts.  One instance belongs to one solve; nothing else shares it.
    """

    __slots__ = ("tau",)

    def __init__(self):
        self.tau = None


NEWTON_STEPS = 6  # warm Newton steps before the sorted walk takes over


def project_capped_simplex(a, k, warm=None):
    """Projection onto {0 <= x <= 1, sum(x) = k} by break point search.

    O(n log n): the 2n break points are sorted once, then a single walk
    locates the crossing of the piecewise-linear coordinate-sum function.
    A 2-D ``a`` projects each row onto its own capped simplex, with ``k``
    one target per row (or one for all rows).  Each row target must lie
    in [0, 1], where the cap never binds: a row is sorted once and its
    threshold comes from the sorted prefix sums, with no correction step.
    A target that is not finite is infeasible.

    With a ``WarmStart`` a 1-D call returns an already feasible ``a``
    unchanged, so its own output comes back bit for bit.  Feasible means
    in [0, 1] with a sum within 1e-13 of k, or within four ulps of k once
    that is wider (k >= 512), since a float sum there lands no closer.
    Otherwise the threshold comes from Newton started at the last one (see
    ``_newton_tau``); the sort runs only when there is none or Newton does
    not settle, and Newton then refines the walk's threshold.  2-D calls
    ignore ``warm``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 2:
        return _project_capped_rows(a, k)
    n = a.shape[0]
    k = float(k)
    if not -1e-9 <= k <= n + 1e-9:  # NaN and inf fail too
        raise ValueError("target sum %g infeasible for %d coordinates in [0, 1]" % (k, n))
    if n == 0:
        return a.copy()
    if k <= 1e-13:
        return np.zeros(n)
    if k >= n - 1e-13:
        return np.ones(n)
    if warm is None:
        tau = _sorted_tau(a, n, k)
    else:
        if (abs(a.sum() - k) <= max(1e-13, 4.0 * np.spacing(k))
                and a.min() >= 0.0 and a.max() <= 1.0):
            return a.copy()
        tau = _newton_tau(a, k, warm.tau)
        if tau is None:
            # the walk's threshold can miss k by its rounding with nothing
            # left strictly inside (0, 1) for the correction; Newton settles it
            walk = _sorted_tau(a, n, k)
            tau = _newton_tau(a, k, walk)
            if tau is None:
                tau = walk
        warm.tau = tau
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


def _sorted_tau(a, n, k):
    bvals = np.concatenate((a - 1.0, a))
    deltas = np.concatenate((np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64)))
    order = np.argsort(bvals, kind="stable")
    return kernels.simplex_walk(bvals[order], deltas[order], n, k)


def _newton_tau(a, k, tau):
    """Crossing of g(tau) = sum clip(a - tau, 0, 1) = k by Newton from tau.

    g is linear between break points, with slope minus the number of
    coordinates strictly inside (0, 1); the piece is fixed by how many
    a - tau reach 1 and how many exceed 0, both monotone in tau.  A step
    solves the linear equation of its piece, so a step that stays on its
    piece lands on the crossing.  On a flat piece that misses k the step
    starts from the piece's edge toward k, with the slope just past it.
    Returns None, for the sorted walk to decide, when there is no
    threshold yet or after NEWTON_STEPS steps without settling (Newton
    can cycle on a function that is neither convex nor concave).  See
    Cominetti, Mascarenhas & Silva 2014 for Newton on this problem.
    """
    if tau is None:
        return None
    piece = None
    for _ in range(NEWTON_STEPS):
        d = a - tau
        top = np.count_nonzero(d >= 1.0)
        pos = np.count_nonzero(d > 0.0)
        if (top, pos) == piece:
            return tau
        miss = np.clip(d, 0.0, 1.0).sum() - k
        if abs(miss) <= 1e-13:
            return tau
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
    k = np.broadcast_to(np.asarray(k, dtype=np.float64), (m,))
    ok = (k >= -1e-9) & (k <= min(n, 1.0) + 1e-9)  # NaN fails both
    if not ok.all():
        bad = k[~ok][0]
        if -1e-9 <= bad <= n + 1e-9:
            raise ValueError("row target %g above 1; 2-D calls take targets in [0, 1]" % bad)
        raise ValueError("target sum %g infeasible for %d coordinates in [0, 1]" % (bad, n))
    if n == 0:
        return a.copy()
    tau = kernels.simplex_walk(np.sort(a, axis=1)[:, ::-1], None, n, k)
    return np.clip(a - tau[:, None], 0.0, 1.0)


def project_feasible(a, fset, warm=None):
    """Exact projection dispatcher for a full FeasibleSet.

    ``warm``, a ``WarmStart``, is handed to the capped-simplex projection
    of a sum constraint; box and block sets ignore it.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape[0] != fset.n:
        raise ValueError("dimension mismatch")
    if fset.sum_constraint is None and fset.simplex_blocks is None:
        return project_box(a, fset)
    x = np.empty_like(a)
    x[fset.pin_index] = fset.pin_value

    if fset.sum_constraint is not None:
        free, lo, span, target = fset.sum_map
        if span > 0:
            y = project_capped_simplex((a[free] - lo) / span, target, warm)
            x[free] = lo + span * y
        else:
            x[free] = lo
        return x

    # simplex blocks: one row-wise projection per count of free coordinates
    for _, free_idx, target in fset.block_groups:
        x[free_idx] = project_capped_simplex(a[free_idx], target)
    return x
