"""Exhaustive ground truth for small instances."""

import math

import numpy as np

from . import kernels
from .reformulations import domain_bounds


class SizeLimitError(ValueError):
    """Raised when the free dimension exceeds the enumeration limit."""


def brute_force(problem, limit_n=22):
    """Enumerate every binary feasible point of a problem instance.

    Returns (x_star, f_star, count_feasible).  The minimizer is unique up
    to a 1e-12 objective tolerance: ties resolve to the assignment whose
    hi-pattern reads as the smallest binary integer with coordinate 0 as
    the most significant bit.  Pinned coordinates are substituted out
    before the scan; a pin that is neither bound raises ``ValueError``.
    """
    fset = problem.feasible_set
    obj = problem.objective
    n = problem.n
    lo, hi = domain_bounds(problem.domain)

    pin = fset.pin_mask()
    free = np.nonzero(~pin)[0]
    m = free.shape[0]
    if m > limit_n:
        raise SizeLimitError("free dimension %d exceeds the enumeration limit %d"
                             % (m, limit_n))
    off = np.flatnonzero((np.abs(fset.pin_value - lo) > 1e-9)
                         & (np.abs(fset.pin_value - hi) > 1e-9))
    if off.shape[0]:
        raise ValueError("pinned value %g at index %d is not binary"
                         % (fset.pin_value[off[0]], fset.pin_index[off[0]]))

    xpin = np.zeros(n)
    xpin[fset.pin_index] = fset.pin_value
    Adense = obj.A.to_dense()
    A_ff = np.ascontiguousarray(Adense[np.ix_(free, free)])
    b_f = obj.b[free] + Adense[np.ix_(free, np.nonzero(pin)[0])] @ xpin[pin]
    c0 = (obj.c + 0.5 * float(xpin @ (Adense @ xpin)) + float(obj.b[pin] @ xpin[pin]))

    mode = 0
    k_ones = 0
    block_id = np.full(m, -1, dtype=np.int64)
    block_target = np.zeros(0, dtype=np.int64)
    if fset.sum_constraint is not None:
        mode = 1
        target = fset.sum_constraint - float(xpin[pin].sum())
        t_ones = (target - lo * m) / (hi - lo)
        k_ones = round(t_ones)
        if abs(t_ones - k_ones) > 1e-9 or not 0 <= k_ones <= m:
            raise ValueError("sum constraint admits no binary point")
    elif fset.simplex_blocks is not None:
        mode = 2
        r = fset.simplex_blocks
        nb = n // r
        full_block = np.repeat(np.arange(nb, dtype=np.int64), r)
        block_id = full_block[free]
        block_target = 1 - np.bincount(fset.pin_index // r, minlength=nb,
                                       weights=np.rint(fset.pin_value)).astype(np.int64)
        if np.any(block_target < 0):
            raise ValueError("pins oversubscribe a simplex block")

    best_idx, count = kernels.binary_scan(
        A_ff, b_f, c0, lo, hi, mode, k_ones, block_id, block_target)
    if count == 0:
        raise ValueError("no feasible binary point")

    bits = (best_idx >> np.arange(m - 1, -1, -1)) & 1
    x = xpin.copy()
    x[free] = lo + bits * (hi - lo)
    f_star = obj.value(x)
    return x, float(f_star), int(count)


def feasible_count_binomial(n_free, k_ones):
    """Closed-form feasible count for a pure cardinality constraint."""
    return math.comb(n_free, k_ones)
