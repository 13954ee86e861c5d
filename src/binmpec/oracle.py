"""Exhaustive ground truth for small instances."""

import math

import numpy as np

from . import kernels


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
    lo, hi = fset.lo, fset.hi

    pin = fset.pin_mask()
    free = np.nonzero(~pin)[0]
    m = free.shape[0]
    if m > limit_n:
        raise SizeLimitError("free dimension %d exceeds the enumeration limit %d"
                             % (m, limit_n))
    if fset.nonbinary_pin is not None:
        i, v = fset.pinned[fset.nonbinary_pin]
        raise ValueError("pinned value %g at index %d is not binary" % (v, i))

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
        k_ones = fset.sum_ones
        if k_ones < 0:
            raise ValueError("sum constraint admits no binary point")
    elif fset.simplex_blocks is not None:
        # a block with no binary completion (target -1) leaves no point
        mode = 2
        block_id = (np.arange(n, dtype=np.int64) // fset.simplex_blocks)[free]
        block_target = fset.block_ones

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
