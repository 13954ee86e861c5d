"""Hot numerical kernels, vectorized numpy.

The capped-simplex walk locates a projection's threshold along one
vector; along every column of a matrix at once, for column targets in
[0, 1], the threshold comes from sorted prefix sums.  The binary scan
enumerates {lo, hi}^m by splitting the coordinates in two halves: each
half is tabulated once, and the objective of every feasible pair comes
from one matrix product per chunk.  Both are deterministic, so one seed
always gives bit-identical answers.
"""

import numpy as np

_TIE_TOL = 1e-12


def active_backend():
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


# ---------------------------------------------------------------------------
# Capped-simplex break point walk
#
# g(tau) = sum_i clip(a_i - tau, 0, 1) is piecewise linear and nonincreasing.
# Break points are {a_i - 1} (slope turns on) and {a_i} (slope turns off),
# pre-sorted ascending by the caller together with their +1/-1 slope deltas.
# The walk locates the segment where g crosses k and interpolates tau.

def _simplex_walk_vec(bvals, deltas, n, k):
    active = deltas[:-1].cumsum()
    drops = active * np.diff(bvals)
    g_at = np.empty(bvals.shape[0], dtype=np.float64)
    g_at[0] = float(n)
    g_at[1:] = float(n) - drops.cumsum()
    hit = np.nonzero(g_at[1:] <= k)[0]
    if hit.shape[0] == 0:
        return bvals[-1]
    t = hit[0]
    if active[t] > 0:
        return bvals[t] + (g_at[t] - k) / active[t]
    return bvals[t]


# block size n -> the read-only (n, 1) column 1, 2, ..., n, built once
# per size; racing threads build equal columns
_DIVISORS = {}


def simplex_walk(bvals, deltas, n, k):
    """Crossing tau of g(tau) = k.

    1-D: ``bvals`` holds the 2n break points sorted ascending, ``deltas``
    their slope changes.  2-D: ``bvals`` is (n, m), each column one input
    row of n values sorted descending, ``deltas`` is None, and each
    column's k[j] lies in [0, 1]; tau comes from the sorted prefix sums.
    Reducing along axis 0 gives the bits a row-major layout gives: each
    prefix sum still adds in order, and max does not depend on order.
    """
    if bvals.ndim == 1:
        return _simplex_walk_vec(bvals, deltas, n, float(k))
    # with k in [0, 1] the cap x <= 1 never binds, so tau is the plain
    # simplex threshold (S_rho - k) / rho, S_j the sum of the j largest and
    # rho the count of j with j*s_j > S_j - k; (S_j - k) / j rises up to
    # j = rho and does not rise after it, so tau is its maximum over j
    # (Held, Wolfe & Crowder 1974; Duchi et al. 2008; Condat 2016)
    csum = bvals.cumsum(axis=0)
    csum -= k
    divisors = _DIVISORS.get(n)
    if divisors is None:
        divisors = np.arange(1.0, n + 1.0)[:, None]
        divisors.flags.writeable = False
        _DIVISORS[n] = divisors
    csum /= divisors
    return np.maximum.reduce(csum, axis=0)


# ---------------------------------------------------------------------------
# Split-half binary scan
#
# Minimizes 0.5 x'Ax + b'x + c0 over x in {lo, hi}^m subject to an optional
# cardinality constraint (mode 1: exactly k_ones coordinates at hi) or
# block partition constraint (mode 2: block sums of hi-coordinates match
# block_target).  The minimizer is reported as the lexicographic integer of
# its hi-pattern (coordinate 0 is the most significant bit); ties within
# _TIE_TOL resolve to the lowest index.
#
# Meet in the middle (Horowitz & Sahni 1974): H is the first m // 2
# coordinates (the high bits of the index), L the rest, and
#     f(x) = f_H(x_H) + f_L(x_L) + x_H' A_HL x_L,
# so each half is enumerated once and the objective of every pair comes
# from one BLAS product, T = (Y_H A_HL) Y_L' + f_H + f_L.  Feasibility is
# settled by grouping, not masking: a row's key is its vector of per-block
# hi counts in mixed radix, and an H row pairs only with the L rows whose
# key completes the target's.  Mode 1 is one block holding every
# coordinate; mode 0 gives every row key 0.  Each group's H rows are cut
# into chunks so a table holds at most _CHUNK_CELLS entries (or one row,
# if a row is longer); within a chunk rows and columns ascend by index, so
# row-major order is index order.

_CHUNK_CELLS = 1 << 16


def _half_points(width, lo, hi):
    """Bits of the codes 0 .. 2^width - 1 (first coordinate highest), as points."""
    codes = np.arange(1 << width, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(width - 1, -1, -1, dtype=np.int64)) & 1
    return bits, lo + bits * (hi - lo)


def _half_values(Y, A, b, c0):
    """0.5 y'Ay + b'y + c0 for every row y of Y."""
    return 0.5 * np.einsum("ij,ij->i", Y @ A, Y) + Y @ b + c0


def _objective_table(C, YLt, fH, fL):
    """T[i, j] = f of H row i paired with L column j."""
    return C @ YLt + fH[:, None] + fL[None, :]


def _block_keys(m, mode, k_ones, block_id, block_target):
    """Per-coordinate key weights and the target key; None when infeasible."""
    if mode == 0:
        return np.zeros(m, dtype=np.int64), 0
    if mode == 1:
        block_id = np.zeros(m, dtype=np.int64)
        block_target = np.array([k_ones], dtype=np.int64)
    sizes = np.bincount(block_id, minlength=block_target.shape[0])
    if np.any(block_target < 0) or np.any(block_target > sizes):
        return None
    # mixed radix with digit j in 0..sizes[j], so count vectors never carry;
    # the radix product is at most 2^m
    radix = np.cumprod(sizes + 1) // (sizes + 1)
    return radix[block_id], int(block_target @ radix)


def binary_scan(A, b, c0, lo, hi, mode, k_ones, block_id, block_target):
    """(index, count): the minimizer's hi-pattern and the feasible points."""
    c0, lo, hi = float(c0), float(lo), float(hi)
    m = A.shape[0]
    keys = _block_keys(m, mode, k_ones, block_id, block_target)
    if keys is None:
        return -1, 0
    weight, target = keys
    h = m // 2
    l = m - h
    bits_H, Y_H = _half_points(h, lo, hi)
    bits_L, Y_L = _half_points(l, lo, hi)
    # cross block of (A + A')/2, which is A_HL itself when A is symmetric
    C = Y_H @ (0.5 * (A[:h, h:] + A[h:, :h].T))
    f_H = _half_values(Y_H, A[:h, :h], b[:h], 0.0)
    f_L = _half_values(Y_L, A[h:, h:], b[h:], c0)

    # group both halves by key; stable sorts keep each group in index order
    key_H = bits_H @ weight[:h]
    key_L = bits_L @ weight[h:]
    order_H = np.argsort(key_H, kind="stable")
    order_L = np.argsort(key_L, kind="stable")
    groups, first, size = np.unique(key_H[order_H], return_index=True,
                                    return_counts=True)
    sorted_L = key_L[order_L]
    col_lo = np.searchsorted(sorted_L, target - groups, side="left")
    col_hi = np.searchsorted(sorted_L, target - groups, side="right")
    count = int(np.sum(size * (col_hi - col_lo)))

    best_f = np.inf
    best_idx = -1
    for g in np.flatnonzero(col_hi > col_lo):
        rows = order_H[first[g]:first[g] + size[g]]
        cols = order_L[col_lo[g]:col_hi[g]]
        YLt = Y_L[cols].T
        f_cols = f_L[cols]
        step = max(1, _CHUNK_CELLS // cols.shape[0])
        for start in range(0, rows.shape[0], step):
            part = rows[start:start + step]
            T = _objective_table(C[part], YLt, f_H[part], f_cols)
            fmin = T.min()
            i, j = divmod(int(np.argmax(T.ravel() <= fmin + _TIE_TOL)), cols.shape[0])
            rep_idx = int(part[i]) << l | int(cols[j])
            if fmin < best_f - _TIE_TOL:
                best_f = fmin
                best_idx = rep_idx
            elif fmin <= best_f + _TIE_TOL and rep_idx < best_idx:
                best_f = min(best_f, fmin)
                best_idx = rep_idx
    return int(best_idx), count
