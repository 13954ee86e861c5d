"""Hot numerical kernels, vectorized numpy.

The capped-simplex walk locates a projection's threshold along one
vector, or along every row of a matrix at once.  The binary scan
enumerates every point of {lo, hi}^m in vectorized chunks.  Both are
deterministic, so one seed always gives bit-identical answers.
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
    active = np.cumsum(deltas[:-1])
    drops = active * np.diff(bvals)
    g_at = np.empty(bvals.shape[0], dtype=np.float64)
    g_at[0] = float(n)
    g_at[1:] = float(n) - np.cumsum(drops)
    hit = np.nonzero(g_at[1:] <= k)[0]
    if hit.shape[0] == 0:
        return bvals[-1]
    t = hit[0]
    if active[t] > 0:
        return bvals[t] + (g_at[t] - k) / active[t]
    return bvals[t]


def _simplex_walk_rows(bvals, deltas, n, k):
    # the same walk along every row at once; row i stops at its own k[i]
    active = np.cumsum(deltas[:, :-1], axis=1)
    drops = active * np.diff(bvals, axis=1)
    g_at = np.empty(bvals.shape, dtype=np.float64)
    g_at[:, 0] = float(n)
    g_at[:, 1:] = float(n) - np.cumsum(drops, axis=1)
    hit = g_at[:, 1:] <= k[:, None]
    t = np.argmax(hit, axis=1)
    rows = np.arange(bvals.shape[0])
    b_t, act_t, g_t = bvals[rows, t], active[rows, t], g_at[rows, t]
    tau = np.where(act_t > 0, b_t + (g_t - k) / np.maximum(act_t, 1), b_t)
    return np.where(hit.any(axis=1), tau, bvals[:, -1])


def simplex_walk(bvals, deltas, n, k):
    """Crossing tau of g(tau) = k; 2-D inputs walk row by row, k per row."""
    if bvals.ndim == 2:
        return _simplex_walk_rows(bvals, deltas, n, np.asarray(k, dtype=np.float64))
    return _simplex_walk_vec(bvals, deltas, n, float(k))


# ---------------------------------------------------------------------------
# Exhaustive binary scan
#
# Minimizes 0.5 x'Ax + b'x + c0 over x in {lo, hi}^m subject to an optional
# cardinality constraint (mode 1: exactly k_ones coordinates at hi) or
# block partition constraint (mode 2: block sums of hi-coordinates match
# block_target).  Candidates are evaluated in chunks of 2^14 counter
# values.  The minimizer is reported as the lexicographic integer of its
# hi-pattern (coordinate 0 is the most significant bit); ties within
# _TIE_TOL resolve to the lowest index.

def binary_scan(A, b, c0, lo, hi, mode, k_ones, block_id, block_target):
    """(index, count): the minimizer's hi-pattern and the feasible points."""
    c0, lo, hi = float(c0), float(lo), float(hi)
    m = A.shape[0]
    total = 1 << m
    shifts = np.arange(m - 1, -1, -1, dtype=np.int64)
    if mode == 2:
        nb = block_target.shape[0]
        bmask = np.zeros((m, nb), dtype=np.float64)
        bmask[np.arange(m), block_id] = 1.0

    chunk = 1 << 14
    count = 0
    best_f = np.inf
    best_idx = -1
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        bits = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.float64)
        if mode == 1:
            mask = bits.sum(axis=1) == k_ones
        elif mode == 2:
            mask = np.all(bits @ bmask == block_target[None, :], axis=1)
        else:
            mask = np.ones(codes.shape[0], dtype=bool)
        if not mask.any():
            continue
        count += int(mask.sum())
        Y = lo + bits[mask] * (hi - lo)
        G = Y @ A
        f = 0.5 * np.einsum("ij,ij->i", G, Y) + Y @ b + c0
        fmin = f.min()
        cand = np.nonzero(f <= fmin + _TIE_TOL)[0][0]
        rep_idx = int(codes[mask][cand])
        if fmin < best_f - _TIE_TOL:
            best_f = fmin
            best_idx = rep_idx
        elif fmin <= best_f + _TIE_TOL and rep_idx < best_idx:
            best_f = min(best_f, fmin)
            best_idx = rep_idx
    return int(best_idx), count
