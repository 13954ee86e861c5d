"""Hot numerical kernels with two interchangeable backends.

The compiled backend wraps the CSR matvec and binary scan loops in
numba's ``@njit``; the fallback backend is vectorized numpy.  The
capped-simplex walk has only the numpy form, which also walks many rows
at once.  Selection order:

  1. the ``BINMPEC_BACKEND`` environment variable ("numba" or "numpy"),
  2. otherwise "numba" when numba imports, else "numpy".

``use_backend`` switches at runtime (used by tests and the kernel
benchmark).  Both backends are deterministic; results agree to roundoff
but are only guaranteed bit-identical within one backend.
"""

import os

import numpy as np

try:
    import numba

    HAS_NUMBA = True
except ImportError:
    numba = None
    HAS_NUMBA = False

_TIE_TOL = 1e-12


def _pick_initial_backend():
    req = os.environ.get("BINMPEC_BACKEND", "").strip().lower()
    if req == "":
        return "numba" if HAS_NUMBA else "numpy"
    if req == "numpy":
        return "numpy"
    if req == "numba":
        if not HAS_NUMBA:
            raise RuntimeError("BINMPEC_BACKEND=numba but numba is not importable")
        return "numba"
    raise ValueError("unknown BINMPEC_BACKEND value: %r" % req)


_BACKEND = _pick_initial_backend()


def active_backend():
    return _BACKEND


def use_backend(name):
    """Switch kernel backend at runtime ("numba" or "numpy")."""
    global _BACKEND
    if name not in ("numba", "numpy"):
        raise ValueError("backend must be 'numba' or 'numpy', got %r" % name)
    if name == "numba" and not HAS_NUMBA:
        raise RuntimeError("numba backend requested but numba is not importable")
    _BACKEND = name


# ---------------------------------------------------------------------------
# CSR matrix-vector product

def _csr_matvec_loop(row_offsets, col_indices, values, x, out):
    for i in range(out.shape[0]):
        acc = 0.0
        for p in range(row_offsets[i], row_offsets[i + 1]):
            acc += values[p] * x[col_indices[p]]
        out[i] = acc


def _csr_matvec_vec(row_offsets, col_indices, values, x):
    prod = values * x[col_indices]
    csum = np.empty(prod.shape[0] + 1, dtype=np.float64)
    csum[0] = 0.0
    np.cumsum(prod, out=csum[1:])
    return csum[row_offsets[1:]] - csum[row_offsets[:-1]]


def csr_matvec(row_offsets, col_indices, values, x):
    if _BACKEND == "numba":
        out = np.empty(row_offsets.shape[0] - 1, dtype=np.float64)
        _csr_matvec_loop_nb(row_offsets, col_indices, values, x, out)
        return out
    return _csr_matvec_vec(row_offsets, col_indices, values, x)


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
# block_target).  The compiled path walks a Gray code and updates the
# objective and the running products A x incrementally; the numpy path
# evaluates candidate blocks in vectorized chunks.  Both report the
# minimizer as the lexicographic integer of its hi-pattern (coordinate 0
# is the most significant bit) so ties resolve identically.

def _gray_scan_loop(A, b, c0, lo, hi, mode, k_ones, block_id, block_target):
    m = A.shape[0]
    nb = block_target.shape[0]
    total = 1 << m

    x = np.full(m, lo, dtype=np.float64)
    g = np.zeros(m, dtype=np.float64)
    for i in range(m):
        acc = 0.0
        for j in range(m):
            acc += A[i, j] * x[j]
        g[i] = acc
    f = 0.0
    for i in range(m):
        f += 0.5 * x[i] * g[i] + b[i] * x[i]
    f += c0

    ones = 0
    cur = np.zeros(nb, dtype=np.int64)
    bad = 0
    for q in range(nb):
        if block_target[q] != 0:
            bad += 1

    bits = np.zeros(m, dtype=np.int64)
    count = 0
    best_f = np.inf
    best_idx = np.int64(-1)
    idx = np.int64(0)
    span = hi - lo

    feasible = True
    if mode == 1:
        feasible = ones == k_ones
    elif mode == 2:
        feasible = bad == 0
    if feasible:
        count += 1
        best_f = f
        best_idx = idx

    for code in range(1, total):
        j = 0
        cc = code
        while cc & 1 == 0:
            cc >>= 1
            j += 1
        if bits[j] == 0:
            delta = span
            bits[j] = 1
            ones += 1
        else:
            delta = -span
            bits[j] = 0
            ones -= 1
        f += delta * g[j] + 0.5 * delta * delta * A[j, j] + delta * b[j]
        for i in range(m):
            g[i] += delta * A[i, j]
        idx ^= np.int64(1) << np.int64(m - 1 - j)
        if mode == 2:
            q = block_id[j]
            old = cur[q]
            if bits[j] == 1:
                cur[q] = old + 1
            else:
                cur[q] = old - 1
            was_bad = old != block_target[q]
            is_bad = cur[q] != block_target[q]
            if was_bad and not is_bad:
                bad -= 1
            elif is_bad and not was_bad:
                bad += 1

        if mode == 1:
            feasible = ones == k_ones
        elif mode == 2:
            feasible = bad == 0
        else:
            feasible = True
        if feasible:
            count += 1
            if f < best_f - _TIE_TOL:
                best_f = f
                best_idx = idx
            elif f <= best_f + _TIE_TOL and idx < best_idx:
                if f < best_f:
                    best_f = f
                best_idx = idx
    return best_idx, count


def _counter_scan_chunked(A, b, c0, lo, hi, mode, k_ones, block_id, block_target):
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
    return np.int64(best_idx), count


def binary_scan(A, b, c0, lo, hi, mode, k_ones, block_id, block_target):
    if _BACKEND == "numba":
        idx, count = _gray_scan_loop_nb(
            A, b, float(c0), float(lo), float(hi), mode, k_ones, block_id, block_target
        )
        return int(idx), int(count)
    idx, count = _counter_scan_chunked(
        A, b, float(c0), float(lo), float(hi), mode, k_ones, block_id, block_target
    )
    return int(idx), int(count)


if HAS_NUMBA:
    _csr_matvec_loop_nb = numba.njit(cache=True)(_csr_matvec_loop)
    _gray_scan_loop_nb = numba.njit(cache=True)(_gray_scan_loop)


def warmup():
    """Trigger jit compilation on tiny inputs (no-op on the numpy backend)."""
    if not HAS_NUMBA:
        return
    off = np.array([0, 1], dtype=np.int64)
    col = np.array([0], dtype=np.int64)
    val = np.array([1.0])
    out = np.empty(1)
    _csr_matvec_loop_nb(off, col, val, np.array([1.0]), out)
    _gray_scan_loop_nb(
        np.eye(1),
        np.zeros(1),
        0.0,
        -1.0,
        1.0,
        0,
        0,
        np.full(1, -1, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
    )
