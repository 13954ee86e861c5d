"""Independent reference implementations used only by the test suite.

Everything here deliberately avoids the library's own algorithms:
eigenvalues come from cyclic Jacobi rotations, projections from
active-set enumeration, QP solves from plain unaccelerated projected
gradient, ball maxima from a dense angular grid, and CSR transposes from
a scatter loop over every stored entry.

The ``*_loop`` functions at the end are the one-row-, one-block- or
one-point-at-a-time loops that the library's vectorized code replaced,
kept to check it; ``chunked_binary_scan`` is the full-width counter scan
that the split-half scan replaced, and ``minimize_fista_callbacks`` is
the FISTA loop on value/gradient callbacks that the quadratic model
replaced.
"""

import itertools
import math

import numpy as np


def jacobi_eigenvalues(mat, tol=1e-13, max_sweeps=200):
    """All eigenvalues of a small symmetric matrix by cyclic Jacobi."""
    a = np.array(mat, dtype=np.float64, copy=True)
    n = a.shape[0]
    if n == 0:
        return np.zeros(0)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n):
            for q in range(p + 1, n):
                off += 2.0 * a[p, q] ** 2
        scale = max(1.0, float(np.abs(np.diag(a)).max()))
        if math.sqrt(off) <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                if theta >= 0:
                    t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def jacobi_spectral_norm(mat):
    eigs = jacobi_eigenvalues(mat)
    if eigs.size == 0:
        return 0.0
    return float(np.abs(eigs).max())


def simplex_projection_oracle(a, k):
    """Projection onto {0 <= x <= 1, sum x = k} by trying every
    lower/free/upper pattern and keeping the closest feasible candidate."""
    a = np.asarray(a, dtype=np.float64)
    n = a.size
    best = None
    for pattern in itertools.product((0, 1, 2), repeat=n):
        ones = [i for i, p in enumerate(pattern) if p == 1]
        free = [i for i, p in enumerate(pattern) if p == 2]
        x = np.zeros(n)
        x[ones] = 1.0
        if free:
            tau = (float(a[free].sum()) + len(ones) - k) / len(free)
            xf = a[free] - tau
            if xf.min() < -1e-9 or xf.max() > 1.0 + 1e-9:
                continue
            x[free] = np.clip(xf, 0.0, 1.0)
        elif abs(len(ones) - k) > 1e-9:
            continue
        if abs(float(x.sum()) - k) > 1e-8:
            continue
        d = float(np.sum((a - x) ** 2))
        if best is None or d < best[0] - 1e-15:
            best = (d, x)
    if best is None:
        raise ValueError("oracle found no feasible pattern")
    return best[1]


def pgd_reference(grad, lipschitz, project, x0, iters=100000):
    """Plain projected gradient descent, no acceleration."""
    x = project(np.asarray(x0, dtype=np.float64))
    step = 1.0 / lipschitz
    for _ in range(iters):
        x = project(x - step * grad(x))
    return x


def ball_linear_max_oracle(x, radius, grid=400000):
    """max <x, v> over ||v|| <= radius for 2-D x, by angular grid."""
    x = np.asarray(x, dtype=np.float64)
    assert x.size == 2
    ts = np.linspace(0.0, 2.0 * math.pi, grid)
    vs = radius * np.stack([np.cos(ts), np.sin(ts)], axis=1)
    scores = vs @ x
    i = int(np.argmax(scores))
    return vs[i], float(scores[i])


def transpose_csr_loop(n_rows, n_cols, offsets, cols, vals):
    """CSR arrays of the transpose, scattering one stored entry at a time
    in row-major order behind a per-column write cursor."""
    nnz = vals.shape[0]
    counts = np.bincount(cols, minlength=n_cols)
    t_off = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(counts, out=t_off[1:])
    t_col = np.empty(nnz, dtype=np.int64)
    t_val = np.empty(nnz)
    cursor = t_off[:-1].copy()
    for i in range(n_rows):
        for p in range(offsets[i], offsets[i + 1]):
            j = cols[p]
            q = cursor[j]
            t_col[q] = i
            t_val[q] = vals[p]
            cursor[j] = q + 1
    return t_off, t_col, t_val


def project_blocks_loop(a, fset):
    """Simplex-block projection with one 1-D capped-simplex call per block."""
    from binmpec.projections import project_capped_simplex

    a = np.asarray(a, dtype=np.float64)
    r = fset.simplex_blocks
    x = np.empty_like(a)
    pin = np.zeros(fset.n, dtype=bool)
    for i, v in fset.pinned:
        x[i] = v
        pin[i] = True
    for q in range(fset.n // r):
        sl = slice(q * r, (q + 1) * r)
        block_pin = pin[sl]
        target = 1.0 - x[sl][block_pin].sum()
        if not block_pin.any():
            x[sl] = project_capped_simplex(a[sl], target)
        else:
            free_in_block = ~block_pin
            seg = project_capped_simplex(a[sl][free_in_block], target)
            tmp = x[sl]
            tmp[free_in_block] = seg
            x[sl] = tmp
    return x


def round_blocks_loop(y, fset, domain):
    """Binary rounding of a simplex-block set, one block at a time: pins
    first, then a per-block argmax over the free coordinates."""
    y = np.asarray(y, dtype=np.float64)
    lo, hi = (-1.0, 1.0) if domain == "pm1" else (0.0, 1.0)
    x = np.where(y >= 0.0, 1.0, -1.0) if domain == "pm1" else np.where(y >= 0.5, 1.0, 0.0)
    pin = np.zeros(fset.n, dtype=bool)
    for i, v in fset.pinned:
        pin[i] = True
        x[i] = v
        if abs(v - lo) > 1e-9 and abs(v - hi) > 1e-9:
            return x, False
    r = fset.simplex_blocks
    for q in range(fset.n // r):
        sl = np.arange(q * r, (q + 1) * r)
        blk_pin = pin[sl]
        need = 1.0 - x[sl[blk_pin]].sum()
        free_idx = sl[~blk_pin]
        x[free_idx] = 0.0
        if abs(need - 1.0) < 1e-9:
            if free_idx.shape[0] == 0:
                return x, False
            x[free_idx[np.argmax(y[free_idx])]] = 1.0
        elif abs(need) > 1e-9:
            return x, False
    return x, True


def modularity_triplets_loop(Q, lhat, scale, k):
    """COO triplets of scale * (lhat I - Q) kron I_k, node pair by node pair."""
    n = Q.shape[0]
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(n):
            w = (lhat if i == j else 0.0) - Q[i, j]
            if w == 0.0:
                continue
            for c in range(k):
                rows.append(i * k + c)
                cols.append(j * k + c)
                vals.append(scale * w)
    return rows, cols, vals


def csr_matvec_loop(row_offsets, col_indices, values, x):
    """M x summed row by row, left to right."""
    out = np.empty(row_offsets.shape[0] - 1, dtype=np.float64)
    for i in range(out.shape[0]):
        acc = 0.0
        for p in range(row_offsets[i], row_offsets[i + 1]):
            acc += values[p] * x[col_indices[p]]
        out[i] = acc
    return out


def gray_scan_loop(A, b, c0, lo, hi, mode, k_ones, block_id, block_target):
    """(index, count) of ``kernels.binary_scan`` by a Gray-code walk.

    One coordinate flips per step, and the objective and the running
    products A x are updated incrementally.  The index is the hi-pattern
    read as an integer with coordinate 0 the most significant bit; ties
    within 1e-12 go to the lowest index.
    """
    tie_tol = 1e-12
    m = A.shape[0]
    nb = block_target.shape[0]
    x = np.full(m, lo, dtype=np.float64)
    g = A @ x
    f = float(0.5 * x @ g + b @ x + c0)
    ones = 0
    cur = np.zeros(nb, dtype=np.int64)
    bad = int(np.count_nonzero(block_target))
    bits = np.zeros(m, dtype=np.int64)
    span = hi - lo

    def feasible():
        if mode == 1:
            return ones == k_ones
        if mode == 2:
            return bad == 0
        return True

    count, best_f, best_idx, idx = 0, math.inf, -1, 0
    if feasible():
        count, best_f, best_idx = 1, f, 0
    for code in range(1, 1 << m):
        j = (code & -code).bit_length() - 1
        delta = span if bits[j] == 0 else -span
        bits[j] ^= 1
        ones += 1 if bits[j] else -1
        f += delta * g[j] + 0.5 * delta * delta * A[j, j] + delta * b[j]
        g += delta * A[:, j]
        idx ^= 1 << (m - 1 - j)
        if mode == 2:
            q = block_id[j]
            was_bad = cur[q] != block_target[q]
            cur[q] += 1 if bits[j] else -1
            is_bad = cur[q] != block_target[q]
            bad += int(is_bad) - int(was_bad)
        if feasible():
            count += 1
            if f < best_f - tie_tol:
                best_f, best_idx = f, idx
            elif f <= best_f + tie_tol and idx < best_idx:
                best_f, best_idx = min(best_f, f), idx
    return best_idx, count


def chunked_binary_scan(A, b, c0, lo, hi, mode, k_ones, block_id, block_target):
    """(index, count) of ``kernels.binary_scan`` by a chunked counter scan.

    The scan ``binary_scan`` was before the split-half tables: it decodes
    2^14 consecutive indices at a time, masks out the infeasible points
    and evaluates the rest with one product against the full A.
    """
    tie_tol = 1e-12
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
        cand = np.nonzero(f <= fmin + tie_tol)[0][0]
        rep_idx = int(codes[mask][cand])
        if fmin < best_f - tie_tol:
            best_f = fmin
            best_idx = rep_idx
        elif fmin <= best_f + tie_tol and rep_idx < best_idx:
            best_f = min(best_f, fmin)
            best_idx = rep_idx
    return int(best_idx), count


def minimize_fista_callbacks(value, grad, lipschitz, project, x0, tol=1e-5,
                             max_iter=2000):
    """FISTA with a monotone restart on value/gradient callbacks.

    The loop ``subsolver.minimize_fista`` had before it took a quadratic
    model: it evaluates the gradient at the extrapolated point and, on a
    restart, at the current iterate, so a quadratic costs two or four
    products per iteration.
    """
    step = 1.0 / float(lipschitz)
    x = project(np.asarray(x0, dtype=np.float64))
    fx = value(x)
    y = x
    tk = 1.0
    iterations = 0
    converged = False
    for it in range(max_iter):
        x_new = project(y - step * grad(y))
        f_new = value(x_new)
        if f_new > fx + 1e-12:
            x_new = project(x - step * grad(x))
            f_new = value(x_new)
            tk = 1.0
        rel = np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1.0)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        y = x_new + ((tk - 1.0) / t_next) * (x_new - x)
        x, fx, tk = x_new, f_new, t_next
        iterations = it + 1
        if rel <= tol:
            converged = True
            break
    return x, fx, iterations, converged
