"""Independent reference implementations used only by the test suite.

Everything here deliberately avoids the library's own algorithms:
eigenvalues come from cyclic Jacobi rotations, projections from
active-set enumeration, QP solves from the KKT systems of every face
of the box, ball maxima from a dense angular grid, and CSR transposes from
a scatter loop over every stored entry.

The ``*_loop`` functions at the end are the one-row-, one-block- or
one-point-at-a-time loops that the library's vectorized code replaced,
kept to check it; ``chunked_binary_scan`` is the full-width counter scan
that the split-half scan replaced, ``minimize_fista_callbacks`` is
the FISTA loop on value/gradient callbacks that the quadratic model
replaced, and ``project_conjugated`` is the {-1, +1} projection that
projecting onto the set's prepared {-1, +1} image replaced.

``minimize_fista_norms``, ``project_feasible_scatter``,
``newton_tau_compare`` and ``project_capped_rows_broadcast`` are the
x-step loop and projection pieces as they were before their per-call
overhead was cut, kept verbatim so the tests can ask for equal bytes;
``project_capped_rows`` and ``simplex_walk_rows`` are the block
projection and its kernel as they were before the rows went
column-major, kept for the same reason.
``project_feasible_scatter`` and ``project_conjugated`` take a sum
projection's start threshold and return the one it ends at, and
``threaded`` carries it from call to call, as a warm projector does.
``laplacian_loop`` builds the Laplacian's triplets one edge at a time, as
``problems.laplacian`` did before it took edge arrays, and
``adjacency_loop`` and ``degrees_loop`` do the same for ``Graph.adjacency``
and ``Graph.degrees``; ``kron_identity_coo`` is
``SparseMatrix.kron_identity`` as it was before it wrote the CSR arrays in
place, and ``erdos_renyi_loop`` and ``four_gauss_knn_loop`` are the two
generators as they were before they drew and sorted whole arrays;
``collatz_wielandt_loop`` is ``spectral_norm_estimate`` as it was before
its power steps took the padded layout, with ``bincount`` products on
|M| itself; ``report_to_json_asdict`` is ``SolveReport.to_json`` through
``dataclasses.asdict``.  All of these keep the old arithmetic, for equal
bytes.
``objective_grad`` and ``quadratic_form`` are the gradient and the
quadratic form the library no longer needs, and ``identity`` builds the
scaled identity matrix that only tests use.
"""

import itertools
import json
import math
from dataclasses import asdict

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
    lower/free/upper pattern and keeping the closest feasible candidate.

    A candidate counts only if one threshold tau fits its pattern, as the
    projection clip(a - tau, 0, 1) requires: a - tau <= 0 on the lower
    coordinates and >= 1 on the upper ones, to 1e-12 max(1, max|a|).
    Without that test a far-out coordinate, which adds the same square to
    every candidate's distance, can round away the difference between
    them and let a wrong pattern win."""
    a = np.asarray(a, dtype=np.float64)
    n = a.size
    fit = 1e-12 * max(1.0, float(np.abs(a).max(initial=0.0)))
    best = None
    for pattern in itertools.product((0, 1, 2), repeat=n):
        lows = [i for i, p in enumerate(pattern) if p == 0]
        ones = [i for i, p in enumerate(pattern) if p == 1]
        free = [i for i, p in enumerate(pattern) if p == 2]
        x = np.zeros(n)
        x[ones] = 1.0
        tau_lo, tau_hi = -math.inf, math.inf
        if free:
            tau = (float(a[free].sum()) + len(ones) - k) / len(free)
            xf = a[free] - tau
            if xf.min() < -1e-9 or xf.max() > 1.0 + 1e-9:
                continue
            x[free] = np.clip(xf, 0.0, 1.0)
            tau_lo = tau_hi = tau
        elif abs(len(ones) - k) > 1e-9:
            continue
        if lows:
            tau_lo = max(tau_lo, float(a[lows].max()))
        if ones:
            tau_hi = min(tau_hi, float(a[ones].min()) - 1.0)
        if tau_lo > tau_hi + fit:
            continue
        if abs(float(x.sum()) - k) > 1e-8:
            continue
        d = float(np.sum((a - x) ** 2))
        if best is None or d < best[0] - 1e-15:
            best = (d, x)
    if best is None:
        raise ValueError("oracle found no feasible pattern")
    return best[1]


def qp_face_reference(A, b, lo, hi, k=None):
    """Exact minimizer of 0.5 x'Ax + b'x over [lo, hi]^n, with sum(x) = k
    when k is given, for a positive definite dense A and n <= 6.

    Each of the 3^n faces (every coordinate at lo, at hi or free) has one
    stationary point: the solution of its KKT system for the free
    coordinates, with the sum row when there is one.  Every feasible such
    point is a candidate, and the least objective among them is the
    minimum: the global minimizer is the one candidate in the relative
    interior of its face.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    if n > 6:
        raise ValueError("3^n faces are too many for n = %d" % n)
    best = None
    for face in itertools.product((lo, hi, None), repeat=n):
        free = np.array([v is None for v in face])
        x = np.array([0.0 if v is None else v for v in face])
        m = int(free.sum())
        rhs = -(b[free] + A[np.ix_(free, ~free)] @ x[~free])
        if k is None:
            x[free] = np.linalg.solve(A[np.ix_(free, free)], rhs)
        elif m == 0:
            if abs(x.sum() - k) > 1e-12:
                continue
        else:
            kkt = np.ones((m + 1, m + 1))
            kkt[:m, :m] = A[np.ix_(free, free)]
            kkt[m, m] = 0.0
            x[free] = np.linalg.solve(kkt, np.append(rhs, k - x[~free].sum()))[:m]
        if x.min() < lo - 1e-12 or x.max() > hi + 1e-12:
            continue
        f = 0.5 * float(x @ A @ x) + float(b @ x)
        if best is None or f < best[0]:
            best = (f, x)
    return best[1]


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


def project_blocks_loop(a, fset, project=None):
    """Simplex-block projection with one call of ``project`` per block:
    by default the 1-D capped simplex, or ``simplex_projection_oracle``."""
    from binmpec.projections import project_capped_simplex

    project = project or project_capped_simplex
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
            x[sl] = project(a[sl], target)
        else:
            free_in_block = ~block_pin
            seg = project(a[sl][free_in_block], target)
            tmp = x[sl]
            tmp[free_in_block] = seg
            x[sl] = tmp
    return x


def round_blocks_loop(y, fset):
    """Binary rounding of a simplex-block set, one block at a time: pins
    first, then a per-block argmax over the free coordinates."""
    y = np.asarray(y, dtype=np.float64)
    pm1 = fset.domain == "pm1"
    lo, hi = (-1.0, 1.0) if pm1 else (0.0, 1.0)
    x = np.where(y >= 0.0, 1.0, -1.0) if pm1 else np.where(y >= 0.5, 1.0, 0.0)
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


def project_conjugated(z, fset, tau=None):
    """Projection of a {-1, +1}-domain point onto a zero-one set, through
    the zero-one set itself: y = (z + 1) / 2 is projected and mapped back
    by 2y - 1, which commutes with Euclidean projection.  Returns
    (tau, x), threshold as ``project_feasible_scatter``."""
    tau, y = project_feasible_scatter((z + 1.0) / 2.0, fset, tau)
    return tau, 2.0 * y - 1.0


def minimize_fista_norms(model, project, x0, tol=1e-5, max_iter=2000):
    """``subsolver.minimize_fista`` with two ``np.linalg.norm`` calls and
    two step differences per iteration."""
    step = 1.0 / model.lipschitz
    x = project(np.asarray(x0, dtype=np.float64))
    fx, Ax = model.evaluate(x)
    y, Ay = x, Ax
    tk = 1.0
    iterations = 0
    converged = False
    for it in range(max_iter):
        x_new = project(y - step * model.grad(y, Ay))
        f_new, Ax_new = model.evaluate(x_new)
        if f_new > fx + 1e-12:
            x_new = project(x - step * model.grad(x, Ax))
            f_new, Ax_new = model.evaluate(x_new)
            tk = 1.0
        rel = np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1.0)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        beta = (tk - 1.0) / t_next
        y = x_new + beta * (x_new - x)
        Ay = Ax_new + beta * (Ax_new - Ax)
        x, Ax, fx, tk = x_new, Ax_new, f_new, t_next
        iterations = it + 1
        if rel <= tol:
            converged = True
            break
    return x, fx, iterations, converged


def project_feasible_scatter(a, fset, tau=None):
    """``projections.project_feasible`` that fills a fresh vector through
    the pin scatter and index gathers and scatters, pins or none.

    Returns (tau, x).  A sum set's projection starts Newton at ``tau``
    (None: cold, as ``project_feasible`` does) and returns the threshold
    it ends at; other sets return ``tau`` as passed."""
    from binmpec.projections import (_capped_vector, _checked_target, _fixed_point,
                                     project_box, project_capped_simplex)

    a = np.asarray(a, dtype=np.float64)
    if a.shape[0] != fset.n:
        raise ValueError("dimension mismatch")
    if fset.sum_constraint is None and fset.simplex_blocks is None:
        return tau, project_box(a, fset)
    x = np.empty_like(a)
    x[fset.pin_index] = fset.pin_value
    lo, span = fset.lo, fset.span
    if fset.sum_constraint is not None:
        y = (a[fset.free] - lo) / span
        m = y.shape[0]
        k, tol = _checked_target(fset.sum_target, m)
        fixed = _fixed_point(m, k)
        if fixed is None:
            tau, fixed = _capped_vector(y, m, k, tol, tau)
        x[fset.free] = lo + span * fixed
        return tau, x
    # simplex blocks: one row-wise projection per count of free coordinates
    for _, free_idx, target in fset.block_groups:
        x[free_idx] = lo + span * project_capped_simplex((a[free_idx] - lo) / span, target)
    return tau, x


def threaded(project, fset):
    """z -> x through ``project(z, fset, tau)``, which returns (tau, x),
    each call starting from the last one's threshold: the reference for
    ``projections.projector(fset, warm=True)``."""
    tau = None

    def call(z):
        nonlocal tau
        tau, x = project(z, fset, tau)
        return x
    return call


def newton_tau_compare(a, k, tau, steps=6):
    """``projections._newton_tau`` reading its piece counts off a - tau."""
    piece = None
    for _ in range(steps):
        d = a - tau
        x = d.clip(0.0, 1.0)
        miss = x.sum() - k
        if abs(miss) <= 1e-13:
            return tau, x
        top = np.count_nonzero(d >= 1.0)
        pos = np.count_nonzero(d > 0.0)
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


def project_capped_rows_broadcast(a, k):
    """``projections._project_capped_rows`` checking its targets through
    ``np.broadcast_to`` and three elementwise tests."""
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
    tau = simplex_walk_rows(np.sort(a, axis=1)[:, ::-1], n, k)
    return np.clip(a - tau[:, None], 0.0, 1.0)


def project_capped_rows(a, k):
    """``projections._project_capped_rows`` sorting and reducing row by row."""
    m, n = a.shape
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
    if n == 0:
        return a.copy()
    rows = a.copy()
    rows.sort(axis=1)
    tau = simplex_walk_rows(rows[:, ::-1], n, k)
    x = a - tau[:, None]
    return x.clip(0.0, 1.0, out=x)


def simplex_walk_rows(bvals, n, k):
    """``kernels.simplex_walk``'s 2-D branch on rows: each row of ``bvals``
    is one input row sorted descending, with its target k[i] in [0, 1]."""
    csum = bvals.cumsum(axis=1)
    csum -= k[:, None]
    csum /= np.arange(1, n + 1)
    return csum.max(axis=1)


def objective_grad(objective, x):
    """Gradient A x + b of a QuadraticObjective."""
    from binmpec.linalg import matvec

    return matvec(objective.A, x) + objective.b


def identity(n, scale=1.0):
    """scale * I_n as a SparseMatrix, built from its diagonal triplets."""
    from binmpec.linalg import SparseMatrix

    idx = np.arange(n, dtype=np.int64)
    return SparseMatrix.from_coo(n, idx, idx, np.full(n, float(scale)))


def quadratic_form(M, x):
    """x' M x, computed as <x, matvec(M, x)>."""
    from binmpec.linalg import matvec

    x = np.asarray(x, dtype=np.float64)
    return float(np.dot(x, matvec(M, x)))


def laplacian_loop(g):
    """Graph Laplacian D - W from per-edge triplet lists."""
    from binmpec.linalg import SparseMatrix

    rows, cols, vals = [], [], []
    for u, v, w in g.edges:
        rows += [u, v, u, v]
        cols += [v, u, u, v]
        vals += [-w, -w, w, w]
    return SparseMatrix.from_coo(g.n, rows, cols, vals)


def adjacency_loop(g):
    """Adjacency matrix W from per-edge triplet lists."""
    from binmpec.linalg import SparseMatrix

    rows, cols, vals = [], [], []
    for u, v, w in g.edges:
        rows += [u, v]
        cols += [v, u]
        vals += [w, w]
    return SparseMatrix.from_coo(g.n, rows, cols, vals)


def degrees_loop(g):
    """Weighted degrees, added one edge at a time."""
    d = np.zeros(g.n)
    for u, v, w in g.edges:
        d[u] += w
        d[v] += w
    return d


def kron_identity_coo(W, k):
    """W kron I_k through ``from_coo``: every (i, j) with W_ij != 0 as k
    triplets (i*k + c, j*k + c, W_ij), in row-major pair order."""
    from binmpec.linalg import SparseMatrix

    W = np.array(W, dtype=np.float64)
    ii, jj = np.nonzero(W)
    cl = np.arange(k)
    rows = (ii[:, None] * k + cl).reshape(-1)
    cols = (jj[:, None] * k + cl).reshape(-1)
    return SparseMatrix.from_coo(W.shape[0] * k, rows, cols, np.repeat(W[ii, jj], k))


def erdos_renyi_loop(n, p, seed):
    """``generate("erdos_renyi")``: one ``rng.random()`` per pair i < j."""
    from binmpec.problems import Graph

    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j, 1.0))
    return Graph(n, tuple(edges))


def four_gauss_knn_loop(n, knn, std, seed):
    """``generate("four_gauss_knn")``: points drawn one at a time, each
    node's neighbours sorted on their own, edges gathered in a dict."""
    from binmpec.problems import Graph

    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
    pts = np.empty((n, 2))
    for i in range(n):
        pts[i] = centers[i % 4] + std * rng.standard_normal(2)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    bandwidth = float(np.median(np.sqrt(np.partition(d2, knn, axis=1)[:, :knn])))
    edges = {}
    for i in range(n):
        for j in np.argsort(d2[i], kind="stable")[:knn]:
            a, b = (i, int(j)) if i < j else (int(j), i)
            edges[(a, b)] = float(np.exp(-d2[a, b] / (2.0 * bandwidth ** 2)))
    return Graph(n, tuple((u, v, w) for (u, v), w in sorted(edges.items())))


def collatz_wielandt_loop(M):
    """The certificate of a symmetric M, its power steps on |M| by bincount."""
    from binmpec.linalg import (CW_STEPS, DENSE_MAX, PSD_RTOL, NormBound,
                                gershgorin_lower_bound)

    eps = np.finfo(np.float64).eps
    lower = gershgorin_lower_bound(M)
    if M.n_rows > DENSE_MAX:
        rows, cols, weights = M.row_indices(), M.col_indices, np.abs(M.values)
        x, bound = np.ones(M.n_rows), np.inf
        for _ in range(CW_STEPS):
            y = np.bincount(rows, weights=weights * x[cols], minlength=M.n_rows)
            bound = min(bound, float(np.max(y / x)))
            if bound == 0.0:
                break  # |M| x = 0 with x > 0, so M = 0
            x = np.where(y > 0.0, y / np.max(y), x)
        bound *= 1.0 + 2.0 * (int(np.max(np.diff(M.row_offsets))) + 3) * eps
        if lower >= -PSD_RTOL * max(1.0, bound):
            return NormBound(bound, "collatz_wielandt", lower, "gershgorin")
    lam = np.linalg.eigvalsh(M.to_dense())
    margin = M.n_rows * eps * float(np.linalg.norm(M.values))
    bound = float(np.max(np.abs(lam), initial=0.0)) + margin
    lam_min = float(np.min(lam, initial=np.inf))
    tol = PSD_RTOL * max(1.0, bound)
    psd = "gershgorin" if lower >= -tol else "eigvalsh" if lam_min >= -tol else None
    return NormBound(bound, "eigvalsh", lam_min, psd)


def report_to_json_asdict(report):
    """A SolveReport's JSON text through ``dataclasses.asdict``."""
    return json.dumps(asdict(report), indent=2, sort_keys=True)
