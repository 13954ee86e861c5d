"""Independent reference implementations used only by the test suite.

Everything here deliberately avoids the library's own algorithms:
eigenvalues come from cyclic Jacobi rotations, projections from
active-set enumeration, QP solves from plain unaccelerated projected
gradient, the ball-constrained rank-one QP from a dense angular grid
with golden-section refinement, and CSR transposes from a scatter loop
over every stored entry.
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


def _golden_min(fn, lo, hi, iters=200):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    t = 0.5 * (a + b)
    return t, fn(t)


def rank_one_ball_oracle(gamma, b, c, beta, grid=20001):
    """Global minimum of 0.5 x'(gamma I + bb')x + <c, x> over ||x|| <= beta.

    Any boundary stationary point lies in span{b, c}, so the sphere search
    reduces to a circle: dense angular grid plus golden-section refinement.
    The unconstrained stationary point is added when it is interior.
    """
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n = b.size

    def value(x):
        t = float(np.dot(b, x))
        return 0.5 * gamma * float(np.dot(x, x)) + 0.5 * t * t + float(np.dot(c, x))

    candidates = []
    hess = gamma * np.eye(n) + np.outer(b, b)
    xi, _, _, _ = np.linalg.lstsq(hess, -c, rcond=None)
    if (np.linalg.norm(hess @ xi + c) <= 1e-9 * max(1.0, np.linalg.norm(c))
            and np.linalg.norm(xi) <= beta * (1.0 + 1e-12)):
        candidates.append(xi)

    basis = []
    for vec in (b, c):
        w = vec.astype(np.float64, copy=True)
        for u in basis:
            w = w - u * float(np.dot(u, w))
        nw = float(np.linalg.norm(w))
        if nw > 1e-12:
            basis.append(w / nw)
    if not basis:
        e = np.zeros(n)
        e[0] = 1.0
        basis.append(e)
    if len(basis) == 1:
        candidates.append(beta * basis[0])
        candidates.append(-beta * basis[0])
    else:
        e1, e2 = basis

        def bval(t):
            return value(beta * (math.cos(t) * e1 + math.sin(t) * e2))

        ts = np.linspace(0.0, 2.0 * math.pi, grid)
        pts = beta * (np.cos(ts)[:, None] * e1 + np.sin(ts)[:, None] * e2)
        bt = pts @ b
        vals = (0.5 * gamma * np.einsum("ij,ij->i", pts, pts)
                + 0.5 * bt * bt + pts @ c)
        order = np.argsort(vals)
        step = ts[1] - ts[0]
        seen = []
        for idx in order[:12]:
            if any(abs(ts[idx] - s) < 4 * step for s in seen):
                continue
            seen.append(ts[idx])
            t_best, _ = _golden_min(bval, ts[idx] - step, ts[idx] + step)
            candidates.append(beta * (math.cos(t_best) * e1 + math.sin(t_best) * e2))
            if len(seen) >= 4:
                break

    best = min(candidates, key=value)
    return best, value(best)


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
