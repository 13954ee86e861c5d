"""Sparse symmetric matrices, matrix-vector products, and certified norm bounds."""

import numpy as np

DENSE_MAX = 256   # up to this order the norm bound comes from the dense spectrum
CW_STEPS = 50     # Collatz-Wielandt steps above it
PSD_RTOL = 1e-7   # lambda_min >= -PSD_RTOL max(1, L) counts as positive semidefinite


def vector(values):
    """Validating vector constructor: float64 copy, finite entries only."""
    x = np.array(values, dtype=np.float64, copy=True).reshape(-1)
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    return x


class SparseMatrix:
    """CSR matrix storing both triangles of symmetric operands.

    ``symmetric=True`` asserts (and validates to 1e-12) that for every
    stored (i, j, w) a matching (j, i, w) is stored.  Instances are
    immutable after construction and safe to share between solves.
    """

    __slots__ = ("n_rows", "n_cols", "row_offsets", "col_indices", "values", "symmetric",
                 "_rows")

    def __init__(self, n_rows, n_cols, row_offsets, col_indices, values, symmetric=False):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(col_indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.symmetric = bool(symmetric)
        self._validate()
        for arr in (self.row_offsets, self.col_indices, self.values, self._rows):
            arr.flags.writeable = False

    def _validate(self):
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("negative dimension")
        off = self.row_offsets
        if off.shape[0] != self.n_rows + 1:
            raise ValueError("row_offsets must have length n_rows + 1")
        if off[0] != 0 or np.any(np.diff(off) < 0):
            raise ValueError("row_offsets must start at 0 and be nondecreasing")
        nnz = int(off[-1])
        if self.col_indices.shape[0] != nnz or self.values.shape[0] != nnz:
            raise ValueError("col_indices/values length must match row_offsets[-1]")
        if nnz:
            if self.col_indices.min() < 0 or self.col_indices.max() >= self.n_cols:
                raise ValueError("column index out of range")
        # kept for matvec, which would otherwise rebuild it on every product
        self._rows = rows = np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(off))
        # columns may fall only where a new row starts
        bad = (rows[1:] == rows[:-1]) & (np.diff(self.col_indices) <= 0)
        if np.any(bad):
            raise ValueError("col_indices must be strictly increasing within row %d"
                             % rows[1:][bad][0])
        if not np.all(np.isfinite(self.values)):
            raise ValueError("matrix values must be finite")
        if self.symmetric:
            if self.n_rows != self.n_cols:
                raise ValueError("symmetric matrix must be square")
            t_off, t_col, t_val = _transpose_csr(
                self.n_rows, self.n_cols, self.row_offsets, self.col_indices, self.values
            )
            if not np.array_equal(t_off, self.row_offsets) or not np.array_equal(
                t_col, self.col_indices
            ):
                raise ValueError("symmetry flag set but sparsity pattern is not symmetric")
            if np.any(np.abs(t_val - self.values) > 1e-12):
                raise ValueError("symmetry flag set but values differ beyond 1e-12")

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals, symmetric=False):
        """Build from coordinate triplets; duplicate entries are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("triplet arrays must have equal length")
        if rows.shape[0]:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of range")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.shape[0]:
            key_new = np.empty(rows.shape[0], dtype=bool)
            key_new[0] = True
            key_new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            group = np.cumsum(key_new) - 1
            urows = rows[key_new]
            ucols = cols[key_new]
            uvals = np.zeros(urows.shape[0])
            np.add.at(uvals, group, vals)
        else:
            urows = rows
            ucols = cols
            uvals = vals
        counts = np.bincount(urows, minlength=n_rows)
        offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(n_rows, n_cols, offsets, ucols, uvals, symmetric=symmetric)

    @classmethod
    def identity(cls, n, scale=1.0):
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.full(n, float(scale)),
                   symmetric=True)

    @property
    def nnz(self):
        return int(self.row_offsets[-1])

    def row_indices(self):
        """Row index of every stored entry, in storage order (read-only)."""
        return self._rows

    def to_dense(self):
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.row_indices(), self.col_indices] = self.values
        return out

    def scaled(self, alpha):
        """New matrix alpha * M (same pattern)."""
        return SparseMatrix(self.n_rows, self.n_cols, self.row_offsets,
                            self.col_indices, self.values * float(alpha),
                            symmetric=self.symmetric)

    def diagonal(self):
        d = np.zeros(min(self.n_rows, self.n_cols))
        on_diag = self.row_indices() == self.col_indices
        d[self.col_indices[on_diag]] = self.values[on_diag]
        return d


def _transpose_csr(n_rows, n_cols, offsets, cols, vals):
    """CSR arrays of the transpose.  A stable sort by column keeps each
    column's entries in row order, so the column indices come out sorted."""
    counts = np.bincount(cols, minlength=n_cols)
    t_off = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(counts, out=t_off[1:])
    order = np.argsort(cols, kind="stable")
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(offsets))
    return t_off, rows[order], vals[order]


def matvec(M, x):
    """M x: ``np.bincount`` adds the stored products into their rows in
    storage order, so each entry is the row's sum taken left to right,
    bit-identical to the sequential row-by-row loop."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (M.n_cols,):
        raise ValueError("dimension mismatch: matrix is %dx%d, vector has length %d"
                         % (M.n_rows, M.n_cols, x.shape[0]))
    # with no stored entries bincount ignores the weights and returns ints
    return np.bincount(M.row_indices(), weights=M.values * x[M.col_indices],
                       minlength=M.n_rows).astype(np.float64, copy=False)


def quadratic_form(M, x):
    """x' M x, computed as <x, matvec(M, x)>."""
    if M.n_rows != M.n_cols:
        raise ValueError("quadratic form requires a square matrix")
    x = np.asarray(x, dtype=np.float64)
    return float(np.dot(x, matvec(M, x)))


def gershgorin_lower_bound(M):
    """min_i (m_ii - sum_{j != i} |m_ij|), a lower bound on every eigenvalue
    of a symmetric M (Gershgorin's disc theorem); +inf when M is 0x0."""
    if M.n_rows != M.n_cols:
        raise ValueError("Gershgorin bound requires a square matrix")
    rows = M.row_indices()
    off = rows != M.col_indices
    radius = np.bincount(rows[off], weights=np.abs(M.values[off]), minlength=M.n_rows)
    return float(np.min(M.diagonal() - radius, initial=np.inf))


class NormBound(float):
    """A certified upper bound on ||M||, usable as a float.  ``method`` is
    ``"eigvalsh"`` or ``"collatz_wielandt"``; ``lam_min`` is the dense
    spectrum's least eigenvalue on the first path and Gershgorin's lower
    bound on it on the second, so either settles M >= 0 without a second
    spectrum."""

    def __new__(cls, value, method, lam_min):
        self = super().__new__(cls, value)
        self.method, self.lam_min = method, float(lam_min)
        return self


def spectral_norm_estimate(M):
    """Certified upper bound on ||M|| for a symmetric M, as a NormBound.

    Above ``DENSE_MAX``, when Gershgorin shows M >= 0, it is the
    Collatz-Wielandt bound ||M|| <= rho(|M|) <= max_i (|M|x)_i / x_i for
    any x > 0 (Horn & Johnson, Matrix Analysis, 8.1), least over
    ``CW_STEPS`` power steps on |M| from x = 1.  A row whose product is 0
    keeps its entry, so x stays positive; a row of k products rounds by
    less than (k + 3) eps, which the final factor covers.  Otherwise it is
    the largest |eigenvalue| of the dense copy plus the backward-error
    margin n eps ||M||_F.
    """
    if M.n_rows != M.n_cols:
        raise ValueError("spectral estimate requires a square matrix")
    if not M.symmetric:
        raise ValueError("spectral estimate requires the symmetric flag")
    eps = np.finfo(np.float64).eps
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
        lower = gershgorin_lower_bound(M)
        # problems._validate_psd repeats this test with a tolerance at least as wide
        if lower >= -PSD_RTOL * max(1.0, bound):
            return NormBound(bound, "collatz_wielandt", lower)
    lam = np.linalg.eigvalsh(M.to_dense())
    margin = M.n_rows * eps * float(np.linalg.norm(M.values))
    return NormBound(float(np.max(np.abs(lam), initial=0.0)) + margin, "eigvalsh",
                     np.min(lam, initial=np.inf))
