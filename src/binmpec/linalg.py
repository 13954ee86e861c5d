"""Sparse symmetric matrices, matrix-vector products, and certified norm bounds."""

import math

import numpy as np

from .projections import as_integer

DENSE_MAX = 256   # up to this order the norm bound comes from the dense spectrum
CW_STEPS = 50     # Collatz-Wielandt steps above it
PSD_RTOL = 1e-7   # lambda_min >= -PSD_RTOL max(1, norm bound) shows M >= 0


class SparseMatrix:
    """Symmetric CSR matrix of order n, storing both triangles.

    Construction validates that for every stored (i, j, w) a matching
    (j, i, w') is stored with |w - w'| at most 1e-12 of the largest
    |value|, so a power-of-two multiple of M is valid just when M is.
    Instances are immutable after construction and safe to share between
    solves.  ``factor`` is the
    dense W of a matrix built as W kron I_k (``kron_identity``), through
    which its products are taken, and None otherwise.

    Every other product runs on the padded column-major layout that
    ``padded()`` builds on first use (ELL, Bell & Garland 2009): a
    read-only (w, n) ``intp`` column array C and a (w, n) value array V,
    w the largest row degree.  Column i holds row i's stored entries in
    storage order; padding slots hold column 0 and the value 0.0.  A
    matrix whose padding would take more than 2 nnz + n slots, such as a
    star graph's hub row, keeps the ``bincount`` product instead.

    ``product()`` prepares the matrix's product once and keeps it, as
    ``padded()`` keeps the layout and ``certificate()`` the certificate.
    """

    __slots__ = ("n_rows", "row_offsets", "col_indices", "values", "factor", "_padded",
                 "_product", "_certificate")

    def __init__(self, n, row_offsets, col_indices, values):
        self.n_rows = as_integer(n, "n")
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(col_indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.factor = None
        self._padded = None  # built by the first CSR product
        self._product = None  # prepared by the first product() call
        self._certificate = None  # taken by the first certificate() call
        self._validate()
        for arr in (self.row_offsets, self.col_indices, self.values):
            arr.flags.writeable = False

    def _validate(self):
        n = self.n_rows
        if n < 0:
            raise ValueError("negative dimension")
        off = self.row_offsets
        if off.shape[0] != n + 1:
            raise ValueError("row_offsets must have length n + 1")
        if off[0] != 0 or np.any(np.diff(off) < 0):
            raise ValueError("row_offsets must start at 0 and be nondecreasing")
        nnz = int(off[-1])
        if self.col_indices.shape[0] != nnz or self.values.shape[0] != nnz:
            raise ValueError("col_indices/values length must match row_offsets[-1]")
        if nnz:
            if self.col_indices.min() < 0 or self.col_indices.max() >= n:
                raise ValueError("column index out of range")
        rows = self.row_indices()
        # columns may fall only where a new row starts
        bad = (rows[1:] == rows[:-1]) & (np.diff(self.col_indices) <= 0)
        if np.any(bad):
            raise ValueError("col_indices must be strictly increasing within row %d"
                             % rows[1:][bad][0])
        if not np.all(np.isfinite(self.values)):
            raise ValueError("matrix values must be finite")
        t_off, t_col, t_val = _transpose_csr(n, off, self.col_indices, self.values)
        if not np.array_equal(t_off, off) or not np.array_equal(t_col, self.col_indices):
            raise ValueError("matrix is not symmetric: its sparsity pattern differs "
                             "from the transpose's")
        if np.any(np.abs(t_val - self.values)
                  > 1e-12 * np.max(np.abs(self.values), initial=0.0)):
            raise ValueError("matrix is not symmetric: values differ from the "
                             "transpose's beyond 1e-12 of the largest |value|")

    @classmethod
    def from_coo(cls, n, rows, cols, vals):
        """Build from coordinate triplets; duplicate entries are summed."""
        n = as_integer(n, "n")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("triplet arrays must have equal length")
        if rows.shape[0]:
            if rows.min() < 0 or rows.max() >= n:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n:
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
        counts = np.bincount(urows, minlength=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(n, offsets, ucols, uvals)

    @classmethod
    def kron_identity(cls, W, k):
        """W kron I_k for a dense symmetric W, keeping a read-only copy of W
        as ``factor``.  Node pair (i, j) with W_ij != 0 couples coordinates
        i*k + c and j*k + c for every c, so row i*k + c holds the columns
        j*k + c of W's row i in W's row order: the CSR arrays are written
        in that order, with no sort, and validated as any other."""
        W = np.array(W, dtype=np.float64)
        k = as_integer(k, "k")
        if W.ndim != 2 or W.shape[0] != W.shape[1] or not W.size or k < 1:
            raise ValueError("kron_identity needs a nonempty square W and k >= 1")
        nodes = W.shape[0]
        # [i, c, j] is W_ij != 0, so nonzero() walks row i*k + c in column order
        i, c, j = np.nonzero(np.broadcast_to((W != 0.0)[:, None, :], (nodes, k, nodes)))
        offsets = np.zeros(nodes * k + 1, dtype=np.int64)
        np.cumsum(np.repeat(np.count_nonzero(W, axis=1), k), out=offsets[1:])
        out = cls(nodes * k, offsets, j * k + c, W[i, j])
        out._set_factor(W)
        return out

    def _set_factor(self, W):
        W.flags.writeable = False
        self.factor = W

    @property
    def nnz(self):
        return int(self.row_offsets[-1])

    def row_indices(self):
        """Row index of every stored entry, in storage order, computed anew
        on each call (set-up paths and the ``bincount`` product)."""
        return np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(self.row_offsets))

    def padded(self):
        """The padded layout (C, V) of the CSR product, built on the first
        call; None when it would take more than 2 nnz + n slots.  Two
        threads racing here build equal arrays, so either may win."""
        if self._padded is None:
            n, off = self.n_rows, self.row_offsets
            width = int(np.max(np.diff(off), initial=0))
            if width * n > 2 * self.nnz + n:
                self._padded = ()  # decided: the bincount product
            else:
                rows = self.row_indices()
                slot = np.arange(self.nnz) - off[rows]
                cols = np.zeros((width, n), dtype=np.intp)
                vals = np.zeros((width, n))
                cols[slot, rows] = self.col_indices
                vals[slot, rows] = self.values
                cols.flags.writeable = vals.flags.writeable = False
                self._padded = (cols, vals)
        return self._padded or None

    def product(self):
        """The product x -> M x, prepared on the first call and kept: a
        callable that takes a float64 x of shape (n,) and checks nothing
        (``matvec`` is the checked entry).  For M = W kron I_k it is
        vec(W X) with X = x as a (nodes, k) matrix, one BLAS product (Van
        Loan 2000); otherwise the CSR product ``_csr_product`` prepares on
        M's padded layout, or by ``bincount`` when M keeps none.  Two
        threads racing here prepare equal products."""
        if self._product is None:
            if self.factor is None:
                self._product = _csr_product(self, self.padded(), self.values)
            else:
                W = self.factor
                shape = (W.shape[0], -1)

                def factored(x):
                    return (W @ x.reshape(shape)).reshape(-1)

                self._product = factored
        return self._product

    def certificate(self):
        """The certificate of M (``spectral_norm_estimate``), taken on the
        first call and kept; a matrix made by ``scaled`` may start with it.
        Two threads racing here take equal certificates."""
        if self._certificate is None:
            self._certificate = spectral_norm_estimate(self)
        return self._certificate

    def to_dense(self):
        out = np.zeros((self.n_rows, self.n_rows))
        out[self.row_indices(), self.col_indices] = self.values
        return out

    def scaled(self, alpha):
        """New matrix alpha * M (same pattern, and alpha W as its factor).
        For a power of two alpha it starts with M's kept certificate scaled
        by alpha (``_scaled_certificate``), the one place a certificate is
        carried rather than taken."""
        alpha = float(alpha)
        out = SparseMatrix(self.n_rows, self.row_offsets, self.col_indices,
                           self.values * alpha)
        if self.factor is not None:
            out._set_factor(self.factor * alpha)
        if self._certificate is not None:
            out._certificate = _scaled_certificate(self._certificate, alpha, self.n_rows)
        return out

    def diagonal(self):
        d = np.zeros(self.n_rows)
        on_diag = self.row_indices() == self.col_indices
        d[self.col_indices[on_diag]] = self.values[on_diag]
        return d


def _transpose_csr(n, offsets, cols, vals):
    """CSR arrays of the transpose of an order-n CSR.  A stable sort by
    column keeps each column's entries in row order, so the column indices
    come out sorted."""
    counts = np.bincount(cols, minlength=n)
    t_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=t_off[1:])
    order = np.argsort(cols, kind="stable")
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    return t_off, rows[order], vals[order]


def matvec(M, x):
    """M x, checked: x must convert to a float64 vector of shape (n,).
    The product is M's prepared one (``SparseMatrix.product``)."""
    x = np.asarray(x, dtype=np.float64)
    check_dimension(M, x)
    return M.product()(x)


def check_dimension(M, x):
    """Raise ValueError unless the array x has shape (n,) for M of order n."""
    if x.shape != (M.n_rows,):
        raise ValueError("dimension mismatch: matrix has order %d, vector has shape %r"
                         % (M.n_rows, x.shape))


def _csr_product(M, layout, values):
    """The product x -> N x of the matrix N of M's pattern holding
    ``values``, on ``layout``: M's padded columns with N's padded values.
    It is ``g = x[C]; g *= V`` reduced along axis 0 (numpy sums a
    contiguous axis pairwise) from ``initial=0.0``: each entry is +0.0
    plus the row's products taken left to right, the padding adding
    +-0.0, bit-identical to the sequential row-by-row loop for finite x.
    The initial value pins that start: a reduction seeded with a row's
    first product, as numpy may seed it, returns -0.0 for a row whose
    products are all -0.0.  With no layout (None), ``np.bincount`` adds
    the products into their rows in the same order; M then stores at
    least one entry, so bincount returns floats."""
    if layout is not None:
        cols, vals = layout

        def padded(x):
            g = x[cols]
            g *= vals
            return np.add.reduce(g, axis=0, initial=0.0)

        return padded
    rows, cols, n = M.row_indices(), M.col_indices, M.n_rows

    def scattered(x):
        weights = x[cols]
        weights *= values
        return np.bincount(rows, weights=weights, minlength=n)

    return scattered


def gershgorin_lower_bound(M):
    """min_i (m_ii - sum_{j != i} |m_ij|), a lower bound on every eigenvalue
    of M (Gershgorin's disc theorem); +inf when M is 0x0."""
    rows = M.row_indices()
    off = rows != M.col_indices
    radius = np.bincount(rows[off], weights=np.abs(M.values[off]), minlength=M.n_rows)
    return float(np.min(M.diagonal() - radius, initial=np.inf))


class NormBound(float):
    """The certificate of a symmetric M: a certified upper bound on ||M||,
    usable as a float, and how M >= 0 was shown.  ``method`` is
    ``"eigvalsh"`` or ``"collatz_wielandt"``; ``lam_min`` is the dense
    spectrum's least eigenvalue on the first path and Gershgorin's lower
    bound on it on the second.  ``psd`` is ``"gershgorin"`` or
    ``"eigvalsh"``, whichever showed M >= 0, or None when neither did."""

    def __new__(cls, value, method, lam_min, psd):
        self = super().__new__(cls, value)
        self.method, self.lam_min, self.psd = method, float(lam_min), psd
        return self


def spectral_norm_estimate(M):
    """The certificate of a symmetric M, as a NormBound.

    Each matrix takes it once, through ``SparseMatrix.certificate``; a
    graph's Laplacian builders share one (see ``problems.Graph``).
    Gershgorin's lower bound on the spectrum is taken first.  Above
    ``DENSE_MAX``, when it shows M >= 0, the norm bound is the
    Collatz-Wielandt bound ||M|| <= rho(|M|) <= max_i (|M|x)_i / x_i for
    any x > 0 (Horn & Johnson, Matrix Analysis, 8.1), least over
    ``CW_STEPS`` power steps on |M| from x = 1.  The steps run on
    |M| / 2^e, 2^e the power of two just above M's largest |entry|, and
    the bound is scaled back by 2^e; a power-of-two multiple of M thus
    takes the same steps (``_scaled_certificate``), and where no step
    leaves the normal range the bits are those of steps on |M|.  The
    products take M's padded layout with |V| / 2^e in place of V, or
    ``bincount`` where ``matvec`` would, so each row adds its products
    left to right from +0.0.  A row whose product is 0 keeps its entry,
    so x stays positive; a row of k products rounds by less than
    (k + 3) eps, which the final factor covers.  Otherwise it is the
    largest |eigenvalue| of a dense spectrum plus the backward-error margin
    n eps ||D||_F of the order-n matrix D decomposed, and M >= 0 is shown
    by Gershgorin or else by the least eigenvalue of that spectrum.  D is
    M's dense copy, or, for M = W kron I_k, its ``factor`` W: M's spectrum
    is W's with each eigenvalue repeated k times (Van Loan 2000), so the
    nodes-by-nodes W is decomposed in place of the copy.  Either check
    shows M >= 0 when its value is at least -PSD_RTOL max(1, bound).
    """
    eps = np.finfo(np.float64).eps
    lower = gershgorin_lower_bound(M)
    if M.n_rows > DENSE_MAX:
        e = math.frexp(float(np.max(np.abs(M.values), initial=0.0)))[1]
        layout, values = M.padded(), None
        if layout is None:
            values = np.ldexp(np.abs(M.values), -e)
        else:
            layout = (layout[0], np.ldexp(np.abs(layout[1]), -e))
        product, x, bound = _csr_product(M, layout, values), np.ones(M.n_rows), np.inf
        for _ in range(CW_STEPS):
            y = product(x)
            bound = min(bound, float(np.maximum.reduce(y / x)))
            if bound == 0.0:
                break  # |M| x = 0 with x > 0, so M = 0
            x = np.where(y > 0.0, y / np.maximum.reduce(y), x)
        bound *= 1.0 + 2.0 * (int(np.max(np.diff(M.row_offsets))) + 3) * eps
        bound = math.ldexp(bound, e)
        if lower >= -PSD_RTOL * max(1.0, bound):
            return NormBound(bound, "collatz_wielandt", lower, "gershgorin")
    if M.factor is None:
        dense, stored = M.to_dense(), M.values
    else:
        dense = stored = M.factor  # W kron I_k has W's spectrum, each eigenvalue k times
    lam = np.linalg.eigvalsh(dense)
    margin = dense.shape[0] * eps * float(np.linalg.norm(stored))
    bound = float(np.max(np.abs(lam), initial=0.0)) + margin
    lam_min = float(np.min(lam, initial=np.inf))
    tol = PSD_RTOL * max(1.0, bound)
    psd = "gershgorin" if lower >= -tol else "eigvalsh" if lam_min >= -tol else None
    return NormBound(bound, "eigvalsh", lam_min, psd)


def _scaled_certificate(bound, alpha, n):
    """The certificate of alpha M made from ``bound``, M's, for a power of
    two alpha (either direction, either method); else None.

    A power-of-two factor commutes with every rounding in the normal range,
    so alpha M takes alpha times the bound and ``lam_min``: the
    Collatz-Wielandt steps run on the same |M| / 2^e and scale back by
    alpha 2^e, Gershgorin's sums and differences scale exactly, and so
    do the margin and, where LAPACK takes no scaling step of its own, the
    dense spectrum of M's copy or of W; either way alpha times a bound on
    ||M|| bounds ||alpha M||.  The carried certificate is not taken where
    the bound or alpha times it is subnormal, or a row sum of |M| or
    |alpha M| (at most sqrt(n) times its norm) overflows; a fresh
    estimate is taken there.  alpha M >= 0 just when M >= 0, so the
    verdict is kept as it is.
    """
    if math.frexp(alpha)[0] != 0.5:
        return None
    value = alpha * bound
    small, large = sorted((float(bound), value))
    if 0.0 < small < np.finfo(np.float64).tiny or not math.isfinite(n * large):
        return None
    return NormBound(value, bound.method, alpha * bound.lam_min, bound.psd)
