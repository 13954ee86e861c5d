import numpy as np
import pytest

from binmpec import kernels
from binmpec.kernels import binary_scan, simplex_walk
from binmpec.linalg import SparseMatrix, matvec

from reference import chunked_binary_scan, csr_matvec_loop, gray_scan_loop, simplex_walk_rows


def random_csr(rng, n):
    half = np.triu(rng.standard_normal((n, n)))
    half[rng.uniform(size=(n, n)) < 0.5] = 0.0
    dense = half + np.triu(half, 1).T
    rows, cols = np.nonzero(dense)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets[1:], rows, 1)
    offsets = np.cumsum(offsets).astype(np.int64)
    return offsets, cols.astype(np.int64), dense[rows, cols], dense


def unit_laplacian(n, edges):
    u, v = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    degree = np.bincount(np.concatenate([u, v]), minlength=n)
    return SparseMatrix.from_coo(n, np.concatenate([u, v, np.arange(n)]),
                                 np.concatenate([v, u, np.arange(n)]),
                                 np.concatenate([-np.ones(2 * u.size), degree]))


def grid_laplacian(side):
    edges = [(side * r + c, side * r + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(side * r + c, side * r + c + side) for r in range(side - 1) for c in range(side)]
    return unit_laplacian(side * side, edges)


def signless(M):
    return SparseMatrix(M.n_rows, M.row_offsets, M.col_indices, np.abs(M.values))


def matvec_cases(rng):
    """(matrix, x, whether it takes the padded product) for the loop test."""
    for _ in range(20):
        n = int(rng.integers(1, 30))
        offsets, cols, vals, _ = random_csr(rng, n)
        M = SparseMatrix(n, offsets, cols, vals)
        yield M, rng.standard_normal(n), np.diff(offsets).max() * n <= 2 * M.nnz + n
    yield SparseMatrix(0, [0], [], []), np.zeros(0), True
    yield SparseMatrix(1, [0, 1], [0], [2.5]), np.array([-3.0]), True
    yield SparseMatrix(1, [0, 0], [], []), np.array([4.0]), True
    # rows 1, 3 and 4 store nothing
    empty_rows = SparseMatrix(5, [0, 2, 2, 4, 4, 4], [0, 2, 0, 2], [1.5, -2.0, -2.0, 0.5])
    yield empty_rows, rng.standard_normal(5), True
    # the hub's 300 entries would pad every row to 300 slots
    star = unit_laplacian(300, [(0, j) for j in range(1, 300)])
    grid = grid_laplacian(30)
    for M, padded in ((star, False), (grid, True), (empty_rows, True)):
        n = M.n_rows
        yield M, rng.standard_normal(n), padded
        # every product is -0.0
        yield signless(M), np.full(n, -0.0), padded
        # unit weights times ones cancel to exactly 0
        yield M, np.ones(n), padded
        x = rng.standard_normal(n)
        x[::3] = -0.0
        yield M, x, padded


class TestAgainstReferenceLoops:
    def test_csr_matvec(self):
        # each row's products are added left to right from +0.0, like the
        # loop, by matvec and by the prepared product it calls
        for M, x, padded in matvec_cases(np.random.default_rng(61)):
            got = matvec(M, x)
            want = csr_matvec_loop(M.row_offsets, M.col_indices, M.values, x)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
            assert np.allclose(got, M.to_dense() @ x, rtol=1e-9, atol=1e-12)
            assert (M.padded() is not None) == padded
            product = M.product()
            assert product(x).tobytes() == got.tobytes()
            assert M.product() is product
            # a scaled matrix prepares its own product, on its own values
            S = M.scaled(0.75)
            assert S.product() is not product
            assert S.product()(x).tobytes() == csr_matvec_loop(
                S.row_offsets, S.col_indices, S.values, x).tobytes()
        for product in (matvec, lambda M, x: M.product()(x)):
            zeros = product(signless(grid_laplacian(30)), np.full(900, -0.0))
            assert not np.signbit(zeros).any()
            assert not product(grid_laplacian(30), np.ones(900)).any()

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_binary_scan_identical(self, mode):
        rng = np.random.default_rng(71 + mode)
        for _ in range(10):
            # up to 13 coordinates: halves of 6 and 7 bits
            m = int(rng.integers(1, 14))
            A = rng.standard_normal((m, m))
            A = A + A.T
            b = rng.standard_normal(m)
            if mode == 1:
                k_ones = int(rng.integers(0, m + 1))
                block_id = np.full(m, -1, dtype=np.int64)
                block_target = np.zeros(0, dtype=np.int64)
            elif mode == 2:
                r = int(rng.choice([d for d in range(1, m + 1) if m % d == 0]))
                nb = m // r
                block_id = np.repeat(np.arange(nb, dtype=np.int64), r)
                block_target = np.ones(nb, dtype=np.int64)
                k_ones = 0
            else:
                k_ones = 0
                block_id = np.full(m, -1, dtype=np.int64)
                block_target = np.zeros(0, dtype=np.int64)
            lo, hi = (0.0, 1.0) if mode == 2 else (-1.0, 1.0)
            args = (A, b, 0.25, lo, hi, mode, k_ones, block_id, block_target)
            # identical (index, count) pairs
            assert binary_scan(*args) == gray_scan_loop(*args)


def no_blocks(m):
    return np.full(m, -1, dtype=np.int64), np.zeros(0, dtype=np.int64)


def scan_cases(rng, m, lo, hi, A=None, b=None):
    """One argument tuple per mode for an m-coordinate scan."""
    if A is None:
        A = rng.standard_normal((m, m))
        A = A + A.T
        b = rng.standard_normal(m)
    c0 = float(rng.standard_normal())
    r = int(rng.integers(1, 5))
    block_id = np.arange(m, dtype=np.int64) // r
    block_target = np.ones(-(-m // r), dtype=np.int64)
    return [
        (A, b, c0, lo, hi, 0, 0, *no_blocks(m)),
        (A, b, c0, lo, hi, 1, int(rng.integers(0, m + 1)), *no_blocks(m)),
        (A, b, c0, lo, hi, 2, 0, block_id, block_target),
    ]


class TestSplitHalfAgainstChunkedScan:
    """(index, count) equal to the full-width scan it replaced, bit for bit."""

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0)])
    def test_every_size_mode_and_domain(self, lo, hi):
        rng = np.random.default_rng(83 if lo == 0.0 else 84)
        for m in range(17):
            for args in scan_cases(rng, m, lo, hi):
                assert binary_scan(*args) == chunked_binary_scan(*args), (m, args[5])

    @pytest.mark.parametrize("m, r", [(11, 3), (12, 4), (13, 4), (15, 5)])
    def test_blocks_straddle_the_split(self, m, r):
        rng = np.random.default_rng(m * r)
        block_id = np.arange(m, dtype=np.int64) // r
        assert block_id[m // 2 - 1] == block_id[m // 2]
        for lo, hi in [(0.0, 1.0), (-1.0, 1.0)]:
            A = rng.standard_normal((m, m))
            args = (A + A.T, rng.standard_normal(m), 0.5, lo, hi, 2, 0,
                    block_id, np.ones(-(-m // r), dtype=np.int64))
            assert binary_scan(*args) == chunked_binary_scan(*args)

    def test_pinned_blocks(self):
        # the oracle drops pinned coordinates from their blocks and lowers
        # a block's target to 0 where a pin sits at hi
        rng = np.random.default_rng(89)
        for _ in range(40):
            r = int(rng.integers(2, 5))
            nb = int(rng.integers(2, 6))
            n = r * nb
            pinned = rng.uniform(size=n) < 0.3
            block_id = (np.arange(n, dtype=np.int64) // r)[~pinned]
            block_target = np.ones(nb, dtype=np.int64)
            for q in range(nb):
                if pinned[q * r:(q + 1) * r].any() and rng.uniform() < 0.7:
                    block_target[q] = 0
            m = block_id.shape[0]
            A = rng.standard_normal((m, m))
            args = (A + A.T, rng.standard_normal(m), 0.0, 0.0, 1.0, 2, 0,
                    block_id, block_target)
            assert binary_scan(*args) == chunked_binary_scan(*args)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0)])
    def test_exact_ties_return_lowest_index(self, lo, hi):
        # small integer data: every objective is exact, and many points
        # share the optimum
        rng = np.random.default_rng(97)
        many_optima = 0
        for m in range(1, 13):
            A = rng.integers(-1, 2, (m, m)) * (rng.uniform(size=(m, m)) < 0.3)
            A = (A + A.T).astype(np.float64)
            b = rng.integers(-1, 2, m) * (rng.uniform(size=m) < 0.3).astype(np.float64)
            Y = lo + ((np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1) * (hi - lo)
            f = 0.5 * np.einsum("ij,jk,ik->i", Y, A, Y) + Y @ b
            for args in scan_cases(rng, m, lo, hi, A, b):
                got = binary_scan(*args)
                assert got == chunked_binary_scan(*args)
                if args[5] == 0:
                    optima = np.flatnonzero(f == f.min())
                    many_optima += optima.shape[0] > 1
                    assert got == (optima[0], 1 << m)
        assert many_optima >= 8

    def test_near_tie_across_groups(self):
        # two-hot points P = 001|001 (index 9, one hi in H) and
        # Q = 110|000 (index 48, two hi in H) sit in different groups;
        # f(Q) = f(P) - 5e-13 is within the tie tolerance, so P wins
        A = np.zeros((6, 6))
        for i, j in [(0, 2), (0, 5), (1, 2), (1, 5)]:
            A[i, j] = A[j, i] = 10.0
        b = np.array([-1.0, -1.0 - 5e-13, -1.0, 0.0, 0.0, -1.0])
        args = (A, b, 0.0, 0.0, 1.0, 1, 2, *no_blocks(6))
        assert binary_scan(*args) == chunked_binary_scan(*args) == (0b001001, 15)

    def test_table_stays_under_the_chunk_cap(self, monkeypatch):
        # an unchunked table at m = 20 would hold 2^20 cells
        sizes = []
        table = kernels._objective_table

        def recording(*args):
            T = table(*args)
            sizes.append(T.size)
            return T

        monkeypatch.setattr(kernels, "_objective_table", recording)
        rng = np.random.default_rng(101)
        A = rng.standard_normal((20, 20))
        _, count = binary_scan(A + A.T, rng.standard_normal(20), 0.0, -1.0, 1.0,
                               0, 0, *no_blocks(20))
        assert count == 1 << 20
        assert sum(sizes) == 1 << 20
        assert max(sizes) <= kernels._CHUNK_CELLS


def sorted_break_points(a):
    n = a.shape[-1]
    bvals = np.concatenate((a - 1.0, a), axis=-1)
    deltas = np.concatenate((np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64)))
    order = np.argsort(bvals, axis=-1, kind="stable")
    return np.take_along_axis(bvals, order, axis=-1), deltas[order]


def sorted_columns(a):
    """The rows of a as the columns of an (n, m) array, sorted descending."""
    return np.sort(a.T, axis=0)[::-1]


class TestSimplexWalkRows:
    # the 2-D branch takes each row as a column sorted descending, and
    # targets in [0, 1]
    def test_rows_match_one_dimensional_walk(self):
        # the thresholds may differ where g is flat; the projected points
        # agree to rounding
        rng = np.random.default_rng(67)
        for n in (1, 3, 4, 19):
            a = rng.uniform(-2.0, 3.0, (30, n))
            a[0] = 0.25  # every break point tied
            a[3] *= 1e3  # far outside [0, 1]
            k = rng.uniform(0.0, 1.0, 30)
            k[1], k[2] = 0.0, 1.0
            bv, dl = sorted_break_points(a)
            tau = simplex_walk(sorted_columns(a), None, n, k)
            assert tau.shape == (30,)
            # the bits of the row-wise kernel
            assert tau.tobytes() == simplex_walk_rows(sorted_columns(a).T, n, k).tobytes()
            for i in range(30):
                want = np.clip(a[i] - simplex_walk(bv[i], dl[i], n, k[i]), 0.0, 1.0)
                got = np.clip(a[i] - tau[i], 0.0, 1.0)
                tol = 1e-12 * max(1.0, np.abs(a[i]).max())
                assert np.max(np.abs(got - want)) <= tol, (n, i)

    def test_crossing_meets_target(self):
        rng = np.random.default_rng(68)
        a = rng.uniform(-2.0, 3.0, (50, 6))
        k = rng.uniform(0.0, 1.0, 50)
        tau = simplex_walk(sorted_columns(a), None, 6, k)
        sums = np.clip(a - tau[:, None], 0.0, 1.0).sum(axis=1)
        assert np.allclose(sums, k, rtol=0.0, atol=1e-12)


class TestBinaryScanSemantics:
    def test_unconstrained_linear(self):
        # f = b'x with b = (1, -1): minimum at x = (-1, +1), index 0b01
        A = np.zeros((2, 2))
        b = np.array([1.0, -1.0])
        idx, count = binary_scan(A, b, 0.0, -1.0, 1.0, 0, 0,
                                 np.full(2, -1, dtype=np.int64),
                                 np.zeros(0, dtype=np.int64))
        assert count == 4
        assert idx == 0b01

    def test_tie_prefers_lowest_index(self):
        # symmetric instance: every point ties, all-lo (index 0) wins
        A = np.zeros((3, 3))
        b = np.zeros(3)
        idx, count = binary_scan(A, b, 1.5, -1.0, 1.0, 0, 0,
                                 np.full(3, -1, dtype=np.int64),
                                 np.zeros(0, dtype=np.int64))
        assert idx == 0
        assert count == 8

    def test_cardinality_counts(self):
        A = np.zeros((4, 4))
        b = np.zeros(4)
        _, count = binary_scan(A, b, 0.0, 0.0, 1.0, 1, 2,
                               np.full(4, -1, dtype=np.int64),
                               np.zeros(0, dtype=np.int64))
        assert count == 6

    def test_block_counts(self):
        # two blocks of two, one hi per block: 2 * 2 assignments
        A = np.zeros((4, 4))
        b = np.zeros(4)
        block_id = np.array([0, 0, 1, 1], dtype=np.int64)
        block_target = np.array([1, 1], dtype=np.int64)
        _, count = binary_scan(A, b, 0.0, 0.0, 1.0, 2, 0, block_id, block_target)
        assert count == 4

    def test_coordinate_zero_is_msb(self):
        # minimum at x0 = hi, x1 = lo must decode to 0b10
        A = np.zeros((2, 2))
        b = np.array([-1.0, 1.0])
        idx, _ = binary_scan(A, b, 0.0, 0.0, 1.0, 0, 0,
                             np.full(2, -1, dtype=np.int64),
                             np.zeros(0, dtype=np.int64))
        assert idx == 0b10

    def test_quadratic_term_counts(self):
        # f(x) = 0.5 x'Ax with A = [[2, -2], [-2, 2]]: disagreeing signs
        # cost 4, agreeing cost 0; ties at (lo,lo) and (hi,hi) -> index 0
        A = np.array([[2.0, -2.0], [-2.0, 2.0]])
        b = np.zeros(2)
        idx, _ = binary_scan(A, b, 0.0, -1.0, 1.0, 0, 0,
                             np.full(2, -1, dtype=np.int64),
                             np.zeros(0, dtype=np.int64))
        assert idx == 0
