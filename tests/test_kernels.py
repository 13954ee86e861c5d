import numpy as np
import pytest

from binmpec.kernels import binary_scan, simplex_walk
from binmpec.linalg import SparseMatrix, matvec

from reference import csr_matvec_loop, gray_scan_loop


def random_csr(rng, n):
    dense = rng.standard_normal((n, n))
    dense[rng.uniform(size=(n, n)) < 0.5] = 0.0
    rows, cols = np.nonzero(dense)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets[1:], rows, 1)
    offsets = np.cumsum(offsets).astype(np.int64)
    return offsets, cols.astype(np.int64), dense[rows, cols], dense


class TestAgainstReferenceLoops:
    def test_csr_matvec(self):
        # bincount adds each row's products left to right, like the loop
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            offsets, cols, vals, dense = random_csr(rng, n)
            x = rng.standard_normal(n)
            got = matvec(SparseMatrix(n, n, offsets, cols, vals), x)
            want = csr_matvec_loop(offsets, cols, vals, x)
            assert np.array_equal(got, want)
            assert np.allclose(got, dense @ x, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_binary_scan_identical(self, mode):
        rng = np.random.default_rng(71 + mode)
        for _ in range(10):
            m = int(rng.integers(1, 11))
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


def sorted_break_points(a):
    n = a.shape[-1]
    bvals = np.concatenate((a - 1.0, a), axis=-1)
    deltas = np.concatenate((np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64)))
    order = np.argsort(bvals, axis=-1, kind="stable")
    return np.take_along_axis(bvals, order, axis=-1), deltas[order]


class TestSimplexWalkRows:
    def test_rows_match_one_dimensional_walk(self):
        rng = np.random.default_rng(67)
        for n in (1, 3, 4, 19):
            a = rng.uniform(-2.0, 3.0, (30, n))
            a[0] = 0.25  # every break point tied
            k = rng.uniform(0.0, n, 30)
            k[1], k[2] = 0.0, float(n)
            bv, dl = sorted_break_points(a)
            tau = simplex_walk(bv, dl, n, k)
            assert tau.shape == (30,)
            for i in range(30):
                want = simplex_walk(bv[i], dl[i], n, k[i])
                assert tau[i].tobytes() == np.float64(want).tobytes(), (n, i)

    def test_crossing_meets_target(self):
        rng = np.random.default_rng(68)
        a = rng.uniform(-2.0, 3.0, (50, 6))
        k = rng.uniform(0.05, 5.95, 50)
        tau = simplex_walk(*sorted_break_points(a), 6, k)
        sums = np.clip(a - tau[:, None], 0.0, 1.0).sum(axis=1)
        assert np.allclose(sums, k, atol=1e-8)


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
