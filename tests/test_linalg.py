import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binmpec.linalg import (DENSE_MAX, NormBound, SparseMatrix, _transpose_csr,
                            gershgorin_lower_bound, matvec, spectral_norm_estimate)

from binmpec.problems import Graph, build_modularity, generate, laplacian

from reference import (collatz_wielandt_loop, csr_matvec_loop, identity,
                       jacobi_eigenvalues, jacobi_spectral_norm, kron_identity_coo,
                       quadratic_form, transpose_csr_loop)


def dense_to_sparse(dense):
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(dense)
    return SparseMatrix.from_coo(dense.shape[0], rows, cols, dense[rows, cols])


P3_LAPLACIAN = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


class TestSparseMatrix:
    def test_from_coo_merges_duplicates(self):
        m = SparseMatrix.from_coo(2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 5.0])
        assert m.nnz == 2
        assert m.to_dense().tolist() == [[0.0, 5.0], [5.0, 0.0]]

    def test_identity_and_scaled(self):
        m = identity(3, scale=2.0)
        assert np.array_equal(m.to_dense(), 2.0 * np.eye(3))
        assert np.array_equal(m.scaled(0.5).to_dense(), np.eye(3))

    def test_diagonal(self):
        m = dense_to_sparse(np.diag([3.0, 0.0, 2.0]))
        assert m.diagonal().tolist() == [3.0, 0.0, 2.0]

    def test_bad_offsets_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, [0, 1], [0], [1.0])
        with pytest.raises(ValueError):
            SparseMatrix(2, [0, 2, 1], [0, 1, 0], [1.0, 1.0, 1.0])

    def test_unsorted_columns_rejected(self):
        # the full 2x2 of ones with row 0 stored as columns (1, 0)
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseMatrix(2, [0, 2, 4], [1, 0, 0, 1], [1.0, 1.0, 1.0, 1.0])

    def test_column_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseMatrix(2, [0, 1, 1], [2], [1.0])
        with pytest.raises(ValueError, match="out of range"):
            SparseMatrix.from_coo(2, [0], [2], [1.0])

    def test_nonfinite_values_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, [0, 1], [0], [float("nan")])

    @pytest.mark.parametrize("make,name", [
        (lambda: SparseMatrix(2.5, [0, 0, 0], [], []), "n"),  # int() builds order 2
        (lambda: SparseMatrix("2", [0, 0, 0], [], []), "n"),
        (lambda: SparseMatrix.from_coo(2.5, [], [], []), "n"),
        (lambda: SparseMatrix.from_coo(float("nan"), [], [], []), "n"),
        (lambda: SparseMatrix.kron_identity(np.eye(2), 2.7), "k")],  # int() gives W kron I_2
        ids=["init-float", "init-str", "coo-float", "coo-nan", "kron-k-float"])
    def test_non_integer_order_rejected(self, make, name):
        with pytest.raises(ValueError, match="^%s must be an integer, got " % name):
            make()

    @pytest.mark.parametrize("cast", [np.int64, np.int32, float, np.float64])
    def test_integral_order_builds_the_same_matrix(self, cast):
        for got, want in ((SparseMatrix(cast(2), [0, 1, 2], [0, 1], [1.0, 2.0]),
                           SparseMatrix(2, [0, 1, 2], [0, 1], [1.0, 2.0])),
                          (SparseMatrix.from_coo(cast(2), [0, 1], [1, 0], [3.0, 3.0]),
                           SparseMatrix.from_coo(2, [0, 1], [1, 0], [3.0, 3.0])),
                          (SparseMatrix.kron_identity(np.eye(2), cast(3)),
                           SparseMatrix.kron_identity(np.eye(2), 3))):
            assert type(got.n_rows) is int and got.n_rows == want.n_rows
            assert np.array_equal(got.row_offsets, want.row_offsets)
            assert np.array_equal(got.col_indices, want.col_indices)
            assert np.array_equal(got.values, want.values)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="pattern"):
            SparseMatrix(2, [0, 1, 1], [1], [1.0])
        with pytest.raises(ValueError, match="values"):
            SparseMatrix.from_coo(2, [0, 1], [1, 0], [1.0, 2.0])

    def test_symmetry_tolerance_scales_with_the_values(self):
        # an asymmetry of 0.8e-12 against a largest |value| of 2 passes, and
        # still passes once doubled; 3e-12 against 2 does not
        m = SparseMatrix.from_coo(2, [0, 1, 0, 1], [1, 0, 0, 1],
                                  [1 + 0.8e-12, 1.0, 2.0, 2.0])
        for alpha in (2.0, 2.0**-20, 2.0**20):
            assert np.array_equal(m.scaled(alpha).to_dense(), alpha * m.to_dense())
        with pytest.raises(ValueError, match="values differ"):
            SparseMatrix.from_coo(2, [0, 1, 0, 1], [1, 0, 0, 1], [1 + 3e-12, 1.0, 2.0, 2.0])

    def test_immutable_after_construction(self):
        m = identity(2)
        with pytest.raises(ValueError):
            m.values[0] = 7.0
        cols, vals = m.padded()
        with pytest.raises(ValueError):
            cols[0, 0] = 1
        with pytest.raises(ValueError):
            vals[0, 0] = 7.0

    def test_unsorted_column_error_names_row(self):
        with pytest.raises(ValueError, match="within row 1"):
            SparseMatrix(3, [0, 1, 3, 3], [2, 1, 1], [1.0, 1.0, 1.0])

    def test_columns_may_fall_across_row_boundary(self):
        # row 0 ends at column 2, row 1 starts at column 0
        m = SparseMatrix(3, [0, 2, 3, 4], [1, 2, 0, 0], [1.0, 2.0, 1.0, 2.0])
        assert m.to_dense().tolist() == [[0.0, 1.0, 2.0], [1.0, 0.0, 0.0],
                                         [2.0, 0.0, 0.0]]

    def test_dense_and_diagonal_match_per_row_reads(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(0, 8))
            half = np.triu(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4))
            dense = half + half.T
            m = dense_to_sparse(dense)
            assert np.array_equal(m.to_dense(), dense)
            assert np.array_equal(m.diagonal(), np.diag(dense))

    def test_transpose_matches_loop_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            half = np.triu(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3))
            m = dense_to_sparse(half + half.T)
            got = _transpose_csr(n, m.row_offsets, m.col_indices, m.values)
            want = transpose_csr_loop(n, n, m.row_offsets, m.col_indices, m.values)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                assert np.array_equal(g, w)
            assert np.array_equal(got[0], m.row_offsets)
            assert np.array_equal(got[1], m.col_indices)


class TestGershgorinLowerBound:
    def test_laplacian_is_certified(self):
        assert gershgorin_lower_bound(dense_to_sparse(P3_LAPLACIAN)) == 0.0

    def test_non_dominant_value(self):
        m = dense_to_sparse(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert gershgorin_lower_bound(m) == -1.0

    def test_empty_and_zero_matrices(self):
        assert gershgorin_lower_bound(SparseMatrix(0, [0], [], [])) == np.inf
        zero = SparseMatrix(2, [0, 0, 0], [], [])
        assert gershgorin_lower_bound(zero) == 0.0

    def test_bounds_every_eigenvalue(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            half = np.triu(rng.standard_normal((n, n)))
            dense = half + half.T
            lam_min = jacobi_eigenvalues(dense)[0]
            assert gershgorin_lower_bound(dense_to_sparse(dense)) <= lam_min + 1e-12


class TestMatvec:
    def test_identity(self):
        # from_coo stores the diagonal triplets as one entry per row
        m = identity(3)
        assert m.row_offsets.tolist() == [0, 1, 2, 3]
        assert m.col_indices.tolist() == [0, 1, 2]
        assert m.values.tolist() == [1.0, 1.0, 1.0]
        assert matvec(m, [1.0, 2.0, 3.0]).tolist() == [1.0, 2.0, 3.0]

    def test_zero_matrix(self):
        m = SparseMatrix(3, [0, 0, 0, 0], [], [])
        assert matvec(m, [4.0, 5.0, 6.0]).tolist() == [0.0, 0.0, 0.0]

    def test_laplacian_nullspace(self):
        # constant vectors are in the nullspace of a graph Laplacian
        m = dense_to_sparse(P3_LAPLACIAN)
        assert np.allclose(matvec(m, np.ones(3)), 0.0, atol=1e-15)

    def test_dimension_mismatch(self):
        m = identity(3)
        with pytest.raises(ValueError, match="dimension"):
            matvec(m, np.ones(4))

    @pytest.mark.parametrize("kron", [False, True])
    @pytest.mark.parametrize("shape", [(), (6, 2), (1, 6), (2, 3)])
    def test_rejects_inputs_not_of_shape_n(self, kron, shape):
        # a 0-d input once raised IndexError from the message itself; a
        # factor product must not reshape a 2-D input into an answer
        m = (SparseMatrix.kron_identity(np.array([[1.0, 2.0], [2.0, 0.0]]), 3) if kron
             else identity(6))
        with pytest.raises(ValueError, match=r"vector has shape %s" % re.escape(repr(shape))):
            matvec(m, np.ones(shape))

    def test_linearity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            half = np.triu(rng.standard_normal((n, n)))
            dense = half + half.T
            m = dense_to_sparse(dense)
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            al, be = rng.standard_normal(2)
            lhs = matvec(m, al * x + be * y)
            rhs = al * matvec(m, x) + be * matvec(m, y)
            assert np.allclose(lhs, rhs, atol=1e-10)

    def test_matches_dense_product(self):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((5, 5))
        dense = dense + dense.T
        m = dense_to_sparse(dense)
        x = rng.standard_normal(5)
        assert np.allclose(matvec(m, x), dense @ x, atol=1e-12)


# modularity builds, up to the 48 nodes of the largest benchmark instance
KRON_CASES = [(12, 2, 3), (24, 3, 5), (48, 4, 1001)]


def modularity_problem(nodes, k, seed):
    g = generate("four_gauss_knn", {"n": nodes, "knn": 3}, seed=seed)
    return build_modularity(g, k)


class TestKronIdentity:
    @pytest.mark.parametrize("nodes,k,seed", KRON_CASES)
    def test_to_dense_is_kron(self, nodes, k, seed):
        A = modularity_problem(nodes, k, seed).objective.A
        assert A.factor.shape == (nodes, nodes)
        assert np.array_equal(A.to_dense(), np.kron(A.factor, np.eye(k)))

    @pytest.mark.parametrize("nodes,k,seed", KRON_CASES)
    def test_matvec_matches_csr_loop(self, nodes, k, seed):
        A = modularity_problem(nodes, k, seed).objective.A
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, A.n_rows)
        for M in (A, A.scaled(0.25)):
            want = csr_matvec_loop(M.row_offsets, M.col_indices, M.values, x)
            # relative to |M| |x|, the scale of each entry's rounding
            size = csr_matvec_loop(M.row_offsets, M.col_indices, np.abs(M.values),
                                   np.abs(x))
            got = matvec(M, x)
            assert np.all(np.abs(got - want) <= 1e-13 * size)
            # matvec calls the prepared product, which is kept
            product = M.product()
            assert product(x).tobytes() == got.tobytes()
            assert M.product() is product
        # the scaled matrix prepared its own, on its own factor
        assert M.product() is not A.product()

    def test_solver_view_keeps_the_factor(self, monkeypatch):
        prob = modularity_problem(24, 3, 5)
        A = prob.solver_view.objective.A
        assert np.array_equal(A.factor, 0.25 * prob.objective.A.factor)
        assert not A.factor.flags.writeable
        x = np.random.default_rng(11).uniform(-1.0, 1.0, A.n_rows)
        want = csr_matvec_loop(A.row_offsets, A.col_indices, A.values, x)

        def no_bincount(*args, **kwargs):
            raise AssertionError("the factored product reached np.bincount")

        monkeypatch.setattr(np, "bincount", no_bincount)
        assert np.allclose(matvec(A, x), want, rtol=1e-13, atol=1e-15)
        # nor did it build the padded layout of the other CSR product
        assert A._padded is None

    def test_factor_is_a_read_only_copy(self):
        W = np.array([[2.0, -1.0], [-1.0, 2.0]])
        A = SparseMatrix.kron_identity(W, 3)
        W[0, 0] = 5.0
        assert A.factor[0, 0] == 2.0
        with pytest.raises(ValueError):
            A.factor[0, 0] = 7.0
        assert identity(2).factor is None

    @pytest.mark.parametrize("W,k", [(np.ones((2, 3)), 2), (np.ones(4), 2),
                                     (np.zeros((0, 0)), 2), (np.eye(2), 0)])
    def test_rejects_bad_shapes(self, W, k):
        with pytest.raises(ValueError, match="kron_identity"):
            SparseMatrix.kron_identity(W, k)

    def test_rejects_asymmetric_W(self):
        with pytest.raises(ValueError, match="symmetr"):
            SparseMatrix.kron_identity(np.array([[1.0, 2.0], [0.0, 1.0]]), 2)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_csr_matches_coo_form(self, k):
        for seed in range(8):
            # a symmetric W with zero entries, a zero row and a -0.0 pair
            rng = np.random.default_rng(seed)
            W = rng.standard_normal((7, 7)) * (rng.random((7, 7)) < 0.5)
            W = W + W.T
            W[2, :] = W[:, 2] = 0.0
            W[0, 5] = W[5, 0] = -0.0
            assert_same_csr(SparseMatrix.kron_identity(W, k), kron_identity_coo(W, k))

    @pytest.mark.parametrize("nodes,k,seed", KRON_CASES)
    def test_modularity_csr_matches_coo_form(self, nodes, k, seed):
        A = modularity_problem(nodes, k, seed).objective.A
        assert_same_csr(A, kron_identity_coo(A.factor, k))
        assert_same_csr(SparseMatrix.kron_identity(np.zeros((3, 3)), k),
                        kron_identity_coo(np.zeros((3, 3)), k))


def assert_same_csr(M, want):
    """M's CSR arrays equal want's bit for bit."""
    assert M.n_rows == want.n_rows
    for got, ref in ((M.row_offsets, want.row_offsets), (M.col_indices, want.col_indices),
                     (M.values, want.values)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


# a modularity matrix above DENSE_MAX (72 nodes, k = 4, n = 288) that
# Gershgorin cannot show PSD, so it too takes a dense spectrum
BIG_KRON = (72, 4, 7)


def no_dense(self):
    raise AssertionError("the dense copy of a factored matrix was made")


class TestFactoredCertificate:
    @pytest.mark.parametrize("nodes,k,seed", KRON_CASES + [BIG_KRON])
    def test_bound_from_the_factor(self, nodes, k, seed, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(SparseMatrix, "to_dense", no_dense)
            A = modularity_problem(nodes, k, seed).objective.A
        assert gershgorin_lower_bound(A) < 0.0
        for M in (A, A.scaled(0.25)):
            lam = np.linalg.eigvalsh(M.to_dense())
            plain = spectral_norm_estimate(copy_of(M))  # the dense copy's spectrum
            with monkeypatch.context() as patch:
                patch.setattr(SparseMatrix, "to_dense", no_dense)
                bound = spectral_norm_estimate(M)
            assert bound >= np.max(np.abs(lam))
            assert (bound.method, bound.psd) == (plain.method, plain.psd)
            assert bound.psd == "eigvalsh"
            assert bound.lam_min == pytest.approx(lam[0], rel=0.0, abs=1e-12 * bound)
            # each bound exceeds the spectrum by less than its own margin
            assert abs(bound - plain) <= M.n_rows * np.finfo(float).eps * np.linalg.norm(
                M.values)

    @pytest.mark.parametrize("nodes,k,seed", [KRON_CASES[-1], BIG_KRON])
    def test_same_bits_every_build(self, nodes, k, seed):
        # eigvalsh is LAPACK: the bits must not depend on how many BLAS
        # threads run it
        probs = [modularity_problem(nodes, k, seed) for _ in range(3)]
        W = probs[0].objective.A.factor
        lam = np.linalg.eigvalsh(W)
        want = (float(np.max(np.abs(lam))) + nodes * np.finfo(float).eps
                * float(np.linalg.norm(W)))
        for prob in probs:
            bound = prob.objective.norm_bound
            assert fields(bound) == fields(probs[0].objective.norm_bound)
            assert np.float64(bound).tobytes() == np.float64(want).tobytes()
            assert bound.lam_min == lam[0]


class TestQuadraticForm:
    def test_p3_example(self):
        m = dense_to_sparse(P3_LAPLACIAN)
        assert quadratic_form(m, np.array([1.0, -1.0, 1.0])) == pytest.approx(8.0, abs=1e-12)

    def test_c4_cut(self):
        dense = np.array([
            [2.0, -1.0, 0.0, -1.0],
            [-1.0, 2.0, -1.0, 0.0],
            [0.0, -1.0, 2.0, -1.0],
            [-1.0, 0.0, -1.0, 2.0],
        ])
        m = dense_to_sparse(dense)
        assert quadratic_form(m, np.array([1.0, 1.0, -1.0, -1.0])) == pytest.approx(8.0)

    def test_zero_vector(self):
        m = identity(4)
        assert quadratic_form(m, np.zeros(4)) == 0.0

    def test_agrees_with_matvec_inner_product(self):
        rng = np.random.default_rng(11)
        dense = rng.standard_normal((6, 6))
        dense = dense + dense.T
        m = dense_to_sparse(dense)
        x = rng.standard_normal(6)
        assert quadratic_form(m, x) == pytest.approx(float(np.dot(x, matvec(m, x))), abs=1e-12)


class TestSpectralNormEstimate:
    def test_diagonal_example(self):
        m = dense_to_sparse(np.diag([3.0, 1.0, 2.0]))
        assert spectral_norm_estimate(m) == pytest.approx(3.0, abs=1e-5)

    def test_k3_adjacency(self):
        dense = np.ones((3, 3)) - np.eye(3)
        m = dense_to_sparse(dense)
        assert spectral_norm_estimate(m) == pytest.approx(2.0, abs=1e-5)

    def test_zero_matrix(self):
        m = SparseMatrix(3, [0, 0, 0, 0], [], [])
        assert spectral_norm_estimate(m) == 0.0

    def test_negative_dominant_eigenvalue(self):
        m = dense_to_sparse(np.diag([-5.0, 2.0]))
        assert spectral_norm_estimate(m) == pytest.approx(5.0, abs=1e-5)

    @pytest.mark.parametrize("dense,psd", [
        (P3_LAPLACIAN, "gershgorin"),
        ([[1.0, 2.0], [2.0, 4.0]], "eigvalsh"),  # eigenvalues 0 and 5
        (np.diag([-5.0, 2.0]), None),
        # lambda_min inside and outside -PSD_RTOL max(1, bound)
        (np.diag([-0.5e-7, 0.5]), "gershgorin"),
        (np.diag([-2e-7, 0.5]), None),
        (np.diag([-2e-7, 4.0]), "gershgorin"),
        (np.diag([-5e-7, 4.0]), None)])
    def test_psd_verdict(self, dense, psd):
        assert spectral_norm_estimate(dense_to_sparse(dense)).psd == psd

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            half = np.triu(rng.standard_normal((n, n)))
            dense = half + half.T
            m = dense_to_sparse(dense)
            want = jacobi_spectral_norm(dense)
            got = spectral_norm_estimate(m)
            assert got == pytest.approx(want, abs=1e-6 * max(1.0, want))

    @pytest.mark.parametrize("side,seed,method", [
        (16, 0, "eigvalsh"), (17, 1, "collatz_wielandt"), (20, 2, "collatz_wielandt"),
        (30, 3, "collatz_wielandt")])
    def test_weighted_grid_laplacian_tight(self, side, seed, method):
        # grids are bipartite, so ||L|| = rho(|L|) and the bound is tight;
        # n = 256 is the last order that takes the dense spectrum
        m = dense_to_sparse(grid_laplacian(side, np.random.default_rng(seed)))
        bound = spectral_norm_estimate(m)
        exact = exact_norm(m)
        assert bound.method == method
        assert exact <= bound <= 1.005 * exact

    def test_non_bipartite_dominant(self):
        # a ring with chords to the second neighbour: triangles everywhere
        n = 300
        rng = np.random.default_rng(3)
        dense = np.zeros((n, n))
        for step in (1, 2):
            w = rng.uniform(0.5, 2.0, n)
            i = np.arange(n)
            dense[i, (i + step) % n] = dense[(i + step) % n, i] = -w
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + rng.uniform(0.0, 1.0, n))
        m = dense_to_sparse(dense)
        bound = spectral_norm_estimate(m)
        assert bound.method == "collatz_wielandt"
        assert np.isfinite(bound)
        assert bound >= exact_norm(m)

    def test_zero_rows_keep_bound_finite(self):
        dense = np.zeros((DENSE_MAX + 50, DENSE_MAX + 50))
        dense[:289, :289] = grid_laplacian(17, np.random.default_rng(4))
        m = dense_to_sparse(dense)
        bound = spectral_norm_estimate(m)
        assert bound.method == "collatz_wielandt"
        assert np.isfinite(bound)
        assert exact_norm(m) <= bound <= 1.005 * exact_norm(m)

    def test_negative_dominant_takes_dense_path(self):
        # Gershgorin cannot show -L >= 0, so the spectrum is taken and its
        # lambda_min comes with the bound
        m = dense_to_sparse(-grid_laplacian(17, np.random.default_rng(5)))
        bound = spectral_norm_estimate(m)
        lam = np.linalg.eigvalsh(m.to_dense())
        assert bound.method == "eigvalsh"
        assert bound >= exact_norm(m)
        assert bound == pytest.approx(-lam[0], rel=1e-12)
        assert bound.lam_min == lam[0]
        assert bound.psd is None


def fields(bound):
    """Every field of a NormBound, floats as their bytes."""
    return (np.float64(bound).tobytes(), bound.method,
            np.float64(bound.lam_min).tobytes(), bound.psd)


def copy_of(M):
    """An unshared copy of M, keeping no layout or certificate."""
    return SparseMatrix(M.n_rows, M.row_offsets, M.col_indices, M.values)


def unshared(M):
    """``copy_of`` M that keeps a copy of M's factor."""
    out = copy_of(M)
    if M.factor is not None:
        out._set_factor(M.factor.copy())
    return out


def weighted_grid(side, rng, scale=1.0):
    """A side x side 4-neighbour grid with weights scale * U(0.05, 1.05)."""
    idx = np.arange(side * side).reshape(side, side)
    u = np.concatenate((idx[:, :-1].ravel(), idx[:-1, :].ravel()))
    v = np.concatenate((idx[:, 1:].ravel(), idx[1:, :].ravel()))
    w = scale * rng.uniform(0.05, 1.05, u.size)
    return Graph(side * side, tuple(zip(u.tolist(), v.tolist(), w.tolist())))


def psd_sparse(n, rng):
    """A weighted sparse diagonally dominant matrix of order n, signs mixed."""
    dense = np.zeros((n, n))
    for _ in range(3 * n):
        i, j = rng.integers(0, n, 2)
        if i != j:
            dense[i, j] = dense[j, i] = rng.uniform(-2.0, 2.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + rng.uniform(0.0, 1.0, n))
    return dense_to_sparse(dense)


# one matrix per certificate path, named by its method
CARRY_PATHS = {
    "eigvalsh": lambda: laplacian(weighted_grid(12, np.random.default_rng(12))),
    "eigvalsh-factored": lambda: modularity_problem(*KRON_CASES[-1]).objective.A,
    "collatz_wielandt": lambda: laplacian(weighted_grid(20, np.random.default_rng(20))),
}


class TestCertificate:
    @pytest.mark.parametrize("side", [18, 22, 26, 30])
    def test_grid_laplacians_match_bincount_loop(self, side):
        L = laplacian(weighted_grid(side, np.random.default_rng(side)))
        assert L.padded() is not None
        for M in (L, L.scaled(2.0)):
            assert fields(spectral_norm_estimate(copy_of(M))) == fields(collatz_wielandt_loop(M))

    def test_star_matches_bincount_loop(self):
        star = laplacian(Graph(300, tuple((0, j, 1.0 + 0.01 * j) for j in range(1, 300))))
        assert star.padded() is None
        bound = spectral_norm_estimate(star)
        assert bound.method == "collatz_wielandt"
        assert fields(bound) == fields(collatz_wielandt_loop(star))

    @pytest.mark.parametrize("n", [DENSE_MAX + 1, 400])
    def test_weighted_psd_matches_bincount_loop(self, n):
        M = psd_sparse(n, np.random.default_rng(n))
        bound = spectral_norm_estimate(M)
        assert bound.method == "collatz_wielandt"
        assert fields(bound) == fields(collatz_wielandt_loop(M))

    def test_taken_once_and_kept(self, monkeypatch):
        calls = []
        real = spectral_norm_estimate
        monkeypatch.setattr("binmpec.linalg.spectral_norm_estimate",
                            lambda M: calls.append(M) or real(M))
        M = psd_sparse(300, np.random.default_rng(1))
        assert M.certificate() is M.certificate()
        assert calls == [M]

    # at weights near 1e-307 some products |M| x are subnormal, and steps
    # on |M| itself give 2M a bound other than twice M's (the 30 x 30
    # grid); the steps on |M| / 2^e are the same for M and 2M
    @pytest.mark.parametrize("side,scale", [(12, 1.0), (20, 1.0), (30, 1e-307),
                                            (20, 1e300)])
    def test_doubling_carries_a_fresh_estimate(self, side, scale, monkeypatch):
        L = laplacian(weighted_grid(side, np.random.default_rng(side), scale))
        L.certificate()
        calls = []
        monkeypatch.setattr("binmpec.linalg.spectral_norm_estimate",
                            lambda M: calls.append(M) or spectral_norm_estimate(M))
        doubled = L.scaled(2.0)
        assert fields(doubled.certificate()) == fields(spectral_norm_estimate(copy_of(doubled)))
        # carried on both sides of DENSE_MAX
        assert calls == []

    # a dense spectrum, the factored spectrum of W kron I_k, and a
    # Collatz-Wielandt bound; each carried certificate has the bits of a
    # fresh estimate, which for the first two is a property of LAPACK
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 2.0, 4.0])
    @pytest.mark.parametrize("path", sorted(CARRY_PATHS))
    def test_carried_equals_a_fresh_estimate(self, path, alpha, monkeypatch):
        M = CARRY_PATHS[path]()
        assert M.certificate().method == path.partition("-")[0]
        calls = []
        monkeypatch.setattr("binmpec.linalg.spectral_norm_estimate",
                            lambda A: calls.append(A) or spectral_norm_estimate(A))
        multiple = M.scaled(alpha)
        carried = multiple.certificate()
        assert calls == []
        assert carried == alpha * M.certificate() and carried.psd == M.certificate().psd
        assert fields(carried) == fields(spectral_norm_estimate(unshared(multiple)))

    @pytest.mark.parametrize("alpha", [0.75, 3.0, -1.0])
    def test_other_scales_take_a_fresh_estimate(self, alpha):
        M = psd_sparse(300, np.random.default_rng(2))
        M.certificate()
        assert M.scaled(alpha)._certificate is None

    def test_subnormal_bound_not_carried(self):
        L = laplacian(weighted_grid(18, np.random.default_rng(3), 1e-310))
        assert 0.0 < L.certificate() < np.finfo(np.float64).tiny
        assert L.scaled(2.0)._certificate is None

    def test_subnormal_multiple_not_carried(self):
        L = laplacian(weighted_grid(18, np.random.default_rng(3), 1e-300))
        assert 0.0 < L.certificate() * 2.0**-30 < np.finfo(np.float64).tiny
        assert L.scaled(2.0**-8)._certificate is not None
        assert L.scaled(2.0**-30)._certificate is None

    def test_verdict_kept_for_the_multiple(self):
        # Gershgorin bound -0.7e-7 with ||M|| < 0.5: inside -PSD_RTOL for M.
        # 2M's -1.4e-7 lies outside -PSD_RTOL max(1, 2 ||M||), where a fresh
        # estimate of 2M would take the dense spectrum; but 2M >= 0 just
        # when M >= 0, whatever the scale, so 2M keeps M's verdict
        n = 300
        dense = np.diag(np.full(n, 0.1))
        dense[0, 1] = dense[1, 0] = 0.1 + 0.7e-7
        M = dense_to_sparse(dense)
        bound = M.certificate()
        assert (bound.method, bound.psd) == ("collatz_wielandt", "gershgorin")
        doubled = M.scaled(2.0).certificate()
        assert fields(doubled) == fields(NormBound(2.0 * bound, "collatz_wielandt",
                                                   2.0 * bound.lam_min, "gershgorin"))
        assert spectral_norm_estimate(copy_of(M.scaled(2.0))).method == "eigvalsh"


def grid_laplacian(side, rng):
    """Dense Laplacian of a side x side 4-neighbour grid with random weights."""
    n = side * side
    dense = np.zeros((n, n))
    idx = np.arange(n).reshape(side, side)
    for a, b in ((idx[:, :-1], idx[:, 1:]), (idx[:-1, :], idx[1:, :])):
        w = rng.uniform(0.01, 1.0, a.size)
        dense[a.ravel(), b.ravel()] = dense[b.ravel(), a.ravel()] = -w
    np.fill_diagonal(dense, -dense.sum(axis=1))
    return dense


def exact_norm(m):
    return float(np.max(np.abs(np.linalg.eigvalsh(m.to_dense()))))


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([3, 40, DENSE_MAX, DENSE_MAX + 1, 300]),
       density=st.floats(0.0, 0.05), dominant=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_bound_dominates_spectrum_property(n, density, dominant, seed):
    # dominant matrices above DENSE_MAX take the Collatz-Wielandt path,
    # the others the dense spectrum
    rng = np.random.default_rng(seed)
    half = np.triu(rng.standard_normal((n, n)) * (rng.random((n, n)) < density), 1)
    dense = half + half.T
    diag = np.abs(dense).sum(axis=1) if dominant else rng.standard_normal(n)
    np.fill_diagonal(dense, diag)
    m = dense_to_sparse(dense)
    assert spectral_norm_estimate(m) >= exact_norm(m)
