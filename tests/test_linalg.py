import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from binmpec.linalg import (SparseMatrix, _transpose_csr, gershgorin_lower_bound,
                            matvec, quadratic_form, spectral_norm_estimate,
                            vector)

from reference import jacobi_eigenvalues, jacobi_spectral_norm, transpose_csr_loop


def dense_to_sparse(dense, symmetric=True):
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(dense)
    return SparseMatrix.from_coo(dense.shape[0], dense.shape[1], rows, cols,
                                 dense[rows, cols], symmetric=symmetric)


P3_LAPLACIAN = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


class TestVector:
    def test_copies_and_casts(self):
        src = [1, 2, 3]
        out = vector(src)
        assert out.dtype == np.float64
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            vector([1.0, float("nan")])
        with pytest.raises(ValueError):
            vector([float("inf")])


class TestSparseMatrix:
    def test_from_coo_merges_duplicates(self):
        m = SparseMatrix.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 5.0])
        assert m.nnz == 2
        assert m.to_dense().tolist() == [[0.0, 5.0], [5.0, 0.0]]

    def test_identity_and_scaled(self):
        m = SparseMatrix.identity(3, scale=2.0)
        assert np.array_equal(m.to_dense(), 2.0 * np.eye(3))
        assert np.array_equal(m.scaled(0.5).to_dense(), np.eye(3))

    def test_diagonal(self):
        m = dense_to_sparse(np.diag([3.0, 0.0, 2.0]))
        assert m.diagonal().tolist() == [3.0, 0.0, 2.0]

    def test_bad_offsets_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [0, 1], [0], [1.0])
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [0, 2, 1], [0, 1, 0], [1.0, 1.0, 1.0])

    def test_unsorted_columns_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 3, [0, 2], [2, 0], [1.0, 1.0])

    def test_column_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 2, [0, 1], [2], [1.0])

    def test_nonfinite_values_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 1, [0, 1], [0], [float("nan")])

    def test_symmetric_flag_validated(self):
        with pytest.raises(ValueError, match="pattern"):
            SparseMatrix(2, 2, [0, 1, 1], [1], [1.0], symmetric=True)
        with pytest.raises(ValueError, match="values"):
            SparseMatrix.from_coo(2, 2, [0, 1], [1, 0], [1.0, 2.0],
                                  symmetric=True)

    def test_immutable_after_construction(self):
        m = SparseMatrix.identity(2)
        with pytest.raises(ValueError):
            m.values[0] = 7.0

    def test_unsorted_column_error_names_row(self):
        with pytest.raises(ValueError, match="within row 1"):
            SparseMatrix(3, 3, [0, 1, 3, 3], [2, 1, 1], [1.0, 1.0, 1.0])

    def test_columns_may_fall_across_row_boundary(self):
        m = SparseMatrix(2, 3, [0, 2, 3], [1, 2, 0], [1.0, 2.0, 3.0])
        assert m.to_dense().tolist() == [[0.0, 1.0, 2.0], [3.0, 0.0, 0.0]]

    def test_dense_and_diagonal_match_per_row_reads(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            r, c = (int(v) for v in rng.integers(0, 8, 2))
            dense = rng.standard_normal((r, c)) * (rng.random((r, c)) < 0.4)
            m = dense_to_sparse(dense, symmetric=False)
            assert np.array_equal(m.to_dense(), dense)
            k = min(r, c)
            assert np.array_equal(m.diagonal(), dense[np.arange(k), np.arange(k)])

    def test_transpose_matches_loop_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            half = np.triu(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3))
            m = dense_to_sparse(half + half.T)
            got = _transpose_csr(n, n, m.row_offsets, m.col_indices, m.values)
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
        assert gershgorin_lower_bound(SparseMatrix(0, 0, [0], [], [])) == np.inf
        zero = SparseMatrix(2, 2, [0, 0, 0], [], [], symmetric=True)
        assert gershgorin_lower_bound(zero) == 0.0

    def test_bounds_every_eigenvalue(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            half = np.triu(rng.standard_normal((n, n)))
            dense = half + half.T
            lam_min = jacobi_eigenvalues(dense)[0]
            assert gershgorin_lower_bound(dense_to_sparse(dense)) <= lam_min + 1e-12

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            gershgorin_lower_bound(SparseMatrix(2, 3, [0, 1, 2], [0, 2], [1.0, 1.0]))


class TestMatvec:
    def test_identity(self):
        m = SparseMatrix.identity(3)
        assert matvec(m, [1.0, 2.0, 3.0]).tolist() == [1.0, 2.0, 3.0]

    def test_zero_matrix(self):
        m = SparseMatrix(3, 3, [0, 0, 0, 0], [], [], symmetric=True)
        assert matvec(m, [4.0, 5.0, 6.0]).tolist() == [0.0, 0.0, 0.0]

    def test_laplacian_nullspace(self):
        # constant vectors are in the nullspace of a graph Laplacian
        m = dense_to_sparse(P3_LAPLACIAN)
        assert np.allclose(matvec(m, np.ones(3)), 0.0, atol=1e-15)

    def test_dimension_mismatch(self):
        m = SparseMatrix.identity(3)
        with pytest.raises(ValueError, match="dimension"):
            matvec(m, np.ones(4))

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
        m = SparseMatrix.identity(4)
        assert quadratic_form(m, np.zeros(4)) == 0.0

    def test_agrees_with_matvec_inner_product(self):
        rng = np.random.default_rng(11)
        dense = rng.standard_normal((6, 6))
        dense = dense + dense.T
        m = dense_to_sparse(dense)
        x = rng.standard_normal(6)
        assert quadratic_form(m, x) == pytest.approx(float(np.dot(x, matvec(m, x))), abs=1e-12)

    def test_rejects_rectangular(self):
        m = SparseMatrix(2, 3, [0, 1, 2], [0, 2], [1.0, 1.0])
        with pytest.raises(ValueError):
            quadratic_form(m, np.ones(3))


class TestSpectralNormEstimate:
    def test_diagonal_example(self):
        m = dense_to_sparse(np.diag([3.0, 1.0, 2.0]))
        assert spectral_norm_estimate(m) == pytest.approx(3.0, abs=1e-5)

    def test_k3_adjacency(self):
        dense = np.ones((3, 3)) - np.eye(3)
        m = dense_to_sparse(dense)
        assert spectral_norm_estimate(m) == pytest.approx(2.0, abs=1e-5)

    def test_zero_matrix(self):
        m = SparseMatrix(3, 3, [0, 0, 0, 0], [], [], symmetric=True)
        assert spectral_norm_estimate(m) == 0.0

    def test_requires_symmetric_flag(self):
        m = SparseMatrix(2, 2, [0, 1, 2], [1, 0], [1.0, 1.0])
        with pytest.raises(ValueError, match="symmetric"):
            spectral_norm_estimate(m)

    def test_negative_dominant_eigenvalue(self):
        m = dense_to_sparse(np.diag([-5.0, 2.0]))
        assert spectral_norm_estimate(m) == pytest.approx(5.0, abs=1e-5)

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            half = np.triu(rng.standard_normal((n, n)))
            dense = half + half.T
            m = dense_to_sparse(dense)
            want = jacobi_spectral_norm(dense)
            got = spectral_norm_estimate(m, tol=1e-9, max_iter=20000)
            assert got == pytest.approx(want, abs=1e-6 * max(1.0, want))

    def test_nonconvergence_warns_and_returns_estimate(self):
        m = dense_to_sparse(np.diag([2.0, 1.0]))
        with pytest.warns(RuntimeWarning):
            est = spectral_norm_estimate(m, tol=1e-14, max_iter=1)
        assert 0.0 < est <= 2.0 + 1e-9

    def test_deterministic_for_fixed_seed(self):
        dense = np.array([[2.0, 1.0], [1.0, -1.0]])
        m = dense_to_sparse(dense)
        assert spectral_norm_estimate(m, seed=5) == spectral_norm_estimate(m, seed=5)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12))
def test_vector_roundtrip_property(values):
    assert vector(values).tolist() == [float(v) for v in values]
