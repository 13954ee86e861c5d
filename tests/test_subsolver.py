import numpy as np
import pytest

from binmpec.linalg import SparseMatrix
from binmpec.projections import FeasibleSet, project_feasible
from binmpec.subsolver import QuadraticObjective, minimize_fista, solve_qp

from reference import pgd_reference


def dense_to_sparse(dense):
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(dense)
    return SparseMatrix.from_coo(dense.shape[0], dense.shape[1], rows, cols,
                                 dense[rows, cols], symmetric=True)


def box_set(n, lo=-1.0, hi=1.0, **kw):
    return FeasibleSet(lower=np.full(n, lo), upper=np.full(n, hi), **kw)


class TestQuadraticObjective:
    def test_value_and_grad(self):
        obj = QuadraticObjective(SparseMatrix.identity(2, scale=2.0),
                                 np.array([1.0, -1.0]), c=3.0)
        x = np.array([2.0, 1.0])
        # 0.5 * 2 * (4 + 1) + (2 - 1) + 3
        assert obj.value(x) == pytest.approx(9.0, abs=1e-12)
        assert np.allclose(obj.grad(x), [5.0, 1.0], atol=1e-12)

    def test_default_lipschitz_covers_spectrum(self):
        obj = QuadraticObjective(dense_to_sparse(np.diag([4.0, 1.0])), np.zeros(2))
        assert obj.lipschitz >= 4.0

    def test_zero_matrix_gets_floor(self):
        A = SparseMatrix(2, 2, [0, 0, 0], [], [], symmetric=True)
        obj = QuadraticObjective(A, np.ones(2))
        assert obj.lipschitz > 0.0

    def test_understated_lipschitz_rejected(self):
        with pytest.raises(ValueError, match="below spectral"):
            QuadraticObjective(SparseMatrix.identity(2, scale=4.0),
                               np.zeros(2), lipschitz=1.0)

    def test_requires_symmetric_sparse(self):
        asym = SparseMatrix(2, 2, [0, 1, 1], [1], [1.0])
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticObjective(asym, np.zeros(2))
        with pytest.raises(TypeError):
            QuadraticObjective(np.eye(2), np.zeros(2))

    def test_b_length_checked(self):
        with pytest.raises(ValueError):
            QuadraticObjective(SparseMatrix.identity(2), np.zeros(3))

    def test_scaled_carries_bounds_without_estimating(self):
        src = QuadraticObjective(dense_to_sparse([[2.0, -1.0], [-1.0, 2.0]]),
                                 np.zeros(2))
        obj = src.scaled(0.25, np.array([1.0, 2.0]), c=-3.0)
        assert obj.lipschitz == src.lipschitz / 4.0
        assert obj.spectral_est == src.spectral_est / 4.0
        assert np.array_equal(obj.A.to_dense(), src.A.to_dense() / 4.0)
        x = np.array([0.5, -1.0])
        want = 0.125 * float(x @ src.A.to_dense() @ x) + float(x @ [1.0, 2.0]) - 3.0
        assert obj.value(x) == pytest.approx(want, abs=1e-12)

    def test_scaled_validates(self):
        src = QuadraticObjective(SparseMatrix.identity(2), np.zeros(2))
        with pytest.raises(ValueError, match="positive"):
            src.scaled(0.0, np.zeros(2))
        with pytest.raises(ValueError, match="length"):
            src.scaled(0.5, np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            src.scaled(0.5, [np.nan, 0.0])


class TestSolveQp:
    def test_unconstrained_minimum_inside_box(self):
        # 0.5 ||x||^2 over [-5, 5]^2 from a far corner
        obj = QuadraticObjective(SparseMatrix.identity(2), np.zeros(2))
        res = solve_qp(obj, None, box_set(2, -5.0, 5.0), np.array([5.0, -5.0]),
                       tol=1e-10, max_iter=20000)
        assert np.allclose(res.x, 0.0, atol=1e-6)
        assert res.converged

    def test_pure_linear_drives_to_corner(self):
        A = SparseMatrix(2, 2, [0, 0, 0], [], [], symmetric=True)
        obj = QuadraticObjective(A, np.array([1.0, -1.0]), lipschitz=1.0)
        res = solve_qp(obj, None, box_set(2), np.zeros(2), tol=1e-12,
                       max_iter=5000)
        assert np.allclose(res.x, [-1.0, 1.0], atol=1e-9)

    def test_sum_constrained_symmetric(self):
        # min x'x - 2 sum(x) over [0,1]^2 with sum = 1 lands at (0.5, 0.5)
        obj = QuadraticObjective(SparseMatrix.identity(2, scale=2.0),
                                 np.array([-2.0, -2.0]))
        fs = box_set(2, 0.0, 1.0, sum_constraint=1.0)
        res = solve_qp(obj, None, fs, np.array([1.0, 0.0]), tol=1e-10,
                       max_iter=20000)
        assert np.allclose(res.x, [0.5, 0.5], atol=1e-8)

    def test_linear_extra_matches_baked_in(self):
        rng = np.random.default_rng(31)
        dense = rng.standard_normal((4, 4))
        dense = dense @ dense.T
        extra = rng.standard_normal(4)
        fs = box_set(4)
        x0 = rng.uniform(-1.0, 1.0, 4)
        a = solve_qp(QuadraticObjective(dense_to_sparse(dense), np.zeros(4)),
                     extra, fs, x0, tol=1e-10, max_iter=20000)
        b = solve_qp(QuadraticObjective(dense_to_sparse(dense), extra),
                     None, fs, x0, tol=1e-10, max_iter=20000)
        assert np.allclose(a.x, b.x, atol=1e-7)

    def test_result_feasible(self):
        rng = np.random.default_rng(37)
        for fs in (box_set(5), box_set(5, sum_constraint=1.5),
                   box_set(6, 0.0, 1.0, simplex_blocks=3)):
            dense = rng.standard_normal((fs.n, fs.n))
            dense = dense @ dense.T
            obj = QuadraticObjective(dense_to_sparse(dense),
                                     rng.standard_normal(fs.n))
            res = solve_qp(obj, None, fs, rng.uniform(-1, 1, fs.n),
                           tol=1e-8, max_iter=20000)
            proj = project_feasible(res.x, fs)
            assert np.allclose(res.x, proj, atol=1e-9)

    def test_never_worse_than_projected_start(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            dense = rng.standard_normal((n, n))
            dense = dense @ dense.T
            obj = QuadraticObjective(dense_to_sparse(dense), rng.standard_normal(n))
            fs = box_set(n)
            x0 = rng.uniform(-2, 2, n)
            res = solve_qp(obj, None, fs, x0, tol=1e-6, max_iter=2000)
            assert res.objective <= obj.value(project_feasible(x0, fs)) + 1e-9

    def test_variational_inequality_at_solution(self):
        # convex case: <grad(x*), y - x*> >= 0 for all feasible y
        rng = np.random.default_rng(43)
        for trial in range(8):
            n = int(rng.integers(2, 11))
            dense = rng.standard_normal((n, n))
            dense = dense @ dense.T
            obj = QuadraticObjective(dense_to_sparse(dense), rng.standard_normal(n))
            fs = box_set(n) if trial % 2 else box_set(n, sum_constraint=0.0)
            res = solve_qp(obj, None, fs, rng.uniform(-1, 1, n),
                           tol=1e-12, max_iter=50000)
            g = obj.grad(res.x)
            for _ in range(100):
                y = project_feasible(rng.uniform(-2, 2, n), fs)
                assert float(np.dot(g, y - res.x)) >= -1e-6

    def test_matches_long_pgd_reference(self):
        rng = np.random.default_rng(47)
        for trial in range(5):
            n = int(rng.integers(2, 7))
            dense = rng.standard_normal((n, n))
            dense = dense @ dense.T + 0.5 * np.eye(n)
            obj = QuadraticObjective(dense_to_sparse(dense), rng.standard_normal(n))
            fs = box_set(n) if trial % 2 else box_set(n, sum_constraint=1.0)
            x0 = rng.uniform(-1, 1, n)
            res = solve_qp(obj, None, fs, x0, tol=1e-12, max_iter=50000)
            ref = pgd_reference(obj.grad, obj.lipschitz,
                                lambda z: project_feasible(z, fs), x0,
                                iters=100000)
            assert np.allclose(res.x, ref, atol=1e-5)
            assert res.objective <= obj.value(ref) + 1e-8

    def test_dimension_mismatches(self):
        obj = QuadraticObjective(SparseMatrix.identity(2), np.zeros(2))
        with pytest.raises(ValueError):
            solve_qp(obj, None, box_set(3), np.zeros(3))
        with pytest.raises(ValueError):
            solve_qp(obj, np.zeros(3), box_set(2), np.zeros(2))


class TestMinimizeFista:
    def test_monotone_objective(self):
        rng = np.random.default_rng(53)
        dense = rng.standard_normal((6, 6))
        dense = dense @ dense.T
        b = rng.standard_normal(6)
        lip = np.linalg.norm(dense, 2) * 1.01
        values = []

        def value(x):
            v = 0.5 * x @ dense @ x + b @ x
            values.append(v)
            return v

        minimize_fista(value, lambda x: dense @ x + b, lip,
                       lambda z: np.clip(z, -1, 1),
                       rng.uniform(-1, 1, 6), tol=1e-12, max_iter=500)
        accepted = [values[0]]
        for v in values[1:]:
            if v <= accepted[-1] + 1e-12:
                accepted.append(v)
        # the accepted sequence is the nonincreasing hull; the restart rule
        # guarantees the iterate objective itself never increases
        assert len(accepted) >= 2

    def test_reports_iterations_and_convergence(self):
        x, fx, iters, conv = minimize_fista(
            lambda z: float(z @ z), lambda z: 2.0 * z, 2.0,
            lambda z: z, np.array([4.0, -4.0]), tol=1e-9, max_iter=1000)
        assert conv
        assert 0 < iters < 1000
        assert fx == pytest.approx(0.0, abs=1e-12)
