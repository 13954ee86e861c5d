import numpy as np
import pytest

from binmpec.linalg import SparseMatrix, matvec
from binmpec.projections import FeasibleSet, project_feasible, projector
from binmpec.subsolver import QuadraticModel, QuadraticObjective, minimize_fista

from reference import (identity, minimize_fista_callbacks, minimize_fista_norms,
                       objective_grad, project_feasible_scatter, qp_face_reference, threaded)


def dense_to_sparse(dense):
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(dense)
    return SparseMatrix.from_coo(dense.shape[0], rows, cols, dense[rows, cols])


def box_set(n, domain="pm1", **kw):
    return FeasibleSet(n, domain, **kw)


class TestQuadraticObjective:
    def test_value_and_grad(self):
        obj = QuadraticObjective(identity(2, scale=2.0),
                                 np.array([1.0, -1.0]), c=3.0)
        x = np.array([2.0, 1.0])
        # 0.5 * 2 * (4 + 1) + (2 - 1) + 3
        assert obj.value(x) == pytest.approx(9.0, abs=1e-12)
        assert np.allclose(objective_grad(obj, x), [5.0, 1.0], atol=1e-12)

    def test_default_lipschitz_covers_spectrum(self):
        obj = QuadraticObjective(dense_to_sparse(np.diag([4.0, 1.0])), np.zeros(2))
        assert obj.lipschitz >= 4.0

    def test_zero_matrix_gets_floor(self):
        A = SparseMatrix(2, [0, 0, 0], [], [])
        obj = QuadraticObjective(A, np.ones(2))
        assert obj.lipschitz > 0.0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_norm_bound_rejected(self):
        # a Lipschitz bound of inf would make FISTA's step 1/L zero
        with pytest.raises(ValueError, match="overflows"):
            QuadraticObjective(dense_to_sparse(np.full((2, 2), 1e308)), np.zeros(2))

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
    def test_lipschitz_positive_at_any_scale(self, alpha):
        # L comes from A's certificate alone, so no multiple of A gives an L
        # that is zero, negative or not finite; with no stored entries even
        # a nonfinite factor makes a valid matrix, which keeps the floor
        empty = SparseMatrix(2, [0, 0, 0], [], []).scaled(alpha)
        assert QuadraticObjective(empty, np.zeros(2)).lipschitz == 1e-9

    def test_requires_symmetric_sparse(self):
        with pytest.raises(ValueError, match="symmetric"):
            SparseMatrix(2, [0, 1, 1], [1], [1.0])
        with pytest.raises(TypeError):
            QuadraticObjective(np.eye(2), np.zeros(2))

    def test_b_length_checked(self):
        with pytest.raises(ValueError):
            QuadraticObjective(identity(2), np.zeros(3))

    def test_scaled_carries_bounds_without_estimating(self, monkeypatch):
        # a power-of-two multiple carries A's certificate (SparseMatrix.scaled),
        # and L is 1.01 times it, at least 1e-9, as for any A
        A = dense_to_sparse([[2.0, -1.0], [-1.0, 2.0]])
        src = QuadraticObjective(A, np.zeros(2))
        monkeypatch.setattr("binmpec.linalg.spectral_norm_estimate", None)
        obj = QuadraticObjective(A.scaled(0.25), np.array([1.0, 2.0]), c=-3.0)
        assert obj.lipschitz == src.lipschitz / 4.0
        assert obj.norm_bound == src.norm_bound / 4.0
        assert obj.norm_bound.lam_min == src.norm_bound.lam_min / 4.0
        assert obj.norm_bound.psd == src.norm_bound.psd == "gershgorin"
        assert np.array_equal(obj.A.to_dense(), src.A.to_dense() / 4.0)
        x = np.array([0.5, -1.0])
        want = 0.125 * float(x @ src.A.to_dense() @ x) + float(x @ [1.0, 2.0]) - 3.0
        assert obj.value(x) == pytest.approx(want, abs=1e-12)
        # below 1e-9 the floor is the multiple's own, not a scaled 1e-9
        assert QuadraticObjective(A.scaled(2.0**-40), np.zeros(2)).lipschitz == 1e-9

    def test_scaled_validates(self):
        A = identity(2)
        with pytest.raises(ValueError, match="finite"):
            A.scaled(np.nan)
        with pytest.raises(ValueError, match="length"):
            QuadraticObjective(A.scaled(0.5), np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            QuadraticObjective(A.scaled(0.5), [np.nan, 0.0])


def solve_over(obj, fs, x0, tol, max_iter, linear=None):
    """The convex QP over a feasible set, as ``solve_lp_round`` solves it:
    (x, objective, iterations, converged)."""
    return minimize_fista(QuadraticModel(obj, linear), lambda z: project_feasible(z, fs),
                          x0, tol=tol, max_iter=max_iter)


class TestSolveQp:
    # minimize_fista on a QuadraticModel over a FeasibleSet's projection
    def test_unconstrained_minimum_inside_box(self):
        # 0.5 ||x||^2 over [-1, 1]^2 from a far corner
        obj = QuadraticObjective(identity(2), np.zeros(2))
        x, _, _, converged = solve_over(obj, box_set(2), np.array([1.0, -1.0]),
                                        tol=1e-10, max_iter=20000)
        assert np.allclose(x, 0.0, atol=1e-6)
        assert converged

    def test_pure_linear_drives_to_corner(self):
        A = SparseMatrix(2, [0, 0, 0], [], [])
        obj = QuadraticObjective(A, np.array([1.0, -1.0]))
        x, _, _, _ = solve_over(obj, box_set(2), np.zeros(2), tol=1e-12, max_iter=5000)
        assert np.allclose(x, [-1.0, 1.0], atol=1e-9)

    def test_sum_constrained_symmetric(self):
        # min x'x - 2 sum(x) over [0,1]^2 with sum = 1 lands at (0.5, 0.5)
        obj = QuadraticObjective(identity(2, scale=2.0),
                                 np.array([-2.0, -2.0]))
        fs = box_set(2, "zeroone", sum_constraint=1.0)
        x, _, _, _ = solve_over(obj, fs, np.array([1.0, 0.0]), tol=1e-10, max_iter=20000)
        assert np.allclose(x, [0.5, 0.5], atol=1e-8)

    def test_linear_extra_matches_baked_in(self):
        # a linear term handed to the model equals the same term as b
        rng = np.random.default_rng(31)
        dense = rng.standard_normal((4, 4))
        dense = dense @ dense.T
        extra = rng.standard_normal(4)
        fs = box_set(4)
        x0 = rng.uniform(-1.0, 1.0, 4)
        a, _, _, _ = solve_over(QuadraticObjective(dense_to_sparse(dense), np.zeros(4)),
                                fs, x0, tol=1e-10, max_iter=20000, linear=extra)
        b, _, _, _ = solve_over(QuadraticObjective(dense_to_sparse(dense), extra),
                                fs, x0, tol=1e-10, max_iter=20000)
        assert np.allclose(a, b, atol=1e-7)

    def test_result_feasible(self):
        rng = np.random.default_rng(37)
        for fs in (box_set(5), box_set(5, sum_constraint=1.5),
                   box_set(6, "zeroone", simplex_blocks=3)):
            dense = rng.standard_normal((fs.n, fs.n))
            dense = dense @ dense.T
            obj = QuadraticObjective(dense_to_sparse(dense),
                                     rng.standard_normal(fs.n))
            x, _, _, _ = solve_over(obj, fs, rng.uniform(-1, 1, fs.n),
                                    tol=1e-8, max_iter=20000)
            proj = project_feasible(x, fs)
            assert np.allclose(x, proj, atol=1e-9)

    def test_never_worse_than_projected_start(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            dense = rng.standard_normal((n, n))
            dense = dense @ dense.T
            obj = QuadraticObjective(dense_to_sparse(dense), rng.standard_normal(n))
            fs = box_set(n)
            x0 = rng.uniform(-2, 2, n)
            _, fx, _, _ = solve_over(obj, fs, x0, tol=1e-6, max_iter=2000)
            assert fx <= obj.value(project_feasible(x0, fs)) + 1e-9

    def test_variational_inequality_at_solution(self):
        # convex case: <grad(x*), y - x*> >= 0 for all feasible y
        rng = np.random.default_rng(43)
        for trial in range(8):
            n = int(rng.integers(2, 11))
            dense = rng.standard_normal((n, n))
            dense = dense @ dense.T
            obj = QuadraticObjective(dense_to_sparse(dense), rng.standard_normal(n))
            fs = box_set(n) if trial % 2 else box_set(n, sum_constraint=0.0)
            x, _, _, _ = solve_over(obj, fs, rng.uniform(-1, 1, n),
                                    tol=1e-12, max_iter=50000)
            g = objective_grad(obj, x)
            for _ in range(100):
                y = project_feasible(rng.uniform(-2, 2, n), fs)
                assert float(np.dot(g, y - x)) >= -1e-6

    def test_matches_exact_face_reference(self):
        rng = np.random.default_rng(47)
        for trial in range(5):
            n = int(rng.integers(2, 7))
            dense = rng.standard_normal((n, n))
            dense = dense @ dense.T + 0.5 * np.eye(n)
            obj = QuadraticObjective(dense_to_sparse(dense), rng.standard_normal(n))
            fs = box_set(n) if trial % 2 else box_set(n, sum_constraint=1.0)
            x0 = rng.uniform(-1, 1, n)
            x, fx, _, _ = solve_over(obj, fs, x0, tol=1e-12, max_iter=50000)
            ref = qp_face_reference(dense, obj.b, -1.0, 1.0, fs.sum_constraint)
            assert np.allclose(x, ref, rtol=0.0, atol=1e-8)
            assert fx <= obj.value(ref) + 1e-8

    def test_dimension_mismatches(self):
        obj = QuadraticObjective(identity(2), np.zeros(2))
        with pytest.raises(ValueError):
            solve_over(obj, box_set(3), np.zeros(3), tol=1e-5, max_iter=2000)
        # the model's products check nothing, so minimize_fista checks its
        # projected start; a clip keeps a short start's length, and past
        # the check the padded product would raise IndexError on it
        obj3 = QuadraticObjective(identity(3, scale=2.0), np.ones(3))
        for start in (np.zeros(2), np.zeros(1)):
            with pytest.raises(ValueError, match="dimension mismatch: matrix has order 3"):
                minimize_fista(QuadraticModel(obj3), lambda z: np.clip(z, -1.0, 1.0),
                               start, tol=1e-5, max_iter=2000)
        with pytest.raises(ValueError, match="linear of shape"):
            solve_over(obj, box_set(2), np.zeros(2), tol=1e-5, max_iter=2000,
                       linear=np.zeros(3))
        with pytest.raises(ValueError, match="w of shape"):
            QuadraticModel(obj, mu=1.0, w=np.zeros(3))
        with pytest.raises(ValueError, match="u of shape"):
            QuadraticModel(obj, alpha=1.0, u=np.zeros((2, 1)), t=2.0)


def model_shapes(obj, rng):
    """The four x-step models, each with the callback pair it replaced:
    (name, model, value, grad, lipschitz, value(x) - model's f(x))."""
    n = obj.n
    rho = float(rng.uniform(0.5, 2.0))
    v = rng.standard_normal(n)
    v *= np.sqrt(n) / np.linalg.norm(v)
    alpha = float(rng.uniform(0.1, 1.0))
    mu = float(rng.uniform(0.1, 1.0))
    w = rng.standard_normal(n)
    extra = rng.standard_normal(n)

    def adm_gap(z):
        return float(n) - float(np.dot(z, v))

    return [
        ("epm", QuadraticModel(obj, obj.b - rho * v),
         lambda z: obj.value(z) - rho * float(np.dot(z, v)),
         lambda z: objective_grad(obj, z) - rho * v, obj.lipschitz, 0.0),
        ("adm", QuadraticModel(obj, obj.b - rho * v, alpha=alpha, u=v, t=n),
         lambda z: obj.value(z) + rho * adm_gap(z) + 0.5 * alpha * adm_gap(z) ** 2,
         lambda z: objective_grad(obj, z) - (rho + alpha * adm_gap(z)) * v,
         obj.lipschitz + alpha * float(np.dot(v, v)), rho * n),
        ("l2box", QuadraticModel(obj, mu=mu, w=w),
         lambda z: obj.value(z) + 0.5 * mu * float(np.dot(z - w, z - w)),
         lambda z: objective_grad(obj, z) + mu * (z - w), obj.lipschitz + mu, 0.0),
        ("qp", QuadraticModel(obj, obj.b + extra),
         lambda z: obj.value(z) + float(np.dot(extra, z)),
         lambda z: objective_grad(obj, z) + extra, obj.lipschitz, 0.0),
    ]


def random_objective(rng, n):
    dense = rng.standard_normal((n, n))
    return QuadraticObjective(dense_to_sparse(dense @ dense.T), rng.standard_normal(n))


def counting_products(monkeypatch):
    """Count matrix products: returns (calls, prepared), two lists that
    get a 1 on each call of a prepared product and on each request for
    one (``SparseMatrix.product``), which a model makes when it is built."""
    calls, prepared = [], []
    prepare = SparseMatrix.product

    def counting(M):
        prepared.append(1)
        product = prepare(M)
        return lambda x: calls.append(1) or product(x)

    monkeypatch.setattr(SparseMatrix, "product", counting)
    return calls, prepared


class TestQuadraticModel:
    def test_value_and_grad_match_callbacks(self):
        rng = np.random.default_rng(59)
        obj = random_objective(rng, 7)
        for name, model, value, grad, lip, offset in model_shapes(obj, rng):
            x = rng.uniform(-1.0, 1.0, 7)
            f, Ax = model.evaluate(x)
            assert f + offset == pytest.approx(value(x), rel=1e-12), name
            assert np.allclose(model.grad(x, Ax), grad(x), rtol=1e-12, atol=1e-12)
            assert model.lipschitz == lip

    def test_product_reuses_last_evaluation(self, monkeypatch):
        obj = QuadraticObjective(identity(3, scale=2.0), np.zeros(3))
        calls, prepared = counting_products(monkeypatch)
        model = QuadraticModel(obj)
        x = np.array([1.0, 2.0, 3.0])
        _, Ax = model.evaluate(x)
        assert calls == [1]
        calls.clear()
        assert model.product(x) is Ax
        assert calls == []
        assert np.array_equal(model.product(x.copy()), Ax)
        assert calls == [1]
        # the model took its product once, when built
        assert prepared == [1]

    @pytest.mark.parametrize("shape", ["adm", "l2box"])
    def test_penalty_terms_stay_centred(self, shape):
        # at the largest weights the solvers reach, a penalty folded into
        # A + mu I + alpha uu' brings a constant (0.5 alpha n^2 = 4e11, or
        # 0.5 mu ||w||^2 = 4.5e12) whose rounding alone is 1e-8 or more of
        # the value here
        n = 900
        rng = np.random.default_rng(67)
        obj = QuadraticObjective(identity(n, scale=2.0),
                                 rng.standard_normal(n))
        s = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        x = np.clip(s + 1e-4 * rng.standard_normal(n), -1.0, 1.0)
        if shape == "adm":
            rho, alpha = 2.0, 1e6
            model = QuadraticModel(obj, obj.b - rho * s, alpha=alpha, u=s, t=n)
            gap = float(n) - float(np.dot(x, s))
            # the model leaves out the Lagrangian's constant rho * n
            want = obj.value(x) + rho * gap + 0.5 * alpha * gap * gap - rho * n
        else:
            mu = 1e10
            w = s + 1e-4 * rng.standard_normal(n)
            model = QuadraticModel(obj, mu=mu, w=w)
            want = obj.value(x) + 0.5 * mu * float(np.dot(x - w, x - w))
        assert model.evaluate(x)[0] == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("kw", [{"mu": -1.0, "w": np.zeros(2)},
                                    {"alpha": -1.0, "u": np.ones(2)}])
    def test_negative_weights_rejected(self, kw):
        obj = QuadraticObjective(identity(2), np.zeros(2))
        with pytest.raises(ValueError, match="nonnegative"):
            QuadraticModel(obj, **kw)

    @pytest.mark.parametrize("kw,name", [({"mu": 1.0}, "w"), ({"alpha": 1.0, "t": 2.0}, "u")])
    def test_weight_without_its_vector_rejected(self, kw, name):
        # unchecked, these build and fail at the first evaluate with a bare TypeError
        obj = QuadraticObjective(identity(2), np.zeros(2))
        with pytest.raises(ValueError, match="needs %s" % name):
            QuadraticModel(obj, **kw)


class TestMinimizeFista:
    def test_monotone_objective(self, monkeypatch):
        # every evaluation is either an accepted iterate or a rejected
        # accelerated candidate followed by the accepted restart step
        values = []
        evaluate = QuadraticModel.evaluate

        def recording(self, x):
            f, Ax = evaluate(self, x)
            values.append(f)
            return f, Ax

        monkeypatch.setattr(QuadraticModel, "evaluate", recording)
        rng = np.random.default_rng(53)
        _, fx, iters, _ = minimize_fista(QuadraticModel(random_objective(rng, 6)),
                                         lambda z: np.clip(z, -1, 1),
                                         rng.uniform(-1, 1, 6), tol=1e-12,
                                         max_iter=500)
        accepted = [values[0]]
        i = 1
        while i < len(values):
            if values[i] > accepted[-1] + 1e-12:
                i += 1  # rejected candidate; the restart step follows
            accepted.append(values[i])
            i += 1
        assert len(accepted) == iters + 1
        assert len(values) > len(accepted)  # the restart branch ran
        assert accepted[-1] == fx
        # the restart rule's guarantee, up to its 1e-12 acceptance margin
        assert np.all(np.diff(accepted) <= 1e-12)

    def test_reports_iterations_and_convergence(self):
        # f = z'z from a far point
        obj = QuadraticObjective(identity(2, scale=2.0), np.zeros(2))
        x, fx, iters, conv = minimize_fista(
            QuadraticModel(obj), lambda z: z, np.array([4.0, -4.0]),
            tol=1e-9, max_iter=1000)
        assert conv
        assert 0 < iters < 1000
        assert fx == pytest.approx(0.0, abs=1e-12)

    def test_matches_callback_loop(self):
        rng = np.random.default_rng(73)
        for trial in range(6):
            n = int(rng.integers(3, 12))
            obj = random_objective(rng, n)
            fs = box_set(n) if trial % 2 else box_set(n, sum_constraint=0.5)
            x0 = rng.uniform(-1.0, 1.0, n)
            for name, model, value, grad, lip, _ in model_shapes(obj, rng):
                def project(z):
                    return project_feasible(z, fs)
                x, _, iters, conv = minimize_fista(model, project, x0, tol=1e-10,
                                                   max_iter=20000)
                rx, _, riters, rconv = minimize_fista_callbacks(
                    value, grad, lip, project, x0, tol=1e-10, max_iter=20000)
                assert np.allclose(x, rx, rtol=0.0, atol=1e-9), name
                assert abs(iters - riters) <= 1, (name, iters, riters)
                assert conv and rconv

    def test_same_bytes_as_norm_loop(self, monkeypatch):
        # the loop before the step difference was shared and the norms
        # taken as sqrt(v'v): equal bytes, values, counts and verdicts, on
        # every model shape (mu > 0 for l2box, alpha > 0 for adm), with
        # restarts that run, through pinned and pinless sum and box sets
        evaluations = []
        evaluate = QuadraticModel.evaluate

        def counting(self, x):
            evaluations.append(1)
            return evaluate(self, x)

        monkeypatch.setattr(QuadraticModel, "evaluate", counting)
        rng = np.random.default_rng(83)
        restarts = {}
        for trial in range(8):
            n = int(rng.integers(3, 12))
            obj = random_objective(rng, n)
            pins = ((0, 1.0),) if trial % 4 > 1 else ()
            fs = box_set(n, pinned=pins) if trial % 2 else box_set(n, sum_constraint=0.5,
                                                                   pinned=pins)
            x0 = rng.uniform(-1.0, 1.0, n)
            for name, model, _, _, _, _ in model_shapes(obj, rng):
                for tol in (1e-5, 1e-12):
                    evaluations.clear()
                    got = minimize_fista(model, projector(fs, warm=True), x0,
                                         tol=tol, max_iter=400)
                    restarts[name] = restarts.get(name, 0) + len(evaluations) - 1 - got[2]
                    want = minimize_fista_norms(
                        model, threaded(project_feasible_scatter, fs), x0,
                        tol=tol, max_iter=400)
                    assert got[0].tobytes() == want[0].tobytes(), name
                    assert got[1:] == want[1:], name
        assert all(count > 0 for count in restarts.values()), restarts

    def test_evaluate_same_value_as_np_dot(self):
        rng = np.random.default_rng(89)
        obj = random_objective(rng, 9)
        for name, model, _, _, _, _ in model_shapes(obj, rng):
            x = rng.uniform(-1.0, 1.0, 9)
            Ax = matvec(obj.A, x)
            want = 0.5 * float(np.dot(x, Ax)) + float(np.dot(model.linear, x)) + model.c
            if model.mu:
                want += 0.5 * model.mu * float(np.dot(x - model.w, x - model.w))
            if model.alpha:
                gap = model.t - float(np.dot(model.u, x))
                want += 0.5 * model.alpha * gap * gap
            assert model.evaluate(x)[0] == want, name

    def test_one_product_per_value_evaluation(self, monkeypatch):
        counts = {"values": 0, "grads": 0}

        def counted(key, method):
            def call(self, *args):
                counts[key] += 1
                return method(self, *args)
            return call

        products, prepared = counting_products(monkeypatch)
        monkeypatch.setattr(QuadraticModel, "evaluate",
                            counted("values", QuadraticModel.evaluate))
        monkeypatch.setattr(QuadraticModel, "grad", counted("grads", QuadraticModel.grad))
        rng = np.random.default_rng(79)
        obj = random_objective(rng, 8)
        iterations = 0
        for _, model, _, _, _, _ in model_shapes(obj, rng):
            iterations += minimize_fista(model, lambda z: np.clip(z, -1, 1),
                                         rng.uniform(-1, 1, 8), tol=1e-10,
                                         max_iter=5000)[2]
        assert counts["grads"] >= iterations > 0
        assert len(products) == counts["values"]
        # one prepared product per model, bound when it was built
        assert len(prepared) == 4
