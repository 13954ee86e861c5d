import numpy as np
import pytest

from binmpec.adm import (AdmConfig, RankOneQp, adm_v_update, solve_adm,
                         solve_rank_one_ball_qp)
from binmpec.oracle import brute_force
from binmpec.problems import (Graph, build_bisection, build_dense_subgraph,
                              build_mrf, generate)

from reference import rank_one_ball_oracle

C4 = Graph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)))


def qp_objective(q, x):
    return (0.5 * q.gamma * float(np.dot(x, x))
            + 0.5 * float(np.dot(q.b, x)) ** 2 + float(np.dot(q.c, x)))


def assert_kkt(q, x, theta):
    # primal feasibility, dual feasibility, complementary slackness,
    # stationarity of the ball-constrained problem
    nrm = float(np.linalg.norm(x))
    assert theta >= 0.0
    assert nrm <= q.beta + 1e-9
    assert theta * (nrm * nrm - q.beta * q.beta) == pytest.approx(0.0, abs=1e-6)
    resid = (q.gamma + theta) * x + q.b * float(np.dot(q.b, x)) + q.c
    assert np.linalg.norm(resid) <= 1e-6 * max(1.0, float(np.linalg.norm(q.c)))


class TestConfig:
    @pytest.mark.parametrize("kw", [
        {"alpha0": 0.0}, {"alpha0": -0.5}, {"sigma": 1.0}, {"inner_T": 0},
        {"max_outer": 0}, {"feas_tol": 0.0},
        {"alpha0": float("nan")}, {"alpha0": float("inf")},
        {"sigma": float("nan")}, {"sigma": float("inf")},
        {"feas_tol": float("nan")}, {"feas_tol": float("inf")},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            AdmConfig(**kw)


class TestRankOneQp:
    def test_validation(self):
        with pytest.raises(ValueError):
            RankOneQp(-1.0, np.ones(2), np.ones(2), 1.0)
        with pytest.raises(ValueError):
            RankOneQp(1.0, np.ones(2), np.ones(2), 0.0)
        with pytest.raises(ValueError):
            RankOneQp(1.0, np.ones(2), np.ones(3), 1.0)

    def test_zero_linear_term(self):
        q = RankOneQp(1.0, np.array([1.0, 0.0]), np.zeros(2), 2.0)
        x, theta = solve_rank_one_ball_qp(q)
        assert x.tolist() == [0.0, 0.0]
        assert theta == 0.0

    def test_interior_solution(self):
        # gamma I dominates: unconstrained minimum -c/gamma lies inside
        q = RankOneQp(4.0, np.zeros(2), np.array([1.0, -1.0]), 10.0)
        x, theta = solve_rank_one_ball_qp(q)
        assert theta == 0.0
        assert np.allclose(x, [-0.25, 0.25], atol=1e-10)

    def test_boundary_pure_linear(self):
        # gamma = 0, b = 0: minimize <c, x> on the ball
        q = RankOneQp(0.0, np.zeros(2), np.array([3.0, 4.0]), 1.0)
        x, theta = solve_rank_one_ball_qp(q)
        assert np.allclose(x, [-0.6, -0.8], atol=1e-8)
        assert theta == pytest.approx(5.0, rel=1e-8)
        assert_kkt(q, x, theta)

    def test_parallel_degenerate_interior(self):
        # gamma = 0 with c parallel to b: the stationary set is the
        # hyperplane b'x = -t/r, reachable inside the ball
        b = np.array([2.0, 0.0])
        q = RankOneQp(0.0, b, 0.5 * b, 10.0)
        x, theta = solve_rank_one_ball_qp(q)
        assert np.linalg.norm(x) <= 10.0
        assert float(np.dot(b, x)) == pytest.approx(-0.5, abs=1e-6)
        want = qp_objective(q, np.array([-0.25, 0.0]))
        assert want == pytest.approx(-0.125)
        assert qp_objective(q, x) == pytest.approx(want, abs=1e-9)

    def test_kkt_random(self):
        rng = np.random.default_rng(113)
        for trial in range(40):
            n = 2 if trial % 2 else 5
            gamma = 0.0 if trial % 3 == 0 else float(rng.uniform(0.0, 3.0))
            q = RankOneQp(gamma, rng.standard_normal(n),
                          rng.standard_normal(n), float(rng.uniform(0.5, 3.0)))
            x, theta = solve_rank_one_ball_qp(q)
            assert_kkt(q, x, theta)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(127)
        for trial in range(25):
            n = 2 if trial < 15 else 5
            gamma = 0.0 if trial % 4 == 0 else float(rng.uniform(0.0, 2.0))
            q = RankOneQp(gamma, rng.standard_normal(n),
                          rng.standard_normal(n), float(rng.uniform(0.5, 2.5)))
            x, _ = solve_rank_one_ball_qp(q)
            _, val_ref = rank_one_ball_oracle(q.gamma, q.b, q.c, q.beta)
            got = qp_objective(q, x)
            assert got <= val_ref + 1e-6 * max(1.0, abs(val_ref))
            assert got == pytest.approx(val_ref, abs=1e-5, rel=1e-5)


class TestVUpdate:
    def test_zero_x(self):
        assert adm_v_update(np.zeros(3), 1.0, 0.5, 3).tolist() == [0.0] * 3

    def test_alpha_positive_required(self):
        with pytest.raises(ValueError):
            adm_v_update(np.ones(2), 1.0, 0.0, 2)

    def test_saturates_ball_on_box_points(self):
        rng = np.random.default_rng(131)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            x = rng.uniform(-1.0, 1.0, n)
            if np.linalg.norm(x) < 1e-6:
                continue
            v = adm_v_update(x, float(rng.uniform(0.0, 5.0)),
                             float(rng.uniform(0.01, 10.0)), n)
            assert np.linalg.norm(v) == pytest.approx(np.sqrt(n), rel=1e-12)
            assert np.allclose(v, np.sqrt(n) * x / np.linalg.norm(x), atol=1e-12)

    def test_matches_ball_qp_solution(self):
        # the v-step is itself a rank-one ball QP in v; the closed form
        # must match the bisection solver's objective
        rng = np.random.default_rng(137)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            x = rng.uniform(-1.0, 1.0, n)
            if np.linalg.norm(x) < 1e-3:
                continue
            rho = float(rng.uniform(0.0, 4.0))
            alpha = float(rng.uniform(0.01, 5.0))
            v = adm_v_update(x, rho, alpha, n)
            q = RankOneQp(0.0, np.sqrt(alpha) * x, -(rho + alpha * n) * x,
                          np.sqrt(n))
            v_qp, _ = solve_rank_one_ball_qp(q)
            assert qp_objective(q, v) <= qp_objective(q, v_qp) + 1e-8


class TestSolveAdm:
    def test_c4_bisection_exact(self):
        prob = build_bisection(C4)
        rep = solve_adm(prob)
        _, f_star, _ = brute_force(prob)
        assert rep.converged and rep.feasible
        assert rep.method == "adm"
        assert rep.objective_binary == pytest.approx(f_star, abs=1e-9)

    def test_mrf_exact(self):
        g = Graph(2, ((0, 1, 1.0),))
        prob = build_mrf(g, [-1.0, 0.2])
        rep = solve_adm(prob)
        assert rep.feasible
        assert rep.objective_binary == pytest.approx(-0.8, abs=1e-9)

    def test_dense_subgraph_triangle(self):
        k3 = Graph(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))
        prob = build_dense_subgraph(k3, 2)
        rep = solve_adm(prob)
        _, f_star, _ = brute_force(prob)
        # the solve may stall at a symmetric relaxed point, but the
        # rounded answer is still an optimal pair
        assert rep.feasible
        assert rep.objective_binary == pytest.approx(f_star, abs=1e-9)

    def test_multiplier_monotone_and_capped(self):
        for seed in range(3):
            g = generate("erdos_renyi", {"n": 12, "p": 0.4}, seed=seed)
            prob = build_bisection(g)
            rep = solve_adm(prob, seed=seed)
            rhos = [row[3] for row in rep.trace]
            assert all(b >= a - 1e-12 for a, b in zip(rhos, rhos[1:]))
            assert max(rhos) <= rep.problem["rho_cap"] + 1e-12
            assert all(row[2] >= -1e-9 for row in rep.trace)

    def test_terminating_run_is_binary(self):
        prob = build_bisection(C4)
        rep = solve_adm(prob)
        assert rep.converged
        xr = np.array(rep.x_relaxed)
        assert np.max(np.abs(xr - np.sign(xr))) <= 1e-6

    def test_same_seed_same_trace(self):
        prob = build_bisection(C4)
        a = solve_adm(prob, seed=3)
        b = solve_adm(prob, seed=3)
        assert a.trace == b.trace
        assert a.x_binary == b.x_binary

    def test_gap_final_matches_trace(self):
        rep = solve_adm(build_bisection(C4))
        assert rep.trace[-1][2] == pytest.approx(
            rep.complementarity_gap_final, abs=1e-15)
