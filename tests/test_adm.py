import numpy as np
import pytest

from binmpec.adm import solve_adm
from binmpec.epm import ALPHA_CAP, PenaltyConfig, epm_v_update
from binmpec.oracle import brute_force
from binmpec.problems import (Graph, build_bisection, build_dense_subgraph,
                              build_mrf, generate)

C4 = Graph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)))


class TestConfig:
    # the settings solve_adm reads; tests/test_epm.py checks solve_epm's
    @pytest.mark.parametrize("kw", [
        {"alpha0": 0.0}, {"alpha0": -0.5}, {"sigma": 1.0}, {"inner_T": 0},
        {"max_outer": 0}, {"feas_tol": 0.0},
        {"alpha0": float("nan")}, {"alpha0": float("inf")},
        {"sigma": float("nan")}, {"sigma": float("inf")},
        {"feas_tol": float("nan")}, {"feas_tol": float("inf")},
        {"max_outer": 2.5}, {"inner_T": 1.5}, {"inner_max_iter": True},
        {"alpha0": 10.0 * ALPHA_CAP}, {"sigma": "3"}, {"alpha0": None},
        {"alpha0": True},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            PenaltyConfig(**kw)

    def test_numpy_counts_and_cap_accepted(self):
        cfg = PenaltyConfig(alpha0=ALPHA_CAP, inner_T=np.int64(3), max_outer=np.int32(2))
        rep = solve_adm(build_bisection(C4), cfg)
        assert rep.outer_iterations <= 2


def v_step_objective(x, v, rho, alpha, n):
    """The Lagrangian as a function of v alone, less its constant terms."""
    u = float(np.dot(x, v))
    return -(rho + alpha * n) * u + 0.5 * alpha * u * u


class TestVUpdate:
    """adm's v-step is epm_v_update: on the box, with rho >= 0, it does
    not depend on rho or alpha."""

    def test_zero_x(self):
        assert epm_v_update(np.zeros(3)).tolist() == [0.0] * 3

    def test_saturates_ball_on_box_points(self):
        # u* = n + rho/alpha >= n >= sqrt(n)||x||: the ball always binds
        rng = np.random.default_rng(131)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            x = rng.uniform(-1.0, 1.0, n)
            if np.linalg.norm(x) < 1e-6:
                continue
            rho = float(rng.uniform(0.0, 5.0))
            alpha = float(rng.uniform(0.01, 10.0))
            v = epm_v_update(x)
            assert np.linalg.norm(v) == pytest.approx(np.sqrt(n), rel=1e-12)
            assert float(np.dot(x, v)) <= n + rho / alpha
            assert np.allclose(v, np.sqrt(n) * x / np.linalg.norm(x), atol=1e-12)

    def test_matches_ball_qp_solution(self):
        # the step minimizes -(rho + alpha n)<x, v> + (alpha/2)<x, v>^2
        # over the sqrt(n) ball, checked against random feasible v
        rng = np.random.default_rng(137)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            x = rng.uniform(-1.0, 1.0, n)
            if np.linalg.norm(x) < 1e-3:
                continue
            rho = float(rng.uniform(0.0, 4.0))
            alpha = float(rng.uniform(0.01, 5.0))
            best = v_step_objective(x, epm_v_update(x), rho, alpha, n)
            d = rng.standard_normal((40, n))
            d[:10] = x  # along x, at interior radii: the only close rivals
            d /= np.linalg.norm(d, axis=1, keepdims=True)
            radii = np.sqrt(n) * rng.uniform(0.0, 1.0, 40) ** (1.0 / n)
            radii[10:20] = np.sqrt(n)
            for v in radii[:, None] * d:
                assert best <= (v_step_objective(x, v, rho, alpha, n)
                               + 1e-12 * max(1.0, abs(best)))


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
