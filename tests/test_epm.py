import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from binmpec.adm import solve_adm
from binmpec.baselines import solve_l2box_admm
from binmpec.epm import ALPHA_CAP, PenaltyConfig, epm_v_update, solve_epm
from binmpec.oracle import brute_force
from binmpec.problems import (Graph, ProblemInstance, build_bisection,
                              build_modularity, build_mrf, generate)
from binmpec.projections import FeasibleSet
from binmpec.subsolver import QuadraticModel, QuadraticObjective

from reference import ball_linear_max_oracle, identity

C4 = Graph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)))


def identity_instance(n, b=None, scale=1.0):
    obj = QuadraticObjective(identity(n, scale=scale),
                             np.zeros(n) if b is None else np.asarray(b, float))
    fs = FeasibleSet(n, "pm1")
    return ProblemInstance(obj, fs)


class TestConfig:
    """One PenaltyConfig for both solvers: solve_epm reads rho0,
    solve_adm alpha0."""

    def test_defaults(self):
        cfg = PenaltyConfig()
        assert cfg.rho0 == pytest.approx(0.01)
        assert cfg.alpha0 == pytest.approx(0.001)
        assert cfg.sigma == pytest.approx(np.sqrt(10.0))
        assert cfg.inner_T == 10

    def test_eight_fields(self):
        assert [f.name for f in dataclasses.fields(PenaltyConfig)] == [
            "rho0", "alpha0", "sigma", "inner_T", "feas_tol", "max_outer",
            "inner_tol", "inner_max_iter"]

    # the settings solve_epm reads; tests/test_adm.py checks solve_adm's
    @pytest.mark.parametrize("kw", [
        {"rho0": 0.0}, {"rho0": -1.0}, {"sigma": 1.0}, {"inner_T": 0},
        {"feas_tol": 0.0}, {"max_outer": 0},
        {"rho0": float("nan")}, {"rho0": float("inf")},
        {"sigma": float("nan")}, {"sigma": float("inf")},
        {"feas_tol": float("nan")}, {"feas_tol": float("inf")},
        {"inner_T": 1.5}, {"max_outer": 2.5}, {"inner_max_iter": True},
        {"inner_T": "3"}, {"rho0": "0.1"}, {"rho0": None}, {"rho0": True},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            PenaltyConfig(**kw)

    @pytest.mark.parametrize("name", ["bisection", "modularity", "mrf"])
    @pytest.mark.parametrize("solve,other", [
        (solve_epm, {"alpha0": 0.5}), (solve_adm, {"rho0": 7.0}),
    ])
    def test_other_schedule_start_is_not_read(self, schedule_instances, name, solve, other):
        prob = schedule_instances[name]
        a = json.loads(solve(prob, PenaltyConfig(), seed=2).to_json())
        b = json.loads(solve(prob, PenaltyConfig(**other), seed=2).to_json())
        del a["wall_time_ms"], b["wall_time_ms"]
        assert json.dumps(a) == json.dumps(b)


class TestVUpdate:
    def test_rescales_to_sphere(self):
        v = epm_v_update(np.array([0.6, -0.8]))
        assert np.allclose(v, np.sqrt(2.0) * np.array([0.6, -0.8]), atol=1e-12)
        assert np.linalg.norm(v) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_zero_input(self):
        assert epm_v_update(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def test_binary_fixed_point(self):
        x = np.array([1.0, -1.0, 1.0])
        assert np.allclose(epm_v_update(x), x, atol=1e-12)

    def test_maximizes_inner_product_on_ball(self):
        rng = np.random.default_rng(107)
        for _ in range(25):
            x = rng.standard_normal(2)
            if np.linalg.norm(x) < 1e-6:
                continue
            v = epm_v_update(x)
            v_ref, val_ref = ball_linear_max_oracle(x, np.sqrt(2.0))
            assert float(np.dot(x, v)) == pytest.approx(val_ref, rel=1e-6)
            assert np.allclose(v, v_ref, atol=1e-4)

    def test_higher_dimension_dominates_samples(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            x = rng.standard_normal(n)
            v = epm_v_update(x)
            best = float(np.dot(x, v))
            for _ in range(50):
                u = rng.standard_normal(n)
                u *= np.sqrt(n) / np.linalg.norm(u)
                assert float(np.dot(x, u)) <= best + 1e-9


class TestSolveExamples:
    def test_strongly_convex_pulls_to_vertex(self):
        # f = 0.5 ||x||^2 is symmetric: every vertex is optimal with f = 1
        rep = solve_epm(identity_instance(2))
        assert rep.converged
        assert rep.feasible
        assert rep.objective_binary == pytest.approx(1.0, abs=1e-9)
        assert set(np.abs(rep.x_binary).tolist()) == {1.0}

    def test_linear_single_variable(self):
        # f = 0.5 x^2 - 10 x: the +1 vertex wins
        rep = solve_epm(identity_instance(1, b=[-10.0]))
        assert rep.x_binary == (1.0,)
        assert rep.objective_binary == pytest.approx(-9.5)

    def test_c4_bisection_exact(self):
        prob = build_bisection(C4)
        rep = solve_epm(prob)
        _, f_star, _ = brute_force(prob)
        assert rep.converged and rep.feasible
        assert rep.objective_binary == pytest.approx(f_star, abs=1e-9)

    def test_mrf_exact(self):
        g = Graph(2, ((0, 1, 1.0),))
        prob = build_mrf(g, [-1.0, 0.2])
        rep = solve_epm(prob)
        assert rep.feasible
        assert rep.objective_binary == pytest.approx(-0.8, abs=1e-9)
        assert rep.x_binary == (1.0, 1.0)


@pytest.fixture(scope="module")
def reports():
    out = []
    for seed in range(3):
        g = generate("erdos_renyi", {"n": 12, "p": 0.4}, seed=seed)
        prob = build_bisection(Graph(12, g.edges))
        out.append((prob, solve_epm(prob, seed=seed)))
    out.append((build_bisection(C4), solve_epm(build_bisection(C4))))
    return out


class TestTraceInvariants:
    def test_penalty_capped_and_monotone(self, reports):
        for prob, rep in reports:
            cap = rep.problem["rho_cap"]
            rhos = [row[3] for row in rep.trace]
            assert max(rhos) <= cap + 1e-12
            assert all(b >= a - 1e-12 for a, b in zip(rhos, rhos[1:]))

    def test_gap_nonnegative(self, reports):
        for _, rep in reports:
            assert all(row[2] >= -1e-9 for row in rep.trace)

    def test_gap_final_matches_report(self, reports):
        for _, rep in reports:
            assert rep.trace[-1][2] == pytest.approx(
                rep.complementarity_gap_final, abs=1e-15)

    def test_terminating_runs_are_binary(self, reports):
        for _, rep in reports:
            if rep.converged:
                xr = np.array(rep.x_relaxed)
                assert np.max(np.abs(xr - np.sign(xr))) <= 1e-6

    def test_outer_iterations_bounded(self, reports):
        for _, rep in reports:
            assert 1 <= rep.outer_iterations <= 100
            assert len(rep.trace) <= rep.outer_iterations * 10


@pytest.fixture(scope="module")
def schedule_instances():
    er = generate("erdos_renyi", {"n": 12, "p": 0.4}, seed=2)
    unary = np.random.default_rng(11).uniform(-0.5, 0.5, 12)
    return {
        "bisection": build_bisection(Graph(12, er.edges)),
        "modularity": build_modularity(generate("four_gauss_knn", {"n": 12, "knn": 3},
                                                seed=5), 3),
        "mrf": build_mrf(Graph(12, er.edges), unary.tolist()),
    }


class TestSchedule:
    """Each trace's penalty column, recomputed bit for bit from the
    schedule: epm escalates rho between rounds of inner_T sweeps; adm
    steps rho by alpha * gap every sweep and escalates alpha.  Short
    rounds make every run escalate, and at inner_T = 1 rho reaches its
    cap on all but the epm MRF run."""

    @pytest.mark.parametrize("name", ["bisection", "modularity", "mrf"])
    @pytest.mark.parametrize("solve,config", [
        (solve_epm, PenaltyConfig(inner_T=3)), (solve_epm, PenaltyConfig(inner_T=1)),
        (solve_adm, PenaltyConfig(inner_T=3)),
        (solve_adm, PenaltyConfig(alpha0=ALPHA_CAP / 2, inner_T=1)),
    ])
    def test_penalty_column(self, schedule_instances, name, solve, config):
        rep = solve(schedule_instances[name], config)
        cap = rep.problem["rho_cap"]
        expected = []
        if rep.method == "epm":
            rho = min(config.rho0, cap)
            for i in range(len(rep.trace)):
                if i and i % config.inner_T == 0:
                    rho = min(rho * config.sigma, cap)
                expected.append(rho)
        else:
            rho, alpha = 0.0, config.alpha0
            for i, (_, _, gap, _) in enumerate(rep.trace):
                if i and i % config.inner_T == 0:
                    alpha = min(alpha * config.sigma, ALPHA_CAP)
                rho = min(rho + alpha * gap, cap)
                expected.append(rho)
        assert [row[3] for row in rep.trace] == expected
        assert len(rep.trace) > config.inner_T  # at least one escalation


class TestDeterminism:
    def test_same_seed_same_trace(self):
        # modularity products go through BLAS (W @ X), bisection's through
        # bincount; l2box's settled stop compares roundings exactly
        modularity = build_modularity(generate("four_gauss_knn", {"n": 24, "knn": 3},
                                               seed=5), 3)
        for prob, solve in ((build_bisection(C4), solve_epm),
                            (modularity, solve_epm), (modularity, solve_adm),
                            (modularity, lambda prob, seed: solve_l2box_admm(prob))):
            a = solve(prob, seed=7)
            b = solve(prob, seed=7)
            assert a.trace == b.trace
            assert a.x_binary == b.x_binary

    def test_different_seeds_still_optimal(self):
        prob = build_bisection(C4)
        _, f_star, _ = brute_force(prob)
        for seed in range(5):
            rep = solve_epm(prob, seed=seed)
            assert rep.objective_binary == pytest.approx(f_star, abs=1e-9)


class TestInnerSolverSettings:
    # FISTA would run silently to its cap (tol <= 0 or nan), stop at
    # once (tol = inf) or not run at all (max_iter < 1), with either
    # schedule start set: "EpmConfig" sets rho0, "AdmConfig" alpha0 at its cap
    @pytest.mark.parametrize("start", [{"rho0": 0.5}, {"alpha0": ALPHA_CAP}],
                             ids=["EpmConfig", "AdmConfig"])
    @pytest.mark.parametrize("kw", [
        {"inner_tol": 0.0}, {"inner_tol": -1e-5}, {"inner_tol": float("nan")},
        {"inner_tol": float("inf")}, {"inner_max_iter": 0}, {"inner_max_iter": -3},
    ])
    def test_rejected(self, start, kw):
        with pytest.raises(ValueError, match="inner_"):
            PenaltyConfig(**start, **kw)

    @pytest.mark.parametrize("bad", [0.0, -4.0, float("nan"), float("inf")])
    def test_model_rejects_bad_lipschitz(self, bad):
        # 1/L is FISTA's step: 0 divides by zero, a negative L climbs
        obj = SimpleNamespace(A=identity(2), b=np.zeros(2), c=0.0,
                              lipschitz=bad)
        with pytest.raises(ValueError, match="finite and positive"):
            QuadraticModel(obj)

    def test_model_rejects_overflowing_lipschitz(self):
        obj = QuadraticObjective(identity(2), np.zeros(2))
        with pytest.raises(ValueError, match="finite and positive"):
            QuadraticModel(obj, alpha=1e300, u=np.full(2, 1e10), t=2.0)
