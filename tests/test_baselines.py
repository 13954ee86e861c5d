import numpy as np
import pytest

from binmpec import kernels, projections
from binmpec.baselines import (BaselineConfig, _sphere_step,
                               solve_iht, solve_l2box_admm, solve_lp_round)
from binmpec.linalg import SparseMatrix
from binmpec.oracle import brute_force
from binmpec.problems import (Graph, ProblemInstance, build_bisection,
                              build_constrained_segmentation,
                              build_dense_subgraph, build_modularity,
                              build_mrf, generate, subgraph_weight)
from binmpec.projections import FeasibleSet
from binmpec.subsolver import QuadraticObjective

from reference import identity

C4 = Graph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)))
K3 = Graph(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))


def identity_instance(n, b=None):
    obj = QuadraticObjective(identity(n),
                             np.zeros(n) if b is None else np.asarray(b, float))
    fs = FeasibleSet(n, "pm1")
    return ProblemInstance(obj, fs)


class TestConfig:
    @pytest.mark.parametrize("kw", [
        {"tol": 0.0}, {"max_iter": 0}, {"penalty0": 0.0}, {"sigma": 1.0},
        {"inner_T": 0},
        {"tol": float("nan")}, {"tol": float("inf")},
        {"penalty0": float("nan")}, {"penalty0": float("inf")},
        {"sigma": float("nan")}, {"sigma": float("inf")},
        {"max_iter": 2.5}, {"inner_T": 1.5}, {"max_iter": True}, {"inner_T": False},
        {"tol": None}, {"penalty0": "1"}, {"sigma": True},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            BaselineConfig(**kw)

    def test_numpy_counts_accepted(self):
        cfg = BaselineConfig(max_iter=np.int64(20), inner_T=np.int32(2))
        assert cfg.max_iter == 20


class TestLpRound:
    def test_linear_objective_rounds_to_vertex(self):
        # f = -sum(x): relaxation already sits at the all-ones vertex
        A = SparseMatrix(3, [0, 0, 0, 0], [], [])
        obj = QuadraticObjective(A, -np.ones(3))
        prob = ProblemInstance(obj, FeasibleSet(3, "pm1"))
        rep = solve_lp_round(prob)
        assert rep.method == "lp"
        assert rep.x_binary == (1.0, 1.0, 1.0)
        assert rep.feasible
        assert rep.objective_relaxed == pytest.approx(-3.0, abs=1e-6)
        assert rep.objective_binary == pytest.approx(-3.0, abs=1e-12)

    def test_interior_relaxation_rounds_up(self):
        # f = 0.5 ||x||^2 relaxes to the origin; rounding picks a vertex
        rep = solve_lp_round(identity_instance(2))
        assert rep.objective_relaxed == pytest.approx(0.0, abs=1e-8)
        assert rep.objective_binary == pytest.approx(1.0, abs=1e-9)
        assert set(np.abs(rep.x_binary).tolist()) == {1.0}

    def test_k3_pair_density(self):
        prob = build_dense_subgraph(K3, 2)
        rep = solve_lp_round(prob)
        assert rep.feasible
        # any pair of triangle nodes spans one edge
        assert subgraph_weight(K3, np.array(rep.x_binary)) == pytest.approx(2.0)

    def test_relaxation_lower_bounds_binary_optimum(self):
        rng = np.random.default_rng(139)
        for seed in range(10):
            g = generate("erdos_renyi", {"n": 10, "p": 0.4}, seed=seed)
            prob = build_bisection(g)
            rep = solve_lp_round(prob)
            _, f_star, _ = brute_force(prob)
            assert rep.objective_relaxed <= f_star + 1e-6
            assert rep.objective_binary >= f_star - 1e-9

    def test_bisection_relaxation_is_the_origin(self):
        # f = x'Lx >= 0 = f(0) and 0 meets sum(x) = 0, so FISTA stops at its
        # start and the lowest-index tie rule puts the first n/2 nodes at +1
        g = generate("erdos_renyi", {"n": 10, "p": 0.4}, seed=3)
        rep = solve_lp_round(build_bisection(g))
        assert rep.x_relaxed == (0.0,) * 10
        assert rep.x_binary == (1.0,) * 5 + (-1.0,) * 5

    def test_tolerance_is_not_a_keyword(self):
        # the relaxation runs at the fixed baselines.LP_TOL
        with pytest.raises(TypeError):
            solve_lp_round(identity_instance(2), tol=float("nan"))

    def test_trace_shape(self):
        rep = solve_lp_round(identity_instance(2))
        assert len(rep.trace) == 2
        assert rep.trace[0][1] == pytest.approx(rep.objective_relaxed)
        assert rep.trace[1][1] == pytest.approx(rep.objective_binary)


class TestIht:
    def test_pulls_to_descent_vertex(self):
        # f = 0.5||x||^2 + b'x with b = (-3, 1, -2): signs flip against b
        rep = solve_iht(identity_instance(3, b=[-3.0, 1.0, -2.0]))
        assert rep.converged
        assert rep.x_binary == (1.0, -1.0, 1.0)

    def test_fixed_point_stops_in_one_round(self):
        rep = solve_iht(identity_instance(2, b=[-5.0, -5.0]),
                        x0=np.array([1.0, 1.0]))
        assert rep.converged
        assert rep.outer_iterations == 1
        assert rep.x_binary == (1.0, 1.0)

    def test_k3_pair_density(self):
        prob = build_dense_subgraph(K3, 2)
        rep = solve_iht(prob)
        assert rep.feasible
        assert subgraph_weight(K3, np.array(rep.x_binary)) == pytest.approx(2.0)

    def test_blocks_unsupported(self):
        g = Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        prob = build_modularity(g, 2)
        with pytest.raises(ValueError, match="blocks"):
            solve_iht(prob)

    def test_iterates_always_binary_feasible(self):
        from binmpec.problems import check_binary_feasible
        rng = np.random.default_rng(149)
        for seed in range(5):
            g = generate("erdos_renyi", {"n": 12, "p": 0.5}, seed=seed)
            prob = build_bisection(g)
            rep = solve_iht(prob)
            assert rep.feasible
            assert check_binary_feasible(np.array(rep.x_binary), prob.feasible_set)

    def test_best_seen_never_worse_than_start(self):
        rng = np.random.default_rng(151)
        for seed in range(5):
            g = generate("erdos_renyi", {"n": 10, "p": 0.4}, seed=seed)
            prob = build_bisection(g)
            rep = solve_iht(prob)
            assert rep.objective_binary <= rep.trace[0][1] + 1e-12


class TestSphereStep:
    def test_norm_invariant(self):
        rng = np.random.default_rng(157)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            p = rng.standard_normal(n) * float(rng.uniform(0.0, 10.0))
            z = _sphere_step(p)
            assert float(np.dot(z, z)) == pytest.approx(float(n), rel=1e-9)

    def test_center_resolves_to_first_axis(self):
        z = _sphere_step(np.zeros(4))
        assert z.tolist() == [2.0, 0.0, 0.0, 0.0]
        # below the resolution threshold counts as the center too
        z = _sphere_step(np.full(4, 1e-16))
        assert z.tolist() == [2.0, 0.0, 0.0, 0.0]

    def test_preserves_direction(self):
        p = np.array([3.0, -4.0])
        z = _sphere_step(p)
        assert np.allclose(z, np.sqrt(2.0) * np.array([0.6, -0.8]), atol=1e-12)


class TestL2BoxAdmm:
    def test_single_variable(self):
        rep = solve_l2box_admm(identity_instance(1, b=[-2.0]))
        assert rep.method == "l2box"
        assert rep.converged
        assert rep.x_binary == (1.0,)
        assert rep.objective_binary == pytest.approx(-1.5)

    def test_fully_symmetric_instance_stalls_honestly(self):
        # 0.5 ||x||^2 gives the splitting no reason to leave the first
        # axis, so x and z flip signs forever and the residual test never
        # passes; the rounded answer, a (trivially optimal) vertex, settles
        # at once, so the run stops after two rounds (20 of 500 outer
        # iterations) and reports no convergence
        rep = solve_l2box_admm(identity_instance(2))
        assert not rep.converged
        assert rep.outer_iterations == 2 * BaselineConfig().inner_T
        assert rep.objective_binary == pytest.approx(1.0, abs=1e-9)

    def test_tilted_quadratic_reaches_corner(self):
        # the rounded answer settles on the enumeration optimum 0.5 at
        # (1, -1) after two rounds, whatever the last bits of L; run on to
        # the residual test, the splitting ended at 0.9 or 1.5 depending
        # on them.  The last value is the certified one this objective gets
        for lipschitz in (1.0099999999999998, 1.01, 1.0100000000000002,
                          1.0100000000000007):
            prob = identity_instance(2, b=[-0.2, 0.3])
            prob.objective.lipschitz = lipschitz
            rep = solve_l2box_admm(prob)
            assert rep.x_binary == (1.0, -1.0)
            assert rep.objective_binary == pytest.approx(0.5, abs=1e-12)
            assert rep.objective_binary == pytest.approx(brute_force(prob)[1], abs=1e-12)
            assert rep.outer_iterations == 2 * BaselineConfig().inner_T
            assert not rep.converged

    def test_c4_regression_value(self):
        # recorded behavior: the splitting settles on the 4-cut balanced
        # split of the cycle (enumeration optimum is 8, not asserted here)
        prob = build_bisection(C4)
        rep = solve_l2box_admm(prob)
        assert rep.feasible
        assert rep.objective_binary == pytest.approx(16.0, abs=1e-9)

    def test_honest_nonconvergence_under_pins(self):
        # opposing pins fight the sphere consensus; the run must report
        # the failure instead of a fabricated success
        g = generate("path", {"n": 3})
        prob = build_constrained_segmentation(g, fg=[0], bg=[2])
        rep = solve_l2box_admm(prob)
        assert not rep.converged
        # the rounded answer, the optimum, settles after two rounds
        assert rep.outer_iterations == 2 * BaselineConfig().inner_T
        assert rep.objective_binary == pytest.approx(4.0, abs=1e-9)
        assert rep.objective_binary == pytest.approx(brute_force(prob)[1], abs=1e-9)

    def test_edgeless_dense_subgraph_settles(self):
        # every k-subset of an edgeless graph is optimal: the rounding
        # settles at the first round ends instead of running all 500
        # outer iterations against the residual test
        prob = build_dense_subgraph(Graph(12, ()), 4)
        rep = solve_l2box_admm(prob)
        assert rep.feasible
        assert rep.outer_iterations == 2 * BaselineConfig().inner_T
        assert not rep.converged

    def test_penalty_schedule_capped(self):
        prob = build_bisection(C4)
        cfg = BaselineConfig(max_iter=80, inner_T=2, penalty0=1e9)
        rep = solve_l2box_admm(prob, cfg)
        assert max(row[3] for row in rep.trace) <= 1e10

    def test_gap_matches_final_row(self):
        rep = solve_l2box_admm(identity_instance(3))
        assert rep.trace[-1][2] == pytest.approx(
            rep.complementarity_gap_final, abs=1e-15)

    def test_sum_projections_start_warm(self, monkeypatch):
        # each x-step projection starts Newton from the last threshold, so
        # the sorted walk runs about once per solve, not once per
        # projection that is not already feasible
        side, n = 6, 36
        edges = [(i, i + 1, 1.0) for i in range(n) if (i + 1) % side]
        edges += [(i, i + side, 1.0) for i in range(n - side)]
        prob = build_bisection(Graph(n, tuple(edges)))
        calls = {"projections": 0, "walks": 0}
        # the x-steps' projector and the one-shot entries share the 1-D body
        project, walk = projections._capped_vector, kernels.simplex_walk

        def counted_project(a, *args):
            calls["projections"] += 1
            return project(a, *args)

        def counted_walk(bvals, *args):
            calls["walks"] += 1
            return walk(bvals, *args)

        monkeypatch.setattr(projections, "_capped_vector", counted_project)
        monkeypatch.setattr(kernels, "simplex_walk", counted_walk)
        rep = solve_l2box_admm(prob)
        assert rep.feasible
        assert calls["projections"] >= 1000
        assert calls["walks"] <= calls["projections"] // 100

    def test_mrf_zeroone_domain(self):
        g = Graph(2, ((0, 1, 1.0),))
        prob = build_mrf(g, [-1.0, 0.2])
        rep = solve_l2box_admm(prob)
        assert rep.feasible
        assert rep.objective_binary == pytest.approx(-0.8, abs=1e-9)
