import itertools
import json

import numpy as np
import pytest

import binmpec.linalg
import binmpec.subsolver
from binmpec.adm import solve_adm
from binmpec.baselines import solve_iht, solve_l2box_admm, solve_lp_round
from binmpec.epm import solve_epm
from binmpec.linalg import SparseMatrix, gershgorin_lower_bound
from binmpec.oracle import brute_force
from binmpec.problems import (Graph, ProblemInstance, SolverView,
                              build_bisection, build_constrained_segmentation,
                              build_dense_subgraph, build_modularity,
                              build_mrf, check_binary_feasible, generate,
                              laplacian, modularity_value, round_feasible,
                              subgraph_weight)
from binmpec.projections import FeasibleSet
from binmpec.report import SolveReport
from binmpec.subsolver import QuadraticObjective

from reference import modularity_triplets_loop, round_blocks_loop

P3 = Graph(3, ((0, 1, 1.0), (1, 2, 1.0)))
C4 = Graph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)))
K3 = Graph(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))
STAR4 = Graph(4, ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)))
TWO_K2 = Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))


def grid_graph(rows, cols):
    """4-neighbour grid with varied positive weights."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1, 0.5 + 0.1 * ((i * 7) % 5)))
            if r + 1 < rows:
                edges.append((i, i + cols, 0.5 + 0.1 * ((i * 3) % 4)))
    return Graph(rows * cols, tuple(edges))


def dense_instance(M):
    """A pm1 instance with the symmetric dense matrix M as its A."""
    n = M.shape[0]
    rows, cols = np.nonzero(np.ones_like(M))
    A = SparseMatrix.from_coo(n, n, rows, cols, M[rows, cols], symmetric=True)
    return ProblemInstance(QuadraticObjective(A, np.zeros(n)),
                           FeasibleSet(np.full(n, -1.0), np.full(n, 1.0)), "pm1")


GRID34 = grid_graph(3, 4)
GRID_BUILDS = {
    "bisection": lambda: build_bisection(GRID34),
    "segmentation": lambda: build_constrained_segmentation(GRID34, fg=[0], bg=[11]),
    "mrf": lambda: build_mrf(GRID34, np.linspace(-1.0, 1.0, 12)),
    "densesub": lambda: build_dense_subgraph(GRID34, 6),
    "modularity": lambda: build_modularity(GRID34, 3),
}
# Laplacians are diagonally dominant; the shifted matrices are not
GRID_CERTIFICATES = {"bisection": "gershgorin", "segmentation": "gershgorin",
                     "mrf": "gershgorin", "densesub": "eigvalsh",
                     "modularity": "eigvalsh"}


@pytest.fixture
def spectral_calls(monkeypatch):
    """Count spectral_norm_estimate calls under every name it is bound to."""
    real = binmpec.linalg.spectral_norm_estimate
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for module in (binmpec.linalg, binmpec.subsolver):
        monkeypatch.setattr(module, "spectral_norm_estimate", counting)
    return calls


class TestGraph:
    def test_normalizes_edge_order(self):
        g = Graph(3, ((2, 0, 1.5),))
        assert g.edges == ((0, 2, 1.5),)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, ((1, 1, 1.0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            Graph(2, ((0, 5, 1.0),))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 1, -1.0),))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, ((0, 1, 1.0), (1, 0, 2.0),))

    def test_degrees_and_total(self):
        assert P3.degrees().tolist() == [1.0, 2.0, 1.0]
        assert P3.total_weight() == 2.0

    def test_adjacency_symmetric(self):
        W = P3.adjacency()
        assert W.symmetric
        assert W.to_dense().tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


class TestLaplacian:
    def test_path_example(self):
        want = [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
        assert laplacian(P3).to_dense().tolist() == want

    def test_weighted_single_edge(self):
        g = Graph(2, ((0, 1, 2.0),))
        assert laplacian(g).to_dense().tolist() == [[2.0, -2.0], [-2.0, 2.0]]

    def test_empty_graph_all_zero(self):
        g = Graph(3, ())
        L = laplacian(g)
        assert L.nnz == 0
        assert L.to_dense().tolist() == [[0.0] * 3] * 3

    def test_zero_row_sums_and_psd(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        edges.append((i, j, float(rng.uniform(0.0, 3.0))))
            L = laplacian(Graph(n, tuple(edges))).to_dense()
            assert np.allclose(L.sum(axis=1), 0.0, atol=1e-12)
            for _ in range(5):
                x = rng.standard_normal(n)
                assert float(x @ L @ x) >= -1e-9


class TestBisection:
    def test_structure(self):
        prob = build_bisection(C4)
        assert prob.domain == "pm1"
        assert prob.feasible_set.sum_constraint == 0.0
        L = laplacian(C4).to_dense()
        assert np.allclose(prob.objective.A.to_dense(), 2.0 * L, atol=1e-15)
        assert prob.objective.b.tolist() == [0.0] * 4
        # f(x) = x'Lx: the balanced cut {0,1}|{2,3} severs 2 edges -> 8
        x = np.array([1.0, 1.0, -1.0, -1.0])
        assert prob.objective.value(x) == pytest.approx(8.0)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            build_bisection(P3)

    def test_oracle_values(self):
        x, f, count = brute_force(build_bisection(C4))
        assert f == pytest.approx(8.0, abs=1e-12)
        assert count == 6
        # a single edge must be cut: f = x'Lx = 4
        k2 = Graph(2, ((0, 1, 1.0),))
        x, f, count = brute_force(build_bisection(k2))
        assert f == pytest.approx(4.0, abs=1e-12)
        assert count == 2
        # two disjoint edges split cleanly: zero cut
        x, f, count = brute_force(build_bisection(TWO_K2))
        assert f == pytest.approx(0.0, abs=1e-12)
        assert count == 6
        assert x[0] == x[1] and x[2] == x[3]


class TestSegmentation:
    def test_pins(self):
        prob = build_constrained_segmentation(P3, fg=[0], bg=[2])
        assert prob.feasible_set.pinned == ((0, 1.0), (2, -1.0))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            build_constrained_segmentation(P3, fg=[0], bg=[0])

    def test_oracle_value(self):
        # pinning the path ends to opposite sides forces one cut edge: 4
        prob = build_constrained_segmentation(P3, fg=[0], bg=[2])
        _, f, count = brute_force(prob)
        assert f == pytest.approx(4.0, abs=1e-12)
        assert count == 2

    def test_fully_pinned_solves_immediately(self):
        prob = build_constrained_segmentation(P3, fg=[0, 1], bg=[2])
        rep = solve_epm(prob)
        assert rep.converged
        assert rep.outer_iterations == 1
        assert rep.objective_binary == pytest.approx(4.0, abs=1e-9)


class TestDenseSubgraph:
    @pytest.mark.parametrize("graph", [
        K3, Graph(3, ()),
        generate("planted_clique", {"n": 16, "q": 5, "p": 0.15}, seed=3)])
    def test_lambda_shift_is_shifted_spectral_norm(self, graph):
        prob = build_dense_subgraph(graph, 2)
        W = np.zeros((graph.n, graph.n))
        for u, v, w in graph.edges:
            W[u, v] = W[v, u] = w
        want = 1.01 * np.linalg.eigvalsh(W)[-1]
        assert prob.meta["lambda_shift"] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            build_dense_subgraph(K3, 5)
        with pytest.raises(ValueError):
            build_dense_subgraph(K3, -1)

    def test_shift_identity_on_feasible_points(self):
        prob = build_dense_subgraph(K3, 2)
        lam = prob.meta["lambda_shift"]
        for ones in itertools.combinations(range(3), 2):
            y = np.zeros(3)
            y[list(ones)] = 1.0
            want = lam * 2.0 - subgraph_weight(K3, y)
            assert prob.objective.value(y) == pytest.approx(want, abs=1e-9)

    def test_k3_density(self):
        prob = build_dense_subgraph(K3, 2)
        y, f, count = brute_force(prob)
        assert count == 3
        # any pair in a triangle spans one edge: y'Wy = 2
        assert subgraph_weight(K3, y) == pytest.approx(2.0, abs=1e-12)

    def test_star_density(self):
        prob = build_dense_subgraph(STAR4, 2)
        y, f, count = brute_force(prob)
        assert count == 6
        assert y[0] == 1.0  # the hub is in every optimal pair
        assert subgraph_weight(STAR4, y) == pytest.approx(2.0, abs=1e-12)

    def test_planted_clique_found(self):
        g = generate("planted_clique", {"n": 16, "q": 5, "p": 0.15}, seed=3)
        prob = build_dense_subgraph(g, 5)
        y, _, _ = brute_force(prob)
        chosen = tuple(np.nonzero(y > 0.5)[0])
        # the chosen five nodes span a clique: 2 * C(5,2) = 20
        assert subgraph_weight(g, y) == pytest.approx(20.0, abs=1e-9)
        assert len(chosen) == 5


class TestModularity:
    def test_structure(self):
        prob = build_modularity(TWO_K2, 2)
        assert prob.n == 8
        assert prob.feasible_set.simplex_blocks == 2
        assert prob.domain == "zeroone"

    def test_k_validation(self):
        with pytest.raises(ValueError):
            build_modularity(TWO_K2, 1)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_modularity(Graph(3, ()), 2)

    def test_modularity_value_examples(self):
        assert modularity_value(TWO_K2, [0, 0, 1, 1]) == pytest.approx(0.5)
        assert modularity_value(TWO_K2, [0, 0, 0, 0]) == pytest.approx(0.0)
        g2 = Graph(2, ((0, 1, 1.0),))
        assert modularity_value(g2, [0, 1]) == pytest.approx(-0.5)

    def test_oracle_matches_best_labeling(self):
        prob = build_modularity(TWO_K2, 2)
        y, f, count = brute_force(prob)
        labels = np.argmax(y.reshape(4, 2), axis=1)
        assert modularity_value(TWO_K2, labels) == pytest.approx(0.5)
        assert count == 16

    def test_single_edge_modularity_zero(self):
        g = Graph(2, ((0, 1, 1.0),))
        prob = build_modularity(g, 2)
        y, _, _ = brute_force(prob)
        labels = np.argmax(y.reshape(2, 2), axis=1)
        assert modularity_value(g, labels) == pytest.approx(0.0, abs=1e-12)

    def test_objective_is_shifted_negative_half_modularity(self):
        # f(y) = (lhat n - tr(Y'QY)) / (8m) and tr(Y'QY) = 2m * modularity
        g = TWO_K2
        prob = build_modularity(g, 2)
        lam = prob.meta["lambda_shift"]
        m = g.total_weight()
        for labels in itertools.product(range(2), repeat=4):
            y = np.zeros(8)
            for node, c in enumerate(labels):
                y[node * 2 + c] = 1.0
            f = prob.objective.value(y)
            mod = modularity_value(g, np.array(labels))
            want = (lam * g.n - 2.0 * m * mod) / (8.0 * m)
            assert f == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("graph", [
        TWO_K2, STAR4, generate("four_gauss_knn", {"n": 12, "knn": 3}, seed=3)])
    def test_lambda_shift_is_shifted_spectral_norm(self, graph):
        prob = build_modularity(graph, 3)
        m = graph.total_weight()
        d = graph.degrees()
        Q = np.zeros((graph.n, graph.n))
        for u, v, w in graph.edges:
            Q[u, v] = Q[v, u] = w
        Q -= np.outer(d, d) / (2.0 * m)
        want = 1.01 * np.max(np.abs(np.linalg.eigvalsh(Q)))
        assert prob.meta["lambda_shift"] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("graph,k", [
        (TWO_K2, 2), (STAR4, 3),
        (generate("four_gauss_knn", {"n": 12, "knn": 3}, seed=3), 4)])
    def test_matrix_matches_pair_loop(self, graph, k):
        prob = build_modularity(graph, k)
        m = graph.total_weight()
        d = graph.degrees()
        Q = graph.adjacency().to_dense() - np.outer(d, d) / (2.0 * m)
        rows, cols, vals = modularity_triplets_loop(
            Q, prob.meta["lambda_shift"], 1.0 / (4.0 * m), k)
        want = SparseMatrix.from_coo(prob.n, prob.n, rows, cols, vals, symmetric=True)
        got = prob.objective.A
        for attr in ("row_offsets", "col_indices", "values"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()


class TestMrf:
    def test_value_example(self):
        g = Graph(2, ((0, 1, 1.0),))
        prob = build_mrf(g, [-1.0, 0.2])
        # y = (1, 0): 0.5 * y'Ly + b'y = 0.5 - 1 = -0.5
        assert prob.objective.value(np.array([1.0, 0.0])) == pytest.approx(-0.5)
        _, f, count = brute_force(prob)
        assert count == 4
        # optimum y = (1, 1): coupling vanishes, f = -0.8
        assert f == pytest.approx(-0.8, abs=1e-12)

    def test_zero_unary_zero_optimum(self):
        prob = build_mrf(P3, np.zeros(3))
        _, f, _ = brute_force(prob)
        assert f == pytest.approx(0.0, abs=1e-12)

    def test_disconnected_units_split(self):
        g = Graph(2, ())
        prob = build_mrf(g, [-1.0, 1.0])
        x, f, _ = brute_force(prob)
        assert x.tolist() == [1.0, 0.0]
        assert f == pytest.approx(-1.0)

    def test_unary_length_checked(self):
        with pytest.raises(ValueError):
            build_mrf(P3, [0.0, 0.0])


class TestGenerate:
    def test_deterministic(self):
        a = generate("erdos_renyi", {"n": 10, "p": 0.4}, seed=5)
        b = generate("erdos_renyi", {"n": 10, "p": 0.4}, seed=5)
        assert a.edges == b.edges

    def test_cycle_path_complete_counts(self):
        assert len(generate("cycle", {"n": 6}).edges) == 6
        assert len(generate("path", {"n": 6}).edges) == 5
        assert len(generate("complete", {"n": 6}).edges) == 15

    def test_planted_clique_contains_clique(self):
        g = generate("planted_clique", {"n": 12, "q": 4, "p": 0.1}, seed=2)
        present = {(u, v) for u, v, _ in g.edges}
        found = False
        for quad in itertools.combinations(range(12), 4):
            if all((min(a, b), max(a, b)) in present
                   for a, b in itertools.combinations(quad, 2)):
                found = True
                break
        assert found

    def test_four_gauss_properties(self):
        g = generate("four_gauss_knn", {"n": 40, "knn": 5}, seed=1)
        assert g.n == 40
        assert all(0.0 < w <= 1.0 for _, _, w in g.edges)
        deg = np.zeros(40)
        for u, v, _ in g.edges:
            deg[u] += 1
            deg[v] += 1
        assert np.all(deg >= 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate("hypercube", {"n": 4})


class TestProblemInstanceValidation:
    def test_domain_checked(self):
        obj = QuadraticObjective(laplacian(P3), np.zeros(3))
        fs = FeasibleSet(np.full(3, -1.0), np.full(3, 1.0))
        with pytest.raises(ValueError):
            ProblemInstance(obj, fs, "spin")

    def test_box_must_match_domain(self):
        obj = QuadraticObjective(laplacian(P3), np.zeros(3))
        fs = FeasibleSet(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="domain"):
            ProblemInstance(obj, fs, "pm1")

    def test_indefinite_rejected(self):
        # a single negative eigenvalue must be caught
        from binmpec.linalg import SparseMatrix
        A = SparseMatrix.from_coo(2, 2, [0, 1], [0, 1], [1.0, -1.0],
                                  symmetric=True)
        obj = QuadraticObjective(A, np.zeros(2))
        fs = FeasibleSet(np.full(2, -1.0), np.full(2, 1.0))
        with pytest.raises(ValueError, match="positive semidefinite"):
            ProblemInstance(obj, fs, "pm1")

    def test_non_dominant_indefinite_rejected(self):
        # eigenvalues 3 and -1; the Gershgorin bound fails, so the
        # dense eigvalsh check must reject it
        A = SparseMatrix.from_coo(2, 2, [0, 0, 1, 1], [0, 1, 0, 1],
                                  [1.0, 2.0, 2.0, 1.0], symmetric=True)
        obj = QuadraticObjective(A, np.zeros(2))
        fs = FeasibleSet(np.full(2, -1.0), np.full(2, 1.0))
        with pytest.raises(ValueError, match="positive semidefinite"):
            ProblemInstance(obj, fs, "pm1")

    def test_near_degenerate_indefinite_rejected(self):
        # eigenvalues {-1e-5, 0 (98 times), 1} in a random orthonormal
        # basis: lambda_min lies 100x below the tolerance, in a nearly
        # degenerate spectrum on which power iteration stops short of it
        U, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((100, 100)))
        lam = np.zeros(100)
        lam[0], lam[-1] = -1e-5, 1.0
        M = (U * lam) @ U.T
        with pytest.raises(ValueError, match="positive semidefinite"):
            dense_instance(0.5 * (M + M.T))

    @pytest.mark.parametrize("kind", sorted(GRID_BUILDS))
    def test_grid_builds_certified_with_one_estimate(self, kind, spectral_calls):
        prob = GRID_BUILDS[kind]()
        assert prob.meta["psd_check"] == GRID_CERTIFICATES[kind]
        # the Lipschitz estimate of the builder's objective, nothing else
        assert spectral_calls == [prob.objective.A]

    def test_non_dominant_psd_modularity_accepted(self):
        g = generate("four_gauss_knn", {"n": 8, "knn": 3}, seed=2)
        prob = build_modularity(g, 4)
        assert gershgorin_lower_bound(prob.objective.A) < 0.0
        assert prob.meta["psd_check"] == "eigvalsh"
        assert np.linalg.eigvalsh(prob.objective.A.to_dense())[0] >= -1e-12

    def test_shared_meta_dict_left_as_passed(self):
        meta = {"name": "mine"}
        laplace = ProblemInstance(QuadraticObjective(laplacian(P3), np.zeros(3)),
                                  FeasibleSet(np.full(3, -1.0), np.full(3, 1.0)),
                                  "pm1", meta)
        dense = dense_instance(np.array([[2.0, 1.5, 1.5], [1.5, 2.0, 1.5],
                                         [1.5, 1.5, 2.0]]))
        shared = ProblemInstance(dense.objective, dense.feasible_set, "pm1", meta)
        assert meta == {"name": "mine"}
        assert laplace.meta == {"name": "mine", "psd_check": "gershgorin",
                                "norm_check": "eigvalsh", "n": 3}
        assert shared.meta == {"name": "mine", "psd_check": "eigvalsh",
                               "norm_check": "eigvalsh", "n": 3}

    def test_zero_matrix_certified(self):
        A = SparseMatrix(2, 2, [0, 0, 0], [], [], symmetric=True)
        prob = ProblemInstance(QuadraticObjective(A, np.ones(2)),
                               FeasibleSet(np.zeros(2), np.ones(2)), "zeroone")
        assert prob.meta["psd_check"] == "gershgorin"

    @pytest.mark.parametrize("solve", [solve_epm, solve_adm, solve_lp_round,
                                       solve_iht, solve_l2box_admm],
                             ids=["epm", "adm", "lp", "iht", "l2box"])
    def test_psd_check_in_report_survives_json(self, solve):
        prob = build_bisection(C4)
        rep = solve(prob)
        assert rep.problem["psd_check"] == "gershgorin"
        assert rep.problem["norm_check"] == "eigvalsh"
        assert rep.problem["domain"] == "pm1"
        # only the penalty methods add their schedule's constants
        assert ("rho_cap" in rep.problem) == (rep.method in ("epm", "adm"))
        assert rep.feasible
        text = rep.to_json()
        back = SolveReport.from_json(text)
        assert back == rep
        assert back.to_json() == text

    @pytest.mark.parametrize("solve", [solve_epm, solve_adm, solve_lp_round,
                                       solve_l2box_admm],
                             ids=["epm", "adm", "lp", "l2box"])
    def test_failed_rounding_reported_infeasible(self, solve):
        # three +-1 coordinates cannot sum to zero, so no rounding succeeds
        fs = FeasibleSet(np.full(3, -1.0), np.full(3, 1.0), sum_constraint=0.0)
        prob = ProblemInstance(QuadraticObjective(SparseMatrix.identity(3), np.zeros(3)),
                               fs, "pm1")
        rep = solve(prob)
        assert not rep.feasible
        assert not check_binary_feasible(np.array(rep.x_binary), fs, "pm1")


class TestSolverView:
    @pytest.mark.parametrize("build", [lambda: build_bisection(C4),
                                       lambda: build_dense_subgraph(K3, 2)],
                             ids=["pm1", "zeroone"])
    def test_initial_point_seeded_and_feasible(self, build):
        view = SolverView(build())
        x = view.initial_point(5)
        assert np.array_equal(x, view.initial_point(5))
        assert not np.array_equal(x, view.initial_point(6))
        assert np.array_equal(x, view.project(x))

    @pytest.mark.parametrize("build", [lambda: build_bisection(GRID34),
                                       lambda: build_dense_subgraph(GRID34, 5)],
                             ids=["pm1", "zeroone"])
    def test_warm_projector_returns_own_output(self, build):
        view = SolverView(build())
        project = view.warm_projector()
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = project(rng.uniform(-2.0, 2.0, view.n))
            assert np.array_equal(x, project(x))

    def test_pm1_passthrough(self):
        prob = build_bisection(C4)
        view = SolverView(prob)
        assert view.objective is prob.objective

    @pytest.mark.parametrize("kind", sorted(GRID_BUILDS))
    def test_view_runs_no_spectral_estimate(self, kind, spectral_calls):
        prob = GRID_BUILDS[kind]()
        del spectral_calls[:]
        SolverView(prob)
        assert spectral_calls == []

    def test_zeroone_constants_scale_exactly(self):
        prob = build_mrf(GRID34, np.linspace(-1.0, 1.0, 12))
        src = prob.objective
        obj = SolverView(prob).objective
        assert obj.lipschitz == src.lipschitz / 4.0
        assert obj.norm_bound == src.norm_bound / 4.0
        assert np.array_equal(obj.A.values, src.A.values / 4.0)
        assert np.array_equal(obj.A.col_indices, src.A.col_indices)

    def test_zeroone_value_identity(self):
        rng = np.random.default_rng(79)
        prob = build_mrf(P3, [0.3, -0.7, 0.1])
        view = SolverView(prob)
        for _ in range(50):
            x = rng.uniform(-1.0, 1.0, 3)
            y = (x + 1.0) / 2.0
            assert view.objective.value(x) == pytest.approx(
                prob.objective.value(y), abs=1e-10)

    def test_zeroone_projection_conjugated(self):
        prob = build_dense_subgraph(K3, 2)
        view = SolverView(prob)
        rng = np.random.default_rng(83)
        for _ in range(20):
            z = rng.uniform(-2.0, 2.0, 3)
            x = view.project(z)
            y = view.to_original(x)
            assert y.sum() == pytest.approx(2.0, abs=1e-9)
            assert np.all(y >= -1e-12) and np.all(y <= 1.0 + 1e-12)

    def test_function_lipschitz_bounds_box_changes(self):
        prob = build_bisection(C4)
        view = SolverView(prob)
        l_hat = view.function_lipschitz()
        rng = np.random.default_rng(89)
        for _ in range(200):
            x = rng.uniform(-1.0, 1.0, 4)
            d = rng.standard_normal(4)
            d /= np.linalg.norm(d)
            eps = 1e-5
            df = abs(view.objective.value(x + eps * d) - view.objective.value(x))
            assert df <= l_hat * eps * (1.0 + 1e-6) + 1e-12


def fset_state(fs):
    return {k: v.tobytes() if isinstance(v, np.ndarray) else repr(v)
            for k, v in vars(fs).items()}


def without_wall_time(report):
    payload = json.loads(report.to_json())
    del payload["wall_time_ms"]
    return json.dumps(payload, indent=2, sort_keys=True)


class TestWarmStateStaysInOneSolve:
    """epm and adm keep their projection threshold per solve, not per set."""

    def test_no_leak_between_solves(self):
        a = build_bisection(generate("four_gauss_knn", {"n": 24}, seed=3))
        g = generate("four_gauss_knn", {"n": 24}, seed=4)
        # b shares a's feasible set, so state kept on the set would carry over
        b = ProblemInstance(build_bisection(g).objective, a.feasible_set, "pm1")
        fresh = without_wall_time(solve_epm(b))
        before = fset_state(a.feasible_set)
        solve_epm(a)
        assert fset_state(a.feasible_set) == before
        solve_adm(a)
        assert fset_state(a.feasible_set) == before
        assert without_wall_time(solve_epm(b)) == fresh
        assert without_wall_time(solve_epm(b)) == fresh
        assert fset_state(a.feasible_set) == before


class TestRoundFeasible:
    def test_plain_box(self):
        fs = FeasibleSet(np.full(3, -1.0), np.full(3, 1.0))
        x, ok = round_feasible(np.array([0.2, -0.3, 0.0]), fs, "pm1")
        assert ok
        assert x.tolist() == [1.0, -1.0, 1.0]

    def test_sum_repair_top_k(self):
        fs = FeasibleSet(np.zeros(4), np.ones(4), sum_constraint=2.0)
        x, ok = round_feasible(np.array([0.9, 0.8, 0.2, 0.1]), fs, "zeroone")
        assert ok
        assert x.tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_sum_repair_tie_lowest_index(self):
        fs = FeasibleSet(np.zeros(3), np.ones(3), sum_constraint=1.0)
        x, ok = round_feasible(np.array([0.5, 0.5, 0.5]), fs, "zeroone")
        assert ok
        assert x.tolist() == [1.0, 0.0, 0.0]

    def test_pm1_sum_zero(self):
        fs = FeasibleSet(np.full(4, -1.0), np.full(4, 1.0), sum_constraint=0.0)
        x, ok = round_feasible(np.array([0.6, 0.5, -0.1, -0.9]), fs, "pm1")
        assert ok
        assert x.tolist() == [1.0, 1.0, -1.0, -1.0]
        assert x.sum() == 0.0

    def test_blocks_argmax(self):
        fs = FeasibleSet(np.zeros(4), np.ones(4), simplex_blocks=2)
        x, ok = round_feasible(np.array([0.4, 0.6, 0.7, 0.3]), fs, "zeroone")
        assert ok
        assert x.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_nonbinary_pin_flags_infeasible(self):
        fs = FeasibleSet(np.zeros(2), np.ones(2), pinned=((0, 0.5),))
        _, ok = round_feasible(np.array([0.9, 0.9]), fs, "zeroone")
        assert not ok

    def test_impossible_sum_flags_infeasible(self):
        fs = FeasibleSet(np.full(3, -1.0), np.full(3, 1.0), sum_constraint=0.0)
        _, ok = round_feasible(np.zeros(3), fs, "pm1")
        assert not ok

    @pytest.mark.parametrize("shape", [(3,), (5,), (2, 2)])
    def test_wrong_shape_rejected(self, shape):
        fs = FeasibleSet(np.full(4, -1.0), np.full(4, 1.0))
        with pytest.raises(ValueError, match="4 coordinates"):
            round_feasible(np.ones(shape), fs, "pm1")

    def test_output_always_feasible_when_flagged(self):
        rng = np.random.default_rng(97)
        sets = [
            FeasibleSet(np.full(5, -1.0), np.full(5, 1.0)),
            FeasibleSet(np.zeros(6), np.ones(6), sum_constraint=2.0),
            FeasibleSet(np.zeros(6), np.ones(6), simplex_blocks=3),
            FeasibleSet(np.full(4, -1.0), np.full(4, 1.0), sum_constraint=0.0,
                        pinned=((0, 1.0),)),
        ]
        for fs in sets:
            domain = "pm1" if fs.lower[0] == -1.0 else "zeroone"
            for _ in range(50):
                y = rng.uniform(-1.5, 1.5, fs.n)
                x, ok = round_feasible(y, fs, domain)
                if ok:
                    assert check_binary_feasible(x, fs, domain)
                    # a feasible output rounds to itself: the shared solve
                    # epilogue passes hard thresholding's answer through
                    again, ok_again = round_feasible(x, fs, domain)
                    assert ok_again
                    assert again.tobytes() == x.tobytes()


class TestRoundBlocks:
    def check(self, y, fs, domain="zeroone"):
        x, ok = round_feasible(y, fs, domain)
        want, want_ok = round_blocks_loop(y, fs, domain)
        assert ok == want_ok
        assert x.tobytes() == want.tobytes()
        return x, ok

    def test_random_against_block_loop(self):
        rng = np.random.default_rng(99)
        for trial in range(300):
            r = int(rng.integers(1, 6))
            nb = int(rng.integers(1, 7))
            n = r * nb
            pins = []
            for q in range(nb):
                kind = rng.integers(0, 4)
                cols = rng.permutation(r)[:int(rng.integers(1, r + 1))]
                if kind == 1:  # some pinned to zero
                    pins += [(q * r + int(c), 0.0) for c in cols[:r - 1]]
                elif kind == 2:  # one pinned hot
                    pins.append((q * r + int(cols[0]), 1.0))
                elif kind == 3:  # all pinned, maybe none hot
                    hot = int(rng.integers(-1, r))
                    pins += [(q * r + c, float(c == hot)) for c in range(r)]
            pins = [pins[i] for i in rng.permutation(len(pins))]
            if trial % 10 == 0 and n > 1:  # a non-binary pin in the mix
                hot = {i // r for i, v in pins if v}
                free = sorted(set(range(n)) - {i for i, _ in pins}
                              - {i for i in range(n) if i // r in hot})
                if free:
                    pins.insert(len(pins) // 2, (free[0], 1e-3))
            fs = FeasibleSet(np.zeros(n), np.ones(n), simplex_blocks=r, pinned=pins)
            y = rng.choice([0.0, 0.5, 0.7, -np.inf], n) if trial % 3 == 0 \
                else rng.uniform(-1.0, 2.0, n)
            self.check(y, fs)

    def test_ties_take_lowest_free_index(self):
        fs = FeasibleSet(np.zeros(6), np.ones(6), simplex_blocks=3, pinned=((3, 0.0),))
        x, ok = self.check(np.array([0.4, 0.4, 0.4, 0.9, 0.2, 0.2]), fs)
        assert ok
        assert x.tolist() == [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]

    def test_all_free_minus_inf_picks_first_free(self):
        fs = FeasibleSet(np.zeros(3), np.ones(3), simplex_blocks=3, pinned=((0, 0.0),))
        x, ok = self.check(np.array([-np.inf, -np.inf, -np.inf]), fs)
        assert ok
        assert x.tolist() == [0.0, 1.0, 0.0]

    def test_unsatisfiable_block_stops_repair(self):
        # block 1 is pinned all-zero; block 2 is left as rounded
        fs = FeasibleSet(np.zeros(6), np.ones(6), simplex_blocks=2,
                         pinned=((2, 0.0), (3, 0.0)))
        x, ok = self.check(np.array([0.9, 0.8, 0.1, 0.1, 0.7, 0.6]), fs)
        assert not ok
        assert x.tolist() == [1.0, 0.0, 0.0, 0.0, 1.0, 1.0]


class TestCheckBinaryFeasible:
    def test_accepts_and_rejects(self):
        fs = FeasibleSet(np.zeros(4), np.ones(4), sum_constraint=2.0)
        assert check_binary_feasible(np.array([1.0, 1.0, 0.0, 0.0]), fs, "zeroone")
        assert not check_binary_feasible(np.array([1.0, 0.0, 0.0, 0.0]), fs, "zeroone")
        assert not check_binary_feasible(np.array([0.5, 0.5, 0.5, 0.5]), fs, "zeroone")

    def test_pins_enforced(self):
        fs = FeasibleSet(np.full(2, -1.0), np.full(2, 1.0), pinned=((0, 1.0),))
        assert check_binary_feasible(np.array([1.0, -1.0]), fs, "pm1")
        assert not check_binary_feasible(np.array([-1.0, -1.0]), fs, "pm1")

    @pytest.mark.parametrize("n", [3, 5])
    def test_wrong_length_is_infeasible(self, n):
        fs = FeasibleSet(np.full(4, -1.0), np.full(4, 1.0))
        assert check_binary_feasible(np.ones(4), fs, "pm1")
        assert not check_binary_feasible(np.ones(n), fs, "pm1")

    def test_longer_balanced_vector_fails_sum_set(self):
        fs = FeasibleSet(np.full(4, -1.0), np.full(4, 1.0), sum_constraint=0.0)
        assert not check_binary_feasible(np.array([1.0, -1.0] * 3), fs, "pm1")
        assert not check_binary_feasible(np.array([[1.0, -1.0], [1.0, -1.0]]), fs, "pm1")
