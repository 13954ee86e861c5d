import itertools
import json
import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binmpec.linalg
import binmpec.subsolver
from binmpec.adm import solve_adm
from binmpec.baselines import solve_iht, solve_l2box_admm, solve_lp_round
from binmpec.epm import solve_epm
from binmpec.linalg import (NormBound, SparseMatrix, gershgorin_lower_bound,
                            spectral_norm_estimate)
from binmpec.oracle import brute_force
from binmpec.problems import (Graph, ProblemInstance, SolverView,
                              build_bisection, build_constrained_segmentation,
                              build_dense_subgraph, build_modularity,
                              build_mrf, check_binary_feasible, generate,
                              laplacian, modularity_value, round_feasible,
                              subgraph_weight)
from binmpec.projections import FeasibleSet, WarmStart
from binmpec.report import SolveReport
from binmpec.subsolver import QuadraticObjective

from reference import (adjacency_loop, degrees_loop, erdos_renyi_loop,
                       four_gauss_knn_loop, identity, laplacian_loop,
                       modularity_triplets_loop, project_conjugated, round_blocks_loop)

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
    A = SparseMatrix.from_coo(n, rows, cols, M[rows, cols])
    return ProblemInstance(QuadraticObjective(A, np.zeros(n)),
                           FeasibleSet(n, "pm1"))


def identity_instance(fset):
    """An instance with A = I over ``fset``."""
    n = fset.n
    A = SparseMatrix.from_coo(n, np.arange(n), np.arange(n), np.ones(n))
    return ProblemInstance(QuadraticObjective(A, np.zeros(n)), fset)


def grid_builds(g):
    """The five builders on the grid ``g``, pins at its first and last node."""
    return {
        "bisection": lambda: build_bisection(g),
        "segmentation": lambda: build_constrained_segmentation(g, fg=[0], bg=[g.n - 1]),
        "mrf": lambda: build_mrf(g, np.linspace(-1.0, 1.0, g.n)),
        "densesub": lambda: build_dense_subgraph(g, g.n // 2),
        "modularity": lambda: build_modularity(g, 3),
    }


GRID34 = grid_graph(3, 4)
# the "-n288" kinds take a 16 x 18 grid, above DENSE_MAX, where the
# Laplacians take the Collatz-Wielandt bound
GRID_BUILDS = dict(grid_builds(GRID34), **{
    kind + "-n288": build for kind, build in grid_builds(grid_graph(16, 18)).items()})
LAPLACIAN_BUILDS = ("bisection", "segmentation", "mrf")
# Laplacians are diagonally dominant; the shifted matrices are not
GRID_CERTIFICATES = {"bisection": "gershgorin", "segmentation": "gershgorin",
                     "mrf": "gershgorin", "densesub": "eigvalsh",
                     "modularity": "eigvalsh"}


def count_calls(monkeypatch, name):
    """Count calls to ``binmpec.linalg.<name>`` under every name a binmpec
    module binds it to; returns the list of first arguments."""
    real = getattr(binmpec.linalg, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "binmpec" and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def spectral_calls(monkeypatch):
    return count_calls(monkeypatch, "spectral_norm_estimate")


@pytest.fixture
def gershgorin_calls(monkeypatch):
    return count_calls(monkeypatch, "gershgorin_lower_bound")


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

    @pytest.mark.parametrize("make", [lambda: Graph(-2, ()),
                                      lambda: generate("erdos_renyi", {"n": -2}),
                                      lambda: generate("path", {"n": -3})])
    def test_rejects_negative_node_count(self, make):
        with pytest.raises(ValueError, match="node count must be nonnegative, got -[23]"):
            make()

    def test_degrees_and_total(self):
        assert P3.degrees().tolist() == [1.0, 2.0, 1.0]
        assert P3.total_weight() == 2.0

    def test_adjacency_symmetric(self):
        W = P3.adjacency()
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
        assert L.row_offsets.tolist() == [0, 0, 0, 0]
        assert L.row_offsets.dtype == np.int64
        assert L.col_indices.shape == (0,) and L.col_indices.dtype == np.int64
        assert L.values.shape == (0,) and L.values.dtype == np.float64
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

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12))
    def test_edge_arrays_match_edge_loop(self, data, n):
        # random weighted graphs in random edge order and orientation, with
        # zero, subnormal and huge weights; isolated nodes and no edges too
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs
                           else st.just([]))
        weights = st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False)
        edges = tuple((v, u, data.draw(weights)) if data.draw(st.booleans())
                      else (u, v, data.draw(weights)) for u, v in chosen)
        assert_same_edge_builds(Graph(n, edges))

    @pytest.mark.parametrize("g", [
        Graph(1, ()), Graph(5, ()), Graph(6, ((3, 4, 0.0), (0, 1, 2.5), (1, 3, 1.0))),
        Graph(7, ((3, 4, 0.0), (5, 0, 2.5), (1, 3, 1.0), (4, 1, -0.0), (0, 1, 1e-310))),
        generate("erdos_renyi", {"n": 30, "p": 0.3}, seed=4),
        generate("four_gauss_knn", {"n": 40, "knn": 5}, seed=9)],
        ids=["n1", "no-edges", "isolated-nodes", "signed-zero", "erdos-renyi", "four-gauss"])
    def test_edge_arrays_match_edge_loop_cases(self, g):
        assert_same_edge_builds(g)
        # one conversion, shared and read-only
        assert g._edge_arrays is g._edge_arrays
        assert not any(arr.flags.writeable for arr in g._edge_arrays)

    def test_one_per_graph(self):
        g = grid_graph(3, 3)
        assert laplacian(g) is laplacian(g)
        assert laplacian(g) is not laplacian(grid_graph(3, 3))


def assert_same_csr(M, want):
    """M's CSR arrays equal want's bit for bit (so -0.0 differs from +0.0)."""
    assert M.n_rows == want.n_rows
    for got, ref in ((M.row_offsets, want.row_offsets), (M.col_indices, want.col_indices),
                     (M.values, want.values)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def assert_same_edge_builds(g):
    """g's Laplacian, adjacency and degrees equal the per-edge loops' bit for bit."""
    assert_same_csr(laplacian(g), laplacian_loop(g))
    assert_same_csr(g.adjacency(), adjacency_loop(g))
    got, want = g.degrees(), degrees_loop(g)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def certificate_fields(bound):
    """Every field of a NormBound, floats as their bytes."""
    return (np.float64(bound).tobytes(), bound.method,
            np.float64(bound.lam_min).tobytes(), bound.psd)


def fresh_estimate(A):
    """spectral_norm_estimate of an unshared copy of A, which keeps no
    certificate or layout, only A's factor, which the estimate reads."""
    copy = SparseMatrix(A.n_rows, A.row_offsets, A.col_indices, A.values)
    if A.factor is not None:
        copy._set_factor(A.factor)
    return spectral_norm_estimate(copy)


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
        want = SparseMatrix.from_coo(prob.n, rows, cols, vals)
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

    @pytest.mark.parametrize("kind,params,match", [
        ("cycle", {"n": 0}, "n >= 3"), ("cycle", {"n": 1}, "n >= 3"),
        ("cycle", {"n": 2}, "n >= 3"),
        ("four_gauss_knn", {"n": 5}, "1 <= knn < n"),  # knn = 8 by default
        ("four_gauss_knn", {"n": 5, "knn": 0}, "1 <= knn < n"),
        ("four_gauss_knn", {"n": 5, "knn": -1}, "1 <= knn < n"),
        ("four_gauss_knn", {"n": 5, "knn": 5}, "1 <= knn < n"),
        ("four_gauss_knn", {"n": 1, "knn": 1}, "1 <= knn < n"),
        # unchecked, p outside [0, 1] would build an empty or a complete
        # graph, and a negative q fail inside numpy
        ("erdos_renyi", {"n": 5, "p": -0.5}, "0 <= p <= 1, got p=-0.5"),
        ("erdos_renyi", {"n": 5, "p": float("nan")}, "0 <= p <= 1, got p=nan"),
        ("erdos_renyi", {"n": 5, "p": 2.0}, "0 <= p <= 1, got p=2.0"),
        ("planted_clique", {"n": 5, "q": 2, "p": 1.5}, "0 <= p <= 1"),
        ("planted_clique", {"n": 5, "q": -2}, "0 <= q <= n, got q=-2"),
        ("planted_clique", {"n": 5, "q": 6}, "0 <= q <= n, got q=6")])
    def test_parameters_checked(self, kind, params, match):
        with pytest.raises(ValueError, match=match):
            generate(kind, params)

    @pytest.mark.parametrize("kind,params,name", [
        ("cycle", {"n": 6.7}, "n"), ("path", {"n": 4.5}, "n"),
        ("complete", {"n": 3.2}, "n"), ("erdos_renyi", {"n": 5.9}, "n"),
        ("planted_clique", {"n": 5.9, "q": 2, "p": 0.5}, "n"),
        ("planted_clique", {"n": 5, "q": 2.7, "p": 0.5}, "q"),
        ("four_gauss_knn", {"n": 12.5, "knn": 3}, "n"),
        ("four_gauss_knn", {"n": 12, "knn": 3.5}, "knn"),
        ("cycle", {"n": "6"}, "n"), ("cycle", {"n": float("nan")}, "n"),
        ("path", {"n": float("inf")}, "n"), ("complete", {"n": None}, "n")])
    def test_non_integer_sizes_rejected(self, kind, params, name):
        # int() would truncate 6.7 to a 6-node cycle
        with pytest.raises(ValueError, match="^%s must be an integer, got " % name):
            generate(kind, params)

    @pytest.mark.parametrize("kind,params", [
        ("cycle", {"n": 6}), ("path", {"n": 6}), ("complete", {"n": 6}),
        ("erdos_renyi", {"n": 12, "p": 0.4}),
        ("planted_clique", {"n": 12, "q": 4, "p": 0.3}),
        ("four_gauss_knn", {"n": 16, "knn": 3})])
    def test_integral_sizes_build_the_same_graph(self, kind, params):
        want = pickle.dumps(generate(kind, params, seed=4))
        for cast in (np.int64, np.int32, float, np.float64):
            sizes = {k: cast(v) for k, v in params.items() if k in ("n", "q", "knn")}
            assert pickle.dumps(generate(kind, dict(params, **sizes), seed=4)) == want

    @pytest.mark.parametrize("params", [{"n": 12, "knn": 3, "std": 0.0},
                                        {"n": 8, "knn": 1, "std": 0.0}])
    def test_zero_bandwidth_raises_before_dividing(self, params):
        # coincident points make at least half of the kNN distances 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="positive kNN bandwidth, got 0"):
                generate("four_gauss_knn", params)

    def test_smallest_valid_parameters(self):
        assert generate("cycle", {"n": 3}).edges == ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0))
        g = generate("four_gauss_knn", {"n": 2, "knn": 1}, seed=3)
        assert [(u, v) for u, v, _ in g.edges] == [(0, 1)]
        assert generate("erdos_renyi", {"n": 3, "p": 0.0}).edges == ()
        assert len(generate("erdos_renyi", {"n": 3, "p": 1.0}).edges) == 3
        assert generate("planted_clique", {"n": 3, "q": 0, "p": 0.0}).edges == ()
        assert len(generate("planted_clique", {"n": 3, "q": 3, "p": 0.0}).edges) == 3


def assert_same_graph(g, want):
    """Equal node counts and edges, weights compared bit for bit."""
    assert g.n == want.n
    assert [(u, v) for u, v, _ in g.edges] == [(u, v) for u, v, _ in want.edges]
    assert (np.array([w for _, _, w in g.edges]).tobytes()
            == np.array([w for _, _, w in want.edges]).tobytes())


class TestGeneratorsMatchLoops:
    @pytest.mark.parametrize("n,p", [(0, 0.3), (1, 0.3), (2, 0.5), (7, 0.0), (7, 1.0),
                                     (20, 0.4), (37, 0.3)])
    def test_erdos_renyi(self, n, p):
        for seed in [*range(12), [1001, 3, 0, 0]]:
            assert_same_graph(generate("erdos_renyi", {"n": n, "p": p}, seed=seed),
                              erdos_renyi_loop(n, p, seed))

    @pytest.mark.parametrize("n,knn", [(2, 1), (5, 2), (5, 4), (20, 4), (40, 8),
                                       (48, 8), (48, 1), (33, 32)])
    def test_four_gauss_knn(self, n, knn):
        for seed in [*range(6), [1001, 2, 3], [1, 3, 4, 4]]:
            assert_same_graph(generate("four_gauss_knn", {"n": n, "knn": knn}, seed=seed),
                              four_gauss_knn_loop(n, knn, 0.6, seed))

    @pytest.mark.parametrize("n,knn", [(8, 3), (8, 7), (12, 5), (12, 11), (16, 7), (40, 19),
                                       (48, 23)])
    def test_four_gauss_knn_ties(self, n, knn):
        # std = 0 puts every point on its centre: equal distances, which
        # the stable sort breaks towards the lower index
        g = generate("four_gauss_knn", {"n": n, "knn": knn, "std": 0.0}, seed=2)
        assert_same_graph(g, four_gauss_knn_loop(n, knn, 0.0, 2))


class TestProblemInstanceValidation:
    def test_domain_checked(self):
        # the domain is the feasible set's, checked where the set is built
        obj = QuadraticObjective(laplacian(P3), np.zeros(3))
        for domain in ("pm1", "zeroone"):
            assert ProblemInstance(obj, FeasibleSet(3, domain)).domain == domain
        with pytest.raises(ValueError, match="domain"):
            FeasibleSet(3, "spin")

    def test_indefinite_rejected(self):
        # a single negative eigenvalue must be caught
        from binmpec.linalg import SparseMatrix
        A = SparseMatrix.from_coo(2, [0, 1], [0, 1], [1.0, -1.0])
        obj = QuadraticObjective(A, np.zeros(2))
        fs = FeasibleSet(2, "pm1")
        with pytest.raises(ValueError, match="positive semidefinite"):
            ProblemInstance(obj, fs)

    def test_non_dominant_indefinite_rejected(self):
        # eigenvalues 3 and -1; the Gershgorin bound fails, so the
        # dense eigvalsh check must reject it
        A = SparseMatrix.from_coo(2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 2.0, 2.0, 1.0])
        obj = QuadraticObjective(A, np.zeros(2))
        fs = FeasibleSet(2, "pm1")
        with pytest.raises(ValueError, match="positive semidefinite"):
            ProblemInstance(obj, fs)

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
    def test_grid_builds_certified_with_one_estimate(self, kind, spectral_calls,
                                                     gershgorin_calls):
        # a fresh graph, since a graph keeps its Laplacians and their
        # certificates; this kind's build first, then the graph's other
        # Laplacian builds
        name, _, big = kind.partition("-")
        builds = grid_builds(grid_graph(16, 18) if big else grid_graph(3, 4))
        names = [name] + ([k for k in LAPLACIAN_BUILDS if k != name]
                          if name in LAPLACIAN_BUILDS else [])
        probs = [builds[k]() for k in names]
        assert probs[0].meta["psd_check"] == GRID_CERTIFICATES[name]
        # the three Laplacian builders run one estimate on both sides of
        # DENSE_MAX, as 2L takes L's certificate by doubling
        assert len(spectral_calls) == 1
        # each estimate decides A >= 0 with its one Gershgorin bound
        assert gershgorin_calls == spectral_calls
        for prob in probs:
            assert (certificate_fields(prob.objective.norm_bound)
                    == certificate_fields(fresh_estimate(prob.objective.A)))

    @pytest.mark.parametrize("n", [12, 300])
    def test_no_edges_keep_the_lipschitz_floor(self, n):
        # 2L = 0 takes L's zero bound by doubling, and the zero-one view's
        # L / 4 = 0 by quartering; each floor is its own, not a doubled or
        # quartered 1e-9
        g = Graph(n, ())
        mrf = build_mrf(g, np.zeros(n))
        for obj in (mrf.objective, mrf.solver_view.objective,
                    build_bisection(g).objective,
                    build_constrained_segmentation(g, [0], [1]).objective):
            assert obj.norm_bound == 0.0
            assert obj.lipschitz == 1e-9
            assert certificate_fields(obj.norm_bound) == certificate_fields(
                fresh_estimate(obj.A))

    def test_non_dominant_psd_modularity_accepted(self):
        g = generate("four_gauss_knn", {"n": 8, "knn": 3}, seed=2)
        prob = build_modularity(g, 4)
        assert gershgorin_lower_bound(prob.objective.A) < 0.0
        assert prob.meta["psd_check"] == "eigvalsh"
        assert np.linalg.eigvalsh(prob.objective.A.to_dense())[0] >= -1e-12

    def test_shared_meta_dict_left_as_passed(self):
        meta = {"name": "mine"}
        laplace = ProblemInstance(QuadraticObjective(laplacian(P3), np.zeros(3)),
                                  FeasibleSet(3, "pm1"), meta)
        dense = dense_instance(np.array([[2.0, 1.5, 1.5], [1.5, 2.0, 1.5],
                                         [1.5, 1.5, 2.0]]))
        shared = ProblemInstance(dense.objective, dense.feasible_set, meta)
        assert meta == {"name": "mine"}
        assert laplace.meta == {"name": "mine", "psd_check": "gershgorin",
                                "norm_check": "eigvalsh", "n": 3}
        assert shared.meta == {"name": "mine", "psd_check": "eigvalsh",
                               "norm_check": "eigvalsh", "n": 3}

    def test_zero_matrix_certified(self):
        A = SparseMatrix(2, [0, 0, 0], [], [])
        prob = ProblemInstance(QuadraticObjective(A, np.ones(2)),
                               FeasibleSet(2, "zeroone"))
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
        fs = FeasibleSet(3, "pm1", sum_constraint=0.0)
        prob = ProblemInstance(QuadraticObjective(identity(3), np.zeros(3)), fs)
        rep = solve(prob)
        assert not rep.feasible
        assert not check_binary_feasible(np.array(rep.x_binary), fs)


def fista_like(rng, n, steps):
    """{-1, +1}-domain inputs that drift less and less, like one solve's
    x-steps."""
    z = rng.uniform(-1.5, 1.5, n)
    out = []
    for t in range(steps):
        z = z + (0.1 * 0.8 ** t) * rng.standard_normal(n)
        out.append(z.copy())
    return out


VIEW_SETS = {
    "densest-k": lambda: build_dense_subgraph(
        generate("erdos_renyi", {"n": 60, "p": 0.2}, seed=2), 17),
    "modularity": lambda: build_modularity(
        generate("four_gauss_knn", {"n": 24}, seed=5), 4),
    "pinned-sum": lambda: identity_instance(FeasibleSet(
        40, "zeroone", sum_constraint=15.0, pinned=((30, 1.0), (3, 1.0), (7, 0.0)))),
    "pinned-blocks": lambda: identity_instance(FeasibleSet(
        24, "zeroone", simplex_blocks=4, pinned=((5, 1.0), (0, 0.0), (9, 0.0), (10, 0.0)))),
}
VIEW_BOX_SETS = {
    "mrf": lambda: build_mrf(GRID34, np.linspace(-1.0, 1.0, 12)),
    "pinned-box": lambda: identity_instance(FeasibleSet(
        30, "zeroone", pinned=((4, 1.0), (2, 0.0)))),
}


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

    def test_built_once_per_problem_on_first_solve(self, monkeypatch):
        built = []
        init = SolverView.__init__

        def counted(view, problem):
            built.append(problem)
            init(view, problem)

        monkeypatch.setattr(SolverView, "__init__", counted)
        prob = build_dense_subgraph(GRID34, 5)
        assert built == []
        first = solve_epm(prob)
        solve_adm(prob)
        solve_l2box_admm(prob)
        assert built == [prob] and prob.solver_view is prob.solver_view
        # each solve starts its own warm threshold on the kept view
        assert without_wall_time(solve_epm(prob)) == without_wall_time(first)

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

    @pytest.mark.parametrize("kind", sorted(k for k in GRID_BUILDS
                                            if not k.startswith(("bisection", "segmentation"))))
    def test_zeroone_view_carries_the_certificate(self, kind):
        # A / 4 starts with A's certificate quartered, verdict kept, and
        # that has the bits of a fresh estimate
        prob = GRID_BUILDS[kind]()
        src, obj = prob.objective.norm_bound, prob.solver_view.objective.norm_bound
        assert certificate_fields(obj) == certificate_fields(
            NormBound(src / 4.0, src.method, src.lam_min / 4.0, src.psd))
        assert certificate_fields(obj) == certificate_fields(
            fresh_estimate(prob.solver_view.objective.A))

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

    @pytest.mark.parametrize("build", sorted(VIEW_SETS))
    def test_projection_matches_conjugated_reference(self, build):
        # one solve's x-steps, warm: the same bytes
        prob = VIEW_SETS[build]()
        project = SolverView(prob).warm_projector()
        warm_ref = WarmStart()
        for z in fista_like(np.random.default_rng(5), prob.n, 40):
            got = project(z)
            want = project_conjugated(z, prob.feasible_set, warm_ref)
            assert got.tobytes() == want.tobytes()

    def test_image_constructs_at_the_tolerance_edges(self):
        # a pin and a sum just outside the zero-one box, within its slack
        fs = FeasibleSet(3, "zeroone", sum_constraint=-0.9e-9,
                         pinned=((0, -0.9e-12),))
        view = SolverView(identity_instance(fs))
        assert view.feasible_set.sum_ones == fs.sum_ones == 0

    @pytest.mark.parametrize("build", sorted(VIEW_BOX_SETS))
    def test_box_projection_within_an_ulp_of_reference(self, build):
        prob = VIEW_BOX_SETS[build]()
        view = SolverView(prob)
        for z in fista_like(np.random.default_rng(6), prob.n, 40):
            got = view.project(z)
            want = project_conjugated(z, prob.feasible_set)
            assert np.max(np.abs(got - want)) <= np.spacing(1.0)
            assert np.array_equal(got, np.clip(got, -1.0, 1.0))

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
        b = ProblemInstance(build_bisection(g).objective, a.feasible_set)
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
        fs = FeasibleSet(3, "pm1")
        x, ok = round_feasible(np.array([0.2, -0.3, 0.0]), fs)
        assert ok
        assert x.tolist() == [1.0, -1.0, 1.0]

    def test_sum_repair_top_k(self):
        fs = FeasibleSet(4, "zeroone", sum_constraint=2.0)
        x, ok = round_feasible(np.array([0.9, 0.8, 0.2, 0.1]), fs)
        assert ok
        assert x.tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_sum_repair_tie_lowest_index(self):
        fs = FeasibleSet(3, "zeroone", sum_constraint=1.0)
        x, ok = round_feasible(np.array([0.5, 0.5, 0.5]), fs)
        assert ok
        assert x.tolist() == [1.0, 0.0, 0.0]

    def test_pm1_sum_zero(self):
        fs = FeasibleSet(4, "pm1", sum_constraint=0.0)
        x, ok = round_feasible(np.array([0.6, 0.5, -0.1, -0.9]), fs)
        assert ok
        assert x.tolist() == [1.0, 1.0, -1.0, -1.0]
        assert x.sum() == 0.0

    def test_blocks_argmax(self):
        fs = FeasibleSet(4, "zeroone", simplex_blocks=2)
        x, ok = round_feasible(np.array([0.4, 0.6, 0.7, 0.3]), fs)
        assert ok
        assert x.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_nonbinary_pin_flags_infeasible(self):
        fs = FeasibleSet(2, "zeroone", pinned=((0, 0.5),))
        _, ok = round_feasible(np.array([0.9, 0.9]), fs)
        assert not ok

    def test_impossible_sum_flags_infeasible(self):
        fs = FeasibleSet(3, "pm1", sum_constraint=0.0)
        _, ok = round_feasible(np.zeros(3), fs)
        assert not ok

    def test_near_integral_sum_flags_infeasible(self):
        # 2 + 5e-7 ones is no count within the 1e-9 integrality tolerance
        fs = FeasibleSet(4, "zeroone", sum_constraint=2 + 5e-7)
        x, ok = round_feasible(np.array([0.9, 0.8, 0.1, 0.2]), fs)
        assert not ok
        assert not check_binary_feasible(x, fs)
        prob = identity_instance(fs)
        with pytest.raises(ValueError, match="admits no binary point"):
            brute_force(prob)
        with pytest.raises(ValueError, match="feasible binary starting point"):
            solve_iht(prob)

    @pytest.mark.parametrize("shape", [(3,), (5,), (2, 2)])
    def test_wrong_shape_rejected(self, shape):
        fs = FeasibleSet(4, "pm1")
        with pytest.raises(ValueError, match="4 coordinates"):
            round_feasible(np.ones(shape), fs)

    def test_output_always_feasible_when_flagged(self):
        rng = np.random.default_rng(97)
        sets = [
            FeasibleSet(5, "pm1"),
            FeasibleSet(6, "zeroone", sum_constraint=2.0),
            FeasibleSet(6, "zeroone", simplex_blocks=3),
            FeasibleSet(4, "pm1", sum_constraint=0.0,
                        pinned=((0, 1.0),)),
        ]
        for fs in sets:
            for _ in range(50):
                y = rng.uniform(-1.5, 1.5, fs.n)
                x, ok = round_feasible(y, fs)
                if ok:
                    assert check_binary_feasible(x, fs)
                    # a feasible output rounds to itself: the shared solve
                    # epilogue passes hard thresholding's answer through
                    again, ok_again = round_feasible(x, fs)
                    assert ok_again
                    assert again.tobytes() == x.tobytes()


class TestRoundBlocks:
    def check(self, y, fs):
        x, ok = round_feasible(y, fs)
        want, want_ok = round_blocks_loop(y, fs)
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
            fs = FeasibleSet(n, "zeroone", simplex_blocks=r, pinned=pins)
            y = rng.choice([0.0, 0.5, 0.7, -np.inf], n) if trial % 3 == 0 \
                else rng.uniform(-1.0, 2.0, n)
            self.check(y, fs)

    def test_ties_take_lowest_free_index(self):
        fs = FeasibleSet(6, "zeroone", simplex_blocks=3, pinned=((3, 0.0),))
        x, ok = self.check(np.array([0.4, 0.4, 0.4, 0.9, 0.2, 0.2]), fs)
        assert ok
        assert x.tolist() == [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]

    def test_all_free_minus_inf_picks_first_free(self):
        fs = FeasibleSet(3, "zeroone", simplex_blocks=3, pinned=((0, 0.0),))
        x, ok = self.check(np.array([-np.inf, -np.inf, -np.inf]), fs)
        assert ok
        assert x.tolist() == [0.0, 1.0, 0.0]

    def test_unsatisfiable_block_stops_repair(self):
        # block 1 is pinned all-zero; block 2 is left as rounded
        fs = FeasibleSet(6, "zeroone", simplex_blocks=2,
                         pinned=((2, 0.0), (3, 0.0)))
        x, ok = self.check(np.array([0.9, 0.8, 0.1, 0.1, 0.7, 0.6]), fs)
        assert not ok
        assert x.tolist() == [1.0, 0.0, 0.0, 0.0, 1.0, 1.0]


class TestCheckBinaryFeasible:
    def test_accepts_and_rejects(self):
        fs = FeasibleSet(4, "zeroone", sum_constraint=2.0)
        assert check_binary_feasible(np.array([1.0, 1.0, 0.0, 0.0]), fs)
        assert not check_binary_feasible(np.array([1.0, 0.0, 0.0, 0.0]), fs)
        assert not check_binary_feasible(np.array([0.5, 0.5, 0.5, 0.5]), fs)

    def test_pins_enforced(self):
        fs = FeasibleSet(2, "pm1", pinned=((0, 1.0),))
        assert check_binary_feasible(np.array([1.0, -1.0]), fs)
        assert not check_binary_feasible(np.array([-1.0, -1.0]), fs)

    @pytest.mark.parametrize("n", [3, 5])
    def test_wrong_length_is_infeasible(self, n):
        fs = FeasibleSet(4, "pm1")
        assert check_binary_feasible(np.ones(4), fs)
        assert not check_binary_feasible(np.ones(n), fs)

    def test_longer_balanced_vector_fails_sum_set(self):
        fs = FeasibleSet(4, "pm1", sum_constraint=0.0)
        assert not check_binary_feasible(np.array([1.0, -1.0] * 3), fs)
        assert not check_binary_feasible(np.array([[1.0, -1.0], [1.0, -1.0]]), fs)


@st.composite
def small_sets(draw):
    """A small set of either domain (a box, a sum or one-hot blocks) with
    binary and now and then non-binary pins, and a point to round."""
    domain = draw(st.sampled_from(["pm1", "zeroone"]))
    lo, hi = (-1.0, 1.0) if domain == "pm1" else (0.0, 1.0)
    kind = draw(st.sampled_from(["box", "sum", "blocks"]))
    n = draw(st.integers(1, 8))
    # pin values as fractions of the way from lo to hi; two sit a hair
    # outside the box, which the set tolerates
    unit = st.sampled_from([0.0, 1.0, 0.0, 1.0, 0.25, -9e-13, 1.0 + 9e-13])
    r = n
    pins = []
    if kind == "blocks":
        r = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        for q in range(n // r):
            left = 1.0
            cols = st.lists(st.integers(0, r - 1), unique=True, max_size=r)
            for c in draw(st.one_of(cols, st.permutations(range(r)))):
                u = draw(unit)
                u = u if u <= left else 0.0
                left -= u
                pins.append((q * r + c, lo + u * (hi - lo)))
    else:
        for i in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)):
            pins.append((i, lo + draw(unit) * (hi - lo)))
    pins = draw(st.permutations(pins))
    k = None
    if kind == "sum":
        m = n - len(pins)
        ones = draw(st.integers(0, m))
        frac = draw(st.sampled_from([0.0, 0.0, 0.5, 5e-7, 1e-10])) if ones < m else 0.0
        k = sum(v for _, v in pins) + m * lo + (ones + frac) * (hi - lo)
    fs = FeasibleSet(n, domain, sum_constraint=k, pinned=pins,
                     simplex_blocks=r if kind == "blocks" else None)
    y = np.array(draw(st.lists(st.floats(lo - 0.5, hi + 0.5), min_size=n, max_size=n)))
    nonbinary = any(1e-9 < v - lo and 1e-9 < hi - v for _, v in pins)
    return fs, y, nonbinary


def has_binary_point(fs):
    """Whether some point of {lo, hi}^n, the set's domain, meets the pins
    and the sum within 1e-9 and has one upper value per block, by plain
    enumeration."""
    lo, hi = (-1.0, 1.0) if fs.domain == "pm1" else (0.0, 1.0)
    for bits in itertools.product((lo, hi), repeat=fs.n):
        x = np.array(bits)
        if any(abs(x[i] - v) > 1e-9 for i, v in fs.pinned):
            continue
        if fs.sum_constraint is not None and abs(x.sum() - fs.sum_constraint) > 1e-9:
            continue
        if fs.simplex_blocks is not None and np.any(
                (x == hi).reshape(-1, fs.simplex_blocks).sum(axis=1) != 1):
            continue
        return True
    return False


class TestBinaryTargets:
    """round_feasible, check_binary_feasible and brute_force agree."""

    @settings(max_examples=200)
    @given(small_sets())
    def test_rounding_oracle_and_check_agree(self, case):
        fs, y, nonbinary = case
        prob = identity_instance(fs)
        SolverView(prob)  # the {-1, +1} image constructs
        exists = has_binary_point(fs)
        x, ok = round_feasible(y, fs)
        assert ok == exists
        if ok:
            assert check_binary_feasible(x, fs)
        try:
            x_star, _, _ = brute_force(prob)
        except ValueError as exc:
            assert not exists
            if nonbinary:
                assert "not binary" in str(exc)
            return
        assert exists and not nonbinary
        assert check_binary_feasible(x_star, fs)
