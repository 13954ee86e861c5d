"""Problem builders: graphs to quadratic binary program instances."""

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import SparseMatrix, matvec
from .projections import BINARY_TOL, FeasibleSet, WarmStart, project_feasible, projector
from .reformulations import round_sign
from .report import SolveReport
from .subsolver import QuadraticObjective


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph; edges are (u, v, w) with u < v, w >= 0.

    The edges are converted once, on first use, to the arrays u, v and w
    (``_edge_arrays``) that the Laplacian, ``adjacency``, ``degrees`` and
    the densest-k and modularity builders read.  A graph builds its
    Laplacian L (``laplacian``) and 2L on first use
    and keeps them, so the bisection, segmentation and MRF builders of
    one graph share one L, one 2L and their certificates: L's
    certificate is taken before 2L is made, and 2L takes it by doubling
    (``SparseMatrix.scaled``), one estimate for the three.
    """

    n: int
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        if self.n < 0:
            raise ValueError("node count must be nonnegative, got %d" % self.n)
        norm_edges = []
        seen = set()
        for u, v, w in self.edges:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise ValueError("self-loop at node %d" % u)
            if u > v:
                u, v = v, u
            if not 0 <= u < self.n or not v < self.n:
                raise ValueError("edge (%d, %d) out of range" % (u, v))
            if not math.isfinite(w) or w < 0:
                raise ValueError("edge weight must be finite and nonnegative")
            if (u, v) in seen:
                raise ValueError("duplicate edge (%d, %d)" % (u, v))
            seen.add((u, v))
            norm_edges.append((u, v, w))
        object.__setattr__(self, "edges", tuple(norm_edges))

    @functools.cached_property
    def _edge_arrays(self):
        """Read-only int64 u and v and float64 w, in edge order; a weight
        of -0.0 reads +0.0, as every matrix built from it stores it."""
        edges = np.array(self.edges, dtype=np.float64).reshape(-1, 3)
        u, v = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64)
        w = edges[:, 2] + 0.0
        for arr in (u, v, w):
            arr.flags.writeable = False
        return u, v, w

    def adjacency(self):
        u, v, w = self._edge_arrays
        return SparseMatrix.from_coo(self.n, _interleave(u, v), _interleave(v, u),
                                     _interleave(w, w))

    def degrees(self):
        """Weighted degrees; each node's sum adds its edges in edge order."""
        u, v, w = self._edge_arrays
        # with no edges bincount ignores the weights and returns ints
        return np.bincount(_interleave(u, v), weights=_interleave(w, w),
                           minlength=self.n).astype(np.float64, copy=False)

    def total_weight(self):
        return float(sum(w for _, _, w in self.edges))

    @functools.cached_property
    def _laplacian(self):
        u, v, w = self._edge_arrays
        # per edge rows u, v, u, v, columns v, u, u, v and values -w, -w,
        # w, w, so from_coo adds each diagonal in edge order
        return SparseMatrix.from_coo(self.n, _interleave(u, v, u, v),
                                     _interleave(v, u, u, v), _interleave(-w, -w, w, w))

    @functools.cached_property
    def _doubled_laplacian(self):
        L = self._laplacian
        L.certificate()  # 2L takes it by doubling
        return L.scaled(2.0)


def _interleave(*arrays):
    """a0, b0, ..., a1, b1, ...: one entry of each array per edge, in edge order."""
    return np.stack(arrays, axis=1).reshape(-1)


@dataclass(frozen=True)
class ProblemInstance:
    """A PSD quadratic objective over a binary feasible set."""

    objective: QuadraticObjective
    feasible_set: FeasibleSet
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.feasible_set.n != self.objective.n:
            raise ValueError("feasible set and objective dimension mismatch")
        bound = self.objective.norm_bound
        if bound.psd is None:
            raise ValueError("objective matrix is not positive semidefinite "
                             "(lambda_min %g)" % bound.lam_min)
        # a copy, so a dict shared by several instances is left as passed
        meta = dict(self.meta, psd_check=bound.psd, norm_check=bound.method)
        meta.setdefault("n", self.objective.n)
        object.__setattr__(self, "meta", meta)

    @property
    def n(self):
        return self.objective.n

    @property
    def domain(self):
        return self.feasible_set.domain

    @functools.cached_property
    def solver_view(self):
        """The problem over {-1, +1} (``SolverView``), built on the first solve."""
        return SolverView(self)


def laplacian(g: Graph) -> SparseMatrix:
    """Graph Laplacian D - W (symmetric PSD, zero row sums).

    One per graph: built from the edge arrays on the first call and kept
    on ``g``, so every caller shares the matrix, its padded layout and
    its certificate (see ``Graph``)."""
    return g._laplacian


def build_bisection(g: Graph) -> ProblemInstance:
    """Minimum balanced cut: f(x) = x'Lx over x in {-1,+1}^n, sum(x) = 0."""
    if g.n % 2 != 0:
        raise ValueError("balanced bisection needs an even node count, got %d" % g.n)
    A = g._doubled_laplacian  # f = 0.5 x'(2L)x = x'Lx, the cut weight times 4
    obj = QuadraticObjective(A, np.zeros(g.n))
    fset = FeasibleSet(g.n, "pm1", sum_constraint=0.0)
    return ProblemInstance(obj, fset, {"name": "bisection", "n": g.n, "provenance": "graph"})


def build_constrained_segmentation(g: Graph, fg, bg) -> ProblemInstance:
    """Cut objective x'Lx with foreground pinned to +1 and background to -1."""
    fg = [int(i) for i in fg]
    bg = [int(i) for i in bg]
    if set(fg) & set(bg):
        raise ValueError("foreground and background seeds overlap")
    A = g._doubled_laplacian
    obj = QuadraticObjective(A, np.zeros(g.n))
    pins = tuple((i, 1.0) for i in fg) + tuple((i, -1.0) for i in bg)
    fset = FeasibleSet(g.n, "pm1", pinned=pins)
    return ProblemInstance(obj, fset, {"name": "segmentation", "n": g.n,
                                       "provenance": "graph", "fg": list(fg), "bg": list(bg)})


def build_dense_subgraph(g: Graph, k) -> ProblemInstance:
    """Densest k-subgraph: maximize y'Wy over k-subsets, convexified.

    f(y) = y'(lhat I - W)y with lhat = 1.01 lambda_max(W), from a dense
    ``eigvalsh``; W >= 0, so lambda_max(W) = ||W|| and lhat I - W is
    positive definite.  On binary feasible points f = lhat*k - y'Wy and
    the minimizer is the densest subset.
    """
    k = int(k)
    if k > g.n:
        raise ValueError("subset size %d exceeds node count %d" % (k, g.n))
    if k < 0:
        raise ValueError("subset size must be nonnegative")
    W = g.adjacency()
    lhat = 1.01 * float(np.linalg.eigvalsh(W.to_dense())[-1]) if W.nnz else 0.0
    diag = np.arange(g.n)
    A = SparseMatrix.from_coo(g.n, np.concatenate((diag, W.row_indices())),
                              np.concatenate((diag, W.col_indices)),
                              np.concatenate((np.full(g.n, 2.0 * lhat), -2.0 * W.values)))
    obj = QuadraticObjective(A, np.zeros(g.n))
    fset = FeasibleSet(g.n, "zeroone", sum_constraint=float(k))
    return ProblemInstance(obj, fset, {"name": "densesub", "n": g.n,
                                       "provenance": "graph", "k": k, "lambda_shift": lhat})


def subgraph_weight(g: Graph, y) -> float:
    """y'Wy, twice the edge weight inside the selected subset."""
    y = np.asarray(y, dtype=np.float64)
    return float(sum(2.0 * w * y[u] * y[v] for u, v, w in g.edges))


def build_modularity(g: Graph, k_clusters) -> ProblemInstance:
    """Modularity clustering over one-hot rows of an n-by-k assignment.

    Coordinates hold the assignment matrix row by row, so each node's
    block of k consecutive coordinates forms one simplex constraint.  The
    quadratic is ((lhat I - Q) / 4m) kron I_k with Q the modularity
    matrix and lhat = 1.01 ||Q|| from the spectrum ``eigvalsh`` gives of
    the dense Q; on feasible binary points f = (lhat n - tr(Y'QY)) / (8m),
    i.e., a constant minus half the modularity.  The CSR keeps the node
    matrix as its ``factor``; products with A and A's certificate go
    through it.
    """
    k = int(k_clusters)
    if k < 2:
        raise ValueError("need at least 2 clusters, got %d" % k)
    m = g.total_weight()
    if m <= 0.0:
        raise ValueError("modularity undefined for an empty graph")
    u, v, w = g._edge_arrays
    W = np.zeros((g.n, g.n))
    W[u, v] = w
    W[v, u] = w
    d = g.degrees()
    Q = W - np.outer(d, d) / (2.0 * m)
    lam = np.linalg.eigvalsh(Q)
    lhat = 1.01 * float(max(-lam[0], lam[-1]))
    dim = g.n * k
    scale = 1.0 / (4.0 * m)
    A = SparseMatrix.kron_identity(scale * (np.diag(np.full(g.n, lhat)) - Q), k)
    obj = QuadraticObjective(A, np.zeros(dim))
    fset = FeasibleSet(dim, "zeroone", simplex_blocks=k)
    return ProblemInstance(obj, fset, {"name": "modularity", "n": dim,
                                       "provenance": "graph", "nodes": g.n,
                                       "k_clusters": k, "lambda_shift": lhat})


def modularity_value(g: Graph, labels) -> float:
    """Achieved modularity of a node-to-cluster labeling."""
    labels = np.asarray(labels)
    m = g.total_weight()
    if m <= 0.0:
        raise ValueError("modularity undefined for an empty graph")
    d = g.degrees()
    inside = sum(w for u, v, w in g.edges if labels[u] == labels[v])
    # degree term counts ordered same-cluster pairs, diagonal included
    deg_term = 0.0
    for c in np.unique(labels):
        dc = float(d[labels == c].sum())
        deg_term += dc * dc
    return (2.0 * inside - deg_term / (2.0 * m)) / (2.0 * m)


def build_mrf(g: Graph, unary) -> ProblemInstance:
    """Pairwise binary MRF energy: f(y) = 0.5 y'Ly + unary'y over {0,1}^n."""
    b = np.array(unary, dtype=np.float64).reshape(-1)
    if b.shape[0] != g.n:
        raise ValueError("unary term length %d, graph has %d nodes" % (b.shape[0], g.n))
    obj = QuadraticObjective(laplacian(g), b)
    fset = FeasibleSet(g.n, "zeroone")
    return ProblemInstance(obj, fset, {"name": "mrf", "n": g.n, "provenance": "graph"})


def generate(kind, params=None, seed=0) -> Graph:
    """Seeded synthetic graph generators for desk-scale experiments."""
    params = dict(params or {})
    rng = np.random.default_rng(seed)
    if kind == "cycle":
        n = _integer(params, "n")
        if n < 3:
            raise ValueError("cycle needs n >= 3, got %d" % n)
        edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
        return Graph(n, tuple(edges))
    if kind == "path":
        n = _integer(params, "n")
        return Graph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))
    if kind == "complete":
        n = _integer(params, "n")
        return Graph(n, tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)))
    if kind == "erdos_renyi":
        n = _integer(params, "n")
        p = float(params.get("p", 0.3))
        if not 0.0 <= p <= 1.0:
            raise ValueError("erdos_renyi needs 0 <= p <= 1, got p=%r" % p)
        # one draw per pair (i, j), i < j, in row-major order
        u, v = np.triu_indices(n, 1)
        keep = rng.random(u.shape[0]) < p
        return Graph(n, tuple((i, j, 1.0) for i, j in zip(u[keep].tolist(), v[keep].tolist())))
    if kind == "planted_clique":
        n = _integer(params, "n")
        q = _integer(params, "q")
        p = float(params.get("p", 0.2))
        if not 0.0 <= p <= 1.0:
            raise ValueError("planted_clique needs 0 <= p <= 1, got p=%r" % p)
        if not 0 <= q <= n:
            raise ValueError("planted_clique needs 0 <= q <= n, got q=%d, n=%d" % (q, n))
        members = rng.choice(n, size=q, replace=False)
        clique = {(min(a, b), max(a, b)) for a in members for b in members if a != b}
        edges = dict.fromkeys(clique, 1.0)
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in edges and rng.random() < p:
                    edges[(i, j)] = 1.0
        return Graph(n, tuple((u, v, w) for (u, v), w in sorted(edges.items())))
    if kind == "four_gauss_knn":
        n = _integer(params, "n")
        knn = _integer(params, "knn", 8)
        std = float(params.get("std", 0.6))
        if not 1 <= knn < n:
            raise ValueError("four_gauss_knn needs 1 <= knn < n, got knn=%d, n=%d" % (knn, n))
        centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
        # point i is centre i % 4 plus the i-th pair of normal draws
        pts = centers[np.arange(n) % 4] + std * rng.standard_normal((n, 2))
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        bandwidth = float(np.median(np.sqrt(np.partition(d2, knn, axis=1)[:, :knn])))
        scale = 2.0 * bandwidth ** 2
        if not scale > 0.0:
            raise ValueError("four_gauss_knn needs a positive kNN bandwidth, got %g: at least "
                             "half of the kNN distances are 0, as with coincident points"
                             % bandwidth)
        # each node's knn nearest, ties to the lower index; the pairs
        # (a, b), a < b, are deduplicated and sorted as keys a*n + b
        i = np.repeat(np.arange(n), knn)
        j = np.argsort(d2, axis=1, kind="stable")[:, :knn].ravel()
        key = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
        a, b = key // n, key % n
        w = np.exp(-d2[a, b] / scale)
        return Graph(n, tuple(zip(a.tolist(), b.tolist(), w.tolist())))
    raise ValueError("unknown generator kind: %r" % kind)


def _integer(params, name, default=None):
    """``params[name]`` (``default`` when absent and given) as an int; a
    ValueError naming the parameter unless it is an integer value, as 6,
    numpy's 6 or 6.0 are and 6.7, "6" and nan are not."""
    value = params[name] if default is None else params.get(name, default)
    try:
        integral = int(value) == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError("%s must be an integer, got %r" % (name, value))
    return int(value)


# ---------------------------------------------------------------------------
# solver-side helpers

class SolverView:
    """A problem re-expressed over {-1,+1} for the penalty solvers.

    For zero-one instances the quadratic is rewritten through
    y = (x+1)/2 (objective values are preserved exactly, constants
    included), and the feasible set is replaced by its image under
    x = 2y - 1.  The solvers read the one view each problem keeps
    (``ProblemInstance.solver_view``).
    """

    __slots__ = ("problem", "objective", "feasible_set", "n")

    def __init__(self, problem):
        self.problem = problem
        self.n = problem.n
        self.objective = src = problem.objective
        self.feasible_set = fs = problem.feasible_set
        if problem.domain != "pm1":
            ones = np.ones(self.n)
            A1 = matvec(src.A, ones)
            b = 0.25 * A1 + 0.5 * src.b
            c = src.c + 0.125 * float(np.dot(ones, A1)) + 0.5 * float(src.b.sum())
            self.objective = QuadraticObjective(src.A.scaled(0.25), b, c)
            self.feasible_set = FeasibleSet(
                self.n, "pm1",
                None if fs.sum_constraint is None else 2.0 * fs.sum_constraint - self.n,
                tuple((i, 2.0 * v - 1.0) for i, v in fs.pinned), fs.simplex_blocks)

    def project(self, z):
        return project_feasible(z, self.feasible_set)

    def warm_projector(self):
        """``project`` for the x-steps of one solve, built once
        (``projections.projector``).

        Each sum projection starts from the threshold of the one before
        (see ``projections.WarmStart``); call once per solve.
        """
        return projector(self.feasible_set, WarmStart())

    def initial_point(self, seed):
        """Tiny seeded noise, projected.

        Breaks the symmetry of the all-zero fixed point while keeping the
        first x-step within noise of the plain relaxation.
        """
        rng = np.random.default_rng(seed)
        return self.project(1e-6 * rng.uniform(-1.0, 1.0, self.n))

    def to_original(self, x):
        if self.problem.domain == "pm1":
            return x
        return (x + 1.0) / 2.0

    def function_lipschitz(self):
        """Bound on |f| change per unit step over the box: ||A|| sqrt(n) + ||b||."""
        return (self.objective.lipschitz * np.sqrt(self.n)
                + float(np.linalg.norm(self.objective.b)))


def round_feasible(y, fset):
    """Round to binary and repair constraints; deterministic.

    Sum constraints are met by taking the coordinates with the largest
    values (equivalently: flipping the entries closest to the rounding
    threshold), simplex blocks by per-block argmax, ties by lowest index.
    Returns (x_binary, feasible_flag).  A feasible output is returned
    unchanged when rounded again.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (fset.n,):
        raise ValueError("point of shape %r, feasible set has %d coordinates"
                         % (y.shape, fset.n))
    x = round_sign(y, fset.domain)
    if fset.nonbinary_pin is not None:
        # pins are written in order up to the first non-binary one
        stop = fset.nonbinary_pin + 1
        x[fset.pin_index[:stop]] = fset.pin_value[:stop]
        return x, False
    x[fset.pin_index] = fset.pin_value
    lo, hi = fset.lo, fset.hi
    if fset.sum_constraint is not None:
        if fset.sum_ones < 0:
            return x, False
        free = fset.free
        order = np.lexsort((free, -y[free]))  # by value desc, then index asc
        chosen = free[order[:fset.sum_ones]]
        x[free] = lo
        x[chosen] = hi
        return x, True

    r = fset.simplex_blocks
    if r is None:
        return x, True
    nb = fset.n // r
    X = x.reshape(nb, r)
    pin2 = fset.pin_mask().reshape(nb, r)
    free2 = ~pin2
    bad = fset.block_ones < 0
    # blocks are repaired in order up to and including the first bad
    # one, whose free coordinates are cleared before it fails
    last = int(np.argmax(bad)) if bad.any() else nb - 1
    X[:last + 1][free2[:last + 1]] = lo
    # argmax over the free coordinates; lowest index on ties
    pick = np.argmax(np.where(pin2, -np.inf, y.reshape(nb, r)), axis=1)
    rows = np.arange(nb)
    pick = np.where(pin2[rows, pick], np.argmax(free2, axis=1), pick)
    set_one = np.flatnonzero((fset.block_ones == 1) & (rows <= last))
    X[set_one, pick[set_one]] = hi
    return X.reshape(-1), not bad.any()


def check_binary_feasible(x, fset, tol=BINARY_TOL):
    """True iff x is binary to ``tol``, meets the pins, and its free
    coordinates at the upper value match the set's binary targets."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (fset.n,) or fset.nonbinary_pin is not None:
        return False
    at_hi = np.abs(x - fset.hi) <= tol
    if not np.all(at_hi | (np.abs(x - fset.lo) <= tol)):
        return False
    if np.any(np.abs(x[fset.pin_index] - fset.pin_value) > tol):
        return False
    free_hi = at_hi & ~fset.pin_mask()
    if fset.sum_constraint is not None:
        return int(np.count_nonzero(free_hi)) == fset.sum_ones
    if fset.simplex_blocks is not None:
        counts = free_hi.reshape(-1, fset.simplex_blocks).sum(axis=1)
        return bool(np.all(counts == fset.block_ones))
    return True


def finish_solve(problem, method, y, start, gap, outer, trace, converged,
                 x_relaxed=None, objective_relaxed=None, **meta):
    """The ending every solver shares: round, certify, report.

    ``y`` is the final iterate in the problem's own domain; it is rounded
    and repaired by ``round_feasible`` and the result checked by
    ``check_binary_feasible``.  ``meta`` (such as ``l_hat`` and
    ``rho_cap``) is merged into a copy of the problem's meta together
    with its domain.  ``start`` is the ``time.perf_counter()`` reading
    the wall time is measured from.
    """
    fset = problem.feasible_set
    x_binary, feasible = round_feasible(y, fset)
    feasible = feasible and check_binary_feasible(x_binary, fset)
    return SolveReport(
        method=method,
        problem=dict(problem.meta, domain=problem.domain, **meta),
        x_binary=x_binary,
        objective_binary=problem.objective.value(x_binary),
        complementarity_gap_final=gap,
        outer_iterations=outer,
        wall_time_ms=(time.perf_counter() - start) * 1e3,
        trace=tuple(trace),
        feasible=feasible,
        converged=converged,
        objective_relaxed=objective_relaxed,
        x_relaxed=x_relaxed,
    )
