"""Problem builders: graphs to quadratic binary program instances."""

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import PSD_RTOL, SparseMatrix, gershgorin_lower_bound, matvec
from .projections import FeasibleSet, WarmStart, project_feasible
from .reformulations import domain_bounds, round_sign
from .report import SolveReport
from .subsolver import QuadraticObjective


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph; edges are (u, v, w) with u < v, w >= 0."""

    n: int
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
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

    def adjacency(self):
        rows, cols, vals = [], [], []
        for u, v, w in self.edges:
            rows += [u, v]
            cols += [v, u]
            vals += [w, w]
        return SparseMatrix.from_coo(self.n, self.n, rows, cols, vals, symmetric=True)

    def degrees(self):
        d = np.zeros(self.n)
        for u, v, w in self.edges:
            d[u] += w
            d[v] += w
        return d

    def total_weight(self):
        return float(sum(w for _, _, w in self.edges))


@dataclass(frozen=True)
class ProblemInstance:
    """A PSD quadratic objective over a binary feasible set."""

    objective: QuadraticObjective
    feasible_set: FeasibleSet
    domain: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        lo, hi = domain_bounds(self.domain)
        if self.feasible_set.n != self.objective.n:
            raise ValueError("feasible set and objective dimension mismatch")
        if np.any(self.feasible_set.lower != lo) or np.any(self.feasible_set.upper != hi):
            raise ValueError("box bounds inconsistent with domain %r" % self.domain)
        # a copy, so a dict shared by several instances is left as passed
        meta = dict(self.meta, psd_check=_validate_psd(self.objective),
                    norm_check=self.objective.norm_bound.method)
        meta.setdefault("n", self.objective.n)
        object.__setattr__(self, "meta", meta)

    @property
    def n(self):
        return self.objective.n


def _validate_psd(obj):
    """Reject objectives with a negative eigenvalue; name how A >= 0 was shown.

    Returns ``"gershgorin"`` when the O(nnz) disc bound certifies every
    eigenvalue nonnegative (all diagonally dominant matrices, graph
    Laplacians among them).  Any other matrix is decided by ``"eigvalsh"``:
    the least eigenvalue of the dense spectrum that ``spectral_norm_estimate``
    took for the objective's norm bound; modularity and densest-k instances
    take this path.  Both accept lambda_min down to -PSD_RTOL max(1, L),
    with L the objective's Lipschitz bound.
    """
    tol = PSD_RTOL * max(1.0, obj.lipschitz)
    if gershgorin_lower_bound(obj.A) >= -tol:
        return "gershgorin"
    lam_min = obj.norm_bound.lam_min
    if lam_min < -tol:
        raise ValueError("objective matrix is not positive semidefinite "
                         "(lambda_min %g)" % lam_min)
    return "eigvalsh"


def laplacian(g: Graph) -> SparseMatrix:
    """Graph Laplacian D - W (symmetric PSD, zero row sums)."""
    rows, cols, vals = [], [], []
    for u, v, w in g.edges:
        rows += [u, v, u, v]
        cols += [v, u, u, v]
        vals += [-w, -w, w, w]
    if not rows:
        return SparseMatrix(g.n, g.n, np.zeros(g.n + 1, dtype=np.int64), [], [],
                            symmetric=True)
    return SparseMatrix.from_coo(g.n, g.n, rows, cols, vals, symmetric=True)


def _box(n, domain):
    lo, hi = domain_bounds(domain)
    return np.full(n, lo), np.full(n, hi)


def build_bisection(g: Graph) -> ProblemInstance:
    """Minimum balanced cut: f(x) = x'Lx over x in {-1,+1}^n, sum(x) = 0."""
    if g.n % 2 != 0:
        raise ValueError("balanced bisection needs an even node count, got %d" % g.n)
    A = laplacian(g).scaled(2.0)  # f = 0.5 x'(2L)x = x'Lx, the cut weight times 4
    obj = QuadraticObjective(A, np.zeros(g.n))
    lo, hi = _box(g.n, "pm1")
    fset = FeasibleSet(lo, hi, sum_constraint=0.0)
    return ProblemInstance(obj, fset, "pm1",
                           {"name": "bisection", "n": g.n, "provenance": "graph"})


def build_constrained_segmentation(g: Graph, fg, bg) -> ProblemInstance:
    """Cut objective x'Lx with foreground pinned to +1 and background to -1."""
    fg = [int(i) for i in fg]
    bg = [int(i) for i in bg]
    if set(fg) & set(bg):
        raise ValueError("foreground and background seeds overlap")
    A = laplacian(g).scaled(2.0)
    obj = QuadraticObjective(A, np.zeros(g.n))
    lo, hi = _box(g.n, "pm1")
    pins = tuple((i, 1.0) for i in fg) + tuple((i, -1.0) for i in bg)
    fset = FeasibleSet(lo, hi, pinned=pins)
    return ProblemInstance(obj, fset, "pm1",
                           {"name": "segmentation", "n": g.n, "provenance": "graph",
                            "fg": list(fg), "bg": list(bg)})


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
    rows = list(range(g.n))
    cols = list(range(g.n))
    vals = [2.0 * lhat] * g.n
    for u, v, w in g.edges:
        rows += [u, v]
        cols += [v, u]
        vals += [-2.0 * w, -2.0 * w]
    A = SparseMatrix.from_coo(g.n, g.n, rows, cols, vals, symmetric=True)
    obj = QuadraticObjective(A, np.zeros(g.n))
    lo, hi = _box(g.n, "zeroone")
    fset = FeasibleSet(lo, hi, sum_constraint=float(k))
    return ProblemInstance(obj, fset, "zeroone",
                           {"name": "densesub", "n": g.n, "provenance": "graph",
                            "k": k, "lambda_shift": lhat})


def subgraph_weight(g: Graph, y) -> float:
    """y'Wy, twice the edge weight inside the selected subset."""
    y = np.asarray(y, dtype=np.float64)
    return float(sum(2.0 * w * y[u] * y[v] for u, v, w in g.edges))


def build_modularity(g: Graph, k_clusters) -> ProblemInstance:
    """Modularity clustering over one-hot rows of an n-by-k assignment.

    Coordinates hold the assignment matrix row by row, so each node's
    block of k consecutive coordinates forms one simplex constraint.  The
    quadratic is (1/4m)(lhat I - Q kron I_k) with Q the modularity
    matrix and lhat = 1.01 ||Q|| from the spectrum ``eigvalsh`` gives of
    the dense Q; on feasible binary points f = (lhat n - tr(Y'QY)) / (8m),
    i.e., a constant minus half the modularity.
    """
    k = int(k_clusters)
    if k < 2:
        raise ValueError("need at least 2 clusters, got %d" % k)
    m = g.total_weight()
    if m <= 0.0:
        raise ValueError("modularity undefined for an empty graph")
    W = g.adjacency().to_dense()
    d = g.degrees()
    Q = W - np.outer(d, d) / (2.0 * m)
    lam = np.linalg.eigvalsh(Q)
    lhat = 1.01 * float(max(-lam[0], lam[-1]))
    dim = g.n * k
    scale = 1.0 / (4.0 * m)
    # node pair (i, j) with weight w != 0 couples coordinates i*k + c and
    # j*k + c for every cluster c; triplets in row-major pair order
    w = np.diag(np.full(g.n, lhat)) - Q
    ii, jj = np.nonzero(w)
    cl = np.arange(k)
    rows = (ii[:, None] * k + cl).reshape(-1)
    cols = (jj[:, None] * k + cl).reshape(-1)
    vals = np.repeat(scale * w[ii, jj], k)
    A = SparseMatrix.from_coo(dim, dim, rows, cols, vals, symmetric=True)
    obj = QuadraticObjective(A, np.zeros(dim))
    lo, hi = _box(dim, "zeroone")
    fset = FeasibleSet(lo, hi, simplex_blocks=k)
    return ProblemInstance(obj, fset, "zeroone",
                           {"name": "modularity", "n": dim, "provenance": "graph",
                            "nodes": g.n, "k_clusters": k, "lambda_shift": lhat})


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
    lo, hi = _box(g.n, "zeroone")
    fset = FeasibleSet(lo, hi)
    return ProblemInstance(obj, fset, "zeroone",
                           {"name": "mrf", "n": g.n, "provenance": "graph"})


def generate(kind, params=None, seed=0) -> Graph:
    """Seeded synthetic graph generators for desk-scale experiments."""
    params = dict(params or {})
    rng = np.random.default_rng(seed)
    if kind == "cycle":
        n = int(params["n"])
        edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
        return Graph(n, tuple(edges))
    if kind == "path":
        n = int(params["n"])
        return Graph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))
    if kind == "complete":
        n = int(params["n"])
        return Graph(n, tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)))
    if kind == "erdos_renyi":
        n = int(params["n"])
        p = float(params.get("p", 0.3))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((i, j, 1.0))
        return Graph(n, tuple(edges))
    if kind == "planted_clique":
        n = int(params["n"])
        q = int(params["q"])
        p = float(params.get("p", 0.2))
        if q > n:
            raise ValueError("clique size exceeds node count")
        members = rng.choice(n, size=q, replace=False)
        clique = {(min(a, b), max(a, b)) for a in members for b in members if a != b}
        edges = dict.fromkeys(clique, 1.0)
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in edges and rng.random() < p:
                    edges[(i, j)] = 1.0
        return Graph(n, tuple((u, v, w) for (u, v), w in sorted(edges.items())))
    if kind == "four_gauss_knn":
        n = int(params["n"])
        knn = int(params.get("knn", 8))
        std = float(params.get("std", 0.6))
        centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
        pts = np.empty((n, 2))
        for i in range(n):
            pts[i] = centers[i % 4] + std * rng.standard_normal(2)
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        bandwidth = float(np.median(np.sqrt(np.partition(d2, knn, axis=1)[:, :knn])))
        edges = {}
        for i in range(n):
            for j in np.argsort(d2[i], kind="stable")[:knn]:
                a, b = (i, int(j)) if i < j else (int(j), i)
                edges[(a, b)] = float(np.exp(-d2[a, b] / (2.0 * bandwidth ** 2)))
        return Graph(n, tuple((u, v, w) for (u, v), w in sorted(edges.items())))
    raise ValueError("unknown generator kind: %r" % kind)


# ---------------------------------------------------------------------------
# solver-side helpers

class SolverView:
    """A problem re-expressed over {-1,+1} for the penalty solvers.

    For zero-one instances the quadratic is rewritten through
    y = (x+1)/2 (objective values are preserved exactly, constants
    included) and the projection is conjugated by the same affine map,
    which commutes with Euclidean projection.
    """

    __slots__ = ("problem", "objective", "n")

    def __init__(self, problem):
        self.problem = problem
        self.n = problem.n
        if problem.domain == "pm1":
            self.objective = problem.objective
        else:
            src = problem.objective
            ones = np.ones(self.n)
            A1 = matvec(src.A, ones)
            b = 0.25 * A1 + 0.5 * src.b
            c = src.c + 0.125 * float(np.dot(ones, A1)) + 0.5 * float(src.b.sum())
            self.objective = src.scaled(0.25, b, c)

    def project(self, z, warm=None):
        if self.problem.domain == "pm1":
            return project_feasible(z, self.problem.feasible_set, warm)
        y = project_feasible((z + 1.0) / 2.0, self.problem.feasible_set, warm)
        return 2.0 * y - 1.0

    def warm_projector(self):
        """``project`` for the x-steps of one solve.

        Each sum projection starts from the threshold of the one before
        (see ``projections.WarmStart``); call once per solve.
        """
        return functools.partial(self.project, warm=WarmStart())

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


def round_feasible(y, fset, domain):
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
    lo, hi = domain_bounds(domain)
    x = round_sign(y, domain)
    for stop, (_, v) in enumerate(fset.pinned, 1):
        if abs(v - lo) > 1e-9 and abs(v - hi) > 1e-9:
            # pins are written in order up to the first non-binary one
            x[fset.pin_index[:stop]] = fset.pin_value[:stop]
            return x, False
    x[fset.pin_index] = fset.pin_value

    if fset.sum_constraint is not None:
        target = fset.sum_constraint - fset.pinned_total
        free = np.flatnonzero(~fset.pin_mask())
        t_ones = (target - lo * free.shape[0]) / (hi - lo)
        t_int = round(t_ones)
        if abs(t_ones - t_int) > 1e-6 or not 0 <= t_int <= free.shape[0]:
            return x, False
        order = np.lexsort((free, -y[free]))  # by value desc, then index asc
        chosen = free[order[:int(t_int)]]
        x[free] = lo
        x[chosen] = hi
        return x, True

    if fset.simplex_blocks is not None:
        r = fset.simplex_blocks
        nb = fset.n // r
        X = x.reshape(nb, r)
        pin2 = fset.pin_mask().reshape(nb, r)
        free2 = ~pin2
        need = np.empty(nb)
        for blocks, _, target in fset.block_groups:
            need[blocks] = target
        one = np.abs(need - 1.0) < 1e-9
        bad = np.where(one, ~free2.any(axis=1), np.abs(need) > 1e-9)
        # blocks are repaired in order up to and including the first bad
        # one, whose free coordinates are cleared before it fails
        last = int(np.argmax(bad)) if bad.any() else nb - 1
        X[:last + 1][free2[:last + 1]] = 0.0
        # argmax over the free coordinates; lowest index on ties
        pick = np.argmax(np.where(pin2, -np.inf, y.reshape(nb, r)), axis=1)
        rows = np.arange(nb)
        pick = np.where(pin2[rows, pick], np.argmax(free2, axis=1), pick)
        set_one = np.flatnonzero(one & ~bad & (rows <= last))
        X[set_one, pick[set_one]] = 1.0
        return X.reshape(-1), not bad.any()

    return x, True


def check_binary_feasible(x, fset, domain, tol=1e-9):
    """True iff x is exactly binary and satisfies every constraint."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (fset.n,):
        return False
    lo, hi = domain_bounds(domain)
    if not np.all((np.abs(x - lo) <= tol) | (np.abs(x - hi) <= tol)):
        return False
    for i, v in fset.pinned:
        if abs(x[i] - v) > tol:
            return False
    if fset.sum_constraint is not None:
        if abs(x.sum() - fset.sum_constraint) > tol:
            return False
    if fset.simplex_blocks is not None:
        r = fset.simplex_blocks
        sums = x.reshape(-1, r).sum(axis=1)
        if np.any(np.abs(sums - 1.0) > tol):
            return False
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
    x_binary, feasible = round_feasible(y, fset, problem.domain)
    feasible = feasible and check_binary_feasible(x_binary, fset, problem.domain)
    return SolveReport(
        method=method,
        problem=dict(problem.meta, domain=problem.domain, **meta),
        x_binary=tuple(x_binary),
        objective_binary=problem.objective.value(x_binary),
        complementarity_gap_final=gap,
        outer_iterations=outer,
        wall_time_ms=(time.perf_counter() - start) * 1e3,
        trace=tuple(trace),
        feasible=feasible,
        converged=converged,
        objective_relaxed=objective_relaxed,
        x_relaxed=None if x_relaxed is None else tuple(x_relaxed),
    )
