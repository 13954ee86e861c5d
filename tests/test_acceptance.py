"""Release acceptance gate: ten end-to-end criteria, one test each.

Criteria 1 and 2 solve two pools of instances (six tiny graphs, fifty
seeded random dense-subgraph instances).  Criteria 3 through 7 audit the
traces of every run in those pools, so both pools are module-scoped and
solved exactly once.  The remaining criteria exercise the capped-simplex
projection, the binary-certificate predicates, and a 200-node clustering
graph with bit-identical trace regression.  The tests keep their
``criterion_NN`` numbers: criterion 8 checked the rank-one ball QP
solver, and left with it once adm's v-step became epm's closed form.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion.
"""

import math
import time

import numpy as np
import pytest

from reference import simplex_projection_oracle

from binmpec.adm import solve_adm
from binmpec.baselines import solve_lp_round
from binmpec.epm import PenaltyConfig, epm_v_update, solve_epm
from binmpec.oracle import brute_force
from binmpec.problems import (Graph, build_bisection, build_dense_subgraph,
                              build_mrf, generate)
from binmpec.projections import project_capped_simplex
from binmpec.reformulations import MpecVariant, h_ratio, membership, round_sign
from binmpec.report import trace_to_csv

GAP_TOL = 1e-8


@pytest.fixture(scope="module")
def tiny_pool():
    """Six tiny instances solved by both methods, with enumerated optima."""
    c4 = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    k2 = Graph(2, [(0, 1, 1.0)])
    two_k2 = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    k3 = Graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    star4 = Graph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    instances = [
        ("bisect-c4", build_bisection(c4)),
        ("bisect-k2", build_bisection(k2)),
        ("bisect-2k2", build_bisection(two_k2)),
        ("densesub-k3", build_dense_subgraph(k3, 2)),
        ("densesub-star4", build_dense_subgraph(star4, 2)),
        ("mrf-2node", build_mrf(Graph(2, [(0, 1, 1.0)]), [-1.0, 0.2])),
    ]
    start = time.perf_counter()
    runs = []
    for name, prob in instances:
        _, f_star, _ = brute_force(prob)
        for solver in (solve_epm, solve_adm):
            runs.append((name, f_star, solver(prob, seed=0)))
    return {"runs": runs, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def er_pool():
    """Fifty seeded G(14, 0.4) dense-subgraph instances at k = 5."""
    start = time.perf_counter()
    runs = []
    for seed in range(50):
        g = generate("erdos_renyi", {"n": 14, "p": 0.4}, seed=seed)
        prob = build_dense_subgraph(g, 5)
        _, f_star, _ = brute_force(prob)
        runs.append({
            "seed": seed,
            "f_star": f_star,
            "epm": solve_epm(prob, seed=0),
            "adm": solve_adm(prob, seed=0),
            "lp": solve_lp_round(prob),
        })
    return {"runs": runs, "elapsed": time.perf_counter() - start}


def _pool_reports(tiny_pool, er_pool, method):
    out = [(name, rep) for name, _, rep in tiny_pool["runs"]
           if rep.method == method]
    out += [("er-%d" % e["seed"], e[method]) for e in er_pool["runs"]]
    return out


def test_criterion_01_tiny_instances_solved_exactly(tiny_pool):
    """Both methods reproduce the enumerated optimum bit-for-bit."""
    for name, f_star, rep in tiny_pool["runs"]:
        assert rep.feasible, "%s/%s returned an infeasible point" % (
            name, rep.method)
        assert rep.objective_binary == f_star, (
            "%s/%s: got %r, enumeration says %r"
            % (name, rep.method, rep.objective_binary, f_star))
    print("criterion 1: 12/12 exact, %.2fs" % tiny_pool["elapsed"])
    assert tiny_pool["elapsed"] < 5.0


def test_criterion_02_random_pool_quality(er_pool):
    """Mean relative gap <= 10% and beats the box-relaxation rounding
    on at least 80% of the random pool, for both methods."""
    runs = er_pool["runs"]
    for method in ("epm", "adm"):
        gaps = []
        wins = 0
        for e in runs:
            f = e[method].objective_binary
            assert f >= e["f_star"] - 1e-9  # cannot beat enumeration
            gaps.append((f - e["f_star"]) / abs(e["f_star"]))
            if f <= e["lp"].objective_binary + 1e-9:
                wins += 1
        mean_gap = float(np.mean(gaps))
        print("criterion 2: %s mean gap %.4f%%, wins %d/50"
              % (method, 100.0 * mean_gap, wins))
        assert mean_gap <= 0.10
        assert wins >= 40
    assert er_pool["elapsed"] < 120.0


def test_criterion_03_penalty_never_exceeds_cap(tiny_pool, er_pool):
    """max penalty along every trace stays within 2 * L_hat + 1e-12."""
    for method in ("epm", "adm"):
        for name, rep in _pool_reports(tiny_pool, er_pool, method):
            cap = rep.problem["rho_cap"]
            worst = max(row[3] for row in rep.trace)
            assert worst <= cap + 1e-12, (
                "%s/%s: penalty %r above cap %r" % (name, method, worst, cap))


def test_criterion_04_penalty_increase_budget(tiny_pool, er_pool):
    """Penalty increases per run stay within the logarithmic budget
    ceil((ln(L_hat * sqrt(2n)) - ln(eps * rho0)) / ln(sigma))."""
    cfg = PenaltyConfig()
    worst_ratio = 0.0
    for name, rep in _pool_reports(tiny_pool, er_pool, "epm"):
        l_hat = rep.problem["l_hat"]
        n = len(rep.x_binary)
        budget = math.ceil(
            (math.log(l_hat * math.sqrt(2.0 * n))
             - math.log(cfg.feas_tol * cfg.rho0)) / math.log(cfg.sigma))
        rho = [row[3] for row in rep.trace]
        increases = sum(1 for a, b in zip(rho, rho[1:]) if b > a)
        worst_ratio = max(worst_ratio, increases / budget)
        assert increases <= budget, (
            "%s: %d increases, budget %d" % (name, increases, budget))
    print("criterion 4: worst increases/budget ratio %.2f" % worst_ratio)


def test_criterion_05_objective_monotone_once_feasible(tiny_pool, er_pool):
    """After the gap first reaches 1e-8 the objective never rises by
    more than 1e-8 on any exact-penalty trace."""
    for name, rep in _pool_reports(tiny_pool, er_pool, "epm"):
        prev = None
        for _, f, gap, _ in rep.trace:
            if prev is None and gap <= GAP_TOL:
                prev = f
                continue
            if prev is not None:
                assert f <= prev + 1e-8, (
                    "%s: objective rose %r -> %r after feasibility"
                    % (name, prev, f))
                prev = min(prev, f)


def test_criterion_06_multiplier_monotone(tiny_pool, er_pool):
    """Alternating-direction multiplier estimates never decrease."""
    for name, rep in _pool_reports(tiny_pool, er_pool, "adm"):
        rho = [row[3] for row in rep.trace]
        for a, b in zip(rho, rho[1:]):
            assert b >= a - 1e-12, (
                "%s: multiplier fell %r -> %r" % (name, a, b))


def test_criterion_07_terminating_runs_are_binary(tiny_pool, er_pool):
    """Every run that terminates leaves an unrounded iterate within 1e-6
    of a sign vector.  An exact-penalty run that reaches the penalty cap
    must finish within one more epoch of alternations; the alternating
    method's multiplier may sit at its cap while the quadratic term is
    still being escalated, so no window is claimed there."""
    inner_t = PenaltyConfig().inner_T
    worst = 0.0
    for method in ("epm", "adm"):
        for name, rep in _pool_reports(tiny_pool, er_pool, method):
            if not rep.converged:
                continue
            x = np.asarray(rep.x_relaxed)
            dist = float(np.max(np.abs(x - round_sign(x))))
            worst = max(worst, dist)
            assert dist <= 1e-6, (
                "%s/%s: sign distance %r" % (name, method, dist))
            if method != "epm":
                continue
            cap = rep.problem["rho_cap"]
            rho = [row[3] for row in rep.trace]
            touch = next((i for i, r in enumerate(rho)
                          if r >= cap * (1.0 - 1e-12)), None)
            if touch is not None:
                assert len(rho) - 1 - touch <= inner_t, (
                    "%s: %d alternations after reaching the cap"
                    % (name, len(rho) - 1 - touch))
    print("criterion 7: worst sign distance %.3e" % worst)


def test_criterion_09_capped_simplex_projection():
    """Matches the active-set enumeration oracle to 1e-8 on 200 random
    small instances, and measured cost stays within a factor of three of
    an n log n fit between n = 1e3 and n = 1e5."""
    rng = np.random.default_rng(9)
    for trial in range(200):
        n = int(rng.integers(1, 9))
        a = rng.uniform(-2.0, 3.0, n)
        k = float(rng.integers(0, n + 1)) if trial % 3 == 0 else \
            float(rng.uniform(0.0, n))
        got = project_capped_simplex(a, k)
        ref = simplex_projection_oracle(a, k)
        assert float(np.max(np.abs(got - ref))) <= 1e-8, (
            "trial %d: a=%r k=%r" % (trial, a.tolist(), k))

    ladder = [1000, 3162, 10000, 31623, 100000]
    reps = {1000: 9, 3162: 7, 10000: 5, 31623: 5, 100000: 3}
    medians = []
    for n in ladder:
        v = rng.uniform(-1.0, 2.0, n)
        project_capped_simplex(v, n / 3.0)  # warm the code path
        samples = []
        for _ in range(reps[n]):
            t0 = time.perf_counter()
            project_capped_simplex(v, n / 3.0)
            samples.append(time.perf_counter() - t0)
        medians.append(sorted(samples)[len(samples) // 2])

    model = np.array([n * math.log(n) for n in ladder])
    t = np.array(medians)
    scale = float(model @ t / (model @ model))
    eps = 1e-4  # absorbs timer noise on sub-millisecond runs
    ratios = t / (scale * model)
    print("criterion 9: fit ratios %s"
          % ", ".join("%.2f" % r for r in ratios))
    for n, t_i, m_i in zip(ladder, t, model):
        assert t_i <= 3.0 * scale * m_i + eps, "n=%d too slow" % n
        assert t_i >= scale * m_i / 3.0 - eps, "n=%d too fast for the fit" % n


def test_criterion_10_certificate_predicates():
    """Binary vectors certify in every variant; interior points admit no
    certificate even at the best feasible v; the gap-ratio lower bound of
    one half holds over 1e5 box samples."""
    start = time.perf_counter()
    rng = np.random.default_rng(10)

    for n in (1, 2, 3, 4):
        for bits in range(2 ** n):
            x = np.array([1.0 if bits >> i & 1 else -1.0
                          for i in range(n)])
            for variant in MpecVariant:
                assert membership(variant, x, x, 1e-12)

    rejected = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        x = rng.uniform(-1.0, 1.0, n)
        if float(n) - math.sqrt(n) * float(np.linalg.norm(x)) <= 1e-6:
            continue  # too close to a corner to discriminate
        v_star = epm_v_update(x)  # best feasible certificate candidate
        assert not membership(MpecVariant.L2BoxNonSep, x, v_star, 1e-9)
        assert not membership(MpecVariant.L2BoxNonSepReform, x, v_star, 1e-9)
        rejected += 1
    assert rejected >= 900

    total = 0
    worst = 1.0
    while total < 100000:
        n = int(rng.integers(1, 51))
        x = rng.uniform(-1.0, 1.0, n)
        h = h_ratio(x)
        worst = min(worst, h)
        assert h >= 0.5 - 1e-12
        total += 1
    elapsed = time.perf_counter() - start
    print("criterion 10: worst gap ratio %.6f, %.1fs" % (worst, elapsed))
    assert elapsed < 30.0


def test_criterion_11_convergence_envelope(tmp_path):
    """200-node four-cluster graph: both methods terminate fully binary
    within the outer budget, and same-seed runs regress bit-identically
    through the trace files."""
    g = generate("four_gauss_knn", {"n": 200}, seed=0)
    prob = build_bisection(g)
    for solver in (solve_epm, solve_adm):
        first = solver(prob, seed=0)
        second = solver(prob, seed=0)
        assert first.converged, "%s did not terminate" % first.method
        assert first.outer_iterations <= 100
        x = np.asarray(first.x_relaxed)
        dist = float(np.max(np.abs(x - round_sign(x))))
        assert dist <= 1e-6
        path_a = tmp_path / ("%s_a.csv" % first.method)
        path_b = tmp_path / ("%s_b.csv" % first.method)
        trace_to_csv(first.trace, path_a)
        trace_to_csv(second.trace, path_b)
        assert path_a.read_bytes() == path_b.read_bytes(), (
            "%s traces differ between same-seed runs" % first.method)
        print("criterion 11: %s outer=%d objective=%.6f"
              % (first.method, first.outer_iterations,
                 first.objective_binary))
