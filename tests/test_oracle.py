import itertools

import numpy as np
import pytest

from binmpec.linalg import SparseMatrix
from binmpec.oracle import SizeLimitError, brute_force, feasible_count_binomial
from binmpec.problems import (Graph, ProblemInstance, build_bisection,
                              build_constrained_segmentation, build_mrf,
                              check_binary_feasible, generate)
from binmpec.projections import FeasibleSet
from binmpec.subsolver import QuadraticObjective


def quadratic_instance(dense, b, c, fset):
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(dense)
    A = SparseMatrix.from_coo(dense.shape[0], rows, cols, dense[rows, cols])
    return ProblemInstance(QuadraticObjective(A, b, c), fset)


class TestExamples:
    def test_single_variable(self):
        # f(x) = 0.5 x^2 - x over {-1, +1}: minimum -0.5 at x = +1
        fs = FeasibleSet(1, "pm1")
        prob = quadratic_instance([[1.0]], [-1.0], 0.0, fs)
        x, f, count = brute_force(prob)
        assert x.tolist() == [1.0]
        assert f == pytest.approx(-0.5)
        assert count == 2

    def test_c4_bisection(self):
        g = generate("cycle", {"n": 4})
        x, f, count = brute_force(build_bisection(g))
        assert f == pytest.approx(8.0, abs=1e-12)
        assert count == 6

    def test_mrf(self):
        g = Graph(2, ((0, 1, 1.0),))
        _, f, count = brute_force(build_mrf(g, [-1.0, 0.2]))
        assert f == pytest.approx(-0.8, abs=1e-12)
        assert count == 4


class TestLimits:
    def test_size_limit(self):
        g = generate("cycle", {"n": 30})
        with pytest.raises(SizeLimitError):
            brute_force(build_bisection(g))

    def test_limit_override(self):
        g = generate("cycle", {"n": 24})
        with pytest.raises(SizeLimitError):
            brute_force(build_bisection(g), limit_n=23)
        # pinned coordinates do not count against the limit
        prob = build_constrained_segmentation(
            generate("path", {"n": 24}), fg=list(range(12)), bg=list(range(12, 23)))
        x, f, count = brute_force(prob, limit_n=1)
        assert count == 2

    def test_size_limit_is_value_error(self):
        assert issubclass(SizeLimitError, ValueError)


class TestTieBreak:
    def test_all_ties_returns_all_lo(self):
        fs = FeasibleSet(3, "pm1")
        A = np.zeros((3, 3))
        prob = quadratic_instance(A, np.zeros(3), 7.0, fs)
        x, f, count = brute_force(prob)
        assert x.tolist() == [-1.0, -1.0, -1.0]
        assert f == 7.0
        assert count == 8

    def test_tie_break_prefers_low_leading_coordinate(self):
        # f = 0.5 (x0 + x1)^2 ties at the two mixed-sign points; the one
        # with x0 = lo reads as the smaller index and wins
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        fs = FeasibleSet(2, "pm1")
        prob = quadratic_instance(A, np.zeros(2), 0.0, fs)
        x, f, _ = brute_force(prob)
        assert f == pytest.approx(0.0, abs=1e-12)
        assert x.tolist() == [-1.0, 1.0]


class TestCounts:
    def test_binomial_helper(self):
        assert feasible_count_binomial(14, 5) == 2002
        assert feasible_count_binomial(4, 0) == 1

    def test_cardinality_count_matches_binomial(self):
        fs = FeasibleSet(6, "zeroone", sum_constraint=2.0)
        prob = quadratic_instance(np.eye(6), np.zeros(6), 0.0, fs)
        _, _, count = brute_force(prob)
        assert count == feasible_count_binomial(6, 2)

    def test_pinned_segmentation_counts(self):
        g = generate("path", {"n": 3})
        prob = build_constrained_segmentation(g, fg=[0], bg=[2])
        _, _, count = brute_force(prob)
        assert count == 2
        prob = build_constrained_segmentation(g, fg=[0, 1], bg=[2])
        _, _, count = brute_force(prob)
        assert count == 1

    def test_infeasible_sum_rejected(self):
        # sum = 1 over {-1, +1}^2 has no binary point
        fs = FeasibleSet(2, "pm1", sum_constraint=1.0)
        prob = quadratic_instance(np.eye(2), np.zeros(2), 0.0, fs)
        with pytest.raises(ValueError, match="no binary point"):
            brute_force(prob)


class TestNonBinaryPins:
    # a pin at neither bound used to be substituted as is, so the
    # "binary" optimum held a fractional or out-of-domain coordinate
    def test_zero_one_box(self):
        fs = FeasibleSet(3, "zeroone", pinned=((0, 0.5),))
        prob = quadratic_instance(np.eye(3), np.zeros(3), 0.0, fs)
        with pytest.raises(ValueError, match="pinned value 0.5 at index 0"):
            brute_force(prob)

    def test_simplex_blocks(self):
        fs = FeasibleSet(4, "zeroone", simplex_blocks=2,
                         pinned=((0, 0.5),))
        prob = quadratic_instance(np.eye(4), np.zeros(4), 0.0, fs)
        with pytest.raises(ValueError, match="pinned value 0.5 at index 0"):
            brute_force(prob)

    def test_pm1_pin_at_zero(self):
        fs = FeasibleSet(3, "pm1", pinned=((2, 0.0),))
        prob = quadratic_instance(np.eye(3), np.zeros(3), 0.0, fs)
        with pytest.raises(ValueError, match="pinned value 0 at index 2"):
            brute_force(prob)

    def test_binary_pins_accepted(self):
        fs = FeasibleSet(3, "pm1",
                         pinned=((0, 1.0), (2, -1.0)))
        prob = quadratic_instance(np.eye(3), np.zeros(3), 0.0, fs)
        x, _, count = brute_force(prob)
        assert count == 2
        assert x[0] == 1.0 and x[2] == -1.0


def enumerate_reference(problem):
    """Plain itertools enumeration, sharing nothing with the scan kernels."""
    fset = problem.feasible_set
    lo, hi = (-1.0, 1.0) if problem.domain == "pm1" else (0.0, 1.0)
    pin = {i: v for i, v in fset.pinned}
    best_f, best_x, count = np.inf, None, 0
    for bits in itertools.product((lo, hi), repeat=problem.n):
        x = np.array(bits)
        skip = False
        for i, v in pin.items():
            if x[i] != v:
                skip = True
                break
        if skip or not check_binary_feasible(x, fset):
            continue
        count += 1
        f = problem.objective.value(x)
        if f < best_f - 1e-12:
            best_f, best_x = f, x
    return best_x, best_f, count


class TestCrossCheck:
    def test_against_itertools_enumeration(self):
        rng = np.random.default_rng(101)
        for trial in range(20):
            n = int(rng.integers(1, 9))
            halfm = rng.standard_normal((n, n))
            dense = halfm @ halfm.T
            b = rng.standard_normal(n)
            c = float(rng.standard_normal())
            mode = trial % 3
            if mode == 0:
                fs = FeasibleSet(n, "pm1")
            elif mode == 1:
                k = int(rng.integers(0, n + 1))
                fs = FeasibleSet(n, "zeroone", sum_constraint=float(k))
            else:
                divisors = [d for d in range(1, n + 1) if n % d == 0]
                r = int(rng.choice(divisors))
                fs = FeasibleSet(n, "zeroone", simplex_blocks=r)
            prob = quadratic_instance(dense, b, c, fs)
            x, f, count = brute_force(prob)
            _, want_f, want_count = enumerate_reference(prob)
            assert count == want_count
            assert f == pytest.approx(want_f, abs=1e-9)
            assert check_binary_feasible(x, fs)
            assert prob.objective.value(x) == pytest.approx(f, abs=1e-12)

    def test_with_pins(self):
        rng = np.random.default_rng(103)
        for _ in range(8):
            n = int(rng.integers(2, 8))
            halfm = rng.standard_normal((n, n))
            dense = halfm @ halfm.T
            b = rng.standard_normal(n)
            pin_idx = int(rng.integers(0, n))
            fs = FeasibleSet(n, "zeroone",
                             pinned=((pin_idx, float(rng.integers(0, 2))),))
            prob = quadratic_instance(dense, b, 0.0, fs)
            x, f, count = brute_force(prob)
            _, want_f, want_count = enumerate_reference(prob)
            assert count == want_count == 2 ** (n - 1)
            assert f == pytest.approx(want_f, abs=1e-9)

    def test_pinned_blocks(self):
        # pins at hi lower their block's target to 0, pins at lo shrink it
        rng = np.random.default_rng(107)
        for _ in range(12):
            r = int(rng.integers(2, 4))
            n = r * int(rng.integers(2, 4))
            halfm = rng.standard_normal((n, n))
            pins = {}
            for q in range(n // r):
                if rng.uniform() < 0.6:
                    i = q * r + int(rng.integers(0, r))
                    pins[i] = float(rng.integers(0, 2))
            fs = FeasibleSet(n, "zeroone", simplex_blocks=r,
                             pinned=tuple(sorted(pins.items())))
            prob = quadratic_instance(halfm @ halfm.T, rng.standard_normal(n), 0.0, fs)
            x, f, count = brute_force(prob)
            _, want_f, want_count = enumerate_reference(prob)
            assert count == want_count
            assert f == pytest.approx(want_f, abs=1e-9)
            assert check_binary_feasible(x, fs)
