import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from binmpec import kernels, projections
from binmpec.projections import (FeasibleSet, project_box, project_capped_simplex,
                                 project_feasible)

from reference import (newton_tau_compare, project_blocks_loop, project_capped_rows,
                       project_capped_rows_broadcast, project_feasible_scatter,
                       simplex_projection_oracle, threaded)


def box_set(n, domain="pm1", **kw):
    return FeasibleSet(n, domain, **kw)


class TestFeasibleSetValidation:
    def test_unknown_domain(self):
        with pytest.raises(ValueError, match="domain must be"):
            FeasibleSet(2, "spin")

    def test_negative_n(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FeasibleSet(-1, "pm1")
        with pytest.raises(TypeError):
            FeasibleSet(2.5, "pm1")

    def test_domain_sets_the_box(self):
        for domain, lo in (("pm1", -1.0), ("zeroone", 0.0)):
            fs = FeasibleSet(3, domain)
            assert (fs.lo, fs.hi, fs.span) == (lo, 1.0, 1.0 - lo)
            assert project_box([2.0, -3.0, 0.25], fs).tolist() == [1.0, lo, 0.25]

    def test_pin_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            box_set(2, pinned=((5, 0.0),))

    def test_pin_repeated(self):
        with pytest.raises(ValueError, match="repeated"):
            box_set(2, pinned=((0, 0.5), (0, -0.5)))

    def test_pin_outside_box(self):
        with pytest.raises(ValueError, match="outside bounds"):
            box_set(2, pinned=((0, 3.0),))

    def test_sum_and_blocks_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            box_set(4, "zeroone", sum_constraint=2.0, simplex_blocks=2)

    def test_sum_infeasible_for_box(self):
        with pytest.raises(ValueError, match="infeasible"):
            box_set(2, sum_constraint=5.0)

    def test_blocks_must_partition(self):
        with pytest.raises(ValueError):
            box_set(4, "zeroone", simplex_blocks=3)

    @pytest.mark.parametrize("kw,name", [
        ({"pinned": ((1.5, 1.0),)}, "pinned index"),  # int() pins index 1
        ({"pinned": (("1", 1.0),)}, "pinned index"),
        ({"pinned": ((float("nan"), 1.0),)}, "pinned index"),
        ({"simplex_blocks": 2.5}, "simplex_blocks"),  # int() makes blocks of 2
        ({"simplex_blocks": "2"}, "simplex_blocks")])
    def test_non_integer_arguments_rejected(self, kw, name):
        with pytest.raises(ValueError, match="^%s must be an integer, got " % name):
            FeasibleSet(4, "pm1", **kw)

    @pytest.mark.parametrize("cast", [np.int64, np.int32, float, np.float64])
    def test_integral_arguments_build_the_same_set(self, cast):
        want = FeasibleSet(6, "pm1", pinned=((2, 1.0), (5, -1.0)), simplex_blocks=3)
        got = FeasibleSet(6, "pm1", pinned=((cast(2), 1.0), (cast(5), -1.0)),
                          simplex_blocks=cast(3))
        assert pickle.dumps(got) == pickle.dumps(want)

    def test_blocks_on_any_uniform_box(self):
        # one-hot on [-1, 1]: one coordinate per block at 1, the rest at -1
        fs = box_set(6, simplex_blocks=3)
        x = project_feasible([0.2, 3.0, -0.4, 2.5, -2.0, 0.1], fs)
        assert x.tolist() == [-1.0, 1.0, -1.0, 1.0, -1.0, -1.0]

    def test_blocks_pin_oversubscription(self):
        with pytest.raises(ValueError, match="oversubscribe"):
            box_set(2, "zeroone", simplex_blocks=2,
                    pinned=((0, 0.8), (1, 0.8)))


class TestProjectBox:
    def test_clamps(self):
        fs = box_set(3)
        assert project_box([2.0, -3.0, 0.25], fs).tolist() == [1.0, -1.0, 0.25]

    def test_pins_override(self):
        fs = box_set(2, pinned=((1, -1.0),))
        assert project_box([0.0, 0.9], fs).tolist() == [0.0, -1.0]

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            project_box([1.0], box_set(2))


class TestCappedSimplex:
    def test_golden_example(self):
        out = project_capped_simplex(np.array([0.9, 0.5, -0.2]), 1.0)
        assert np.allclose(out, [0.7, 0.3, 0.0], atol=1e-12)

    def test_k_zero_and_k_n(self):
        a = np.array([0.3, 0.8])
        assert project_capped_simplex(a, 0.0).tolist() == [0.0, 0.0]
        assert project_capped_simplex(a, 2.0).tolist() == [1.0, 1.0]

    def test_infeasible_k(self):
        with pytest.raises(ValueError):
            project_capped_simplex(np.zeros(3), 4.0)
        with pytest.raises(ValueError):
            project_capped_simplex(np.zeros(3), -1.0)

    @pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf])
    def test_nonfinite_k(self, k):
        with pytest.raises(ValueError, match="target sum -?(nan|inf) infeasible"):
            project_capped_simplex(np.zeros(3), k)
        with pytest.raises(ValueError, match="target sum -?(nan|inf) infeasible"):
            project_capped_simplex(np.zeros((2, 3)), [0.5, k])

    def test_already_feasible_point_fixed(self):
        a = np.array([0.25, 0.75, 0.5])
        out = project_capped_simplex(a, 1.5)
        assert np.allclose(out, a, atol=1e-12)

    def test_against_active_set_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            a = rng.uniform(-2.0, 3.0, n)
            k = float(rng.uniform(0.0, n))
            want = simplex_projection_oracle(a, k)
            got = project_capped_simplex(a, k)
            assert np.allclose(got, want, atol=1e-8), (a, k)

    @given(st.integers(1, 10), st.integers(0, 12345))
    def test_feasibility_property(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-3.0, 3.0, n)
        k = float(rng.uniform(0.0, n))
        x = project_capped_simplex(a, k)
        assert np.all(x >= -1e-12)
        assert np.all(x <= 1.0 + 1e-12)
        assert x.sum() == pytest.approx(k, abs=1e-9)


class TestProjectFeasible:
    def test_plain_box_dispatch(self):
        fs = box_set(2)
        assert project_feasible([5.0, -0.5], fs).tolist() == [1.0, -0.5]

    def test_sum_zero_fixed_point(self):
        fs = box_set(2, sum_constraint=0.0)
        out = project_feasible([0.4, -0.4], fs)
        assert np.allclose(out, [0.4, -0.4], atol=1e-12)

    def test_sum_shifts_evenly(self):
        fs = box_set(3, sum_constraint=0.0)
        out = project_feasible([0.3, 0.3, 0.3], fs)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_blocks(self):
        fs = box_set(4, "zeroone", simplex_blocks=2)
        out = project_feasible([0.8, 0.8, 0.0, 0.0], fs)
        assert np.allclose(out, [0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_pins_with_sum(self):
        fs = box_set(3, sum_constraint=1.0, pinned=((0, 1.0),))
        out = project_feasible([0.9, 0.6, -0.6], fs)
        assert out[0] == 1.0
        assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_all_pinned_sum_must_match(self):
        fs = box_set(2, sum_constraint=0.0, pinned=((0, 1.0), (1, -1.0)))
        out = project_feasible([0.2, 0.2], fs)
        assert out.tolist() == [1.0, -1.0]
        # a contradictory combination is rejected at construction
        with pytest.raises(ValueError, match="infeasible"):
            box_set(2, sum_constraint=1.0, pinned=((0, 1.0), (1, -1.0)))

    def test_blocks_with_pin(self):
        fs = box_set(2, "zeroone", simplex_blocks=2, pinned=((0, 1.0),))
        out = project_feasible([0.3, 0.9], fs)
        assert np.allclose(out, [1.0, 0.0], atol=1e-12)


SHAPE_SETS = {
    "box": lambda pins: box_set(6, pinned=pins),
    "sum": lambda pins: box_set(6, sum_constraint=0.0, pinned=pins),
    "blocks": lambda pins: box_set(6, "zeroone", simplex_blocks=3,
                                   pinned=tuple((i, 0.0) for i, _ in pins)),
}


class TestInputShape:
    # a pinless set skips the pin scatter that once made an (n, 2) input
    # fail, so every input not of shape (n,) is refused up front
    @pytest.mark.parametrize("project", [project_box, project_feasible])
    @pytest.mark.parametrize("kind", sorted(SHAPE_SETS))
    @pytest.mark.parametrize("pins", [(), ((1, 1.0),)])
    @pytest.mark.parametrize("shape", [(), (6, 2), (2, 3)])
    def test_rejects_inputs_not_of_shape_n(self, project, kind, pins, shape):
        fs = SHAPE_SETS[kind](pins)
        with pytest.raises(ValueError, match=r"input has shape %s" % re.escape(repr(shape))):
            project(np.full(shape, 0.5), fs)


def random_feasible_sets(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 9))
        kind = rng.integers(0, 3)
        if kind == 0:
            out.append(box_set(n))
        elif kind == 1:
            k = float(rng.uniform(-n, n))
            out.append(box_set(n, sum_constraint=k))
        else:
            r = int(rng.choice([d for d in range(1, n + 1) if n % d == 0]))
            out.append(box_set(n, "zeroone", simplex_blocks=r))
    return out


def sample_feasible(fset, rng):
    # rejection-free: project a random point
    return project_feasible(rng.uniform(-2.0, 2.0, fset.n), fset)


class TestProjectionInvariants:
    def test_idempotent(self):
        rng = np.random.default_rng(4)
        for fs in random_feasible_sets(40, 40):
            a = rng.uniform(-3.0, 3.0, fs.n)
            x = project_feasible(a, fs)
            again = project_feasible(x, fs)
            assert np.allclose(x, again, atol=1e-12)

    def test_nonexpansive(self):
        rng = np.random.default_rng(5)
        for fs in random_feasible_sets(41, 40):
            a = rng.uniform(-3.0, 3.0, fs.n)
            b = rng.uniform(-3.0, 3.0, fs.n)
            pa = project_feasible(a, fs)
            pb = project_feasible(b, fs)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10

    def test_variational_inequality(self):
        # <a - P(a), y - P(a)> <= 0 for every feasible y
        rng = np.random.default_rng(6)
        for fs in random_feasible_sets(42, 25):
            a = rng.uniform(-3.0, 3.0, fs.n)
            p = project_feasible(a, fs)
            for _ in range(100):
                y = sample_feasible(fs, rng)
                assert float(np.dot(a - p, y - p)) <= 1e-9


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


class TestFeasibleSetCache:
    def test_pin_arrays_follow_pinned_order(self):
        fs = box_set(5, pinned=((3, 0.5), (0, -1.0)))
        assert fs.pin_index.tolist() == [3, 0]
        assert fs.pin_value.tolist() == [0.5, -1.0]
        assert fs.pinned_total == -0.5
        assert fs.pin_mask().tolist() == [True, False, False, True, False]

    def test_cached_arrays_read_only(self):
        fs = box_set(3, pinned=((1, 0.0),))
        for arr in (fs.pin_mask(), fs.pin_index, fs.pin_value):
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_no_pins(self):
        fs = box_set(3)
        assert fs.pin_index.shape == (0,)
        assert not fs.pin_mask().any()
        assert fs.pinned_total == 0

    def test_block_groups_by_free_count(self):
        fs = box_set(9, "zeroone", simplex_blocks=3,
                     pinned=((4, 0.0), (6, 1.0), (7, 0.0), (8, 0.0)))
        groups = [(b.tolist(), f.tolist(), t.tolist()) for b, f, t in fs.block_groups]
        assert groups == [([2], [[]], [0.0]),
                          ([1], [[3, 5]], [1.0]),
                          ([0], [[0, 1, 2]], [1.0])]
        assert not any(t.flags.writeable for _, _, t in fs.block_groups)

    def test_block_targets_subtract_pins_in_index_order(self):
        # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last bit
        fs = box_set(8, "zeroone", simplex_blocks=4,
                     pinned=((2, 0.3), (1, 0.2), (0, 0.1), (5, 0.25)))
        got = {int(b[0]): float(t[0]) for b, _, t in fs.block_groups}
        assert got == {0: 1.0 - ((0.1 + 0.2) + 0.3), 1: 0.75}
        assert got[0] != 1.0 - ((0.3 + 0.2) + 0.1)

    def test_oversubscription_names_first_block(self):
        with pytest.raises(ValueError, match="block 1"):
            box_set(6, "zeroone", simplex_blocks=2,
                    pinned=((5, 0.7), (2, 0.6), (3, 0.6)))

    def test_project_box_matches_pin_loop(self):
        rng = np.random.default_rng(8)
        fs = box_set(6, pinned=((4, 0.25), (1, -1.0)))
        a = rng.uniform(-3.0, 3.0, 6)
        want = np.clip(a, -1.0, 1.0)
        want[4], want[1] = 0.25, -1.0
        assert same_bits(project_box(a, fs), want)


def assert_rows_projected(a, k, got):
    # in [0, 1], on each row's target, and at the oracle's point where the
    # oracle's 3^n patterns are few enough
    k = np.broadcast_to(k, (a.shape[0],))
    assert got.shape == a.shape
    assert got.min() >= 0.0 and got.max() <= 1.0
    for i in range(a.shape[0]):
        scale = max(1.0, np.abs(a[i]).max())
        assert abs(got[i].sum() - k[i]) <= 1e-12 * scale, i
        if a.shape[1] <= 7:
            assert np.max(np.abs(got[i] - simplex_projection_oracle(a[i], k[i]))) <= 1e-9, i


class TestCappedSimplexRows:
    # 2-D calls take row targets in [0, 1] and project by sorted prefix
    # sums, so they agree with 1-D calls to rounding, not bit for bit
    def test_rows_match_one_dimensional_calls(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 4, 7, 8, 9, 16, 33, 130):
            m = 12
            a = rng.uniform(-2.0, 3.0, (m, n))
            a[1] = 0.5  # all tied
            a[2, : n // 2] = a[2, n - 1]  # partial ties
            a[3] *= 1e3  # far outside [0, 1]
            k = rng.uniform(0.0, 1.0, m)
            k[4], k[5], k[6] = 0.0, 1.0, 1.0
            k[7], k[8] = 5e-14, 1.0 - 5e-14
            got = project_capped_simplex(a, k)
            assert_rows_projected(a, k, got)
            for i in range(m):
                want = project_capped_simplex(a[i], k[i])
                tol = 1e-12 * max(1.0, np.abs(a[i]).max())
                assert np.max(np.abs(got[i] - want)) <= tol, (n, i)

    def test_scalar_target_broadcasts(self):
        rng = np.random.default_rng(24)
        a = rng.uniform(-1.0, 2.0, (5, 4))
        got = project_capped_simplex(a, 1.0)
        assert same_bits(got, project_capped_simplex(a, np.ones(5)))
        assert_rows_projected(a, 1.0, got)

    def test_row_target_above_one_raises(self):
        a = np.zeros((3, 3))
        with pytest.raises(ValueError, match="row target 2 above 1"):
            project_capped_simplex(a, [1.0, 2.0, 0.5])
        with pytest.raises(ValueError, match="above 1"):
            project_capped_simplex(a, 1.5)
        assert np.allclose(project_capped_simplex(a[0], 2.0), 2.0 / 3.0)

    def test_infeasible_row_target_same_error(self):
        a = np.zeros((3, 3))
        with pytest.raises(ValueError) as one_d:
            project_capped_simplex(a[1], 4.0)
        with pytest.raises(ValueError) as rows:
            project_capped_simplex(a, [1.0, 4.0, 5.0])
        assert str(rows.value) == str(one_d.value)
        with pytest.raises(ValueError, match="-0.5 infeasible"):
            project_capped_simplex(a, [1.0, 1.0, -0.5])

    def test_empty_rows_and_columns(self):
        assert project_capped_simplex(np.zeros((0, 4)), 1.0).shape == (0, 4)
        assert project_capped_simplex(np.zeros((2, 0)), 0.0).shape == (2, 0)
        with pytest.raises(ValueError, match="0 coordinates"):
            project_capped_simplex(np.zeros((2, 0)), [0.0, 1.0])


@st.composite
def block_sets(draw):
    """A simplex-block set with free, partly pinned and fully pinned
    blocks, and a point to project with ties and far-out values."""
    r = draw(st.integers(1, 6))
    nb = draw(st.integers(1, 8))
    pins = []
    for q in range(nb):
        kind = draw(st.sampled_from(["free", "free", "some", "full"]))
        if kind == "free":
            continue
        if kind == "full":
            hot = draw(st.integers(-1, r - 1))  # -1: all zero, infeasible
            pins.extend((q * r + c, 1.0 if c == hot else 0.0) for c in range(r))
            continue
        cols = draw(st.lists(st.integers(0, r - 1), unique=True, max_size=r - 1))
        left = 1.0
        for c in cols:
            v = draw(st.sampled_from([0.0, 0.0, 1.0, 0.25, 0.5, 1.0 / 3.0]))
            v = v if v <= left else 0.0
            left -= v
            pins.append((q * r + c, v))
    pins = draw(st.permutations(pins))
    value = st.one_of(st.sampled_from([-40.0, -1.0, 0.0, 0.25, 0.5, 1.0, 3.0, 1e4]),
                      st.floats(-1e4, 1e4, allow_nan=False))
    a = np.array(draw(st.lists(value, min_size=r * nb, max_size=r * nb)))
    fs = FeasibleSet(r * nb, "zeroone", simplex_blocks=r, pinned=pins)
    return fs, a


class TestBatchedBlocks:
    @given(block_sets())
    def test_matches_per_block_loop(self, case):
        # errors match the loop of 1-D calls; points match the loop of
        # oracle calls, one per block
        fs, a = case
        try:
            project_blocks_loop(a, fs)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                project_feasible(a, fs)
            assert str(got.value) == str(exc)
            return
        got = project_feasible(a, fs)
        want = project_blocks_loop(a, fs, simplex_projection_oracle)
        assert np.max(np.abs(got - want)) <= 1e-9
        assert got.min() >= 0.0 and got.max() <= 1.0
        assert same_bits(got[fs.pin_index], fs.pin_value)
        scale = max(1.0, np.abs(a).max())
        for _, free_idx, target in fs.block_groups:
            assert np.all(np.abs(got[free_idx].sum(axis=1) - target) <= 1e-12 * scale)

    def test_unpinned_blocks_one_call_each(self, monkeypatch):
        calls = {"capped": 0, "walk": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(projections, "project_capped_simplex",
                            counted("capped", projections.project_capped_simplex))
        monkeypatch.setattr(kernels, "simplex_walk", counted("walk", kernels.simplex_walk))
        fs = box_set(48 * 4, "zeroone", simplex_blocks=4)
        x = project_feasible(np.random.default_rng(3).normal(size=fs.n), fs)
        assert calls == {"capped": 1, "walk": 1}
        assert np.allclose(x.reshape(-1, 4).sum(axis=1), 1.0, atol=1e-12)


def fista_like(rng, n, steps, lo=-0.5, hi=1.5):
    """Inputs that drift less and less, like a projected-gradient run."""
    a = rng.uniform(lo, hi, n)
    out = []
    for t in range(steps):
        a = a + (0.05 * 0.8 ** t) * rng.standard_normal(n)
        out.append(a.copy())
    return out


def counted_walks(monkeypatch):
    calls = []
    walk = kernels.simplex_walk

    def wrapper(*args, **kwargs):
        calls.append(1)
        return walk(*args, **kwargs)

    monkeypatch.setattr(kernels, "simplex_walk", wrapper)
    return calls


def assert_projection(a, p, k, rng, tol=1e-9):
    # in the box, on the sum, and <a - p, y - p> <= 0 for feasible y
    assert p.min() >= 0.0 and p.max() <= 1.0
    assert abs(p.sum() - k) <= 1e-12
    for _ in range(20):
        y = project_capped_simplex(rng.uniform(-1.0, 2.0, a.shape[0]), k)
        assert float(np.dot(a - p, y - p)) <= tol


def capped_projector(n, k, warm=True):
    """The projector of the zero-one set {sum(x) = k}: the capped simplex."""
    return projections.projector(box_set(n, "zeroone", sum_constraint=k), warm)


class TestWarmStart:
    @pytest.mark.parametrize("n,k", [(7, 3.0), (60, 17.25), (324, 162.0),
                                     (900, 450.0), (900, 123.4567)])
    def test_warm_agrees_with_cold(self, n, k):
        rng = np.random.default_rng(n + int(k))
        project = capped_projector(n, k)
        for a in fista_like(rng, n, 40):
            got = project(a)
            want = project_capped_simplex(a, k)
            assert np.max(np.abs(got - want)) <= 1e-13
            assert_projection(a, got, k, rng)

    @pytest.mark.parametrize("domain", ["pm1", "zeroone"])
    def test_warm_agrees_with_cold_with_pins(self, domain):
        rng = np.random.default_rng(11)
        lo = -1.0 if domain == "pm1" else 0.0
        n = 400
        pins = tuple((int(i), 1.0) for i in rng.choice(n, 9, replace=False))
        fs = box_set(n, domain, pinned=pins,
                     sum_constraint=9.0 + (150.5 if lo == 0.0 else 0.0))
        project = projections.projector(fs, warm=True)
        for a in fista_like(rng, n, 40, lo=lo - 0.5, hi=1.5):
            got = project(a)
            want = project_feasible(a, fs)
            assert np.max(np.abs(got - want)) <= 1e-13
            assert abs(got.sum() - fs.sum_constraint) <= 1e-12
            assert np.all(got[fs.pin_index] == 1.0)
            for _ in range(20):
                y = project_feasible(rng.uniform(-2.0, 2.0, n), fs)
                assert float(np.dot(a - got, y - got)) <= 1e-9

    def test_first_call_sorts_and_later_calls_do_not(self, monkeypatch):
        calls = counted_walks(monkeypatch)
        rng = np.random.default_rng(12)
        project = capped_projector(300, 150.0)
        seq = fista_like(rng, 300, 10)
        project(seq[0])
        assert len(calls) == 1
        for a in seq[1:]:
            project(a)
        assert len(calls) == 1

    def test_stale_threshold_falls_back_to_sorted_walk(self, monkeypatch):
        calls = counted_walks(monkeypatch)
        rng = np.random.default_rng(13)
        a = rng.uniform(-0.5, 1.5, 500)
        project = capped_projector(500, 200.0)
        # the kept threshold is a's shifted by 1e6, so every a - tau is
        # below 0: g is flat at 0 and misses k
        project(a + 1e6)
        got = project(a)
        assert len(calls) == 2
        # the threshold found for a is kept: projecting a again sorts nothing
        assert same_bits(project(a), got)
        assert len(calls) == 2
        assert np.max(np.abs(got - project_capped_simplex(a, 200.0))) <= 1e-13

    def test_walk_refined_when_nothing_is_left_free(self):
        # the target's fraction is below the walk's rounding, so the walk's
        # threshold leaves every coordinate at 0; Newton refines it
        n = 1100
        fs = box_set(n, sum_constraint=-1099.9999999999995)
        a = np.random.default_rng(0).uniform(-3.0, 3.0, n)
        for project in (projections.projector(fs, warm=True), lambda z: project_feasible(z, fs)):
            x = project(a)
            assert x.max() > -1.0
            miss = ((x + 1.0) / 2.0).sum() - fs.sum_target
            assert abs(miss) <= 4 * math.ulp(fs.sum_target)
            assert same_bits(project(x), x)

    def test_feasible_input_returned_unchanged(self, monkeypatch):
        calls = counted_walks(monkeypatch)
        a = np.array([0.25, 0.5, 0.75, 0.5])
        for project in (capped_projector(4, 2.0), lambda z: project_capped_simplex(z, 2.0)):
            got = project(a)
            assert same_bits(got, a) and got is not a
        assert calls == []

    def test_rows_ignore_warm(self):
        # a block set keeps no threshold: its warm projector is the cold one
        rng = np.random.default_rng(14)
        fs = box_set(30, "zeroone", simplex_blocks=5)
        warm, cold = projections.projector(fs, warm=True), projections.projector(fs)
        for _ in range(3):
            a = rng.uniform(-1.0, 2.0, 30)
            want = project_capped_simplex(a.reshape(6, 5), 1.0).reshape(-1)
            assert np.array_equal(warm(a), want)
            assert same_bits(warm(a), cold(a))

    def test_zeroone_sum_projector_is_the_capped_simplex(self):
        # lo = 0 and span = 1: the unit map leaves the bits alone
        rng = np.random.default_rng(15)
        for n, k in ((7, 3.0), (60, 17.25), (900, 123.4567)):
            cold = capped_projector(n, k, warm=False)
            for a in fista_like(rng, n, 5):
                want = project_capped_simplex(a, k)
                assert same_bits(cold(a), want)
                assert same_bits(capped_projector(n, k)(a), want)  # a warm first call


class TestColdPath:
    # a one-shot call takes the same path as a warm projector's first:
    # Newton from the sorted walk's threshold
    @pytest.mark.parametrize("n,k", [(600, 512.5), (1500, 1234.5678), (3000, 2047.0)])
    def test_large_k_within_four_ulps(self, n, k):
        # past k = 512 one ulp of k exceeds Newton's 1e-13 stop
        rng = np.random.default_rng(n)
        for _ in range(20):
            a = rng.uniform(-2.0, 3.0, n)
            x = project_capped_simplex(a, k)
            assert abs(x.sum() - k) <= 4 * math.ulp(k)
            # a clipped threshold and nothing more: no correction step
            assert same_bits(capped_projector(n, k)(a), x)
            tol = projections._checked_target(k, n)[1]
            tau, got = projections._capped_vector(a, n, k, tol, None)
            assert same_bits(got, x)
            assert same_bits(np.clip(a - tau, 0.0, 1.0), x)
            assert same_bits(project_capped_simplex(x, k), x)


@st.composite
def sum_sets(draw):
    # past k = 512 one ulp of the sum exceeds 1e-13
    n = draw(st.one_of(st.integers(2, 40), st.integers(1100, 1400)))
    domain, lo = draw(st.sampled_from([("pm1", -1.0), ("zeroone", 0.0)]))
    pinned = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n // 2))
    pins = tuple((i, draw(st.sampled_from([lo, 1.0]))) for i in pinned)
    nf = n - len(pins)
    frac = draw(st.floats(0.0, 1.0))
    k = sum(v for _, v in pins) + nf * lo + frac * nf * (1.0 - lo)
    fs = box_set(n, domain, pinned=pins, sum_constraint=k)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return fs, np.random.default_rng(seed).uniform(lo - 2.0, 3.0, n)


class TestWarmIdempotence:
    @given(sum_sets())
    def test_own_output_returns_same_bytes(self, case):
        fs, a = case
        # warm and one-shot calls
        for project in (projections.projector(fs, warm=True), lambda z: project_feasible(z, fs)):
            x = project(a)
            assert same_bits(project(x), x)
            # also after the threshold has moved on
            project(a[::-1].copy())
            assert same_bits(project(x), x)


@st.composite
def box_sets(draw):
    n = draw(st.integers(1, 30))
    domain, lo = draw(st.sampled_from([("pm1", -1.0), ("zeroone", 0.0)]))
    pinned = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n // 2))
    pins = tuple((i, draw(st.sampled_from([lo, 1.0]))) for i in pinned)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return box_set(n, domain, pinned=pins), np.random.default_rng(seed).uniform(lo - 2.0, 3.0, n)


class TestSameBytes:
    """The dispatcher and the projection pieces give the bytes they gave
    before their per-call overhead was cut (reference.py keeps those)."""

    @given(st.one_of(box_sets(), sum_sets(), block_sets()))
    def test_project_feasible_warm_and_cold(self, case):
        fs, a = case
        try:
            _, want = project_feasible_scatter(a, fs)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                project_feasible(a, fs)
            assert str(got.value) == str(exc)
            return
        assert same_bits(project_feasible(a, fs), want)
        # a drifting sequence through one warm projector, and the
        # reference carrying its threshold
        project, ref = projections.projector(fs, warm=True), threaded(project_feasible_scatter, fs)
        for z in fista_like(np.random.default_rng(fs.n), fs.n, 6, fs.lo - 0.5, fs.hi + 0.5):
            z = z + a
            assert same_bits(project(z), ref(z))

    @given(st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1),
           st.floats(-3.0, 3.0))
    def test_newton_tau(self, n, frac, seed, tau):
        rng = np.random.default_rng(seed)
        # ties, and coordinates at or next to a break point of the start
        a = np.round(rng.uniform(-1.0, 2.0, n), int(rng.integers(0, 3)))
        near = rng.uniform(size=n) < 0.5
        a[near] = tau + rng.choice([0.0, 1e-9, 0.9995, 1.0, 1.0 + 1e-9], near.sum())
        k = frac * n
        got = projections._newton_tau(a, k, tau)
        want = newton_tau_compare(a, k, tau, projections.NEWTON_STEPS)
        if want is None:
            assert got is None
        else:
            assert got[0] == want[0] and same_bits(got[1], want[1])

    def test_clip_ufunc(self):
        # the clip ufunc bound at import gives ndarray.clip's bytes and keeps -0.0
        a = np.array([-0.0, 0.0, -1.5, 0.25, 1.0, 2.0, np.nan, -np.inf, np.inf])
        got = projections._clip(a, 0.0, 1.0)
        assert same_bits(got, a.clip(0.0, 1.0))
        assert math.copysign(1.0, got[0]) == -1.0

    @given(st.integers(0, 9), st.integers(0, 6), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["rows", "scalar", "list", "nan", "high", "zeros"]))
    def test_capped_rows(self, m, n, seed, targets):
        # the column-major path against the row-wise projection and kernel
        rng = np.random.default_rng(seed)
        a = np.round(rng.uniform(-2.0, 3.0, (m, n)), int(rng.integers(0, 3)))
        # signed zeros, and whole rows of one value or of zeros only
        a[rng.uniform(size=(m, n)) < 0.3] = 0.0
        a[rng.uniform(size=(m, n)) < 0.3] = -0.0
        tied = rng.uniform(size=m) < 0.2
        a[tied] = a[tied, :1]
        k = {"rows": rng.uniform(0.0, 1.0, m), "scalar": 0.5,
             "list": [0.25] * m, "nan": np.full(m, np.nan),
             "high": np.linspace(0.0, 2.0, m),
             "zeros": rng.choice([0.0, -0.0, 1.0], m)}[targets]
        try:
            want = project_capped_rows(a, k)
        except ValueError as exc:
            for project in (project_capped_simplex, project_capped_rows_broadcast):
                with pytest.raises(ValueError) as got:
                    project(a, k)
                assert str(got.value) == str(exc)
            return
        assert same_bits(project_capped_simplex(a, k), want)
        assert same_bits(project_capped_rows_broadcast(a, k), want)


@st.composite
def pm1_images(draw, zeroone_sets):
    """The {-1, +1} image of a zero-one set, as SolverView makes it."""
    fs, a = draw(zeroone_sets.filter(lambda case: case[0].domain == "zeroone"))
    k = None if fs.sum_constraint is None else 2.0 * fs.sum_constraint - fs.n
    image = FeasibleSet(fs.n, "pm1", k, tuple((i, 2.0 * v - 1.0) for i, v in fs.pinned),
                        fs.simplex_blocks)
    return image, 2.0 * a - 1.0


@st.composite
def fixed_sets(draw):
    """Sets whose projection is one point: n = 0, and sum targets within
    1e-13 of either end of the free coordinates' range."""
    domain, lo = draw(st.sampled_from([("pm1", -1.0), ("zeroone", 0.0)]))
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["box", "sum", "blocks"]))
        blocks = draw(st.integers(1, 4)) if kind == "blocks" else None
        fs = FeasibleSet(0, domain, 0.0 if kind == "sum" else None, simplex_blocks=blocks)
        return fs, np.zeros(0)
    n = draw(st.integers(1, 30))
    pinned = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    pins = tuple((i, draw(st.sampled_from([lo, 1.0]))) for i in pinned)
    nf = n - len(pins)
    nudge = draw(st.sampled_from([0.0, 5e-14, -5e-14])) * (1.0 - lo)
    k = sum(v for _, v in pins) + nf * draw(st.sampled_from([lo, 1.0])) + nudge
    fs = box_set(n, domain, pinned=pins, sum_constraint=k)  # within the 1e-9 slack
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return fs, np.random.default_rng(seed).uniform(lo - 2.0, 3.0, n)


# one test per family, so each gets its own examples
PROJECTOR_CASES = {"box": box_sets(), "sum": sum_sets(), "sum-image": pm1_images(sum_sets()),
                   "blocks": block_sets(), "blocks-image": pm1_images(block_sets()),
                   "fixed": fixed_sets()}


class TestProjector:
    """A solve's prepared projector gives project_feasible's bytes cold,
    and the threshold-carrying reference's warm, and raises
    project_feasible's error for a set it always rejects."""

    @pytest.mark.parametrize("family", sorted(PROJECTOR_CASES))
    @given(data=st.data())
    def test_same_bytes_as_project_feasible(self, family, data):
        fs, a = data.draw(PROJECTOR_CASES[family])
        try:
            project_feasible(a, fs)
        except ValueError as exc:
            for warm in (False, True):
                with pytest.raises(ValueError) as got:
                    projections.projector(fs, warm)
                assert str(got.value) == str(exc)
            return
        project, cold = projections.projector(fs, warm=True), projections.projector(fs)
        ref = threaded(project_feasible_scatter, fs)
        seen = set()
        for z in fista_like(np.random.default_rng(fs.n), fs.n, 6, fs.lo - 0.5, fs.hi + 0.5):
            z = z + a
            before = z.copy()
            got = project(z)
            assert same_bits(got, ref(z))
            assert same_bits(z, before)  # the input is not written
            assert same_bits(cold(z), project_feasible(z, fs))
            # its own output, which a 1-D sum projection returns as is
            again = project(got.copy())
            assert same_bits(again, ref(got))
            seen.add(got.tobytes())
            # an output is the caller's: writing it changes no later call
            got.fill(np.nan)
            again.fill(np.nan)
        if family == "fixed":
            assert len(seen) == 1
