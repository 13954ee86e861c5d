import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from binmpec import kernels, projections
from binmpec.projections import (FeasibleSet, project_box, project_capped_simplex,
                                 project_feasible)

from reference import project_blocks_loop, simplex_projection_oracle


def box_set(n, lo=-1.0, hi=1.0, **kw):
    return FeasibleSet(lower=np.full(n, lo), upper=np.full(n, hi), **kw)


class TestFeasibleSetValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            FeasibleSet(lower=np.zeros(2), upper=np.zeros(3))

    def test_nonfinite_bounds(self):
        with pytest.raises(ValueError):
            FeasibleSet(lower=np.array([-np.inf]), upper=np.array([1.0]))

    def test_crossed_bounds(self):
        with pytest.raises(ValueError):
            FeasibleSet(lower=np.array([1.0]), upper=np.array([0.0]))

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
            box_set(4, lo=0.0, hi=1.0, sum_constraint=2.0, simplex_blocks=2)

    def test_sum_infeasible_for_box(self):
        with pytest.raises(ValueError, match="infeasible"):
            box_set(2, sum_constraint=5.0)

    def test_blocks_must_partition(self):
        with pytest.raises(ValueError):
            box_set(4, lo=0.0, hi=1.0, simplex_blocks=3)

    def test_blocks_require_unit_box(self):
        with pytest.raises(ValueError, match="box"):
            box_set(4, simplex_blocks=2)

    def test_blocks_pin_oversubscription(self):
        with pytest.raises(ValueError, match="oversubscribe"):
            box_set(2, lo=0.0, hi=1.0, simplex_blocks=2,
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
        fs = box_set(4, lo=0.0, hi=1.0, simplex_blocks=2)
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

    def test_sum_needs_uniform_bounds(self):
        with pytest.raises(ValueError, match="uniform"):
            FeasibleSet(lower=np.array([-1.0, 0.0]),
                        upper=np.array([1.0, 1.0]), sum_constraint=0.5)

    def test_sum_bounds_may_differ_on_pins(self):
        # only the free coordinates must share their bounds
        fs = FeasibleSet(lower=np.array([-1.0, 0.0, 0.0]),
                         upper=np.array([2.0, 1.0, 1.0]), sum_constraint=2.0,
                         pinned=((0, 1.5),))
        out = project_feasible([9.0, 0.3, 0.1], fs)
        assert out[0] == 1.5
        assert out[1:] == pytest.approx([0.35, 0.15], abs=1e-12)

    def test_blocks_with_pin(self):
        fs = box_set(2, lo=0.0, hi=1.0, simplex_blocks=2, pinned=((0, 1.0),))
        out = project_feasible([0.3, 0.9], fs)
        assert np.allclose(out, [1.0, 0.0], atol=1e-12)


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
            out.append(box_set(n, lo=0.0, hi=1.0, simplex_blocks=r))
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
        fs = box_set(9, lo=0.0, hi=1.0, simplex_blocks=3,
                     pinned=((4, 0.0), (6, 1.0), (7, 0.0), (8, 0.0)))
        groups = [(b.tolist(), f.tolist(), t.tolist()) for b, f, t in fs.block_groups]
        assert groups == [([2], [[]], [0.0]),
                          ([1], [[3, 5]], [1.0]),
                          ([0], [[0, 1, 2]], [1.0])]
        assert not any(t.flags.writeable for _, _, t in fs.block_groups)

    def test_block_targets_subtract_pins_in_index_order(self):
        # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last bit
        fs = box_set(8, lo=0.0, hi=1.0, simplex_blocks=4,
                     pinned=((2, 0.3), (1, 0.2), (0, 0.1), (5, 0.25)))
        got = {int(b[0]): float(t[0]) for b, _, t in fs.block_groups}
        assert got == {0: 1.0 - ((0.1 + 0.2) + 0.3), 1: 0.75}
        assert got[0] != 1.0 - ((0.3 + 0.2) + 0.1)

    def test_oversubscription_names_first_block(self):
        with pytest.raises(ValueError, match="block 1"):
            box_set(6, lo=0.0, hi=1.0, simplex_blocks=2,
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
    fs = FeasibleSet(np.zeros(r * nb), np.ones(r * nb), simplex_blocks=r, pinned=pins)
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
        fs = box_set(48 * 4, lo=0.0, hi=1.0, simplex_blocks=4)
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


class TestWarmStart:
    @pytest.mark.parametrize("n,k", [(7, 3.0), (60, 17.25), (324, 162.0),
                                     (900, 450.0), (900, 123.4567)])
    def test_warm_agrees_with_cold(self, n, k):
        rng = np.random.default_rng(n + int(k))
        warm = projections.WarmStart()
        for a in fista_like(rng, n, 40):
            got = project_capped_simplex(a, k, warm)
            want = project_capped_simplex(a, k)
            assert np.max(np.abs(got - want)) <= 1e-13
            assert_projection(a, got, k, rng)

    @pytest.mark.parametrize("domain", ["pm1", "zeroone"])
    def test_warm_agrees_with_cold_with_pins(self, domain):
        rng = np.random.default_rng(11)
        lo = -1.0 if domain == "pm1" else 0.0
        n = 400
        pins = tuple((int(i), 1.0) for i in rng.choice(n, 9, replace=False))
        fs = box_set(n, lo=lo, hi=1.0, pinned=pins,
                     sum_constraint=9.0 + (150.5 if lo == 0.0 else 0.0))
        warm = projections.WarmStart()
        for a in fista_like(rng, n, 40, lo=lo - 0.5, hi=1.5):
            got = project_feasible(a, fs, warm)
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
        warm = projections.WarmStart()
        seq = fista_like(rng, 300, 10)
        project_capped_simplex(seq[0], 150.0, warm)
        assert len(calls) == 1 and warm.tau is not None
        for a in seq[1:]:
            project_capped_simplex(a, 150.0, warm)
        assert len(calls) == 1

    def test_stale_threshold_falls_back_to_sorted_walk(self, monkeypatch):
        calls = counted_walks(monkeypatch)
        rng = np.random.default_rng(13)
        a = rng.uniform(-0.5, 1.5, 500)
        warm = projections.WarmStart()
        # every a - tau is below 0: g is flat at 0 and misses k
        warm.tau = 1e6
        got = project_capped_simplex(a, 200.0, warm)
        assert len(calls) == 1
        assert np.max(np.abs(got - project_capped_simplex(a, 200.0))) <= 1e-13
        assert warm.tau < 1e6

    def test_walk_refined_when_nothing_is_left_free(self):
        # the target's fraction is below the walk's rounding, and no
        # coordinate ends strictly inside (0, 1) for the correction step
        n = 1100
        fs = box_set(n, sum_constraint=-1099.9999999999995)
        a = np.random.default_rng(0).uniform(-3.0, 3.0, n)
        warm = projections.WarmStart()
        x = project_feasible(a, fs, warm)
        _, _, _, target = fs.sum_map
        assert abs(((x + 1.0) / 2.0).sum() - target) <= 1e-13
        assert same_bits(project_feasible(x, fs, warm), x)

    def test_feasible_input_returned_unchanged(self, monkeypatch):
        calls = counted_walks(monkeypatch)
        a = np.array([0.25, 0.5, 0.75, 0.5])
        got = project_capped_simplex(a, 2.0, projections.WarmStart())
        assert same_bits(got, a) and got is not a
        assert calls == []

    def test_rows_ignore_warm(self):
        rng = np.random.default_rng(14)
        a = rng.uniform(-1.0, 2.0, (6, 5))
        warm = projections.WarmStart()
        assert same_bits(project_capped_simplex(a, 1.0, warm),
                         project_capped_simplex(a, 1.0))
        assert warm.tau is None


@st.composite
def sum_sets(draw):
    # past k = 512 one ulp of the sum exceeds 1e-13
    n = draw(st.one_of(st.integers(2, 40), st.integers(1100, 1400)))
    lo = draw(st.sampled_from([-1.0, 0.0]))
    pinned = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n // 2))
    pins = tuple((i, draw(st.sampled_from([lo, 1.0]))) for i in pinned)
    nf = n - len(pins)
    frac = draw(st.floats(0.0, 1.0))
    k = sum(v for _, v in pins) + nf * lo + frac * nf * (1.0 - lo)
    fs = box_set(n, lo=lo, hi=1.0, pinned=pins, sum_constraint=k)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return fs, np.random.default_rng(seed).uniform(lo - 2.0, 3.0, n)


class TestWarmIdempotence:
    @given(sum_sets())
    def test_own_output_returns_same_bytes(self, case):
        fs, a = case
        warm = projections.WarmStart()
        x = project_feasible(a, fs, warm)
        assert same_bits(project_feasible(x, fs, warm), x)
        # also after the threshold has moved on
        project_feasible(a[::-1].copy(), fs, warm)
        assert same_bits(project_feasible(x, fs, warm), x)
