import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from binmpec import kernels, projections
from binmpec.projections import (FeasibleSet, project_ball, project_box,
                                 project_capped_simplex, project_feasible)

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


class TestProjectBall:
    def test_interior_untouched(self):
        a = np.array([0.3, 0.4])
        assert project_ball(a, 1.0).tolist() == [0.3, 0.4]

    def test_exterior_scaled(self):
        out = project_ball([3.0, 4.0], 1.0)
        assert np.allclose(out, [0.6, 0.8], atol=1e-15)

    def test_radius_positive(self):
        with pytest.raises(ValueError):
            project_ball([1.0], 0.0)


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
        fs = FeasibleSet(lower=np.array([-1.0, 0.0]),
                         upper=np.array([1.0, 1.0]), sum_constraint=0.5)
        with pytest.raises(ValueError, match="uniform"):
            project_feasible([0.0, 0.0], fs)

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
        groups = [(b.tolist(), f.tolist(), p.tolist()) for b, f, p in fs.block_groups]
        assert groups == [([2], [[]], [[6, 7, 8]]),
                          ([1], [[3, 5]], [[4]]),
                          ([0], [[0, 1, 2]], [[]])]

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


class TestCappedSimplexRows:
    def test_rows_match_one_dimensional_calls(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 4, 7, 8, 9, 16, 33, 130):
            m = 12
            a = rng.uniform(-2.0, 3.0, (m, n))
            a[1] = 0.5  # all tied
            a[2, : n // 2] = a[2, n - 1]  # partial ties
            a[3] *= 1e3  # far outside [0, 1]
            k = rng.uniform(0.0, n, m)
            k[4], k[5], k[6] = 0.0, float(n), 1.0
            k[7], k[8] = 5e-14, n - 5e-14
            got = project_capped_simplex(a, k)
            for i in range(m):
                assert same_bits(got[i], project_capped_simplex(a[i], k[i])), (n, i)

    def test_scalar_target_broadcasts(self):
        rng = np.random.default_rng(24)
        a = rng.uniform(-1.0, 2.0, (5, 4))
        got = project_capped_simplex(a, 1.0)
        for i in range(5):
            assert same_bits(got[i], project_capped_simplex(a[i], 1.0))

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
        fs, a = case
        try:
            want = project_blocks_loop(a, fs)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                project_feasible(a, fs)
            assert str(got.value) == str(exc)
            return
        assert same_bits(project_feasible(a, fs), want)

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
