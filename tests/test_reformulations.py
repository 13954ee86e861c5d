import itertools

import numpy as np
import pytest

from binmpec.epm import epm_v_update
from binmpec.reformulations import (MpecVariant, domain_bounds, h_ratio, membership,
                                    round_sign)

ALL_VARIANTS = tuple(MpecVariant)


class TestMembership:
    def test_binary_point_in_every_variant(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        for variant in ALL_VARIANTS:
            assert membership(variant, x, x, 1e-12)

    def test_relaxed_point_with_matching_v_rejected(self):
        x = np.array([0.5, -0.5])
        for variant in ALL_VARIANTS:
            assert not membership(variant, x, x, 1e-9)

    def test_nonsep_admits_unbalanced_v(self):
        # <x, v> = n with x on the box boundary but v nonbinary
        x = np.array([1.0, 1.0])
        v = np.array([1.5, 0.5])
        assert membership(MpecVariant.LinfBoxNonSep, x, v, 1e-12) is False
        v = np.array([1.2, 0.8])
        assert membership(MpecVariant.L2BoxNonSep, x, v, 1e-12) is False
        v = np.array([0.8, 1.2])
        # ||v||^2 = 2.08 > 2 so the l2 ball cuts it off too
        assert membership(MpecVariant.L2BoxSep, x, v, 1e-12) is False

    def test_separable_checks_each_product(self):
        x = np.array([1.0, 0.5])
        v = np.array([1.0, 2.0])
        # x_i v_i = 1 holds coordinatewise but v leaves the linf box
        assert not membership(MpecVariant.LinfBoxSep, x, v, 1e-12)
        # the l2 variant accepts it: ||v||^2 = 5 > n rejects again
        assert not membership(MpecVariant.L2BoxSep, x, v, 1e-12)

    def test_reform_ignores_v(self):
        x = np.array([1.0, -1.0])
        assert membership(MpecVariant.L2BoxNonSepReform, x, np.zeros(2), 1e-12)

    def test_reform_requires_full_norm(self):
        x = np.array([1.0, 0.0])
        assert not membership(MpecVariant.L2BoxNonSepReform, x, x, 1e-9)

    def test_box_violation_rejected_everywhere(self):
        x = np.array([1.5, 1.0])
        v = np.array([1.0, 1.0])
        for variant in ALL_VARIANTS:
            assert not membership(variant, x, v, 1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            membership(MpecVariant.L2BoxNonSep, np.ones(2), np.ones(3), 1e-9)

    def test_all_binary_points_n4(self):
        for bits in itertools.product((-1.0, 1.0), repeat=4):
            x = np.array(bits)
            for variant in ALL_VARIANTS:
                assert membership(variant, x, x, 1e-12)


class TestRoundSign:
    def test_pm1(self):
        out = round_sign(np.array([0.3, -0.2, 0.0]))
        assert out.tolist() == [1.0, -1.0, 1.0]

    def test_zeroone(self):
        out = round_sign(np.array([0.49, 0.51, 0.5]), domain="zeroone")
        assert out.tolist() == [0.0, 1.0, 1.0]

    def test_bad_domain(self):
        with pytest.raises(ValueError):
            round_sign(np.zeros(1), domain="spin")

    def test_domain_bounds(self):
        assert domain_bounds("pm1") == (-1.0, 1.0)
        assert domain_bounds("zeroone") == (0.0, 1.0)
        with pytest.raises(ValueError, match="'pm1' or 'zeroone'"):
            domain_bounds("spin")

    def test_signed_zero_and_nan_round_as_before(self):
        # the threshold midpoint(lo, hi) is 0.0 and 0.5 exactly
        out = round_sign(np.array([-0.0, np.nan, -1e-300]))
        assert out.tolist() == [1.0, -1.0, -1.0]
        out = round_sign(np.array([0.5 - 1e-16, np.nan]), domain="zeroone")
        assert out.tolist() == [0.0, 0.0]


class TestHRatio:
    def test_single_coordinate_at_zero(self):
        assert h_ratio(np.array([0.0])) == pytest.approx(1.0, abs=1e-12)

    def test_two_coordinates(self):
        x = np.array([1.0, 0.5])
        want = (2.0 - np.sqrt(2.0) * np.sqrt(1.25)) / 0.5
        assert h_ratio(x) == pytest.approx(want, abs=1e-12)

    def test_four_coordinates(self):
        x = np.array([1.0, 1.0, 1.0, 0.9])
        want = (4.0 - 2.0 * np.sqrt(3.81)) / 0.1
        assert h_ratio(x) == pytest.approx(want, abs=1e-10)

    def test_binary_point_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            h_ratio(np.array([1.0, -1.0]))

    def test_outside_box_rejected(self):
        with pytest.raises(ValueError):
            h_ratio(np.array([1.5, 0.0]))

    def test_lower_bound_half(self):
        # the ratio is bounded below by 1/2 everywhere on the box
        rng = np.random.default_rng(17)
        worst = np.inf
        for _ in range(100000):
            n = int(rng.integers(1, 51))
            x = rng.uniform(-1.0, 1.0, n)
            if np.min(np.abs(np.abs(x) - 1.0)) < 1e-12:
                continue
            r = h_ratio(x)
            worst = min(worst, r)
            assert r >= 0.5 - 1e-12, x
        assert worst < 0.75  # the bound is nearly tight somewhere in the sample


class TestBinaryCharacterization:
    def test_maximizing_v_certifies_nonbinary(self):
        # for nonbinary box points the best v keeps <x, v> strictly below n,
        # so the pair fails the nonseparable membership test
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(1, 11))
            x = rng.uniform(-1.0, 1.0, n)
            if np.min(np.abs(np.abs(x) - 1.0)) < 1e-6:
                continue
            checked += 1
            v = epm_v_update(x)
            assert np.sqrt(n) * np.linalg.norm(x) < n - 1e-9
            assert not membership(MpecVariant.L2BoxNonSep, x, v, 1e-9)

    def test_binary_points_pass_with_their_own_v(self):
        for n in range(1, 5):
            for bits in itertools.product((-1.0, 1.0), repeat=n):
                x = np.array(bits)
                v = epm_v_update(x)
                assert np.allclose(v, x, atol=1e-12)
                assert membership(MpecVariant.L2BoxNonSep, x, v, 1e-12)

    def test_full_norm_box_point_is_binary(self):
        # ||x||_2^2 = n and |x|_inf <= 1 leave no room: every coordinate
        # must sit at +-1, so scaling any box point up to the sphere either
        # leaves the box or lands on a binary point
        rng = np.random.default_rng(29)
        violations = 0
        for _ in range(20000):
            n = int(rng.integers(1, 13))
            x = rng.uniform(-1.0, 1.0, n)
            nrm = np.linalg.norm(x)
            if nrm < 1e-9:
                continue
            s = np.sqrt(n) / nrm
            y = s * x
            if np.max(np.abs(y)) <= 1.0 + 1e-12:
                if np.max(np.abs(np.abs(y) - 1.0)) > 1e-9:
                    violations += 1
        assert violations == 0
