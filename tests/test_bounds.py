import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxkit import geometry
from boxkit.bounds import (
    growth_root,
    kp_box_exponential_lower,
    kp_trivial_bounds,
    lower_odd_basic,
    lower_odd_proper,
    parity_count,
)
from boxkit.geometry import GeometryError


class TestParityCount:
    def test_examples(self):
        t = parity_count(5, {2, 4}, "all_odd")
        assert (t.total_selectors, t.odd_hits) == (16, 8)
        t = parity_count(5, {1, 3, 5}, "proper_odd")
        assert (t.total_selectors, t.odd_hits) == (15, 7)
        # the full set hits every odd selector oddly
        t = parity_count(3, {1, 2, 3}, "all_odd")
        assert (t.total_selectors, t.odd_hits) == (4, 4)

    def test_half_identity_proper_sets(self):
        for n in (3, 5, 7):
            for mask in range(1, (1 << n) - 1):
                B = [i + 1 for i in range(n) if mask >> i & 1]
                assert parity_count(n, B, "all_odd").odd_hits == 2 ** (n - 2)

    def test_proper_odd_identity(self):
        # removing the full selector loses one hit exactly when |B| is odd
        for n in (3, 5, 7):
            for mask in range(1, (1 << n) - 1):
                B = [i + 1 for i in range(n) if mask >> i & 1]
                t = parity_count(n, B, "proper_odd")
                assert t.total_selectors == 2 ** (n - 1) - 1
                assert t.odd_hits == 2 ** (n - 2) - (len(B) % 2)

    def test_errors(self):
        with pytest.raises(GeometryError):
            parity_count(5, [], "all_odd")
        with pytest.raises(GeometryError):
            parity_count(5, [6], "all_odd")
        with pytest.raises(GeometryError):
            parity_count(4, [1], "proper_odd")
        with pytest.raises(GeometryError):
            parity_count(5, [1], "sometimes_odd")

    def test_selector_masks_over_the_cell_limit_refused(self, monkeypatch):
        # 2^40 uint32 masks would take 4 TiB: refused before any allocation
        with pytest.raises(GeometryError, match="cell limit"):
            parity_count(40, [1])
        monkeypatch.setattr(geometry, "_CELL_LIMIT", 8)
        assert parity_count(3, [1]).total_selectors == 4
        with pytest.raises(GeometryError, match="cell limit"):
            parity_count(4, [1])


class TestClosedForms:
    def test_lower_odd_basic(self):
        assert lower_odd_basic(1).value == 2
        assert lower_odd_basic(3).value == 8
        assert lower_odd_basic(10).value == 1024

    def test_lower_odd_proper_values(self):
        assert lower_odd_proper(3, 2).value == 9
        v = lower_odd_proper(5, 3).value
        assert v == Fraction(15, 7) ** 3
        assert math.ceil(v) == 10
        assert math.ceil(lower_odd_proper(5, 1).value) == 3

    def test_lower_odd_proper_monotone_and_above_basic(self):
        d = 4
        values = [lower_odd_proper(n, d).value for n in (3, 5, 7, 9, 11)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 2**d for v in values)

    def test_lower_odd_proper_errors(self):
        for n in (2, 4, 1):
            with pytest.raises(GeometryError):
                lower_odd_proper(n, 2)

    def test_kp_trivial(self):
        lo, hi = kp_trivial_bounds(3, 3, "brick")
        assert (lo.value, hi.value) == (20, 27)
        lo, hi = kp_trivial_bounds(4, 2, "box")
        assert (lo.value, hi.value) == (16, 16)
        lo, _ = kp_trivial_bounds(2, 5, "brick")
        assert lo.value == 16  # matches the 4(k-1) construction

    def test_kp_trivial_errors(self):
        with pytest.raises(GeometryError):
            kp_trivial_bounds(2, 3, "cylinder")
        with pytest.raises(GeometryError):
            kp_trivial_bounds(0, 3, "box")

    def test_exponential_lower(self):
        prod, closed = kp_box_exponential_lower(2, 10)
        assert prod.value == pytest.approx((1 + 1 / (math.sqrt(4) - 1)) * 9 + 1)
        for d in range(2, 11):
            p, c = kp_box_exponential_lower(d, 5)
            assert p.value >= c.value
        p, _ = kp_box_exponential_lower(100, 2)
        assert p.value >= math.exp(10 / 4)


class TestGrowthRoot:
    def test_paper_roots(self):
        assert growth_root([0, 13, 9]) == pytest.approx(3.9116278, abs=1e-6)
        assert growth_root([0, 15]) == pytest.approx(math.sqrt(15), abs=1e-8)
        assert growth_root([0, 0, 0, 61]) == pytest.approx(61 ** 0.25, abs=1e-8)

    def test_linear(self):
        assert growth_root([7]) == pytest.approx(7, abs=1e-8)

    def test_bracket_certificate(self):
        r = growth_root([0, 13, 9])
        p = lambda x: x**3 - 13 * x - 9
        assert p(r - 1e-6) < 0 < p(r + 1e-6)

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            growth_root([])

    @pytest.mark.parametrize("coeffs", [[0], [0, 0, 0], [0.0, -0.0]])
    def test_all_zero_rejected(self, coeffs):
        """x^m = 0 has no positive root; bisection would close in on 0."""
        with pytest.raises(GeometryError, match="no positive real root"):
            growth_root(coeffs)

    def test_no_positive_root_with_a_zero_last_coefficient_rejected(self):
        """x^3 = x^2 - x: p(x) = x(x^2 - x + 1) has only the root 0, on which
        a bracket widened to 0 would close."""
        with pytest.raises(GeometryError, match="no positive real root"):
            growth_root([1, -1, 0])

    @pytest.mark.parametrize("zeros", [1, 2])
    def test_trailing_zeros_move_no_root(self, zeros):
        assert growth_root([0, 13, 9] + [0] * zeros) == growth_root([0, 13, 9])

    @pytest.mark.parametrize("coeffs", [[math.nan], [1e200, 0], [1, -1e300, 1e300]])
    def test_unbracketable_rejected(self, coeffs):
        """A NaN, or p overflowing at the top of the bracket.  A trailing zero
        moves no root, so [1e200, 0] has the root of [1e200], whose p does
        not overflow there.  The cases a regression would leave looping run
        in a subprocess in the CLI tests."""
        if coeffs == [1e200, 0]:
            assert growth_root(coeffs) == growth_root([1e200])
            return
        with pytest.raises(GeometryError, match="cannot bracket a root"):
            growth_root(coeffs)


@given(st.lists(st.integers(1, 20), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_growth_root_is_a_root(coeffs):
    r = growth_root(coeffs)
    m = len(coeffs)
    value = r**m - sum(c * r ** (m - 1 - i) for i, c in enumerate(coeffs))
    assert abs(value) < 1e-5 * max(1.0, r**m)


@given(st.integers(1, 8), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_trivial_bounds_ordered(d, k):
    for kind in ("box", "brick"):
        lo, hi = kp_trivial_bounds(d, k, kind)
        assert lo.value <= hi.value
