import math

import pytest

from rainbowpath import compute_bounds, guaranteed_length
from rainbowpath.bounds import BoundsError


class TestComputeBounds:
    def test_s3_values(self):
        b = compute_bounds(3)
        assert b.r == 64
        assert b.w == (0, 1, 65)
        assert b.c == 4224

    def test_s4_r(self):
        assert compute_bounds(4).r == 4 * 3**6 == 2916

    def test_exponent_identity(self):
        # 4 * 2^(2(s-1)log2(s-1)) must equal 4 * (s-1)^(2(s-1)) exactly
        for s in range(3, 10):
            assert compute_bounds(s).r == 4 * (s - 1) ** (2 * (s - 1))

    def test_recurrence_against_closed_form(self):
        # compute_bounds runs only the recurrence; the closed form is checked
        # here over every table size the CLI is likely to print
        for s in range(3, 41):
            b = compute_bounds(s)
            assert b.w[0] == 0
            for j in range(1, len(b.w)):
                assert b.w[j] == b.w[j - 1] * b.r + 1
            w1 = b.w[-1]
            assert w1 == (b.r ** (s - 1) - 1) // (b.r - 1)
            assert (b.r ** (s - 1) - 1) % (b.r - 1) == 0
            assert b.c == (w1 + 1) * b.r

    def test_threshold_strictly_increasing(self):
        values = [compute_bounds(s).c for s in range(3, 13)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_exponent_growth_band(self):
        # log2 c(s) should track s^2 log2 s within a bounded band
        ratios = [
            math.log2(compute_bounds(s).c) / (s * s * math.log2(s))
            for s in range(3, 13)
        ]
        assert all(0.4 < r < 3.0 for r in ratios)

    def test_rejects_small_s(self):
        with pytest.raises(BoundsError):
            compute_bounds(2)


class TestGuaranteedLength:
    def test_boundary_at_first_threshold(self):
        assert guaranteed_length(4224) == 2
        assert guaranteed_length(4225) == 3

    def test_base_cases(self):
        assert guaranteed_length(1) == 1
        assert guaranteed_length(2) == 2
        assert guaranteed_length(100) == 2

    def test_second_threshold(self):
        c4 = compute_bounds(4).c
        assert guaranteed_length(c4) == 3
        assert guaranteed_length(c4 + 1) == 4

    @pytest.mark.parametrize("s", range(3, 9))
    def test_inverts_each_threshold(self, s):
        c = compute_bounds(s).c
        assert guaranteed_length(c) == s - 1
        assert guaranteed_length(c + 1) == s

    def test_monotone_on_log_sample(self):
        limit = compute_bounds(5).c
        chis = []
        chi = 1
        while chi <= limit:
            chis.append(chi)
            chi *= 2
        chis.append(limit)
        values = [guaranteed_length(c) for c in chis]
        assert values == sorted(values)

    def test_rejects_nonpositive(self):
        with pytest.raises(BoundsError):
            guaranteed_length(0)
