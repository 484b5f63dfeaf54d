"""Statistics of the paired A/B benchmark runs (``benchmarks/ab.py``)."""

import math

import pytest

from benchmarks.ab import compare, quartiles, sign_test_p, wins


class TestSignTest:
    def test_ten_of_ten(self):
        assert sign_test_p(10, 0) == pytest.approx(2 / 1024)

    def test_nine_of_ten(self):
        assert sign_test_p(9, 1) == pytest.approx(2 * 11 / 1024)

    def test_symmetric_and_capped(self):
        assert sign_test_p(3, 7) == sign_test_p(7, 3)
        assert sign_test_p(5, 5) == 1.0
        assert sign_test_p(0, 0) == 1.0

    def test_matches_the_binomial_tail(self):
        n, k = 12, 2
        tail = sum(math.comb(n, i) for i in range(k + 1)) / 2**n
        assert sign_test_p(n - k, k) == pytest.approx(2 * tail)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sign_test_p(-1, 3)


class TestWins:
    def test_direction(self):
        base, change = [1.0, 2.0, 3.0], [2.0, 1.0, 4.0]
        assert wins(base, change, higher_is_better=True) == 2
        assert wins(base, change, higher_is_better=False) == 1

    def test_ties_are_not_wins(self):
        assert wins([1.0, 1.0], [1.0, 1.0], higher_is_better=True) == 0

    def test_unpaired_rejected(self):
        with pytest.raises(ValueError):
            wins([1.0], [1.0, 2.0], higher_is_better=True)


class TestQuartiles:
    def test_exclusive_quartiles(self):
        q = quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        assert q == {"n": 10, "median": 5.5, "q1": 2.75, "q3": 8.25}

    def test_single_value(self):
        assert quartiles([3.0]) == {"n": 1, "median": 3.0, "q1": 3.0, "q3": 3.0}


class TestCompare:
    def test_lower_is_better_claim(self):
        base = [308.0, 309.0, 310.0, 311.0, 307.0, 308.5, 309.5, 310.5, 311.5, 307.5]
        change = [b - 58.0 for b in base]
        change[3] = 400.0  # one lost pair
        m = compare(base, change, higher_is_better=False)
        assert (m["wins"], m["pairs"]) == (9, 10)
        assert m["sign_p"] == pytest.approx(22 / 1024)
        assert m["apart"]

    def test_noise_is_not_apart(self):
        base = [1.0, 3.0, 2.0, 4.0]
        change = [1.5, 2.5, 2.5, 3.5]
        assert not compare(base, change, higher_is_better=True)["apart"]
