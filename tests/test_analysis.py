"""Closed-form analysis tests, anchored by exhaustive enumeration oracles."""

import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qct.analysis import (
    min_gamma,
    pass_prob_closed_form,
    pass_prob_composition_sum,
    pass_prob_composition_sum_exact,
    pass_prob_permutation_model,
    pass_prob_permutation_model_exact,
)
from reference import stirling_first_kind


def _cycle_count(perm: tuple[int, ...]) -> int:
    seen, count = set(), 0
    for start in range(len(perm)):
        if start in seen:
            continue
        count += 1
        node = start
        while node not in seen:
            seen.add(node)
            node = perm[node]
    return count


def _exhaustive_permutation_average(n: int) -> Fraction:
    """Independent oracle: average 4**(cycles - n) over all n! permutations."""
    total = Fraction(0)
    for perm in permutations(range(n)):
        total += Fraction(4) ** (_cycle_count(perm) - n)
    return total / math.factorial(n)


class TestClosedForm:
    def test_base_values(self):
        assert pass_prob_closed_form(1) == 1.0
        assert pass_prob_closed_form(2) == pytest.approx(0.625, abs=1e-15)

    def test_eleven_pairs(self):
        assert pass_prob_closed_form(11) == pytest.approx(0.0090949470177293, abs=1e-15)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            pass_prob_closed_form(0)


class TestCompositionSum:
    def test_exact_identity_with_geometric_form(self):
        for n in range(1, 65):
            assert pass_prob_composition_sum_exact(n) == Fraction(5, 8) ** (n - 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 11, 32, 64])
    def test_float_agreement(self, n):
        a = pass_prob_composition_sum(n)
        b = pass_prob_closed_form(n)
        assert abs(a - b) <= 1e-12 * b

    def test_binomial_row_equals_math_comb(self):
        # the ratio-built row against one math.comb call per term
        for n in range(1, 301):
            numerator = sum(math.comb(n - 1, m - 1) * 4**m for m in range(1, n + 1))
            denominator = 4**n * sum(math.comb(n - 1, m - 1) for m in range(1, n + 1))
            assert pass_prob_composition_sum_exact(n) == Fraction(numerator, denominator), n

    def test_closed_form_equals_composition_sum_bit_for_bit(self):
        # both round the exact (5/8)**(n-1) once, so not even an ulp apart
        for n in range(1, 201):
            assert pass_prob_closed_form(n) == pass_prob_composition_sum(n), n


class TestStirling:
    def test_known_rows(self):
        assert stirling_first_kind(0) == (1,)
        assert stirling_first_kind(1) == (0, 1)
        assert stirling_first_kind(4) == (0, 6, 11, 6, 1)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_row_sums_to_factorial(self, n):
        assert sum(stirling_first_kind(n)) == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts_cycle_classes(self, n):
        histogram = [0] * (n + 1)
        for perm in permutations(range(n)):
            histogram[_cycle_count(perm)] += 1
        assert tuple(histogram) == stirling_first_kind(n)


class TestPermutationModel:
    def test_small_values(self):
        assert pass_prob_permutation_model(1) == 1.0
        assert pass_prob_permutation_model(2) == 0.625
        assert pass_prob_permutation_model(3) == 0.3125
        assert pass_prob_permutation_model_exact(4) == Fraction(35, 256)

    def test_three_pair_hand_count(self):
        # identity contributes 1, the 3 transpositions 1/4, the 2 3-cycles 1/16
        hand = Fraction(1 * 1, 1) + 3 * Fraction(1, 4) + 2 * Fraction(1, 16)
        assert pass_prob_permutation_model_exact(3) == hand / 6

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_exhaustive_enumeration(self, n):
        assert pass_prob_permutation_model_exact(n) == _exhaustive_permutation_average(n)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_cubic_closed_form(self, n):
        # the cycle-weighted average the closed form C(n+3, 3)/4^n sums up
        counts = stirling_first_kind(n)
        numerator = sum(c * 4**m for m, c in enumerate(counts))
        expected = Fraction(numerator, 4**n * math.factorial(n))
        assert pass_prob_permutation_model_exact(n) == expected

    def test_strictly_below_geometric_model_from_three(self):
        assert pass_prob_permutation_model(1) == pass_prob_closed_form(1)
        assert pass_prob_permutation_model(2) == pass_prob_closed_form(2)
        for n in range(3, 33):
            assert pass_prob_permutation_model(n) < pass_prob_closed_form(n)


class TestMonotonicity:
    def test_both_models_strictly_decreasing(self):
        for n in range(1, 50):
            assert pass_prob_closed_form(n + 1) < pass_prob_closed_form(n)
            assert (
                pass_prob_permutation_model_exact(n + 1)
                < pass_prob_permutation_model_exact(n)
            )


class TestRobustness:
    def test_min_gamma_values(self):
        assert min_gamma(11, 0.01) == pytest.approx(0.9991, abs=5e-5)
        assert min_gamma(11, pass_prob_closed_form(11)) == pytest.approx(0.999170, abs=5e-7)

    def test_min_gamma_sits_on_boundary(self):
        # n = 1 is excluded: a single pair tolerates any nonzero readout fidelity
        for n in (2, 5, 11, 40):
            p = pass_prob_closed_form(n)
            g = min_gamma(n, p)
            shortfall = 1.0 - g**n
            assert shortfall <= p or math.isclose(shortfall, p, rel_tol=1e-12)
            # nudging below the boundary must break the budget once the slack is real
            assert 1.0 - (g - 1e-6) ** n > p

    def test_validation(self):
        with pytest.raises(ValueError):
            min_gamma(0, 0.01)
        with pytest.raises(ValueError):
            min_gamma(5, 0.0)

    @settings(deadline=None)
    @given(st.floats(0.001, 0.999), st.integers(1, 30))
    def test_min_gamma_inverts_shortfall(self, p, n):
        g = min_gamma(n, p)
        assert 1.0 - g**n == pytest.approx(p, rel=1e-9)


class TestDesignPoint:
    def test_smallest_n_at_each_threshold(self):
        """The paper's curve (5/8)^(N-1) first reaches p at N = 11, 16 and 31,
        the simulated attack's C(N+3,3)/4^N at N = 7, 9 and 15."""

        def smallest(prob, p):
            return next(n for n in range(1, 100) if prob(n) <= p)

        thresholds = [Fraction(1, 10**k) for k in (2, 3, 6)]
        assert [smallest(lambda n: Fraction(5, 8) ** (n - 1), p) for p in thresholds] == [
            11, 16, 31]
        assert [smallest(pass_prob_permutation_model_exact, p) for p in thresholds] == [7, 9, 15]
