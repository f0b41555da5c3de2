"""Closed-form results: cheat pass probability and noise robustness.

Two analytical models of the reflection attack's pass probability are
implemented side by side.

* `pass_prob_composition_sum`: group the N measurement indices into m
  ordered runs (C(N-1, m-1) compositions), give each run of length L a
  consistent-guess factor 4**(L-1) out of 4**L, and average over
  compositions:  sum C(N-1,m-1) 4**(m-N) / sum C(N-1,m-1).  The binomial
  theorem collapses this to exactly (5/8)**(N-1).
* `pass_prob_permutation_model`: the claimed identification is a uniform
  permutation, cycles play the role of runs, so the average weights
  4**(m-N) by the signless Stirling counts c(N, m)/N!.  Their generating
  function sum_m c(N, m) x**m is the rising factorial x(x+1)...(x+N-1), so
  at x = 4 the sum is (N+3)!/(3! 4**N N!) = C(N+3, 3)/4**N, which is
  strictly smaller for N >= 3 - the discrepancy between the two models is
  real and surfaced in reports; the simulated attack follows the
  permutation model.

`pass_prob_closed_form` is the reference curve (5/8)**(N-1) itself; the
paper's N = 11 is the first N it puts at or below 0.01, and the permutation
model is below 0.01 from N = 7. Both rest on the conservation law (outcome
XOR = label XOR) that `qct verify`'s two schedule checks compare in full.
Robustness: readout noise gamma per measurement must keep the honest abort
rate below the cheat pass probability. `min_gamma` is the one-sided noise
budget, 1 - gamma**N <= P(N): only one party's N records are noisy. The simulator (`protocol.NoiseModel`) corrupts both
parties' records, each onto one of three wrong labels, so a simulated honest
session aborts at the larger two-sided rate 1 - (gamma**2 + (1-gamma)**2/3)**N;
the budget here does not describe that model.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "pass_prob_closed_form",
    "pass_prob_composition_sum",
    "pass_prob_composition_sum_exact",
    "pass_prob_permutation_model",
    "pass_prob_permutation_model_exact",
    "min_gamma",
    "MODEL_DISCREPANCY_NOTE",
]

MODEL_DISCREPANCY_NOTE = (
    "composition-sum equals closed-form (5/8)^(N-1) exactly; permutation-exact "
    "is strictly smaller for N >= 3 and matches the simulated attack"
)


def _require_n(n: int) -> None:
    if n < 1:
        raise ValueError("n_pairs must be at least 1")


def pass_prob_closed_form(n: int) -> float:
    """(5/8)**(n-1), computed exactly and rounded once, so it equals
    `pass_prob_composition_sum(n)` bit for bit."""
    _require_n(n)
    return float(Fraction(5, 8) ** (n - 1))


def pass_prob_composition_sum_exact(n: int) -> Fraction:
    """Exact composition-weighted sum: sum C(n-1,m-1) 4^(m-n) / 2^(n-1)."""
    _require_n(n)
    # the binomial row C(n-1, m-1), m = 1..n, by C(n-1, m) = C(n-1, m-1)(n-m)/m
    binomials = [1]
    for m in range(1, n):
        binomials.append(binomials[-1] * (n - m) // m)
    numerator = sum(c * 4**m for m, c in enumerate(binomials, 1))
    return Fraction(numerator, 4**n * sum(binomials))


def pass_prob_composition_sum(n: int) -> float:
    return float(pass_prob_composition_sum_exact(n))


def pass_prob_permutation_model_exact(n: int) -> Fraction:
    """Exact uniform-permutation average sum c(n,m) 4^(m-n) / n!, in its
    closed form C(n+3, 3) / 4^n (see the module notes)."""
    _require_n(n)
    return Fraction(math.comb(n + 3, 3), 4**n)


def pass_prob_permutation_model(n: int) -> float:
    return float(pass_prob_permutation_model_exact(n))


def min_gamma(n: int, p_threshold: float) -> float:
    """Smallest per-measurement survival rate keeping 1 - gamma**n <= p.

    One-sided noise model (see the module notes): under the simulator's
    two-sided noise this gamma gives a larger abort rate than p.
    """
    _require_n(n)
    if not 0.0 < p_threshold < 1.0:
        raise ValueError("p_threshold must lie in (0, 1)")
    return (1.0 - p_threshold) ** (1.0 / n)
