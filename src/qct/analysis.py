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

`pass_prob_closed_form` is the reference curve (5/8)**(N-1) itself.
Robustness: readout noise gamma per measurement must keep the honest abort
rate below the cheat pass probability. `robustness_ok` and `min_gamma`
budget the one-sided abort rate 1 - gamma**N <= P(N): only one party's N
records are noisy. The simulator (`protocol.NoiseModel`) corrupts both
parties' records, each onto one of three wrong labels, so a simulated honest
session aborts at the larger two-sided rate 1 - (gamma**2 + (1-gamma)**2/3)**N;
the bounds here do not describe that model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "BiasTarget",
    "RobustnessQuery",
    "pass_prob_closed_form",
    "pass_prob_composition_sum",
    "pass_prob_composition_sum_exact",
    "pass_prob_permutation_model",
    "pass_prob_permutation_model_exact",
    "robustness_ok",
    "min_gamma",
    "min_pairs_for_threshold",
    "min_pairs_for_bias",
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


@dataclass(frozen=True)
class RobustnessQuery:
    gamma: float
    n_pairs: int

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        _require_n(self.n_pairs)


def robustness_ok(query: RobustnessQuery) -> bool:
    """True iff 1 - gamma**N <= (5/8)**(N-1), with ulp-scale slack.

    1 - gamma**N is the abort rate when one party's records are noisy; the
    simulator's two-sided noise aborts more often (see the module notes).
    """
    shortfall = 1.0 - query.gamma**query.n_pairs
    p = pass_prob_closed_form(query.n_pairs)
    return shortfall <= p or math.isclose(shortfall, p, rel_tol=1e-12)


def min_gamma(n: int, p_threshold: float) -> float:
    """Smallest per-measurement survival rate keeping 1 - gamma**n <= p.

    One-sided noise model (see the module notes): under the simulator's
    two-sided noise this gamma gives a larger abort rate than p.
    """
    _require_n(n)
    if not 0.0 < p_threshold < 1.0:
        raise ValueError("p_threshold must lie in (0, 1)")
    return (1.0 - p_threshold) ** (1.0 / n)


def min_pairs_for_threshold(p_threshold: float) -> int:
    """Smallest N >= 1 with (5/8)**(N-1) <= p_threshold (exact arithmetic)."""
    if not 0.0 < p_threshold <= 1.0:
        raise ValueError("p_threshold must lie in (0, 1]")
    bound = Fraction(p_threshold)
    power = Fraction(1)
    n = 1
    while power > bound:
        power *= Fraction(5, 8)
        n += 1
    return n


@dataclass(frozen=True)
class BiasTarget:
    """Desired bound xi on a cheater's excess success probability over 1/2."""

    xi: float

    def __post_init__(self) -> None:
        if not 0.0 < self.xi < 0.5:
            raise ValueError("xi must lie in (0, 1/2)")


def min_pairs_for_bias(target: BiasTarget) -> int:
    """Smallest N whose pass probability bounds the bias by target.xi.

    A coin-forcing strategy mixed with honest play wins its preferred value
    with probability at most 1/2 + P/2 once it must survive the results
    check with probability P, so P <= 2*xi suffices for a bias of xi.

    The bound holds against the two modelled attacks (reflection and fake
    sequence) only, not against every cheater: ideal quantum coin tossing
    is impossible (Lo & Chau, quant-ph/9711065), and by Kitaev's bound some
    cheater of any quantum strong coin-flipping protocol reaches a bias of
    1/sqrt(2) - 1/2 ~ 0.207 (Chailloux & Kerenidis, arXiv:0904.1511), so a
    target below 0.207 holds only against the two modelled attacks.
    """
    return min_pairs_for_threshold(2.0 * target.xi)
