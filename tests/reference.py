"""The partner-walk session driver, kept as the reference the tests replay
`protocol.run_session` against.

A phase here walks its measurements one by one on two int lists indexed by
particle code: `partner` (-1 once measured) and `label`, the label value of
the particle's edge. Alice's particle i is code i - 1 and Bob's 2N + i - 1,
so a source pair's halves are codes c and c ^ 1. `measure_phase` is held to
successive `EntangledMatching.measure_pair` calls in `test_int_path.py`, and
`reference_session` runs a whole session on it with the draws, in the
order, that `run_session` documents; it draws every order by
`rng.permutation`, where the driver shuffles lists.

`stirling_first_kind` gives the cycle counts that the permutation model's
closed form and the reflect attack's cycle histogram are held to.
"""

from __future__ import annotations

from functools import lru_cache

from qct import bell, protocol
from qct.bell import BELL_LABELS, AlreadyMeasuredError, Party, SelfMeasurementError
from qct.protocol import (
    CoinAnnouncement,
    ParticleBatch,
    ResultsAnnouncement,
    Sequence,
    SequenceAnnouncement,
    SessionRun,
    SessionTranscript,
    StrategyKind,
    Verdict,
    VerdictAnnouncement,
    alice_verify,
    apply_noise,
    best_guess_results,
    cycle_structure,
    toss_from_outcomes,
    travelling,
)


def stirling_first_kind(n: int) -> tuple[int, ...]:
    """Signless Stirling numbers of the first kind c(n, m), m = 0..n: the
    permutations of n elements with m cycles, by the rising-factorial
    recurrence c(k+1, m) = c(k, m-1) + k c(k, m) from c(0, 0) = 1."""
    row = [1]
    for k in range(n):
        new = [0] * (len(row) + 1)
        for m, val in enumerate(row):
            new[m] += k * val
            new[m + 1] += val
        row = new
    return tuple(row)


@lru_cache(maxsize=None)
def particle_codes(n_pairs: int) -> tuple[tuple[int, ...], ...]:
    """Every code's source partner, then the codes of Alice's odd and even
    halves and of Bob's, pair m's at index m - 1."""
    bob = 2 * n_pairs
    return (tuple([c ^ 1 for c in range(2 * bob)]),
            tuple(range(0, bob, 2)), tuple(range(1, bob, 2)),
            tuple(range(bob, 2 * bob, 2)), tuple(range(bob + 1, 2 * bob, 2)))


def measure_phase(partner, label, kept, received, noise, rng, then=0):
    """Bell-measure kept[i] against received[i] in turn, then draw `then`
    label values; returns the recorded outcomes and those values.

    Outcomes, draws and final state are those of successive `measure_pair`
    calls, then `apply_noise` on each record in index order. Partnership
    never depends on outcomes, so a first pass over `partner` alone finds
    the swaps; one call then draws their labels and the `then` labels.
    """
    steps = []  # (u, v, pu, pv): pu, pv the spectators of a swap, pu = -1 for partners
    swaps = 0
    for u, v in zip(kept, received):
        pu, pv = partner[u], partner[v]
        if (pu | pv) < 0:
            raise AlreadyMeasuredError(f"particle code {u if pu < 0 else v} was already measured")
        if pu == v:
            pu = -1
        elif u == v:
            raise SelfMeasurementError(f"cannot measure particle code {u} against itself")
        else:
            partner[pu], partner[pv] = pv, pu
            swaps += 1
        partner[u] = partner[v] = -1
        steps.append((u, v, pu, pv))
    drawn = protocol.draw_labels(rng, swaps + then)
    draws = iter(drawn)
    out = []
    for u, v, pu, pv in steps:
        if pu < 0:
            outcome = label[u]
        else:
            outcome = next(draws)
            label[pu] = label[pv] = bell.residual(label[u], label[v], outcome)
        out.append(BELL_LABELS[outcome])
    if noise is not None:
        out = [apply_noise(outcome, noise, rng) for outcome in out]
    return tuple(out), drawn[swaps:]


def permuted_sequence(n: int, rng) -> Sequence:
    """A transmission order drawn as `rng.permutation(n)`, shifted to 1..n."""
    return Sequence(tuple([x + 1 for x in rng.permutation(n).tolist()]))


def reference_session(config, strategy, rng) -> SessionRun:
    """`protocol.run_session` with every phase walked by `measure_phase`."""
    n = config.n_pairs
    source, alice_odd, alice_even, bob_odd, bob_even = particle_codes(n)
    partner, label = list(source), [0] * (4 * n)
    alice_ids = travelling(Party.ALICE, n)
    fake = strategy.kind is StrategyKind.FAKE_SEQUENCE

    alice_seq = announced = permuted_sequence(n, rng)
    if strategy.kind is StrategyKind.REFLECT:
        return_order = rng.permutation(n)
        arrived = [alice_seq.order[r] for r in return_order.tolist()]
        cycles = cycle_structure(arrived)
        bob_batch = tuple([alice_ids[m - 1] for m in arrived])
        returned = [alice_odd[m - 1] for m in arrived]  # returned[s - 1] in return slot s
        label[returned[0]] = label[returned[0] ^ 1] = flip = int(strategy.flip)
        alice_results, guesses = measure_phase(
            partner, label, alice_even, returned, config.noise, rng, then=n - len(cycles))
        bob_results = tuple(best_guess_results(cycles, guesses, flip))
    else:
        bob_batch = travelling(Party.BOB, n)
        alice_results = measure_phase(partner, label, alice_even, bob_odd, config.noise, rng)[0]
        if fake and n > 1 and toss_from_outcomes(alice_results) != strategy.desired:
            while announced == alice_seq:
                announced = permuted_sequence(n, rng)
        sent = [alice_odd[m - 1] for m in alice_seq.order]  # sent[t - 1] travels in slot t
        claimed = [0] * n  # claimed[m - 1] travels in the slot announced for pair m
        for pair, code in zip(announced.order, sent):
            claimed[pair - 1] = code
        bob_results = measure_phase(partner, label, bob_even, claimed, config.noise, rng)[0]

    if fake:
        verdict, coin, coin_sender = Verdict.ACCEPT, toss_from_outcomes(bob_results), Party.BOB
    else:
        verdict = alice_verify(alice_results, bob_results)
        coin, coin_sender = toss_from_outcomes(alice_results), Party.ALICE
    passed = verdict is Verdict.ACCEPT
    messages = [
        ParticleBatch(Party.ALICE, tuple([alice_ids[m - 1] for m in alice_seq.order])),
        ParticleBatch(Party.BOB, bob_batch),
        SequenceAnnouncement(Party.ALICE, announced),
        ResultsAnnouncement(Party.BOB, bob_results),
        VerdictAnnouncement(Party.ALICE, verdict),
    ]
    if passed:
        messages.append(CoinAnnouncement(coin_sender, coin))
    transcript = SessionTranscript(
        config, messages, alice_results, bob_results, verdict, coin if passed else None)
    return SessionRun(transcript, passed, coin)
