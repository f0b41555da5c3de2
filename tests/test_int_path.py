"""The partner-walk reference against `EntangledMatching`, and the drivers'
batched label draws.

`reference.measure_phase` plans a phase's measurements on the partner list
alone, draws every swap label of the phase in one call, computes the labels
and, under noise, passes each record through `apply_noise`. It must give
what successive `measure_pair` calls and then `apply_noise` on each record
give on the same draws: the same outcomes, the same surviving edges, the
same stream position afterwards. `protocol.run_session` no longer walks
partners; `test_session_replay.py` holds its cycle rule to this reference.
The batching rests on numpy serving `integers(4, size=k)` from exactly the
words of k scalar `integers(4)` calls; that identity is pinned here by name,
and `test_seeding.py` pins `draw_labels` to the batched call's words.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qct import protocol
from qct.adversary import run_fake_sequence_attack, run_reflect_attack
from qct.bell import (
    AlreadyMeasuredError,
    BellLabel,
    EntangledMatching,
    ParticleId,
    Party,
    PauliLabel,
    SelfMeasurementError,
)
from qct.protocol import (
    NoiseModel,
    SessionConfig,
    apply_noise,
    draw_labels,
    run_honest,
)
from qct.seeding import session_rng, trial_rng
from reference import measure_phase

STREAMS = {"philox": lambda: trial_rng(2026, 7), "pcg64": lambda: session_rng(2026)}


def _state(rng) -> dict:
    """The generator's whole state, buffered half-words included, arrays
    as lists so that states compare with ==."""
    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x
    return plain(rng.bit_generator.state)


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_batched_label_draw_equals_scalar_draws(stream):
    batched, scalar = STREAMS[stream](), STREAMS[stream]()
    for k in range(41):
        assert batched.integers(4, size=k).tolist() == [int(scalar.integers(4)) for _ in range(k)]
        # the draws that follow see the same stream, odd k included
        assert batched.random() == scalar.random()
        assert batched.integers(1, 4) == scalar.integers(1, 4)
        assert batched.permutation(k + 1).tolist() == scalar.permutation(k + 1).tolist()
    assert _state(batched) == _state(scalar)


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_draw_labels_equals_scalar_draws_for_small_k(stream):
    rng, scalar = STREAMS[stream](), STREAMS[stream]()
    for k in range(10):
        assert draw_labels(rng, k) == [int(scalar.integers(4)) for _ in range(k)]
    assert _state(rng) == _state(scalar)


def _pid(code: int) -> ParticleId:
    return ParticleId(Party.ALICE, code + 1)


@st.composite
def schedules(draw):
    """Pair count, initial labels, a valid partial or maximal measurement
    order mixing partner and swap steps (split into two phases), seed and
    readout noise."""
    n = draw(st.integers(1, 8))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    partner = [c ^ 1 for c in range(2 * n)]
    live = list(range(2 * n))
    order = []
    for _ in range(draw(st.integers(0, n))):
        u = live[draw(st.integers(0, len(live) - 1))]
        others = [c for c in live if c not in (u, partner[u])]
        v = partner[u] if not others or draw(st.booleans()) else draw(st.sampled_from(others))
        pu, pv = partner[u], partner[v]
        if pu != v:
            partner[pu], partner[pv] = pv, pu
        live.remove(u)
        live.remove(v)
        order.append((u, v))
    split = draw(st.integers(0, len(order)))
    seed = draw(st.integers(0, 2**32 - 1))
    gamma = draw(st.sampled_from([None, 1.0, 0.6]))
    return n, labels, order, split, seed, gamma


@settings(deadline=None, max_examples=300)
@given(schedules())
def test_int_path_equals_measure_pair_on_identical_draws(script):
    n, labels, order, split, seed, gamma = script
    noise = None if gamma is None else NoiseModel(gamma)
    matching = EntangledMatching(
        (_pid(2 * i), _pid(2 * i + 1), BellLabel(b)) for i, b in enumerate(labels))
    ref_rng, rng = session_rng(seed), session_rng(seed)
    partner = [c ^ 1 for c in range(2 * n)]
    label = [b for b in labels for _ in range(2)]
    want = got = ()
    for phase in (order[:split], order[split:]):
        records = [matching.measure_pair(_pid(u), _pid(v), ref_rng) for u, v in phase]
        want += tuple([apply_noise(record, noise, ref_rng) for record in records])
        kept, received = [u for u, _ in phase], [v for _, v in phase]
        got += measure_phase(partner, label, kept, received, noise, rng)[0]

    assert got == want
    assert all(type(o) is BellLabel for o in got)
    assert _state(rng) == _state(ref_rng)
    for c in range(2 * n):
        if matching.is_live(_pid(c)):
            assert _pid(partner[c]) == matching.partner_of(_pid(c))
            assert label[c] == int(matching.label_of(_pid(c)))
        else:
            assert partner[c] == -1
    # conservation: live edges (each once) and true outcomes XOR to the start
    live = 0
    for c in range(2 * n):
        if partner[c] > c:
            live ^= label[c]
    history = 0
    for _, outcome in matching.history:
        history ^= outcome.value
    initial = 0
    for b in labels:
        initial ^= b
    assert live ^ history == initial
    assert matching.conservation_ok()


def test_measuring_a_consumed_particle_raises():
    partner, label = [1, 0, 3, 2], [0] * 4
    measure_phase(partner, label, [0], [1], None, None)  # partners: no draw
    for kept, received in (([0], [2]), ([2], [1])):
        with pytest.raises(AlreadyMeasuredError, match="already measured"):
            measure_phase(list(partner), label, kept, received, None, None)
    with pytest.raises(SelfMeasurementError):
        measure_phase([1, 0, 3, 2], label, [2], [2], None, None)


def _outcomes(transcript):
    return ([int(o) for o in transcript.alice_outcomes],
            [int(o) for o in transcript.bob_outcomes],
            transcript.messages, transcript.verdict, transcript.coin)


@pytest.mark.parametrize("gamma", [None, 0.8])
@pytest.mark.parametrize("n", range(1, 9))
def test_drivers_same_with_every_draw_batched_or_scalar(monkeypatch, n, gamma):
    def scalar_draws(rng, k):
        return [int(rng.integers(4)) for _ in range(k)]

    config = SessionConfig(n, 3, None if gamma is None else NoiseModel(gamma))
    runs = []
    for draw in (protocol.draw_labels, scalar_draws):
        monkeypatch.setattr(protocol, "draw_labels", draw)
        runs.append([
            _outcomes(run_honest(config, session_rng(n))),
            *(_outcomes(run_reflect_attack(config, flip, trial_rng(n, i)).transcript)
              for i, flip in enumerate(PauliLabel)),
            *(_outcomes(run_fake_sequence_attack(config, desired, trial_rng(n, 9 + k)).transcript)
              for k, desired in enumerate((0, 1, 0, 1))),
        ])
    assert runs[0] == runs[1]
