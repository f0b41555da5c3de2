"""Batched parity-conservation kernels replayed against their scalar references.

`bell.schedule_outcomes` must return exactly the outcomes of
`EntangledMatching.measure_pair` fed the same swap draws, with
`conservation_ok()` true after every step, and `oracle.schedule_outcomes`
exactly the outcomes of successive `bell_measure_collapse` calls fed the
same uniforms, with the same collapsed amplitudes. The parity checks in
`crosscheck` must draw their documented stream, give the same verdict at
every chunk boundary, stay bounded in memory and catch a broken kernel. The
residual check and the session driver must both run the shared swap rule
`bell.residual`, so that a broken rule fails `qct verify`.
"""

import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qct import bell, crosscheck, oracle, protocol
from qct.bell import BellLabel, EntangledMatching, ParticleId, Party
from qct.crosscheck import (
    CHUNK,
    CheckResult,
    check_parity_conservation_engine,
    check_parity_conservation_oracle,
    check_residual_rule,
)
from qct.oracle import bell_measure_collapse, prepare_pairs
from qct.seeding import session_rng, trial_rng

EXACT = {0.0, 0.25, 1.0}  # every Born probability of a product of Bell pairs


class StepRng:
    """Serves one recorded draw to one scalar measurement and records
    whether it was asked for."""

    def __init__(self, value):
        self.value, self.used = value, False

    def integers(self, high):
        assert high == 4 and not self.used
        self.used = True
        return int(self.value)

    def random(self):
        assert not self.used
        self.used = True
        return float(self.value)


def schedules(rng, rows, n, partner_first=False):
    """Labels and schedules as the parity checks draw them; with
    partner_first every schedule opens on one of the initial pairs."""
    labels = rng.integers(4, size=(rows, n), dtype=np.int8)
    order = rng.permuted(np.tile(np.arange(2 * n, dtype=np.int8), (rows, 1)), axis=1)
    if partner_first:
        first = 2 * rng.integers(n, size=rows)
        order = np.array([
            [f, f + 1, *(q for q in row if q not in (f, f + 1))]
            for f, row in zip(first, order)
        ], dtype=np.int8)
    order = np.sort(order.reshape(rows, n, 2), axis=2).reshape(rows, 2 * n)
    return labels, order


def matching_outcomes(labels, order, swap):
    """Outcomes of `measure_pair` on each row, checking the invariant after
    every step and that only swaps consume a draw."""
    rows, n = labels.shape
    particles = [ParticleId(Party.ALICE, i) for i in range(1, 2 * n + 1)]
    outcomes = np.empty((rows, order.shape[1] // 2), dtype=np.int8)
    for r in range(rows):
        matching = EntangledMatching(
            [(particles[2 * i], particles[2 * i + 1], BellLabel(int(labels[r, i])))
             for i in range(n)]
        )
        for k in range(outcomes.shape[1]):
            u, v = particles[order[r, 2 * k]], particles[order[r, 2 * k + 1]]
            partners = matching.partner_of(u) == v
            rng = StepRng(swap[r, k])
            outcomes[r, k] = matching.measure_pair(u, v, rng).value
            assert rng.used is not partners
            assert matching.conservation_ok()
    return outcomes


def collapse_chain(labels, order, uniforms):
    """Outcomes of successive `bell_measure_collapse` calls on each row, one
    recorded uniform per call, and the amplitudes after every step,
    ``states[k]`` those after step k; every Born probability met must be
    exactly 0, 1/4 or 1."""
    rows, steps = len(labels), order.shape[1] // 2
    outcomes = np.empty((rows, steps), dtype=np.int8)
    states = np.empty((steps, rows, 4 ** labels.shape[1]))
    for r in range(rows):
        state = prepare_pairs([BellLabel(int(x)) for x in labels[r]])
        for k in range(steps):
            q1, q2 = int(order[r, 2 * k]), int(order[r, 2 * k + 1])
            assert set(oracle.bell_distribution(state, q1, q2).tolist()) <= EXACT
            rng = StepRng(uniforms[r, k])
            outcome, state = bell_measure_collapse(state, q1, q2, rng)
            assert rng.used
            outcomes[r, k] = outcome.value
            states[k, r] = state.amplitudes
    return outcomes, states


def collapse_outcomes(labels, order, uniforms):
    """Outcomes and final amplitudes of `collapse_chain`."""
    outcomes, states = collapse_chain(labels, order, uniforms)
    return outcomes, states[-1]


def rebuild(order, outcomes, residual):
    """Full statevectors from a run of the oracle's kernel: each measured
    pair in its outcome's Bell state, the residual on the qubits never
    measured, in order."""
    rows, steps = outcomes.shape
    qubits = 2 * steps + (residual.shape[1].bit_length() - 1)
    full = np.empty((rows, 2**qubits))
    for r in range(rows):
        measured = order[r, : 2 * steps].tolist()
        axes = measured + [q for q in range(qubits) if q not in measured]
        tensor = np.ones(1)
        for outcome in outcomes[r]:
            tensor = np.multiply.outer(tensor, oracle._BELL_MATRIX[outcome])
        tensor = np.multiply.outer(tensor, residual[r]).reshape([2] * qubits)
        full[r] = np.moveaxis(tensor, range(qubits), axes).reshape(-1)
    return full


def replay_every_prefix(monkeypatch, labels, order, uniforms):
    """Run the oracle's kernel on every prefix of the schedules and hold
    it to the scalar collapse chain: the same outcomes, the same full state
    bit for bit once rebuilt, and every Born probability exactly 0, 1/4 or
    1. Returns the outcomes of the whole schedules."""
    want, states = collapse_chain(labels, order, uniforms)
    seen = []  # the kernel's Born probabilities
    outcomes_of = oracle._outcomes_of
    monkeypatch.setattr(oracle, "_outcomes_of", lambda p, u: seen.append(p) or outcomes_of(p, u))
    rows, n = labels.shape
    for steps in range(order.shape[1] // 2 + 1):
        outcomes, residual = oracle.schedule_outcomes(labels, order[:, : 2 * steps], uniforms)
        assert outcomes.dtype == labels.dtype
        assert outcomes.tolist() == want[:, :steps].tolist()
        assert residual.shape == (rows, 4 ** (n - steps))
        full = rebuild(order, outcomes, residual)
        assert np.array_equal(full, states[steps - 1] if steps else oracle.prepare_states(labels))
    assert seen and set(np.concatenate(seen).ravel().tolist()) <= EXACT
    return want


def edge_uniforms(rng, shape):
    """Uniforms with the ends of [0, 1) mixed in, where a loose outcome rule
    would pick a zero-probability branch."""
    uniforms = rng.random(shape)
    uniforms[rng.random(shape) < 0.2] = 0.0
    uniforms[rng.random(shape) < 0.2] = np.nextafter(1.0, 0.0)
    return uniforms


class TestEngineKernel:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 8), st.integers(1, 30), st.booleans(), st.integers(0, 2**32))
    def test_replays_measure_pair(self, n, rows, partner_first, seed):
        rng = np.random.default_rng(seed)
        labels, order = schedules(rng, rows, n, partner_first)
        swap = rng.integers(4, size=(rows, n), dtype=np.int8)
        outcomes, conserved = bell.schedule_outcomes(labels, order, swap)
        assert conserved.all()
        assert outcomes.tolist() == matching_outcomes(labels, order, swap).tolist()

    def test_partner_schedules_return_the_labels(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(4, size=(50, 6), dtype=np.int8)
        order = np.tile(np.arange(12, dtype=np.int8), (50, 1))
        swap = rng.integers(4, size=(50, 6), dtype=np.int8)
        outcomes, conserved = bell.schedule_outcomes(labels, order, swap)
        assert conserved.all()
        assert outcomes.tolist() == labels.tolist()

    def test_shape_mismatch(self):
        labels = np.zeros((2, 2), dtype=np.int8)
        with pytest.raises(ValueError):
            bell.schedule_outcomes(labels, np.zeros((3, 4), dtype=np.int8), labels)


KERNEL_DRAWS = {
    "engine": (bell.schedule_outcomes, lambda shape: np.zeros(shape, dtype=np.int8)),
    "oracle": (oracle.schedule_outcomes, lambda shape: np.full(shape, 0.5)),
}


@pytest.mark.parametrize("kernel", sorted(KERNEL_DRAWS))
@pytest.mark.parametrize("labels, order, width, message", [
    ([-1, 0], [0, 1, 2, 3], 2, "label -1 is not a Bell label value 0..3"),
    ([0, 4], [0, 1, 2, 3], 2, "label 4 is not a Bell label value 0..3"),
    ([9, 0], [0, 1, 2, 3], 2, "label 9 is not a Bell label value 0..3"),
    ([0, 0], [0, 0, 1, 2], 2, "measurement qubits must be distinct"),
    ([0, 0], [0, 1, 1, 2], 2, "measurement qubits must be distinct"),
    ([0, 0], [0, 5, 1, 2], 2, "qubit 5 out of range for 4-qubit state"),
    ([0, 0], [0, 1, 2, 3], 1, "2 steps need 2 draws per schedule, not 1"),
    # non-integers are refused by dtype before they index or XOR anything
    (np.array([0.5, 1.0]), [0, 1, 2, 3], 2, "labels must be integers, not float64"),
    (np.array([True, False]), [0, 1, 2, 3], 2, "labels must be integers, not bool"),
    ([0, 0], np.array([0.0, 1.0, 2.0, 3.0]), 2, "qubits must be integers, not float64"),
], ids=["label-1", "label4", "label9", "same-step", "measured-twice", "out-of-range", "narrow",
        "float-labels", "bool-labels", "float-qubits"])
def test_kernels_refuse_the_same_bad_input(kernel, labels, order, width, message):
    # the first row is a good schedule; the second row holds the bad input,
    # whose dtype the whole array takes (int8 for a list)
    run, draws = KERNEL_DRAWS[kernel]
    labels = np.array([[0, 0], labels], dtype=getattr(labels, "dtype", np.int8))
    order = np.array([[0, 1, 2, 3], order], dtype=getattr(order, "dtype", np.int8))
    with pytest.raises(ValueError) as refused:
        run(labels, order, draws((2, width)))
    assert str(refused.value) == message


def test_engine_kernel_refuses_swap_draws_that_are_not_labels():
    # a swap draw of 7 would come back as the outcome and the residual
    with pytest.raises(ValueError) as refused:
        bell.schedule_outcomes(np.array([[0, 0]]), np.array([[0, 2, 1, 3]]), np.array([[7, -1]]))
    assert str(refused.value) == "label 7 is not a Bell label value 0..3"


@pytest.mark.parametrize("swap", [np.array([[0.5, 1.0]]), np.array([[True, False]])],
                         ids=["float", "bool"])
def test_engine_kernel_refuses_swap_draws_that_are_not_integers(swap):
    with pytest.raises(ValueError) as refused:
        bell.schedule_outcomes(np.array([[0, 0]]), np.array([[0, 2, 1, 3]]), swap)
    assert str(refused.value) == f"labels must be integers, not {swap.dtype}"


@pytest.mark.parametrize("bad", [-0.5, 1.0, 1.5, np.nan])
def test_oracle_kernel_refuses_uniforms_outside_the_unit_interval(bad):
    # the first step is a swap: a uniform below 0 or NaN would pick outcome
    # 0 and one of 1 or more an outcome index 4
    with pytest.raises(ValueError) as refused:
        oracle.schedule_outcomes(np.array([[0, 0]]), np.array([[0, 2, 1, 3]]),
                                 np.array([[bad, 0.5]]))
    assert str(refused.value) == f"uniform {bad} is not in [0, 1)"


class TestOracleKernel:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 5), st.integers(1, 8), st.booleans(), st.integers(0, 2**32))
    def test_replays_collapse(self, n, rows, partner_first, seed):
        rng = np.random.default_rng(seed)
        labels, order = schedules(rng, rows, n, partner_first)
        with pytest.MonkeyPatch.context() as monkeypatch:
            replay_every_prefix(monkeypatch, labels, order, edge_uniforms(rng, (rows, n)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_replays_every_schedule_and_branch(self, monkeypatch, n):
        """Every label tuple, every maximal schedule (a permutation of the
        qubits read in pairs, either way round) and uniforms that pick
        every outcome of a swap, at u = 0 and just below 1 among them."""
        per_step = [0.0, 0.375, 0.625, np.nextafter(1.0, 0.0)]
        cases = list(product(product(range(4), repeat=n), permutations(range(2 * n)),
                             product(per_step, repeat=n)))
        labels, order, uniforms = (np.array(column) for column in zip(*cases))
        labels, order = labels.astype(np.int8), order.astype(np.int8)
        outcomes = replay_every_prefix(monkeypatch, labels, order, uniforms)
        # each swap's four uniforms reach its four outcomes
        assert len({tuple(row) for row in outcomes}) > 4 ** (n - 1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_replays_random_schedules(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        labels, order = schedules(rng, 200, n)
        swapped = rng.random(200) < 0.5  # the sorted pairs, half of them turned round
        order[swapped] = order[swapped].reshape(-1, n, 2)[:, :, ::-1].reshape(-1, 2 * n)
        replay_every_prefix(monkeypatch, labels, order, edge_uniforms(rng, (200, n)))

    def test_partner_first_never_leaves_the_label(self):
        # the first measurement is a point mass on the pair's label: the
        # other branches have probability zero and must never be drawn
        rng = np.random.default_rng(11)
        labels, order = schedules(rng, 200, 3, partner_first=True)
        uniforms = edge_uniforms(rng, (200, 3))
        outcomes, _ = oracle.schedule_outcomes(labels, order, uniforms)
        first = order[:, 0] // 2
        assert outcomes[:, 0].tolist() == labels[np.arange(200), first].tolist()
        assert outcomes.tolist() == collapse_outcomes(labels, order, uniforms)[0].tolist()

    @pytest.mark.parametrize("bad", [[0, 5, 1, 2], [0, 9, 1, 2], [0, 0, 1, 2], [-1, 2, 0, 1]])
    def test_refuses_the_qubits_the_scalar_path_refuses(self, bad):
        # the second row is bad, with the error the scalar measurement gives
        labels = np.zeros((2, 2), dtype=np.int8)
        order = np.array([[0, 1, 2, 3], bad], dtype=np.int8)
        with pytest.raises(ValueError) as scalar:
            bell_measure_collapse(prepare_pairs([BellLabel.PHI_PLUS] * 2), bad[0], bad[1], None)
        with pytest.raises(ValueError) as batched:
            oracle.schedule_outcomes(labels, order, np.full((2, 2), 0.5))
        assert str(batched.value) == str(scalar.value)
        assert "out of range" in str(scalar.value) or "distinct" in str(scalar.value)

    def test_normalisation_checked_on_every_row_after_every_step(self, monkeypatch):
        amps = np.array([[1.0, 0.0, 0.0, -1.0], [0.0, 1.0, 1.0, 0.0], [-1.0, 0.0, 0.0, 1.0]])
        oracle._require_normalized(amps)
        oracle._require_normalized(np.array([[1.0], [-1.0]]))  # no qubits left
        for bad in (0.5, 2.0, np.nan, 0.0):
            wrong = amps.copy()
            wrong[1, 1] = bad
            with pytest.raises(ValueError, match="state is not normalized"):
                oracle._require_normalized(wrong)
        checked = []
        monkeypatch.setattr(oracle, "_require_normalized", checked.append)
        rng = np.random.default_rng(2)
        labels, order = schedules(rng, 5, 3)
        oracle.schedule_outcomes(labels, order, rng.random((5, 3)))
        # the prepared batch, then the qubits left after each of the steps
        assert [a.shape for a in checked] == [(5, 64), (5, 16), (5, 4), (5, 1)]


def check_stream(seed, max_pairs, sequences, chunk_rows, draw):
    """A parity check's draws, chunk by chunk, read as the stream contract
    says; `draw(rng, shape)` gives the kernel's own draws."""
    rng = session_rng(seed)
    for n in range(1, max_pairs + 1):
        for start in range(0, sequences, chunk_rows(n)):
            rows = min(chunk_rows(n), sequences - start)
            labels, order = schedules(rng, rows, n)
            yield labels, order, draw(rng, (rows, n))


def engine_stream(seed, max_pairs, sequences, chunk):
    return check_stream(seed, max_pairs, sequences, lambda n: max(1, chunk // (2 * n)),
                        lambda rng, shape: rng.integers(4, size=shape, dtype=np.int8))


def oracle_stream(seed, max_pairs, sequences, chunk):
    return check_stream(seed, max_pairs, sequences, lambda n: max(1, chunk >> (2 * n)),
                        lambda rng, shape: rng.random(shape))


def recording(monkeypatch, name):
    """Wrap the kernel crosscheck calls under `name`, recording its inputs."""
    calls = []
    kernel = getattr(crosscheck, name)

    def wrapped(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(crosscheck, name, wrapped)
    return calls


def assert_same_draws(calls, stream):
    stream = list(stream)
    assert len(calls) == len(stream)
    for got, want in zip(calls, stream):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


# 24 values give chunks of 12, 6 and 4 schedules at n = 1, 2, 3, so 11 to
# 13 schedules cross a chunk boundary at every n
@pytest.mark.parametrize("chunk", [24, CHUNK])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_engine_check_chunks(monkeypatch, chunk, offset):
    monkeypatch.setattr(crosscheck, "CHUNK", chunk)
    sequences = chunk // 2 + offset
    calls = recording(monkeypatch, "engine_schedule_outcomes")
    result = check_parity_conservation_engine(max_pairs=3, sequences=sequences, seed=9)
    assert result == CheckResult(
        "parity-conservation-engine",
        True,
        f"{3 * sequences} random maximal schedules up to 3 pairs, exact",
    )
    assert_same_draws(calls, engine_stream(9, 3, sequences, chunk))
    for labels, order, swap in calls:
        outcomes, _ = bell.schedule_outcomes(labels, order, swap)
        assert outcomes.tolist() == matching_outcomes(labels, order, swap).tolist()


# a budget of 64 gives chunks of 16, 4 and 1 schedules at n = 1, 2, 3; 2048
# and 4096 are the stream layouts of the earlier, smaller batches
@pytest.mark.parametrize("chunk", [64, 2048, 4096, CHUNK])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_oracle_check_chunks(monkeypatch, chunk, offset):
    monkeypatch.setattr(crosscheck, "CHUNK", chunk)
    max_pairs = 3 if chunk == 64 else 1
    sequences = (chunk >> 2) + offset
    calls = recording(monkeypatch, "oracle_schedule_outcomes")
    result = check_parity_conservation_oracle(max_pairs=max_pairs, sequences=sequences, seed=9)
    assert result == CheckResult(
        "parity-conservation-oracle",
        True,
        f"{max_pairs * sequences} random maximal schedules up to {max_pairs} pairs, "
        "exact per branch",
    )
    assert_same_draws(calls, oracle_stream(9, max_pairs, sequences, chunk))
    for labels, order, uniforms in calls:
        outcomes, _ = oracle.schedule_outcomes(labels, order, uniforms)
        assert outcomes.tolist() == collapse_outcomes(labels, order, uniforms)[0].tolist()


def test_verify_defaults_kernel_traffic(monkeypatch):
    # rows per kernel call under `qct verify`'s defaults: the one budget
    # gives each check the layout the separate chunk sizes gave it
    engine, statevector, sampled = (
        recording(monkeypatch, name)
        for name in ("engine_schedule_outcomes", "oracle_schedule_outcomes", "bell_sample")
    )
    assert all(result.passed for result in crosscheck.run_all())
    assert [len(labels) for labels, _, _ in engine] == [1000] * 4
    # the residual check's one call of 64 forced swaps, then the parity check
    assert [len(labels) for labels, _, _ in statevector] == (
        [64, 250, 250, 128, 122] + [32] * 7 + [26])
    assert [size for _, _, size in sampled] == [8192] * 12 + [1696]


class TestNegativeControls:
    # a flip by 3 keeps every parity, so only the per-step invariant sees it
    @pytest.mark.parametrize("flip", [1, 2, 3])
    def test_wrong_residual_breaks_the_engine_check(self, monkeypatch, flip):
        monkeypatch.setattr(bell, "residual", lambda b1, b2, outcome: b1 ^ b2 ^ outcome ^ flip)
        result = check_parity_conservation_engine(max_pairs=3, sequences=50)
        # n = 1 has no swaps, so the first broken schedule has two pairs
        assert result == CheckResult("parity-conservation-engine", False, "invariant broke at n=2")

    @pytest.mark.parametrize("flip", [1, 2, 3])
    def test_wrong_shared_swap_rule_breaks_verify_and_the_sessions(self, monkeypatch, flip):
        # the check and the session driver call the one rule, not a copy
        assert crosscheck.residual is bell.residual
        assert protocol.residual is bell.residual
        # a reflect session at N = 3 whose return order holds a 2-cycle (a b):
        # index a swaps, and index b closes the cycle on the label it left
        config, strategy = protocol.SessionConfig(3), protocol.Strategy.reflect()
        for seed in range(100):
            want = protocol.run_session(config, strategy, trial_rng(seed, 0)).transcript
            arrived = [p.index // 2 + 1 for p in want.messages[1].particles]
            cycles = protocol.cycle_structure(arrived)
            if any(len(c) == 2 for c in cycles):
                break

        def wrong(b1, b2, outcome):
            return b1 ^ b2 ^ outcome ^ flip

        for module in (bell, crosscheck, protocol):
            monkeypatch.setattr(module, "residual", wrong)
        result = check_residual_rule()
        assert not result.passed
        assert result.detail.startswith("64 mismatches: ")
        got = protocol.run_session(config, strategy, trial_rng(seed, 0)).transcript
        shifted = [0] * 3
        for cycle in cycles:  # each of a cycle's swaps shifts the label it leaves
            shifted[max(cycle) - 1] = flip * ((len(cycle) - 1) % 2)
        assert any(shifted)
        assert [int(o) for o in got.alice_outcomes] == [
            int(o) ^ s for o, s in zip(want.alice_outcomes, shifted)]

    def test_wrong_outcome_mapping_breaks_the_oracle_check(self, monkeypatch):
        kernel = crosscheck.oracle_schedule_outcomes

        def psi_swapped(*args):  # reports Psi+ as Psi- and back
            outcomes, amps = kernel(*args)
            return outcomes ^ (outcomes >> 1), amps

        monkeypatch.setattr(crosscheck, "oracle_schedule_outcomes", psi_swapped)
        result = check_parity_conservation_oracle(max_pairs=3, sequences=50)
        # at n = 1 the outcome is the label: the first Psi label fails
        labels = next(oracle_stream(20_26, 1, 50, CHUNK))[0][:, 0]
        first = BellLabel(int(labels[labels >= 2][0]))
        assert result == CheckResult(
            "parity-conservation-oracle", False, f"parity mismatch at n=1: [{first!r}]"
        )


def traced_peak(call):
    """The call's result and the peak of traced allocations during it."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_check_memory_bounded_at_sixteen_qubits():
    # one 16-qubit state is 1 MiB of amplitudes; a batch of the 250 oracle
    # schedules the CLI's default --sequences 1000 gives would need ~250 MB
    result, peak = traced_peak(lambda: check_parity_conservation_oracle(max_pairs=8, sequences=2))
    assert result.passed
    assert peak < 8 * 2**20


def test_verify_at_its_defaults_stays_below_one_mib():
    results, peak = traced_peak(crosscheck.run_all)
    assert all(r.passed for r in results)
    assert peak < 2**20


def test_engine_check_memory_flat_in_schedules():
    _, small = traced_peak(lambda: check_parity_conservation_engine(sequences=1_000))
    _, large = traced_peak(lambda: check_parity_conservation_engine(sequences=100_000))
    assert large <= 2 * small
