"""`qct verify`'s per-chunk numpy expressions against the ones they replaced.

Each expression below was rewritten for speed and must give the bytes of
the form it replaced, which is kept here only: the parity checks' pair
order (`np.sort` of each drawn pair) and XOR fold (`np.bitwise_xor.reduce`
over each row), the outcome rule `oracle._outcomes_of` (Python's `sum` of
its four column comparisons), the flat gather `oracle._gather` (2-D fancy
indexing through a whole uint16 index, `transpose_index` here) and the
count in `oracle._require_normalized` (a bool sum per row). A fault
confined to a schedule's last column must still fail both parity checks.
"""

import tracemalloc

import numpy as np
import pytest

from qct import crosscheck, oracle
from qct.bell import BellLabel
from qct.crosscheck import CHUNK, CheckResult
from qct.oracle import MAX_QUBITS
from qct.seeding import session_rng
from test_parity_kernels import engine_stream, oracle_stream


def sorted_pairs(drawn):
    """The former pair order: each drawn pair sorted."""
    rows, width = drawn.shape
    return np.sort(drawn.reshape(rows, width // 2, 2), axis=2).reshape(rows, width)


def reduce_failures(outcomes, labels):
    """The former failing rows: each row's XOR by reduce."""
    return np.flatnonzero(np.bitwise_xor.reduce(outcomes ^ labels, axis=1))


def sum_rule(probs, uniforms):
    """The former outcome rule: the four comparisons summed by Python."""
    cumulative = np.cumsum(probs, axis=-1)
    point = uniforms * cumulative[..., -1]
    return sum(cumulative[..., j] <= point for j in range(4))


def transpose_index(qubits):
    """The former index: basis indices ``(rows, 2**n)``, uint16, whose row r
    reorders a state's qubits to ``qubits[r]``, built whole as the outer
    sum of `oracle._transpose_halves`."""
    high, low = (half.astype(np.uint16) for half in oracle._transpose_halves(qubits))
    return (high[..., :, None] + low[..., None, :]).reshape(len(qubits), -1)


def fancy_gather(amps, qubits):
    """The former gather: 2-D fancy indexing through the uint16 index, or
    one shared index for one row of qubits."""
    index = transpose_index(qubits)
    if len(qubits) == 1:
        return amps[:, index[0]]
    return amps[np.arange(len(amps))[:, None], index]


def bool_sum_rule(amps):
    """The former normalisation test, with its bool sum per row."""
    units = (amps == 1) | (amps == -1)
    ones = units.sum(axis=-1)
    return bool((ones * ones == amps.shape[-1]).all() and (units | (amps == 0)).all())


def probe_check(max_pairs, sequences, chunk_rows, outcomes_of):
    """`_schedule_check` with a kernel that draws nothing and answers
    ``outcomes_of(labels, order)``; returns the result and each chunk's
    labels and order."""
    seen = []

    def run(rng, labels, order):
        seen.append((labels, order))
        return outcomes_of(labels, order)

    return crosscheck._schedule_check("probe", max_pairs, sequences, 7, chunk_rows, run), seen


def probe_draws(max_pairs, sequences, chunk_rows):
    """The labels and drawn permutations of `probe_check`'s chunks."""
    rng = session_rng(7)
    for n in range(1, max_pairs + 1):
        for start in range(0, sequences, chunk_rows(n)):
            size = min(chunk_rows(n), sequences - start)
            labels = rng.integers(4, size=(size, n), dtype=np.int8)
            yield labels, rng.permuted(np.tile(np.arange(2 * n, dtype=np.int8), (size, 1)), axis=1)


@pytest.mark.parametrize("max_pairs, sequences, chunk_rows", [
    (MAX_QUBITS // 2, 37, lambda n: 16 >> (n // 3)),  # chunks of 16, 8 and 4 rows
    (4, 1000, lambda n: CHUNK // (2 * n)),  # the engine check's defaults
], ids=["boundaries", "defaults"])
def test_pair_order_is_np_sort_of_each_pair(max_pairs, sequences, chunk_rows):
    result, seen = probe_check(max_pairs, sequences, chunk_rows, lambda labels, order: labels)
    assert result is None
    drawn = list(probe_draws(max_pairs, sequences, chunk_rows))
    assert len(seen) == len(drawn)
    for (labels, order), (want_labels, permutation) in zip(seen, drawn):
        assert labels.tobytes() == want_labels.tobytes()
        want = sorted_pairs(permutation)
        assert order.dtype == want.dtype and order.shape == want.shape
        assert order.tobytes() == want.tobytes()


@pytest.mark.parametrize("fault", [1, 2, 3])
@pytest.mark.parametrize("rate", [0.0, 0.002, 0.02, 0.3])
def test_xor_fold_fails_the_rows_reduce_fails(fault, rate):
    # outcomes XOR-ed with `fault` in random cells of any column at n = 1..8;
    # two hits in one row cancel, for the fold as for reduce
    rng = np.random.default_rng(int(100 * rate) + fault)
    answers = []

    def outcomes_of(labels, order):
        outcomes = labels ^ np.where(rng.random(labels.shape) < rate, fault, 0).astype(np.int8)
        answers.append((labels, reduce_failures(outcomes, labels)))
        return outcomes

    result, _ = probe_check(MAX_QUBITS // 2, 40, lambda n: 16, outcomes_of)
    failing = [(labels, failed) for labels, failed in answers if failed.size]
    if not failing:
        assert result is None
        return
    # the check stops at the first chunk with a failure, naming its first row
    labels, failed = failing[0]
    assert answers[-1][0] is labels
    row = [BellLabel(int(x)) for x in labels[failed[0]]]
    assert result == CheckResult("probe", False, f"XOR mismatch at n={labels.shape[1]}: {row}")


def first_labels_at(stream, n):
    """The labels of a parity check stream's first schedule of n pairs."""
    for labels, _, _ in stream:
        if labels.shape[1] == n:
            return [BellLabel(int(x)) for x in labels[0]]
    raise AssertionError(f"no schedules of {n} pairs")


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("fault", [1, 3])
@pytest.mark.parametrize("name, kernel, stream", [
    ("parity-conservation-engine", "engine_schedule_outcomes", engine_stream),
    ("parity-conservation-oracle", "oracle_schedule_outcomes", oracle_stream),
], ids=["engine", "oracle"])
def test_a_fault_in_the_last_column_fails_the_parity_checks(
        monkeypatch, name, kernel, stream, fault, n):
    # the last outcome of every schedule of n pairs XOR-ed with `fault`: 3
    # keeps the parity, so only the full label XOR sees it, and a fold that
    # stopped a column short would see neither
    original = getattr(crosscheck, kernel)

    def faulty(labels, order, draws):
        result = original(labels, order, draws)
        outcomes = result[0] if isinstance(result, tuple) else result
        if labels.shape[1] == n:
            outcomes[:, -1] ^= fault
        return result

    monkeypatch.setattr(crosscheck, kernel, faulty)
    check = {"engine_schedule_outcomes": crosscheck.check_parity_conservation_engine,
             "oracle_schedule_outcomes": crosscheck.check_parity_conservation_oracle}[kernel]
    want = first_labels_at(stream(20_26, 4, 60, CHUNK), n)
    assert check(max_pairs=4, sequences=60) == CheckResult(
        name, False, f"XOR mismatch at n={n}: {want}")


def outcome_cases():
    """Random distributions and exact ones with zero branches, and a
    generator for the uniforms."""
    rng = np.random.default_rng(58)
    spread = rng.random((40, 4)) ** 3
    exact = [[0.25] * 4, [0.5, 0.0, 0.5, 0.0], [0.0, 0.25, 0.0, 0.75], [0.0, 0.0, 0.0, 1.0],
             [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
    return np.concatenate([spread / spread.sum(axis=1, keepdims=True), exact]), rng


EDGE = np.nextafter(1.0, 0.0)


def test_outcome_rule_equals_the_sum_rule_on_one_uniform():
    # a 0-d call, as `bell_measure_collapse` makes it: u = 0, just below 1,
    # random, and exactly on each branch's upper edge
    probs, rng = outcome_cases()
    for p in probs:
        cumulative = np.cumsum(p)
        for u in [0.0, EDGE, *rng.random(5), *np.minimum(cumulative[:3] / cumulative[-1], EDGE)]:
            got = oracle._outcomes_of(p, u)
            assert np.ndim(got) == 0 and got.dtype == np.int8
            assert int(got) == int(sum_rule(p, u))
            assert p[int(got)] > 0


def test_outcome_rule_equals_the_sum_rule_against_a_chunk_of_uniforms():
    # one distribution against 8192 uniforms, as `bell_sample` draws a chunk
    probs, rng = outcome_cases()
    uniforms = rng.random(CHUNK)
    uniforms[:64], uniforms[64:128] = 0.0, EDGE
    for p in probs:
        got = oracle._outcomes_of(p, uniforms)
        assert got.shape == (CHUNK,) and got.dtype == np.int8
        assert np.array_equal(got, sum_rule(p, uniforms))
        assert (p[got] > 0).all()


@pytest.mark.parametrize("rows", [1, 7, 250, CHUNK])
def test_outcome_rule_equals_the_sum_rule_row_by_row(rows):
    # a (rows, 4) batch against a uniform per row, as a schedule step calls it
    probs, rng = outcome_cases()
    batch = probs[rng.integers(len(probs), size=rows)]
    for uniforms in (np.zeros(rows), np.full(rows, EDGE), rng.random(rows)):
        got = oracle._outcomes_of(batch, uniforms)
        assert got.shape == (rows,) and got.dtype == np.int8
        assert np.array_equal(got, sum_rule(batch, uniforms))
        assert (batch[np.arange(rows), got] > 0).all()


def batch_sizes(qubits):
    """Row counts whose flat size crosses the gather's blocks of indices:
    fewer rows than a block holds, a block's worth and one more, two and
    one more; from 14 qubits on, one row spans several blocks."""
    per_block = max(1, oracle._GATHER_SIZE >> qubits)
    return sorted({1, 2, 3, per_block - 1, per_block, per_block + 1, 2 * per_block + 1} - {0})


@pytest.mark.parametrize("pairs", range(1, MAX_QUBITS // 2 + 1))
def test_flat_gather_equals_fancy_indexing(pairs):
    qubits = 2 * pairs
    rng = np.random.default_rng(pairs)
    for rows in batch_sizes(qubits):
        labels = rng.integers(4, size=(rows, pairs), dtype=np.int8)
        perms = rng.permuted(np.tile(np.arange(qubits, dtype=np.int8), (rows, 1)), axis=1)
        for bell in (oracle._BELL_MATRIX.astype(np.int8), oracle._BELL_MATRIX):
            amps = oracle._pair_products(labels, bell)
            for order in (perms, perms[:1]):  # a row each, and one row all rows share
                got, want = oracle._gather(amps, order), fancy_gather(amps, order)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_flat_gather_holds_one_block_of_indices():
    # one 16-qubit row is 8 blocks, whose whole index would take 512 KiB
    # as intp: the peak is the output, the block of indices and the two
    # block-sized buffers numpy's broadcasting add fills (262 KiB measured,
    # CPython 3.11, numpy 2.4)
    signs = oracle._BELL_MATRIX.astype(np.int8)
    amps = oracle._pair_products(np.zeros((1, 8), dtype=np.int8), signs)
    order = np.arange(16)[::-1][None, :]
    oracle._gather(amps, order)
    tracemalloc.start()
    try:
        oracle._gather(amps, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < amps.nbytes + 3 * 8 * oracle._GATHER_SIZE + 32 * 2**10


@pytest.mark.parametrize("pairs", [1, 2, 3])
def test_one_shared_schedule_row_equals_it_repeated(pairs):
    rng = np.random.default_rng(40 + pairs)
    labels = rng.integers(4, size=(30, pairs), dtype=np.int8)
    uniforms = rng.random((30, pairs))
    for steps in range(pairs + 1):
        order = rng.permutation(2 * pairs)[None, : 2 * steps]
        shared = oracle.schedule_outcomes(labels, order, uniforms)
        repeated = oracle.schedule_outcomes(labels, np.repeat(order, 30, axis=0), uniforms)
        for got, want in zip(shared, repeated):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # two rows of schedules for thirty rows of labels are neither
    with pytest.raises(ValueError, match="disagree in shape"):
        oracle.schedule_outcomes(labels, np.array([[0, 1], [1, 0]]), uniforms)


def normalized(amps):
    try:
        oracle._require_normalized(amps)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("qubits", [2, 4, 8, 16])
def test_normalisation_count_equals_the_bool_sum(qubits):
    rng = np.random.default_rng(qubits)
    size = 2**qubits
    rows = max(1, 4096 // size)
    good = oracle._pair_products(rng.integers(4, size=(rows, qubits // 2)), oracle._BELL_MATRIX)
    cases = [good, good.astype(np.int8), np.zeros((1, size)), np.ones((1, size)),
             np.ones((3, size), dtype=np.int8)]
    for value in (0.0, 1.0, -1.0, 0.5, 2.0):  # an entry moved, dropped, added or wrong
        for amps in (good.copy(), good.astype(np.int8)):
            amps[rng.integers(rows), rng.integers(size)] = value
            cases.append(amps)
    for amps in cases:
        assert normalized(amps) == bool_sum_rule(amps)
    assert normalized(good) and not normalized(cases[3])
