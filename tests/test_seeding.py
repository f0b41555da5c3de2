"""Stream construction: `trial_rng` and `block_rng` yield the words of the
Philox generator keyed by the masked seed at their counter and refuse any
index outside 0..2**63 - 1, `draw_labels` reads the words numpy's bounded
label draw reads, and importing `qct` leaves `numpy.random` unloaded until
the first stream."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qct.protocol import draw_labels
from qct.seeding import _key_words, block_rng, session_rng, trial_rng
from test_int_path import _state

MASK64 = (1 << 64) - 1
SEEDS = (0, 1, -1, 2**63 - 1, 2**64 - 1, 2**70)
INDICES = (0, 1, 1023, 2**63 - 1)
FAMILIES = {"trial": (trial_rng, 0), "block": (block_rng, 1)}


def _reference(seed: int, word2: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & MASK64, counter=[0, 0, word2, index]))


def _same_state(a: dict, b: dict) -> bool:
    return (a.keys() == b.keys() and a["bit_generator"] == b["bit_generator"]
            and all(np.array_equal(a["state"][k], b["state"][k]) for k in ("key", "counter"))
            and np.array_equal(a["buffer"], b["buffer"])
            and [a[k] for k in ("buffer_pos", "has_uint32", "uinteger")]
            == [b[k] for k in ("buffer_pos", "has_uint32", "uinteger")])


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_streams_equal_the_keyed_philox_reference(family, seed):
    make, word2 = FAMILIES[family]
    for index in INDICES:
        got, want = make(seed, index), _reference(seed, word2, index)
        assert _same_state(got.bit_generator.state, want.bit_generator.state), index
        np.testing.assert_array_equal(got.integers(4, size=64), want.integers(4, size=64))
        assert got.random() == want.random()
        np.testing.assert_array_equal(got.permutation(11), want.permutation(11))
        assert _same_state(got.bit_generator.state, want.bit_generator.state), index


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("index", [-1, 2**63, 2**63 + 1, 2**64 - 1, 2**64])
def test_indices_outside_the_counter_range_are_refused(family, index):
    # above 2**63 numpy reads the counter through float64 and several
    # indices would share one stream; -1 would wrap to 2**64 - 1
    with pytest.raises(ValueError, match="stream index must lie in 0..2\\*\\*63 - 1"):
        FAMILIES[family][0](2026, index)


def test_key_words_refuse_any_other_request():
    words = _key_words()(2**64 - 1)
    np.testing.assert_array_equal(words.generate_state(2, np.uint64),
                                  np.array([2**64 - 1, 0], dtype=np.uint64))
    for n_words, dtype in ((2, np.uint32), (4, np.uint64), (1, np.uint64), (2, np.int64)):
        with pytest.raises(TypeError, match="Philox key words"):
            words.generate_state(n_words, dtype)


# What a stream has drawn before the labels: a count of scalar labels, or a
# permutation's length; odd label counts leave a half-word buffered.
PREFIXES = [("labels", 0), ("labels", 1), ("labels", 2), ("labels", 3),
            ("permutation", 2), ("permutation", 5), ("permutation", 11)]
STREAM_MAKERS = {"trial": lambda seed: trial_rng(seed, 3), "session": session_rng}


@pytest.mark.parametrize("stream", sorted(STREAM_MAKERS))
def test_draw_labels_reads_the_words_of_the_bounded_draw(stream):
    make = STREAM_MAKERS[stream]
    buffered = set()
    for seed in range(40):
        for call, count in PREFIXES:
            for k in (0, 1, 2, 3, 11, 32, 64):
                rng, twin = make(seed), make(seed)
                for r in (rng, twin):
                    if call == "permutation":
                        r.permutation(count)
                    for _ in range(count if call == "labels" else 0):
                        r.integers(4)
                buffered.add(rng.bit_generator.state["has_uint32"])
                assert draw_labels(rng, k) == twin.integers(4, size=k).tolist(), (seed, call, k)
                assert _state(rng) == _state(twin)
                assert rng.random() == twin.random()
                assert rng.integers(4) == twin.integers(4)
                assert rng.permutation(5).tolist() == twin.permutation(5).tolist()
    assert buffered == {0, 1}  # both buffer states came before a draw


def test_import_leaves_numpy_random_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; sys.path.insert(0, %r); import qct; "
            "print('numpy.random' in sys.modules)" % src)
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "False"
