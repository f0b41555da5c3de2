"""Deterministic random streams.

A 64-bit master seed fans out into independent streams through a
counter-based generator (Philox) keyed by the master seed; only the two
highest counter words differ between streams:

* `trial_rng(seed, i)` - one stream per trial, counter words (2, 3) set to
  (0, i). The per-session drivers (the fake-sequence Monte Carlo and any
  caller replaying one session) use it, so such a trial is reproducible in
  isolation from (seed, trial_index) alone.
* `block_rng(seed, b)` - one stream per block of BLOCK_TRIALS trials,
  counter words (2, 3) set to (1, b). The batched reflect kernel draws a
  whole block from it at once, always BLOCK_TRIALS rows, whatever the trial
  count. Trial i therefore lives in row i % BLOCK_TRIALS of block
  i // BLOCK_TRIALS and is reproduced by regenerating that block, and a
  T-trial run is a prefix of every longer run with the same seed.

The two families never share a counter range, so block b and trial b of one
seed are unrelated streams. Results depend neither on how trials are
batched nor on their order.

Within a stream, one `rng.integers(4, size=k)` call consumes the same words
as k successive `rng.integers(4)` calls and returns the same labels, so the
session drivers may draw a run of labels either way without moving a stream.

Both families build their Philox generator from a seed sequence that hands
over the key words [seed & MASK64, 0] unchanged, where `Philox(key=...)`
would first seed, and then discard, a `SeedSequence` from OS entropy (about
two thirds of a stream's construction cost). The generator's state, and so
every word a stream yields, is that of `Philox(key=seed & MASK64,
counter=...)`. The seed-sequence class is built on the first stream, so
`import qct` does not load `numpy.random`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["BLOCK_TRIALS", "block_rng", "session_rng", "trial_rng"]

_MASK64 = (1 << 64) - 1

# Trials per block stream; a 1000-trial run draws a single block.
BLOCK_TRIALS = 1024


def session_rng(seed: int) -> np.random.Generator:
    """Stream for a single session / one-shot command."""
    return np.random.default_rng(seed & _MASK64)


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent stream for trial `trial_index` under `seed`."""
    return np.random.Generator(
        np.random.Philox(_key_words()(seed & _MASK64), counter=[0, 0, 0, trial_index])
    )


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Stream for trials BLOCK_TRIALS * block_index onwards under `seed`."""
    return np.random.Generator(
        np.random.Philox(_key_words()(seed & _MASK64), counter=[0, 0, 1, block_index])
    )


@lru_cache(maxsize=None)
def _key_words() -> type:
    """The seed-sequence class that hands Philox its key as given."""
    from numpy.random.bit_generator import ISeedSequence

    class KeyWords(ISeedSequence):
        """A 64-bit Philox key, as the key words [key, 0]."""

        def __init__(self, key: int) -> None:
            self.key = key

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # Philox asks for its two 64-bit key words; anything else means
            # numpy seeds it differently and the streams would move.
            if n_words != 2 or dtype is not np.uint64:
                raise TypeError(
                    f"Philox key words must be 2 x uint64, not {n_words} x {dtype!r}")
            return np.array([self.key, 0], dtype=np.uint64)

    return KeyWords
