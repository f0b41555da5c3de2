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
"""

from __future__ import annotations

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
        np.random.Philox(key=seed & _MASK64, counter=[0, 0, 0, trial_index])
    )


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Stream for trials BLOCK_TRIALS * block_index onwards under `seed`."""
    return np.random.Generator(
        np.random.Philox(key=seed & _MASK64, counter=[0, 0, 1, block_index])
    )
