"""Deterministic substreams on top of the Philox counter-based generator.

Every source of randomness in the package draws from Philox-4x64-10 keyed
by (seed, stream id), so streams are independent, reproducible across
platforms, and insensitive to how many other streams exist.  Philox is
counter-based: a stream is only its key, and it starts at counter 0.  So
`substreams` builds one bit generator and re-keys it for each stream,
instead of paying a fresh construction (and its discarded OS-entropy seed
sequence) per stream; `substream` is its one-stream case.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

_MASK64 = (1 << 64) - 1

# reserved stream ids, far above any plausible column index
LABEL_TRAIN_STREAM = 1 << 62
LABEL_TEST_STREAM = (1 << 62) + 1
FOLD_STREAM = (1 << 62) + 2
SUBSAMPLE_STREAM = (1 << 62) + 3


def substreams(seed: int, streams: Iterable[int]) -> Iterator[np.random.Generator]:
    """The Generator of each (seed, stream) Philox substream in turn.

    One Generator is re-keyed and yielded for every stream, so each is valid
    only until the next one is yielded.  Re-keying restores the state that
    `Philox(key=...)` starts in: counter 0, an empty buffer and no cached
    32-bit half.
    """
    bits = np.random.Philox(key=np.array([seed & _MASK64, 0], dtype=np.uint64))
    rng = np.random.Generator(bits)
    start = bits.state
    for stream in streams:
        start["state"]["key"][1] = stream & _MASK64
        bits.state = start
        yield rng


def substream(seed: int, stream: int) -> np.random.Generator:
    """Generator for the (seed, stream) Philox substream."""
    return next(substreams(seed, (stream,)))
