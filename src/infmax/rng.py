"""Keyed random streams, stream layout 2.

Every stochastic draw in this package is a pure function of
``(master_seed, stream_id, position)``.  There are two kinds of stream.

* Simulation draws (edge, node and unit draws, the mixture choice,
  reverse-search targets and marginal edge flips) come from PCG64 block
  streams (:func:`block_stream`, :func:`block_uniforms`).  The stream of
  ``(master_seed, stream_id)`` is a ``PCG64`` seeded by a
  ``SeedSequence`` keyed on both ids under a spawn-key prefix that no
  :func:`derive_seed` child can take.  A row of ``width`` words is one
  simulation: simulation ``i`` reads words ``i * width .. (i + 1) *
  width - 1``, reached in O(1) by ``PCG64.advance``.  So one simulation
  is regenerated in isolation as a block of one row, and a pool splits
  across workers in any order with the same bits.  PCG64 draws a float64
  about twice as fast as Philox.
* Everything else (benchmark instances, generated graphs, sketch ranks)
  comes from Philox counter streams (:func:`stream`, :func:`uniforms`)
  whose 128-bit key packs ``(master_seed, stream_id, index)``.  They are
  unchanged since layout 1, so every generated instance and rank is too.
"""

from __future__ import annotations

import numpy as np

# Stream ids partition the key space by purpose.
STREAM_EDGES = 1        # per-edge live draws (independent-edge models)
STREAM_NODES = 2        # per-node incoming-edge choice (threshold models)
STREAM_UNITS = 3        # per-unit draws of grouped models; a mixture's shared block
STREAM_MIXTURE = 4      # mixture component choice
STREAM_RRS_TARGET = 5   # reverse-search target node choice
STREAM_RRS_EDGES = 6    # reverse-search marginal edge flips
STREAM_RANKS = 7        # sketch rank assignment
STREAM_FAMILY = 8       # benchmark instance generation

# Streams 1-6 are block streams; 7 and 8 are Philox streams.
STREAM_LAYOUT = 2

MAX_MASTER_SEED = 2**64 - 1
_MAX_INDEX = 2**48
_MAX_STREAM = 2**16
# Spawn-key prefix of the block streams: derive_seed keys stay below it.
_BLOCK_KEY = 2**64


def check_master_seed(master_seed) -> int:
    if isinstance(master_seed, bool) or not isinstance(master_seed, (int, np.integer)):
        raise ValueError("master seed must be an integer")
    if not 0 <= master_seed <= MAX_MASTER_SEED:
        raise ValueError("master seed must be in [0, 2**64)")
    return int(master_seed)


def _check_stream_id(stream_id: int) -> int:
    if not 0 <= stream_id < _MAX_STREAM:
        raise ValueError("stream id out of range")
    return int(stream_id)


def stream(master_seed: int, stream_id: int, index: int = 0) -> np.random.Generator:
    """Philox generator keyed by ``(master_seed, stream_id, index)``."""
    master_seed = check_master_seed(master_seed)
    if not 0 <= index < _MAX_INDEX:
        raise ValueError("stream index out of range")
    _check_stream_id(stream_id)
    key = np.empty(2, dtype=np.uint64)
    key[0] = np.uint64(master_seed)
    key[1] = (np.uint64(stream_id) << np.uint64(48)) | np.uint64(index)
    return np.random.Generator(np.random.Philox(key=key))


def uniforms(master_seed: int, stream_id: int, index: int, count: int) -> np.ndarray:
    """Uniform [0, 1) draws; position ``p`` of this vector is reproducible."""
    return stream(master_seed, stream_id, index).random(count)


def block_stream(master_seed: int, stream_id: int, start: int,
                 width: int) -> np.random.Generator:
    """The block stream ``(master_seed, stream_id)`` cut into rows of
    ``width`` uniform [0, 1) draws, positioned at row ``start``: each
    ``random(k * width)`` call reads the next ``k`` rows."""
    master_seed = check_master_seed(master_seed)
    stream_id = _check_stream_id(stream_id)
    start, width = int(start), int(width)
    if min(start, width) < 0:
        raise ValueError("block start and width must be nonnegative")
    bits = np.random.PCG64(np.random.SeedSequence(master_seed,
                                                  spawn_key=(_BLOCK_KEY, stream_id)))
    bits.advance(start * width)
    return np.random.Generator(bits)


def block_uniforms(master_seed: int, stream_id: int, start: int, count: int,
                   width: int) -> np.ndarray:
    """Rows ``start .. start+count-1`` of :func:`block_stream` as a
    ``(count, width)`` array.  Row ``i`` is the same for any ``start`` and
    ``count`` that cover it."""
    if int(count) < 0:
        raise ValueError("block count must be nonnegative")
    draws = block_stream(master_seed, stream_id, start, width)
    return draws.random(int(count) * int(width)).reshape(int(count), int(width))


def derive_seed(master_seed: int, *key: int) -> int:
    """Derive an independent child master seed for a sub-experiment.

    Children with distinct ``key`` tuples are statistically independent
    of each other and of the parent's own streams.  Keys lie in
    ``[0, 2**64)``, below the block streams' spawn-key prefix.
    """
    master_seed = check_master_seed(master_seed)
    key = tuple(int(k) for k in key)
    if not all(0 <= k < _BLOCK_KEY for k in key):
        raise ValueError("derived seed keys must be in [0, 2**64)")
    ss = np.random.SeedSequence(master_seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])
