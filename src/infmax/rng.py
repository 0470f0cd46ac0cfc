"""Keyed random streams, stream layout 3.

Every stochastic draw in this package is a pure function of
``(master_seed, stream_id, position)``.  There are two kinds of stream.

* Simulation draws (edge, node and unit draws, the mixture choice,
  reverse-search targets and marginal edge flips) come from PCG64 block
  streams (:class:`BlockReader`, :func:`block_uniforms`).  The stream of
  ``(master_seed, stream_id)`` is a ``PCG64`` seeded by a
  ``SeedSequence`` keyed on both ids under a spawn-key prefix that no
  :func:`derive_seed` child can take.  A stream of ``width`` units per
  simulation is cut into tiles of ``TILE_ROWS`` simulations, and a tile
  is unit-major: unit ``j`` of simulation ``t * TILE_ROWS + r`` is draw
  ``(t * width + j) * TILE_ROWS + r`` (:func:`draw_index`), reached in
  O(1) by ``PCG64.advance``.  So a reader draws only the units it needs,
  one call per run of consecutive units and tile; one simulation is
  regenerated in isolation; and a pool splits across workers in any
  order with the same bits.  A width-1 stream reads draw ``i`` for
  simulation ``i``, as in layout 2.  PCG64 draws a float64 about twice as
  fast as Philox.
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
STREAM_LAYOUT = 3
# Simulations per tile of a block stream.
TILE_ROWS = 1024
# A run of units is read as one span, through the skipped rows of its tile,
# when it reads at least this many rows of the tile; fewer rows are read unit
# by unit.  A call costs about as much as 500 draws (2.5 us against 4.5 ns a
# draw on a 2-core Xeon VM).
_SPAN_ROWS = TILE_ROWS // 2

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


def draw_index(width: int, sim: int, unit: int) -> int:
    """Position of unit ``unit`` of simulation ``sim`` in a block stream of
    ``width`` units per simulation."""
    tile, row = divmod(int(sim), TILE_ROWS)
    return (tile * int(width) + int(unit)) * TILE_ROWS + row


def tile_parts(start: int, count: int):
    """``(offset, rows)`` of the parts of simulations ``start ..
    start+count-1`` that each lie in one tile, in order."""
    lo = 0
    while lo < count:
        rows = min(count - lo, TILE_ROWS - (start + lo) % TILE_ROWS)
        yield lo, rows
        lo += rows


class BlockReader:
    """Reads the block stream ``(master_seed, stream_id)`` of ``width``
    units per simulation, at increasing positions."""

    def __init__(self, master_seed: int, stream_id: int, width: int):
        master_seed = check_master_seed(master_seed)
        stream_id = _check_stream_id(stream_id)
        if int(width) < 0:
            raise ValueError("block width must be nonnegative")
        self.width = int(width)
        self._bits = np.random.PCG64(np.random.SeedSequence(
            master_seed, spawn_key=(_BLOCK_KEY, stream_id)))
        self._random = np.random.Generator(self._bits).random
        self._at = 0

    def _read(self, position: int, out: np.ndarray) -> None:
        if position != self._at:
            self._bits.advance(position - self._at)
        self._random(out=out)
        self._at = position + out.size

    def read_units(self, sim: int, rows: int, runs, out: np.ndarray, lead: int = 0) -> None:
        """Uniforms of simulations ``sim .. sim+rows-1``, which lie in one
        tile, into the C-contiguous ``(units, TILE_ROWS)`` array ``out``:
        each run ``(first, count, at)`` puts units ``first .. first+count-1``
        in ``out[at:at + count, lead:lead + rows]``, with ``lead + rows <=
        TILE_ROWS``.  Runs come in increasing unit order.  Other cells of
        those rows may be overwritten."""
        flat = out.reshape(-1)
        for first, count, at in runs:
            position = draw_index(self.width, sim, first)
            at = at * TILE_ROWS + lead
            if count == 1 or rows >= _SPAN_ROWS:
                self._read(position, flat[at:at + (count - 1) * TILE_ROWS + rows])
                continue
            for _ in range(count):
                self._read(position, flat[at:at + rows])
                position += TILE_ROWS
                at += TILE_ROWS


def block_uniforms(master_seed: int, stream_id: int, start: int, count: int,
                   width: int) -> np.ndarray:
    """Simulations ``start .. start+count-1`` of the block stream
    ``(master_seed, stream_id)`` of ``width`` units as a ``(count, width)``
    array.  Row ``i`` is the same for any ``start`` and ``count`` that
    cover it."""
    start, count, width = int(start), int(count), int(width)
    if min(start, count) < 0:
        raise ValueError("block start and count must be nonnegative")
    reader = BlockReader(master_seed, stream_id, width)
    out = np.empty((width, count))
    tile = np.empty((width, TILE_ROWS))
    for lo, rows in tile_parts(start, count):
        reader.read_units(start + lo, rows, [(0, width, 0)] if width else [], tile)
        out[:, lo:lo + rows] = tile[:, :rows]
    return out.T


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
