"""Stream layout 3 written out the long way, for the tests to check against.

A block stream of ``width`` units is one PCG64 stream cut into tiles of
1,024 simulations; within a tile, unit ``j`` of simulation ``t * 1024 + r``
is draw ``(t * width + j) * 1024 + r``.  Each ``(tile, unit)`` run of rows
is read by a fresh generator advanced to its first draw.
"""

import numpy as np

TILE = 1024


def block_bits(master_seed, stream_id):
    """The block stream's PCG64 at draw 0: keyed on both ids under the
    spawn-key prefix 2**64."""
    return np.random.PCG64(np.random.SeedSequence(master_seed,
                                                  spawn_key=(2**64, stream_id)))


def reference_uniforms(master_seed, stream_id, start, count, width):
    """``(count, width)`` uniforms of simulations ``start .. start+count-1``."""
    u = np.empty((count, width))
    for tile in range(start // TILE, (start + count - 1) // TILE + 1 if count else 0):
        first, stop = max(start, tile * TILE), min(start + count, (tile + 1) * TILE)
        for unit in range(width):
            bits = block_bits(master_seed, stream_id)
            bits.advance((tile * width + unit) * TILE + first - tile * TILE)
            u[first - start:stop - start, unit] = np.random.Generator(bits).random(stop - first)
    return u
