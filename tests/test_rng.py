import numpy as np
import pytest

from infmax import rng
from stream_reference import TILE, block_bits, reference_uniforms


def test_streams_are_pure_functions_of_key():
    a = rng.uniforms(7, rng.STREAM_EDGES, 3, 16)
    b = rng.uniforms(7, rng.STREAM_EDGES, 3, 16)
    assert np.array_equal(a, b)


def test_streams_differ_across_ids_and_indices():
    base = rng.uniforms(7, rng.STREAM_EDGES, 3, 16)
    assert not np.array_equal(base, rng.uniforms(8, rng.STREAM_EDGES, 3, 16))
    assert not np.array_equal(base, rng.uniforms(7, rng.STREAM_NODES, 3, 16))
    assert not np.array_equal(base, rng.uniforms(7, rng.STREAM_EDGES, 4, 16))


def test_block_rows_are_consecutive_words_of_one_pcg64_stream():
    # Within a tile, each unit's rows are consecutive draws of the stream,
    # and the units follow one another a tile apart.
    whole = rng.block_uniforms(7, rng.STREAM_EDGES, 0, 6, 5)
    assert whole.shape == (6, 5)
    assert np.array_equal(rng.block_uniforms(7, rng.STREAM_EDGES, 2, 3, 5), whole[2:5])
    bits = block_bits(7, rng.STREAM_EDGES)
    draws = np.random.Generator(bits).random(4 * TILE + 6)
    for unit in range(5):
        assert np.array_equal(draws[unit * TILE:unit * TILE + 6], whole[:, unit])
    assert rng.block_uniforms(7, rng.STREAM_EDGES, 4, 2, 0).shape == (2, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        rng.block_uniforms(7, rng.STREAM_EDGES, -1, 2, 5)


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("start,count", [(0, 1), (1000, 48), (1023, 2), (1, 2113),
                                         (1024, 1024)])
def test_block_uniforms_follow_the_tiles(start, count, width):
    assert rng.TILE_ROWS == TILE
    got = rng.block_uniforms(5, rng.STREAM_UNITS, start, count, width)
    assert np.array_equal(got, reference_uniforms(5, rng.STREAM_UNITS, start, count, width))


def test_width_one_streams_read_draw_i_for_simulation_i():
    # The mixture choice, reverse-search targets and one-unit models read
    # exactly as in stream layout 2.
    draws = np.random.Generator(block_bits(3, rng.STREAM_MIXTURE)).random(3000)
    assert np.array_equal(rng.block_uniforms(3, rng.STREAM_MIXTURE, 900, 2100, 1)[:, 0],
                          draws[900:])


def test_block_streams_differ_across_ids():
    base = rng.block_uniforms(7, rng.STREAM_EDGES, 0, 2, 8)
    assert not np.array_equal(base, rng.block_uniforms(8, rng.STREAM_EDGES, 0, 2, 8))
    assert not np.array_equal(base, rng.block_uniforms(7, rng.STREAM_NODES, 0, 2, 8))


def test_derive_seed_keys_stay_below_block_prefix():
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="keys"):
            rng.derive_seed(1, 2, bad)


def test_derive_seed_is_stable_and_key_sensitive():
    assert rng.derive_seed(1, 2, 3) == rng.derive_seed(1, 2, 3)
    assert rng.derive_seed(1, 2, 3) != rng.derive_seed(1, 2, 4)
    assert 0 <= rng.derive_seed(1, 2, 3) <= rng.MAX_MASTER_SEED


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "x", True])
def test_master_seed_validation(bad):
    with pytest.raises(ValueError):
        rng.check_master_seed(bad)
