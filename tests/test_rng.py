import numpy as np
import pytest

from infmax import rng
import stream_reference

# Simulation words per statistical test: 2**16 words are 2**22 simulations.
STAT_WORDS = 1 << 16
# Every frequency below is checked at |z| <= 5.
Z_BOUND = 5.0


def test_streams_are_pure_functions_of_key():
    a = rng.uniforms(7, rng.STREAM_EDGES, 3, 16)
    b = rng.uniforms(7, rng.STREAM_EDGES, 3, 16)
    assert np.array_equal(a, b)


def test_streams_differ_across_ids_and_indices():
    base = rng.uniforms(7, rng.STREAM_EDGES, 3, 16)
    assert not np.array_equal(base, rng.uniforms(8, rng.STREAM_EDGES, 3, 16))
    assert not np.array_equal(base, rng.uniforms(7, rng.STREAM_NODES, 3, 16))
    assert not np.array_equal(base, rng.uniforms(7, rng.STREAM_EDGES, 4, 16))


def test_stream_keys_are_the_reference_keys():
    for master_seed, stream_id in ((0, 1), (7, 6), (2**64 - 1, 3)):
        key, gamma = rng.stream_key(master_seed, stream_id)
        assert (key, gamma) == stream_reference.stream_key(master_seed, stream_id)
        assert gamma % 2 == 1
    keys = {rng.stream_key(s, stream_id) for s in (7, 8) for stream_id in range(1, 7)}
    assert len(keys) == 12
    with pytest.raises(ValueError):
        rng.stream_key(-1, 1)
    with pytest.raises(ValueError):
        rng.stream_key(1, 2**16)


THRESHOLDS = [2.0**-1074, 0.1, 0.5, 1.0 - 2.0**-53, 0.3, 2.0**-53, 0.75, 2.0**-1022 * 1.5]


def test_threshold_digits_are_the_binary_expansion():
    x = np.array(THRESHOLDS)
    rounds = rng._rounds(x)
    for i, threshold in enumerate(THRESHOLDS):
        digits = stream_reference.expansion(threshold)
        assert rounds[i] == len(digits)
        got = rng._digits(x[i:i + 1], 0, len(digits) + 8)
        assert set(got[:, 0].tolist()) <= {0, 2**64 - 1}
        assert np.array_equal(got[:, 0] != 0, digits + [0] * 8)
        # A table from any start, past the largest double's exponent too,
        # holds the same rows.
        padded = digits + [0] * 1100
        for start in (1, 63, 100, 1030):
            part = rng._digits(x[i:i + 1], start, 70)
            assert np.array_equal(part[:, 0] != 0, padded[start:start + 70])
    assert max(rounds) < 2**rng.ROUND_BITS


@pytest.mark.parametrize("word", [0, 3, 2**27 - 2])
def test_less_words_match_the_reference(word):
    units = np.array([0, 1, 5, 5, 5, rng.MAX_UNITS - 1, 9, 2])
    undecided = np.random.default_rng(word).integers(0, 2**64, (len(units), 2),
                                                     dtype=np.uint64)
    undecided[:, 0] = ~np.uint64(0)
    got = rng.less_words(11, rng.STREAM_UNITS, units, THRESHOLDS, word, undecided)
    for j in range(2):
        for i, (unit, x) in enumerate(zip(units.tolist(), THRESHOLDS)):
            for b in range(64):
                expect = ((int(undecided[i, j]) >> b) & 1 and stream_reference.less(
                    11, rng.STREAM_UNITS, unit, 64 * (word + j) + b, x))
                assert (int(got[i, j]) >> b) & 1 == expect, (j, i, b)


BATCH_THRESHOLDS = [0.5, 0.25, 0.75, 0.125, 2.0**-1074, 1.0 - 2.0**-53, 0.1]


@pytest.mark.parametrize("rounds", [1, 2, 8])
def test_less_words_batches_match_the_reference(rounds, monkeypatch):
    # With one, two or eight rounds a batch, the whole-grid first batch, the
    # later batches over the cells left, and the digits past the first three
    # batches' rows all run.  Thresholds end before round 8 or run long.
    monkeypatch.setattr(rng, "_ROUNDS", rounds)
    units = np.array([0, 3, 3, 7, 1, 9, rng.MAX_UNITS - 1])
    for word in (0, 2**27 - 4):
        undecided = np.random.default_rng(word).integers(0, 2**64, (units.size, 4),
                                                         dtype=np.uint64)
        undecided[:, 0], undecided[:, 2], undecided[2] = ~np.uint64(0), 0, 0
        got = rng.less_words(11, rng.STREAM_UNITS, units, BATCH_THRESHOLDS, word, undecided)
        assert got.dtype == np.uint64 and got.shape == undecided.shape
        for (i, j), bits in np.ndenumerate(undecided):
            expect = sum(1 << b for b in range(64) if (int(bits) >> b) & 1
                         and stream_reference.less(11, rng.STREAM_UNITS, int(units[i]),
                                                   64 * (word + j) + b,
                                                   BATCH_THRESHOLDS[i]))
            assert int(got[i, j]) == expect, (word, i, j)
    for shape in ((0, 3), (2, 0), (0, 0)):
        got = rng.less_words(11, rng.STREAM_UNITS, units[:shape[0]],
                             BATCH_THRESHOLDS[:shape[0]], 5, np.zeros(shape, dtype=np.uint64))
        assert got.dtype == np.uint64 and got.shape == shape


@pytest.mark.parametrize("rounds", [1, 2, 8])
def test_less_words_on_sparse_masks_match_the_reference(rounds, monkeypatch):
    # One to four undecided bits a word and every fifth word empty, as a
    # reverse search's need leaves them, so the first batch is short; its
    # pieces hold one word of every test.
    monkeypatch.setattr(rng, "_ROUNDS", rounds)
    units = np.array([0, 3, 3, 7, 1, 9, rng.MAX_UNITS - 1])
    monkeypatch.setattr(rng, "_BATCH_CELLS", units.size)
    picks = np.random.default_rng(rounds)
    undecided = np.zeros((units.size, 6), dtype=np.uint64)
    for (i, j), _ in np.ndenumerate(undecided):
        if (i + j) % 5:
            for b in picks.choice(64, picks.integers(1, 5), replace=False).tolist():
                undecided[i, j] |= np.uint64(1 << b)
    for word in (0, 2**27 - 7):
        got = rng.less_words(11, rng.STREAM_UNITS, units, BATCH_THRESHOLDS, word, undecided)
        assert got.dtype == np.uint64 and got.shape == undecided.shape
        for (i, j), bits in np.ndenumerate(undecided):
            expect = sum(1 << b for b in range(64) if (int(bits) >> b) & 1
                         and stream_reference.less(11, rng.STREAM_UNITS, int(units[i]),
                                                   64 * (word + j) + b,
                                                   BATCH_THRESHOLDS[i]))
            assert int(got[i, j]) == expect, (word, i, j)


def test_first_batch_rounds_follow_the_undecided_bits(monkeypatch):
    # Full words and a two-component mixture's rows, 64 and 32 bits a cell,
    # keep 8 rounds; a reverse search's need, about 3.6 bits, takes 5.
    first = []
    hashed = rng._hashed

    def logged_hashed(base, k, rounds, gamma):
        if k == 0:
            first.append(rounds)
        return hashed(base, k, rounds, gamma)

    monkeypatch.setattr(rng, "_hashed", logged_hashed)
    units, x = np.arange(40), np.linspace(0.05, 0.95, 40)
    picks = np.random.default_rng(1)
    sparse = np.zeros((40, 8, 64), dtype=bool)
    sparse.reshape(-1)[picks.choice(sparse.size, 40 * 8 * 36 // 10, replace=False)] = True
    for mask, rounds in ((~np.uint64(0), 8), (np.uint64(0x5555555555555555), 8),
                         (np.packbits(sparse, axis=2, bitorder="little").view("<u8")[..., 0], 5)):
        first.clear()
        rng.less_words(3, rng.STREAM_EDGES, units, x, 0, np.broadcast_to(mask, (40, 8)))
        assert first == [rounds]
    assert rng._first_rounds(64) == rng._first_rounds(32) == 8
    assert rng._first_rounds(3.6) == 5


def test_sim_uniforms_match_the_reference():
    for start in (0, 1000, rng.MAX_SIMULATIONS - 70):
        got = rng.sim_uniforms(5, rng.STREAM_MIXTURE, start, 70)
        expect = [stream_reference.sim_uniform(5, rng.STREAM_MIXTURE, s)
                  for s in range(start, start + 70)]
        assert got.tolist() == expect


def test_words_depend_only_on_their_unit_and_simulation():
    # A test's words are the same alone, beside others, over a shorter or
    # shifted word range and with fewer simulations to decide.
    units = np.array([4, 0, 4, 7, 2])
    x = np.array([0.3, 0.5, 0.9, 1e-3, 0.7])
    ones = np.full((units.size, 8), ~np.uint64(0))
    full = rng.less_words(3, rng.STREAM_NODES, units, x, 10, ones)
    for i in range(units.size):
        alone = rng.less_words(3, rng.STREAM_NODES, units[i:i + 1], x[i:i + 1], 10, ones[:1])
        assert np.array_equal(alone[0], full[i])
    assert np.array_equal(rng.less_words(3, rng.STREAM_NODES, units, x, 12, ones[:, :3]),
                          full[:, 2:5])
    mask = np.random.default_rng(0).integers(0, 2**64, ones.shape, dtype=np.uint64)
    assert np.array_equal(rng.less_words(3, rng.STREAM_NODES, units, x, 10, mask),
                          full & mask)
    # u < lo implies u < hi on the same digits.
    lo = rng.less_words(3, rng.STREAM_NODES, [4], [0.3], 10, ones[:1])
    assert not (lo[0] & ~full[2]).any()


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("start,count", [(0, 1), (1000, 48), (1023, 2), (1, 2113),
                                         (1024, 1024)])
def test_block_uniforms_follow_the_tiles(start, count, width):
    # Each digit of a unit's uniforms in the 64 simulations of a word is one
    # hashed word, so a block of simulations start .. start+count-1 reads
    # whole (unit, word) tiles and keeps the bits of its own simulations.
    x = [0.3, 0.5, 0.7][:width]
    first, stop = start // 64, -(-(start + count) // 64)
    rows = np.zeros(64 * (stop - first), dtype=bool)
    rows[start - 64 * first:start - 64 * first + count] = True
    own = np.packbits(rows, bitorder="little").view("<u8")
    got = rng.less_words(5, rng.STREAM_UNITS, np.arange(width), x, first,
                         np.repeat(own[None, :], width, axis=0))
    bits = np.unpackbits(got.view(np.uint8), axis=1, bitorder="little").T
    expect = np.zeros_like(bits)
    for sim in range(start, start + count):
        for j in range(width):
            expect[sim - 64 * first, j] = stream_reference.less(5, rng.STREAM_UNITS, j, sim, x[j])
    assert np.array_equal(bits, expect)


def test_width_one_streams_read_draw_i_for_simulation_i():
    # The mixture choice and reverse-search targets read one float per
    # simulation, at the simulation's own counter whatever the block.
    whole = rng.sim_uniforms(3, rng.STREAM_MIXTURE, 0, 3000)
    assert np.array_equal(rng.sim_uniforms(3, rng.STREAM_MIXTURE, 900, 2100), whole[900:])
    assert whole[2999] == stream_reference.sim_uniform(3, rng.STREAM_MIXTURE, 2999)


def test_block_streams_differ_across_ids():
    ones = np.full((8, 2), ~np.uint64(0))
    args = (np.arange(8), np.full(8, 0.5), 0, ones)
    base = rng.less_words(7, rng.STREAM_EDGES, *args)
    assert not np.array_equal(base, rng.less_words(8, rng.STREAM_EDGES, *args))
    assert not np.array_equal(base, rng.less_words(7, rng.STREAM_NODES, *args))
    floats = rng.sim_uniforms(7, rng.STREAM_MIXTURE, 0, 16)
    assert not np.array_equal(floats, rng.sim_uniforms(8, rng.STREAM_MIXTURE, 0, 16))
    assert not np.array_equal(floats, rng.sim_uniforms(7, rng.STREAM_RRS_TARGET, 0, 16))


def test_check_range_bounds_the_counter_fields():
    rng.check_range(rng.MAX_UNITS, rng.MAX_SIMULATIONS)
    with pytest.raises(ValueError, match="random units"):
        rng.check_range(rng.MAX_UNITS + 1, 1)
    with pytest.raises(ValueError, match="simulation index"):
        rng.check_range(1, rng.MAX_SIMULATIONS + 1)
    assert rng.MAX_SIMULATIONS == 2**33
    assert rng.UNIT_BITS + rng.WORD_BITS + rng.ROUND_BITS == 64


# -- statistics at fixed seeds ------------------------------------------------

def popcount(words):
    return int(np.bitwise_count(words).sum())


def z_score(hits, trials, p):
    return (hits - trials * p) / np.sqrt(trials * p * (1.0 - p))


def stat_words(stream_id, units, x, master_seed=2024):
    """``(len(units), STAT_WORDS)`` words of ``u < x`` over 2**22 simulations."""
    units = np.asarray(units)
    ones = np.full((units.size, STAT_WORDS), ~np.uint64(0))
    return rng.less_words(master_seed, stream_id, units, np.full(units.size, x), 0, ones)


@pytest.mark.parametrize("x", [0.5, 0.3, 0.75, 2.0**-3])
def test_unit_frequencies(x):
    words = stat_words(rng.STREAM_EDGES, np.arange(8), x)
    trials = 64 * STAT_WORDS
    for j in range(8):
        assert abs(z_score(popcount(words[j]), trials, x)) <= Z_BOUND, j


@pytest.mark.parametrize("x", [0.5, 0.3])
def test_adjacent_pairs_are_independent(x):
    units = np.arange(6)
    words = stat_words(rng.STREAM_UNITS, units, x)
    p = x * x
    trials = 64 * STAT_WORDS
    # Adjacent units, same simulation.
    for j in range(units.size - 1):
        assert abs(z_score(popcount(words[j] & words[j + 1]), trials, p)) <= Z_BOUND
    # Adjacent words, same unit and bit.
    for j in range(units.size):
        pairs = 64 * (STAT_WORDS - 1)
        assert abs(z_score(popcount(words[j, 1:] & words[j, :-1]), pairs, p)) <= Z_BOUND
    # Adjacent simulations within a word.
    pairs = 63 * STAT_WORDS
    for j in range(units.size):
        both = popcount(words[j] & (words[j] >> np.uint64(1)))
        assert abs(z_score(both, pairs, p)) <= Z_BOUND
    # Adjacent streams, same unit and simulation.
    by_stream = [stat_words(s, [0, 1], x) for s in range(1, 7)]
    for a, b in zip(by_stream, by_stream[1:]):
        for j in range(2):
            assert abs(z_score(popcount(a[j] & b[j]), trials, p)) <= Z_BOUND


def test_simulation_floats_are_uniform_and_independent():
    trials = 64 * STAT_WORDS
    u = rng.sim_uniforms(2024, rng.STREAM_RRS_TARGET, 0, trials)
    counts = np.bincount((u * 16).astype(np.int64), minlength=16)
    assert all(abs(z_score(c, trials, 1 / 16)) <= Z_BOUND for c in counts)
    low = u < 0.5
    for lag in (1, 64):
        assert abs(z_score(int((low[lag:] & low[:-lag]).sum()), trials - lag, 0.25)) <= Z_BOUND
    other = rng.sim_uniforms(2024, rng.STREAM_MIXTURE, 0, trials) < 0.5
    assert abs(z_score(int((low & other).sum()), trials, 0.25)) <= Z_BOUND


def test_derive_seed_keys_stay_below_block_prefix():
    # The counter-hash streams take spawn keys under the prefix 2**64.
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
