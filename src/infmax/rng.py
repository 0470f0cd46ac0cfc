"""Keyed random streams, stream layout 4.

Every stochastic draw in this package is a pure function of
``(master_seed, stream_id, position)``.  There are two kinds of stream.

* Simulation draws (edge, node and unit draws, the mixture choice,
  reverse-search targets and marginal edge flips) come from keyed counter
  hashes.  The stream of ``(master_seed, stream_id)`` has a key and an odd
  gamma (:func:`stream_key`) from a ``SeedSequence`` keyed on both ids
  under a spawn-key prefix that no :func:`derive_seed` child can take.
  Its word at counter ``c`` is SplitMix64's finalizer of ``key + c *
  gamma`` (Steele, Lea and Flood, OOPSLA 2014).  A counter packs a
  ``(unit, word, round)`` triple into fields of 26, 27 and 11 bits.  Bit
  ``b`` of the word at ``(unit, w, k)`` is binary digit ``k`` of the
  uniform of that unit in simulation ``64 w + b``, so the uniforms of 64
  simulations are compared against a threshold one digit at a time, and
  about 8 words decide all 64 (:func:`less_words`).  A simulation's
  single float (the mixture choice, a reverse-search target) is the top
  53 bits of the word at ``(0, sim // 64, sim % 64)``
  (:func:`sim_uniforms`).  Every bit depends only on its own unit and
  simulation, so a reader hashes only the units it needs, one simulation
  is regenerated in isolation, and a pool splits across workers in any
  order with the same bits.
* Everything else (benchmark instances, generated graphs, sketch ranks)
  comes from Philox counter streams (:func:`stream`, :func:`uniforms`)
  whose 128-bit key packs ``(master_seed, stream_id, index)``.  They are
  unchanged since layout 1, so every generated instance and rank is too.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Stream ids partition the key space by purpose.
STREAM_EDGES = 1        # per-edge live draws (independent-edge models)
STREAM_NODES = 2        # per-node incoming-edge choice (threshold models)
STREAM_UNITS = 3        # per-unit draws of grouped models; a mixture's shared units
STREAM_MIXTURE = 4      # mixture component choice
STREAM_RRS_TARGET = 5   # reverse-search target node choice
STREAM_RRS_EDGES = 6    # reverse-search marginal edge flips
STREAM_RANKS = 7        # sketch rank assignment
STREAM_FAMILY = 8       # benchmark instance generation

# Streams 1-6 are counter-hash streams; 7 and 8 are Philox streams.
STREAM_LAYOUT = 4
# Counter fields: unit ids, 64-simulation words and digit rounds.  A
# threshold's binary expansion ends by digit 1,073 (at 2**-1074).
UNIT_BITS, WORD_BITS, ROUND_BITS = 26, 27, 11
MAX_UNITS = 1 << UNIT_BITS
MAX_SIMULATIONS = 64 << WORD_BITS

MAX_MASTER_SEED = 2**64 - 1
_MAX_INDEX = 2**48
_MAX_STREAM = 2**16
# Spawn-key prefix of the counter-hash streams: derive_seed keys stay below it.
_HASH_KEY = 2**64
_WORD = 2**64 - 1
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# Digit rounds per batch of less_words.  After 8 rounds about 22% of
# 64-simulation words still hold an undecided simulation, after 16 about 0.1%.
_ROUNDS = 8
# Test x word cells per piece of less_words' first batch, so that its two
# rounds x cells hash arrays stay near 512 kB each.
_BATCH_CELLS = 1 << 13
# The cost of a cell left undecided by less_words' first batch, in rounds of
# that batch over one cell (_first_rounds).  Least-squares fits of the time of
# 8,000-cell calls (400 x 20 and 200 x 40 cells) over first batches of 2 to
# 8 rounds, at 2 to 32 undecided bits a cell, gave 14 and 11 (one core of a
# 2-core Xeon VM, numpy 2.4.6).
_CARRY = 12.0


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


def check_range(units: int, simulations: int) -> None:
    """Raise ``ValueError`` unless ``units`` unit ids and simulation indices
    below ``simulations`` fit the fields of a counter."""
    if units > MAX_UNITS:
        raise ValueError(f"{units} random units exceed the stream layout's {MAX_UNITS}")
    if simulations > MAX_SIMULATIONS:
        raise ValueError(f"simulation index {simulations - 1} exceeds the stream "
                         f"layout's {MAX_SIMULATIONS - 1}")


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


def stream_key(master_seed: int, stream_id: int) -> tuple[int, int]:
    """``(key, gamma)`` of the counter-hash stream ``(master_seed,
    stream_id)``; ``gamma`` is odd."""
    return _stream_key(check_master_seed(master_seed), _check_stream_id(stream_id))


@functools.lru_cache(maxsize=256)
def _stream_key(master_seed: int, stream_id: int) -> tuple[int, int]:
    ss = np.random.SeedSequence(master_seed, spawn_key=(_HASH_KEY, stream_id))
    key, gamma = ss.generate_state(2, np.uint64).tolist()
    return key, gamma | 1


def _mix(z: np.ndarray, scratch: np.ndarray) -> None:
    """SplitMix64's finalizer of the ``uint64`` array ``z``, in place."""
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch


def sim_uniforms(master_seed: int, stream_id: int, start: int, count: int) -> np.ndarray:
    """One uniform in [0, 1) per simulation ``start .. start+count-1``: the
    top 53 bits of the word at ``(unit 0, sim // 64, sim % 64)``."""
    key, gamma = stream_key(master_seed, stream_id)
    sims = np.arange(start, start + count, dtype=np.uint64)
    z = ((sims >> np.uint64(6)) << np.uint64(ROUND_BITS)) | (sims & np.uint64(63))
    z *= np.uint64(gamma)
    z += np.uint64(key)
    _mix(z, sims)
    return (z >> np.uint64(11)) * 2.0**-53


def _rounds(x: np.ndarray) -> np.ndarray:
    """The digit rounds of thresholds ``x`` in (0, 1): one past the index of
    the last 1 of each binary expansion, whose digit ``k`` weighs ``2**-(k +
    1)``."""
    frac, exp = np.frexp(x)
    mant = np.ldexp(frac, 53).astype(np.uint64)
    low = np.bitwise_count((mant & (~mant + np.uint64(1))) - np.uint64(1))
    return 53 - exp.astype(np.int64) - low.astype(np.int64)


def _digits(x: np.ndarray, start: int, count: int) -> np.ndarray:
    """``(count, T)`` rows, all ones in column ``i`` where binary digit
    ``start + r`` of ``x[i]`` in (0, 1) is 1 and zero elsewhere."""
    rows = np.empty((count, x.size), dtype=np.uint64)
    for lo in range(0, count, 64):
        # Digits start + lo .. start + lo + 63 as bits 63 down to 0: the
        # fraction of x * 2**(start + lo), exact, scaled by 2**64.  Where
        # that product passes the largest double, those digits are past the
        # last 1 and the fraction of inf is 0.  From digit 0 it is x.
        frac = x
        if start + lo:
            with np.errstate(over="ignore"):
                frac = np.modf(np.ldexp(x, start + lo))[0]
        block = rows[lo:lo + 64]
        np.left_shift((frac * 2.0**64).astype(np.uint64),
                      np.arange(len(block), dtype=np.uint64)[:, None], out=block)
        np.right_shift(block.view(np.int64), 63, out=block.view(np.int64))
    return rows


def _first_rounds(bits: float) -> int:
    """Rounds of ``less_words``' first batch over cells that hold ``bits``
    undecided simulations each on average: the ``r`` in ``1 .. _ROUNDS``
    of least expected cost ``r + _CARRY * (1 - (1 - 2**-r)**bits)``, the
    first batch's rounds plus the cells it leaves undecided, each a
    simulation undecided after ``r`` rounds with probability ``2**-r``."""
    return min(range(1, _ROUNDS + 1),
               key=lambda r: r - _CARRY * math.expm1(bits * math.log1p(-2.0**-r)))


def _hashed(base: np.ndarray, k: int, rounds: int, gamma: int):
    """``(h, scratch)``: the hashed words of rounds ``k .. k + rounds -
    1``, a round per row, of the cells whose round-0 counters ``c`` give
    ``base = key + c * gamma``, and a scratch array of their shape."""
    h, scratch = np.empty((2, rounds) + base.shape, dtype=np.uint64)
    steps = np.arange(k, k + rounds, dtype=np.uint64) * np.uint64(gamma)
    np.add(base, steps.reshape((-1,) + (1,) * base.ndim), out=h)
    _mix(h, scratch)
    return h, scratch


def _first_less(h: np.ndarray, digit: np.ndarray, less: np.ndarray,
                same: np.ndarray) -> None:
    """Write ``less`` and ``same`` of one batch.  ``h`` holds the hashed
    words of the batch's rounds and ``digit`` the threshold's digits (all
    ones or zero), both ``(rounds, ...)``; ``less`` gets the bits that first
    differ in a round where the threshold's digit is 1, and ``same`` those
    that differ in no round.  Both inputs are overwritten."""
    # h becomes the running OR of the differing digits, then the bits where
    # each simulation first differs, which digit keeps where the threshold's
    # digit is 1.
    h ^= digit
    rows = list(h)
    for r in range(1, len(rows)):
        rows[r] |= rows[r - 1]
    np.invert(rows[-1], out=same)
    for r in range(len(rows) - 1, 0, -1):
        rows[r] ^= rows[r - 1]
    digit &= h
    np.bitwise_or.reduce(digit, axis=0, out=less)


def less_words(master_seed: int, stream_id: int, units: np.ndarray, x: np.ndarray,
               word: int, undecided: np.ndarray) -> np.ndarray:
    """Bit-sliced tests ``u < x`` of the stream's uniforms.

    Test ``i`` compares unit ``units[i]``'s uniform ``u`` against ``x[i]``
    in ``(0, 1)``.  ``undecided`` is the ``(T, W)`` ``uint64`` array of the
    simulations to decide, a row per test over words ``word .. word+W-1``.
    Returns ``(T, W)`` words whose bit ``b`` of word ``j`` in row ``i`` is
    ``u < x[i]`` in simulation ``64 (word + j) + b`` where that bit of
    ``undecided`` is set, and 0 elsewhere.

    A simulation is decided at the first round ``k`` where digit ``k`` of
    its ``u`` differs from digit ``k`` of ``x``, with ``u < x`` when that
    digit of ``x`` is 1; those still undecided after the last 1 of ``x``
    have ``u >= x``.  So ``P(u < x) = x`` exactly, and tests of one unit
    against ``lo < hi`` read the same digits: ``u < lo`` implies ``u < hi``.
    Rounds run in batches; a running OR over a batch's differing digits
    marks each simulation's first difference.  The first batch runs over
    the whole ``(T, W)`` grid, in pieces of whole words of at most
    ``_BATCH_CELLS`` cells, each test's digits copied along its row, for
    :func:`_first_rounds` of the undecided bits per nonzero cell: 8 rounds
    for 32 or more, fewer for sparse masks such as a reverse search's.
    Later batches of ``_ROUNDS`` run over the cells of every piece still
    undecided, gathering their tests' digits.  Each test's digits for the
    first three batches are built once per call.  A decided cell carried
    along adds no bit: its ``undecided`` bits are clear, or its threshold
    has no 1 digit left.  No bit depends on the batch lengths or pieces.
    """
    key, gamma = stream_key(master_seed, stream_id)
    undecided = np.asarray(undecided, dtype=np.uint64)
    tests, width = undecided.shape
    nonzero = np.count_nonzero(undecided)
    if not nonzero:
        return np.zeros((tests, width), dtype=np.uint64)
    first = _first_rounds(int(np.bitwise_count(undecided).sum(dtype=np.int64)) / nonzero)
    x = np.asarray(x, dtype=np.float64)
    rounds = _rounds(x)
    words = np.arange(word, word + width, dtype=np.uint64)
    at_unit = (np.asarray(units).astype(np.uint64)
               * np.uint64((gamma << (WORD_BITS + ROUND_BITS)) & _WORD))
    base = ((at_unit + np.uint64(key))[:, None]
            + words * np.uint64((gamma << ROUND_BITS) & _WORD))
    # The digits of the first three batches, a row per round.
    digits = _digits(x, 0, first + 2 * _ROUNDS)
    live, u = np.empty((2, tests, width), dtype=np.uint64)
    piece = max(1, _BATCH_CELLS // max(tests, 1))
    for lo in range(0, width, piece):
        h, digit = _hashed(base[:, lo:lo + piece], 0, first, gamma)
        np.copyto(digit, digits[:first, :, None])
        _first_less(h, digit, live[:, lo:lo + piece], u[:, lo:lo + piece])
        # Freed before the next piece's are made.
        del h, digit
    live &= undecided
    u &= undecided
    held = (u != 0) & (rounds > first)[:, None]
    left = np.count_nonzero(held)
    if not left:
        return live
    # Cut to a multiple of 64 cells, padding with decided ones, so that
    # numpy's cache of small buffers sees few distinct sizes.
    held = held.reshape(-1)
    held[np.flatnonzero(~held)[:-left % 64]] = True
    cells = np.flatnonzero(held)
    base, u, test = base.reshape(-1).take(cells), u.reshape(-1).take(cells), cells // width
    flat = live.reshape(-1)
    k = first
    while True:
        h, digit = _hashed(base, k, _ROUNDS, gamma)
        table = (digits[k:k + _ROUNDS] if k + _ROUNDS <= len(digits)
                 else _digits(x, k, _ROUNDS))
        np.take(table, test, axis=1, out=digit, mode="clip")
        less, same = np.empty((2, cells.size), dtype=np.uint64)
        _first_less(h, digit, less, same)
        flat[cells] |= less & u
        u &= same
        k += _ROUNDS
        held = (u != 0) & (rounds > k).take(test)
        left = np.count_nonzero(held)
        if not left:
            return live
        held[np.flatnonzero(~held)[:-left % 64]] = True
        kept = np.flatnonzero(held)
        cells, base, u, test = (a.take(kept) for a in (cells, base, u, test))


def derive_seed(master_seed: int, *key: int) -> int:
    """Derive an independent child master seed for a sub-experiment.

    Children with distinct ``key`` tuples are statistically independent
    of each other and of the parent's own streams.  Keys lie in
    ``[0, 2**64)``, below the counter-hash streams' spawn-key prefix.
    """
    master_seed = check_master_seed(master_seed)
    key = tuple(int(k) for k in key)
    if not all(0 <= k < _HASH_KEY for k in key):
        raise ValueError("derived seed keys must be in [0, 2**64)")
    ss = np.random.SeedSequence(master_seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])
