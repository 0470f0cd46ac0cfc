"""Stream layout 4 written out the long way in plain Python ints, for the
tests to check against.

The stream ``(master_seed, stream_id)`` has a key and an odd gamma from a
``SeedSequence`` under the spawn-key prefix 2**64.  Its word at counter
``c`` is SplitMix64's finalizer of ``key + c * gamma`` mod 2**64, and a
counter packs ``(unit, word, round)`` as ``unit << 38 | word << 11 |
round``.  Bit ``sim % 64`` of the word at ``(unit, sim // 64, k)`` is digit
``k`` of the unit's uniform in simulation ``sim``.
"""

import functools

import numpy as np

MASK = 2**64 - 1


@functools.cache
def stream_key(master_seed, stream_id):
    key, gamma = np.random.SeedSequence(master_seed, spawn_key=(2**64, stream_id)) \
        .generate_state(2, np.uint64).tolist()
    return key, gamma | 1


def mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def hashed_word(master_seed, stream_id, unit, word, k):
    key, gamma = stream_key(master_seed, stream_id)
    return mix64((key + ((unit << 38) | (word << 11) | k) * gamma) & MASK)


def digit(master_seed, stream_id, unit, sim, k):
    """Digit ``k`` (weight ``2**-(k + 1)``) of the unit's uniform in ``sim``."""
    return (hashed_word(master_seed, stream_id, unit, sim // 64, k) >> (sim % 64)) & 1


def less(master_seed, stream_id, unit, sim, x):
    """``u < x`` for the unit's uniform ``u`` in simulation ``sim``, digit by
    digit against the exact binary expansion of the float ``x``: ``u``
    decides at its first digit that differs, and is not below ``x`` when it
    matches every digit up to the last 1 of ``x``."""
    if x >= 1.0:
        return True
    for k, x_digit in enumerate(expansion(x) if x > 0.0 else []):
        u_digit = digit(master_seed, stream_id, unit, sim, k)
        if u_digit != x_digit:
            return u_digit < x_digit
    return False


def sim_uniform(master_seed, stream_id, sim):
    """A simulation's single float: the top 53 bits of the word at
    ``(0, sim // 64, sim % 64)``."""
    return (hashed_word(master_seed, stream_id, 0, sim // 64, sim % 64) >> 11) * 2.0**-53


@functools.cache
def expansion(x):
    """Binary digits of the float ``x`` in (0, 1) up to its last 1."""
    num, den = float(x).as_integer_ratio()
    digits = []
    while num:
        num *= 2
        digits.append(int(num >= den))
        num -= digits[-1] * den
    return digits
