"""Seeded PCG64 streams in array passes, bit-identical to numpy's own.

numpy builds a seeded stream as PCG64(SeedSequence(key)): a hash of the key
into a pool of four words, eight words drawn from the pool, and PCG64's
seeding step.  Done once per stream, that costs more than the draws a
campaign reads from most of its pair streams, of which a classify call
seeds hundreds.  This module does the same work for many keys at once; it
serves the pair streams only (an estimator that seeds one stream at a time
leaves it to numpy's default_rng):

    pcg64_states(keys)       the (state, inc) of PCG64(SeedSequence(key))
                             for each key;
    uniform_block(...)       what Generator.uniform(low, high, (rows, n))
                             draws from each of many states, and the state
                             after the draws;
    generator(), position()  a Generator moved to a given state, for draws
                             such as normals that only numpy's code makes.

A 128-bit value is passed as a (k, 2) uint64 array of [high, low] limbs
and computed on as a (high, low) pair of uint64 arrays; every operation
wraps modulo 2**128, as PCG64's arithmetic does.  The tests pin all three
against numpy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# SeedSequence's hash (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SHIFT = 16
_POOL = 4
# PCG64's 128-bit multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# Stream states that uniform_block computes per pass: its uint64 temporaries
# stay near a dozen arrays of this many words, however many streams it draws.
_PASS_STATES = 1 << 16


def _limbs(values) -> tuple[np.ndarray, np.ndarray]:
    """128-bit Python ints as (high, low) uint64 arrays."""
    return (np.array([v >> 64 & _M64 for v in values], dtype=np.uint64),
            np.array([v & _M64 for v in values], dtype=np.uint64))


def _mul(a, b):
    """a * b modulo 2**128 for (high, low) limb pairs."""
    (ah, al), (bh, bl) = a, b
    a0, a1, b0, b1 = al & _M32, al >> 32, bl & _M32, bl >> 32
    # The high 64 bits of al * bl, from the four products of the halves.
    t = a1 * b0 + (a0 * b0 >> 32)
    carried = a1 * b1 + (t >> 32) + ((t & _M32) + a0 * b1 >> 32)
    return carried + al * bh + ah * bl, al * bl


def _add(a, b):
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo


def to_ints(limbs: np.ndarray) -> list[int]:
    """A (k, 2) limb array as k Python ints."""
    return [h << 64 | l for h, l in limbs.tolist()]


def _consts(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's running hash constant: init, init*mult, ... (mod
    2**32), count + 1 of them as a (count + 1, 1) uint32 column."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)[:, None]


def _pool(words: np.ndarray) -> np.ndarray:
    """SeedSequence's mixed pool for each column of an (L, k) uint32 array
    of key words, L >= 4, as a (4, k) array.  Zero words hash as the absent
    words of a shorter key do.

    Each hashmix call takes the next hash constant.  The calls that mix
    one source word into the other pool words all read the same value, so
    they are made at once, one row per call."""
    consts = _consts(_INIT_A, _MULT_A, 16 + _POOL * (len(words) - _POOL))
    used = 0

    def hashmix(v, calls):
        nonlocal used
        v = v ^ consts[used:used + calls]
        v = v * consts[used + 1:used + calls + 1]
        used += calls
        return v ^ v >> _SHIFT

    def mix(x, y):
        r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return r ^ r >> _SHIFT

    pool = hashmix(words[:_POOL], _POOL)
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], _POOL - 1))
    for src in range(_POOL, len(words)):
        pool = mix(pool, hashmix(words[src], _POOL))
    return pool


def _seed_words(pool: np.ndarray) -> np.ndarray:
    """generate_state(4, uint64) of each column of a (4, k) pool, as a
    (4, k) uint64 array."""
    consts = _consts(_INIT_B, _MULT_B, 8)
    v = pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ consts[:8]
    v = v * consts[1:]
    v = (v ^ v >> _SHIFT).astype(np.uint64)
    return v[0::2] | v[1::2] << 32


def pcg64_states(keys) -> tuple[np.ndarray, np.ndarray]:
    """The (state, inc) of PCG64(SeedSequence(key)) for each key, each a
    (k, 2) array of [high, low] limbs.  keys is a (k, m) array-like of ints
    in [0, 2**64).

    As SeedSequence does, each int is split into 32-bit words, one word
    below 2**32 and two from there.  Keys are hashed in groups of equal
    word count; keys of up to four words form one group, zero-padded."""
    keys = np.asarray(keys, dtype=np.uint64)
    k, m = keys.shape
    split = np.stack([keys & _M32, keys >> 32], axis=2).reshape(k, 2 * m)
    kept = split != 0
    kept[:, 0::2] = True
    # Row j of words holds each key's j-th word, zero past its last.
    words = np.zeros((max(2 * m, _POOL), k), np.uint32)
    words[np.cumsum(kept, axis=1)[kept] - 1, np.nonzero(kept)[0]] = split[kept]
    widths = np.maximum(kept.sum(axis=1), _POOL)
    limbs = np.empty((4, k), np.uint64)
    for width in sorted(set(widths.tolist())):
        rows = widths == width
        limbs[:, rows] = _seed_words(_pool(words[:width, rows]))
    # pcg_setseq_128_srandom_r: inc = 2*initseq + 1, then two LCG steps
    # from state 0 with the seed added between them.
    seed, (q_hi, q_lo) = (limbs[0], limbs[1]), (limbs[2], limbs[3])
    inc = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
    state = _add(_mul(_add(inc, seed), _limbs([_PCG_MULT])), inc)
    return np.stack(state, axis=1), np.stack(inc, axis=1)


@lru_cache(maxsize=16)
def _jumps(steps: int):
    """For j = 1..steps, M^j and the sum of M^i over i < j, as read-only
    (high, low) limb pairs: j LCG steps take state s to
    M^j s + (sum M^i) inc."""
    mults, sums = [], []
    mult, total = 1, 0
    for _ in range(steps):
        mult, total = mult * _PCG_MULT & _M128, (total * _PCG_MULT + 1) & _M128
        mults.append(mult)
        sums.append(total)
    out = _limbs(mults), _limbs(sums)
    for limbs in out:
        for a in limbs:
            a.flags.writeable = False
    return out


def uniform_block(states, low, high, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """For each stream of states, as pcg64_states gives them, what
    rng.uniform(low, high, size=(rows, n)) draws on a Generator at its
    state, as a (k, rows, n) array, and the stream's state after the draws
    as a (k, 2) limb array.  low and high have shape (n,)."""
    state, inc = states
    low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
    steps = rows * low.size
    mults, sums = _jumps(steps)
    u, ends = np.empty((len(state), steps)), np.empty((len(state), 2), dtype=np.uint64)
    per = max(1, _PASS_STATES // steps)
    for at in range(0, len(state), per):
        part = slice(at, at + per)
        # Each stream's state after each of its draws, as (streams, steps) limbs.
        hi, lo = _add(_mul(tuple(state[part].T[:, :, None]), mults),
                      _mul(tuple(inc[part].T[:, :, None]), sums))
        # PCG64's XSL-RR output, then a double in [0, 1) from its top 53
        # bits (below 2**53, so exact through int64, which converts faster).
        x, rot = hi ^ lo, hi >> 58
        x = x >> rot | x << (64 - rot & 63)
        u[part] = (x >> 11).view(np.int64).astype(float) * 2.0**-53
        ends[part, 0], ends[part, 1] = hi[:, -1], lo[:, -1]
    return low + (high - low) * u.reshape(len(u), rows, low.size), ends


def generator() -> np.random.Generator:
    """A Generator to position at seeded states; its own seed is never read."""
    return np.random.Generator(np.random.PCG64(0))


def position(rng: np.random.Generator, state: int, inc: int) -> np.random.Generator:
    """rng moved to the PCG64 state (state, inc): its next draws are that
    stream's.  to_ints gives the ints of pcg64_states' limbs."""
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng
