"""The array-pass PCG64 seeding and uniform block kernel against numpy.

Every seeded stream of a campaign goes through gencvx._pcg, and the report
digests rest on its draws being numpy's own.  A numpy release that changed
SeedSequence, PCG64 or Generator.uniform fails here, instead of silently
moving the digests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencvx import _pcg
from gencvx._pcg import generator, pcg64_states, position, to_ints, uniform_block

_EDGES = (0, 2**32 - 1, 2**32, 2**64 - 1)
_WORDS = st.one_of(st.sampled_from(_EDGES), st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1))


def _numpy_state(key) -> dict:
    return np.random.PCG64(np.random.SeedSequence(key)).state


def _assert_seeded_as_numpy(keys):
    state, inc = pcg64_states(keys)
    assert state.shape == inc.shape == (len(keys), 2)
    rng = generator()
    for key, s, c in zip(keys, to_ints(state), to_ints(inc)):
        assert position(rng, s, c).bit_generator.state == _numpy_state(key), key


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda m: st.lists(st.tuples(*[_WORDS] * m), min_size=1, max_size=6)))
def test_seeding_equals_seed_sequence(keys):
    # Keys of one to ten 32-bit words in one call: those of up to four
    # words are hashed together, zero-padded, the longer ones per length.
    _assert_seeded_as_numpy(keys)


def test_seeding_edge_keys():
    _assert_seeded_as_numpy([(0,), (2**32 - 1,), (2**32,), (2**64 - 1,)])
    _assert_seeded_as_numpy([(2**64 - 1,) * 5, (0,) * 5, (1, 2**32, 3, 2**40, 5),
                             (2**32, 2**33, 2**34, 2**35, 7)])
    # The keys of the campaign's streams: pairs, estimates and Clarke scales.
    _assert_seeded_as_numpy([(s, 0x9A12, i) for s in (0, 42, 2**63 + 5) for i in (0, 9, 199)])
    _assert_seeded_as_numpy([(h, 0x5D1FF) for h in (0, 7, 2**32 + 1, 0xDEADBEEFCAFEF00D)])
    _assert_seeded_as_numpy([(5 + 2**32, 0xC1A, k) for k in range(9)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("rows", [1, 8, 32])
@pytest.mark.parametrize("pass_states", [_pcg._PASS_STATES, 50])
def test_uniform_block_equals_numpy_uniform(n, rows, pass_states, monkeypatch):
    # Uneven bounds per coordinate, and streams seeded from keys of two to
    # four words; with 50 states per pass the streams are drawn one or a
    # few at a time.
    monkeypatch.setattr(_pcg, "_PASS_STATES", pass_states)
    low = np.array([-1.0, 0.5, -3.0, 1e-3, -7.25])[:n]
    high = np.array([1.0, 2.0, -2.5, 3.0, 100.0])[:n]
    keys = [(s, 0x9A12, i) for s in (0, 13, 2**40 + 3) for i in range(7)]
    seeded = pcg64_states(keys)
    block, ends = uniform_block(seeded, low, high, rows)
    assert block.shape == (len(keys), rows, n) and ends.shape == (len(keys), 2)
    rng = generator()
    for key, got, end, inc in zip(keys, block, to_ints(ends), to_ints(seeded[1])):
        want = np.random.default_rng(np.random.SeedSequence(key))
        assert got.tobytes() == want.uniform(low, high, size=(rows, n)).tobytes()
        # The end state is the stream's state after the block: both the
        # uniform and the ziggurat draws that follow are equal.
        position(rng, end, inc)
        assert rng.bit_generator.state == want.bit_generator.state
        assert rng.uniform(low, high, size=(3, n)).tobytes() == want.uniform(low, high, size=(3, n)).tobytes()
        assert rng.standard_normal(4).tobytes() == want.standard_normal(4).tobytes()
