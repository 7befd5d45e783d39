"""Bulk PRNG draws against the scalar stream they are made of."""

import numpy as np
import pytest

from hashbound.prng import Xorshift64Star


def scalar_permutation(rng, n):
    """Fisher-Yates with one ``randbelow`` call per swap."""
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randbelow(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return np.array(idx, dtype=np.int64)


def end_state(rng):
    return rng._state, rng._spare_normal


@pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 501])
@pytest.mark.parametrize("seed,stream", [(0, 0), (12345, 3), (2**64 - 1, 1)])
def test_bulk_draws_match_scalar_stream(seed, stream, n):
    bulk, scalar = Xorshift64Star(seed, stream), Xorshift64Star(seed, stream)

    got = bulk.uniforms(n)
    want = np.array([scalar.uniform() for _ in range(n)], dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert end_state(bulk) == end_state(scalar)

    assert np.array_equal(bulk.permutation(n), scalar_permutation(scalar, n))
    assert end_state(bulk) == end_state(scalar)

    # two draws in a row: an odd n leaves a spare that the next draw starts with
    for _ in range(2):
        got = bulk.normals(n)
        want = np.array([scalar.normal() for _ in range(n)], dtype=np.float64)
        assert got.shape == (n,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert end_state(bulk) == end_state(scalar)
    assert bulk.next_u64() == scalar.next_u64()

