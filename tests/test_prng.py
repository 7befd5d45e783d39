"""Bulk PRNG draws against the scalar stream they are made of."""

import os
import subprocess
import sys
from pathlib import Path

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


# 15/16/17 and 32/33 straddle the 16-draw lanes of a bulk draw
@pytest.mark.parametrize("n", [0, 1, 2, 7, 15, 16, 17, 33, 64, 501, 32001])
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


@pytest.mark.parametrize("n", [1, 15, 16, 17, 32, 33, 1000])
def test_raw_draws_are_next_u64(n):
    bulk, scalar = Xorshift64Star(99, 5), Xorshift64Star(99, 5)
    got = bulk._raw(n)
    assert got.dtype == np.uint64
    assert got.tolist() == [scalar.next_u64() for _ in range(n)]
    assert end_state(bulk) == end_state(scalar)


def test_normals_spare_crosses_mixed_bulk_calls():
    # odd counts leave a spare for the next normals call; uniforms and
    # permutation in between draw from the stream and leave the spare alone
    bulk, scalar = Xorshift64Star(7, 2), Xorshift64Star(7, 2)
    for kind, n in [("normals", 3), ("uniforms", 5), ("normals", 0), ("normals", 1),
                    ("normals", 16), ("normals", 17), ("permutation", 17),
                    ("normals", 33), ("normals", 2), ("normals", 15), ("uniforms", 16),
                    ("normals", 32001)]:
        got = getattr(bulk, kind)(n)
        if kind == "normals":
            want = np.array([scalar.normal() for _ in range(n)], dtype=np.float64)
        elif kind == "uniforms":
            want = np.array([scalar.uniform() for _ in range(n)], dtype=np.float64)
        else:
            want = scalar_permutation(scalar, n)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (kind, n)
        assert end_state(bulk) == end_state(scalar), (kind, n)


def test_import_builds_no_jump_tables():
    # the tables are built on the first bulk draw, so an import stays cheap
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import hashbound.cli, hashbound.prng as p; "
            "assert p._lane_jump_tables.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
