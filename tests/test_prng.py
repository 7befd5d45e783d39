"""Bulk PRNG draws against the scalar stream they are made of."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hashbound import prng
from hashbound.prng import Xorshift64Star

MASK64 = (1 << 64) - 1


# The scalar stream, one xorshift64* step per draw, as it was in
# ``Xorshift64Star`` before its methods were deleted: the oracle the bulk
# draws are checked against.  Each acts on the generator's state and spare.

def head_next_u64(rng):
    """``Xorshift64Star.next_u64``: one xorshift64* step and its output."""
    s = rng._state
    s ^= s >> 12
    s = (s ^ (s << 25)) & MASK64
    s ^= s >> 27
    rng._state = s
    return (s * 2685821657736338717) & MASK64


def head_uniform(rng):
    """``Xorshift64Star.uniform``: a float in [0, 1) with 53 random mantissa bits."""
    return (head_next_u64(rng) >> 11) * 2.0**-53


def head_normal(rng):
    """``Xorshift64Star.normal``: Box-Muller; the partner value is cached."""
    if rng._spare_normal is not None:
        z, rng._spare_normal = rng._spare_normal, None
        return z
    u1 = 1.0 - head_uniform(rng)  # (0, 1]; keeps log() finite
    u2 = head_uniform(rng)
    radius = math.sqrt(-2.0 * math.log(u1))
    angle = 2.0 * math.pi * u2
    rng._spare_normal = radius * math.sin(angle)
    return radius * math.cos(angle)


def head_randbelow(rng, n):
    """``Xorshift64Star.randbelow``: an integer in [0, n) by plain modulo."""
    return head_next_u64(rng) % n


def scalar_permutation(rng, n):
    """Fisher-Yates with one ``head_randbelow`` call per swap."""
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = head_randbelow(rng, i + 1)
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
    want = np.array([head_uniform(scalar) for _ in range(n)], dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert end_state(bulk) == end_state(scalar)

    assert np.array_equal(bulk.permutation(n), scalar_permutation(scalar, n))
    assert end_state(bulk) == end_state(scalar)

    # two draws in a row: an odd n leaves a spare that the next draw starts with
    for _ in range(2):
        got = bulk.normals(n)
        want = np.array([head_normal(scalar) for _ in range(n)], dtype=np.float64)
        assert got.shape == (n,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert end_state(bulk) == end_state(scalar)
    assert head_next_u64(bulk) == head_next_u64(scalar)


@pytest.mark.parametrize("n", [1, 15, 16, 17, 32, 33, 1000])
def test_raw_draws_are_next_u64(n):
    bulk, scalar = Xorshift64Star(99, 5), Xorshift64Star(99, 5)
    got = bulk._raw(n)
    assert got.dtype == np.uint64
    assert got.tolist() == [head_next_u64(scalar) for _ in range(n)]
    assert end_state(bulk) == end_state(scalar)


# blocks of 1 and 3 lanes: n = 47, 48 and 49 end one short of, on and just
# past the first 3-lane block boundary
@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("n", [1, 16, 17, 47, 48, 49, 200])
def test_raw_draws_in_blocks_of_lanes_are_next_u64(monkeypatch, block, n):
    monkeypatch.setattr(prng, "_BLOCK_LANES", block)
    bulk, scalar = Xorshift64Star(99, 5), Xorshift64Star(99, 5)
    assert bulk._raw(n).tolist() == [head_next_u64(scalar) for _ in range(n)]
    assert end_state(bulk) == end_state(scalar)


# blocks of 1 and 3 pairs: n = 5, 6 and 7 end inside, on and just past the
# first 3-pair block; the second draw of an odd n starts with a spare
@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 40])
def test_normals_in_blocks_of_pairs_match_scalar_stream(monkeypatch, block, n):
    monkeypatch.setattr(prng, "_BLOCK_PAIRS", block)
    bulk, scalar = Xorshift64Star(99, 5), Xorshift64Star(99, 5)
    for _ in range(2):
        got = bulk.normals(n)
        want = np.array([head_normal(scalar) for _ in range(n)], dtype=np.float64)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert end_state(bulk) == end_state(scalar)


def test_normals_spare_crosses_mixed_bulk_calls():
    # odd counts leave a spare for the next normals call; uniforms and
    # permutations in between draw from the stream and leave the spare alone
    bulk, scalar = Xorshift64Star(7, 2), Xorshift64Star(7, 2)
    for kind, *args in [("normals", 3), ("uniforms", 5), ("normals", 0), ("normals", 1),
                        ("normals", 16), ("normals", 17), ("permutation", 17),
                        ("normals", 33), ("permutations", 17, 3), ("normals", 2),
                        ("normals", 15), ("uniforms", 16), ("normals", 32001)]:
        got = getattr(bulk, kind)(*args)
        n = args[0]
        if kind == "normals":
            want = np.array([head_normal(scalar) for _ in range(n)], dtype=np.float64)
        elif kind == "uniforms":
            want = np.array([head_uniform(scalar) for _ in range(n)], dtype=np.float64)
        elif kind == "permutation":
            want = scalar_permutation(scalar, n)
        else:
            want = np.array([scalar_permutation(scalar, n) for _ in range(args[1])])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (kind, args)
        assert end_state(bulk) == end_state(scalar), (kind, args)


# count * (n - 1) draws: (16, 1), (6, 3) and (4, 5) take 15, one short of a
# lane; n = 17 takes a whole number of lanes; (18, 1), (60, 3) and (34, 5)
# take 17, 177 and 165, just past one
@pytest.mark.parametrize("n,count", [
    *((n, count) for n in (0, 1, 2, 17, 60) for count in (0, 1, 3, 5)),
    (16, 1), (6, 3), (4, 5), (18, 1), (34, 5),
])
@pytest.mark.parametrize("seed,stream", [(0, 0), (12345, 3)])
def test_permutations_are_rows_of_scalar_fisher_yates(seed, stream, n, count):
    bulk, scalar = Xorshift64Star(seed, stream), Xorshift64Star(seed, stream)
    got = bulk.permutations(n, count)
    assert got.dtype == np.int64 and got.shape == (count, n)
    for row in got:
        assert np.array_equal(row, scalar_permutation(scalar, n))
    assert end_state(bulk) == end_state(scalar)


def test_permutations_hold_one_copy_of_their_draws():
    # 20000 rows of 60: the output and the 59 draws per row take 8 bytes per
    # entry each; a copy of the draws more would pass 3x the output
    Xorshift64Star(0).permutations(2, 1)  # the jump tables, built once
    rng = Xorshift64Star(5)
    tracemalloc.start()
    try:
        out = rng.permutations(60, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (20000, 60)
    assert peak < 2.5 * out.nbytes


def test_a_draw_too_large_to_hold_fails_before_walking_the_lanes(monkeypatch):
    # the output is allocated first, so a huge draw fails at once instead of
    # walking (n - 1) // 16 lane starts in Python before allocating anything
    def unreachable():
        raise AssertionError("lane starts walked before the output was allocated")

    monkeypatch.setattr(prng, "_lane_jump_tables", unreachable)
    rng = Xorshift64Star(0)
    state = end_state(rng)
    with pytest.raises((MemoryError, ValueError)):
        rng.uniforms(2**62)
    assert end_state(rng) == state


def test_import_builds_no_jump_tables():
    # the tables are built on the first bulk draw, so an import stays cheap
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import hashbound.cli, hashbound.prng as p; "
            "assert p._lane_jump_tables.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
