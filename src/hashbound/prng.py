"""Small explicit PRNG so every experiment is reproducible from a 64-bit seed.

The generator is xorshift64* (Marsaglia xorshift with shifts 12/25/27 and the
2685821657736338717 output multiplier).  State is seeded through one round of
splitmix64 so that nearby seeds and stream ids give unrelated sequences.  All
randomness in this package (weight init, epoch shuffling, synthetic data,
split sampling) flows through this class, never through global RNG state.

Every draw is a bulk draw (``uniforms``, ``normals``, ``permutation``,
``permutations``).  Each returns exactly what the scalar xorshift64*
recurrence, one step per draw, gives, and leaves the generator in the same
state; ``tests/test_prng.py`` keeps that recurrence as the oracle.  The
draws take the stream in lanes of 16 and advance all lanes together in
numpy.  The xorshift step is linear over GF(2), so 16 steps are one 64 x 64
bit matrix, and each lane's start state is the previous lane's times that
matrix (jump-ahead; Haramoto et al., 2008).  It is applied through 8
byte-indexed tables of 256 entries, built from the 64 basis vectors on the
first bulk draw, not at import.  Box-Muller takes ``log``, ``cos`` and
``sin`` from ``math`` one element at a time: the stream's bits are fixed by
the C library's rounding, and numpy's vectorised versions need not match it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MULTIPLIER = 0x2545F4914F6CDD1D
_LANE = 16  # draws per lane of a bulk draw
_BLOCK_LANES = 8192  # lanes filled at a time
_BLOCK_PAIRS = 2048  # normal pairs made at a time


def splitmix64(value: int) -> int:
    """One splitmix64 output step; used to whiten seeds and derive streams."""
    value = (value + _SPLITMIX_GAMMA) & _MASK64
    z = value
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _step(states: np.ndarray) -> None:
    """One xorshift64* state transition of every element, in place."""
    states ^= states >> 12
    states ^= states << 25
    states ^= states >> 27


@functools.cache  # built on the first bulk draw, not at import
def _lane_jump_tables() -> list[list[int]]:
    """The 16-step transition as 8 byte tables: a state's image is the XOR,
    over its bytes b, of ``tables[b][value of byte b]``."""
    images = np.uint64(1) << np.arange(64, dtype=np.uint64)  # the basis
    for _ in range(_LANE):
        _step(images)
    tables = []
    for byte in range(8):
        table = np.zeros(256, dtype=np.uint64)
        for bit in range(8):
            table[1 << bit : 2 << bit] = table[: 1 << bit] ^ images[8 * byte + bit]
        tables.append(table.tolist())
    return tables


class Xorshift64Star:
    """Deterministic xorshift64* stream.

    Args:
        seed: Any Python integer; reduced modulo 2**64.
        stream: Substream id.  Different streams from the same seed are
            decorrelated via splitmix64 so one experiment seed can feed
            several independent consumers (init vs. shuffling vs. data).
    """

    def __init__(self, seed: int, stream: int = 0):
        state = splitmix64((seed & _MASK64) ^ splitmix64(stream & _MASK64))
        # xorshift64* has a single forbidden state.
        self._state = state if state != 0 else _SPLITMIX_GAMMA
        self._spare_normal: float | None = None

    def _raw(self, n: int) -> np.ndarray:
        """The next n xorshift64* outputs as uint64, leaving the state after them.

        Lane k holds draws 16k+1 .. 16k+16; its start state is the previous
        lane's advanced 16 steps through the jump tables.  Then every lane
        takes its 16 steps at once (uint64 arithmetic wraps mod 2**64).  The
        output is allocated first, so a draw too large to hold fails before
        any lane is filled.
        """
        if n <= 0:
            return np.empty(0, dtype=np.uint64)
        # lane-major, so the draws are its first n entries, with no copy
        steps = np.empty(((n - 1) // _LANE + 1, min(n, _LANE)), dtype=np.uint64)
        lanes = np.empty(len(steps), dtype=np.uint64)
        t0, t1, t2, t3, t4, t5, t6, t7 = _lane_jump_tables()
        s = lanes[0] = self._state
        for k in range(1, len(lanes)):
            s = (t0[s & 255] ^ t1[s >> 8 & 255] ^ t2[s >> 16 & 255]
                 ^ t3[s >> 24 & 255] ^ t4[s >> 32 & 255] ^ t5[s >> 40 & 255]
                 ^ t6[s >> 48 & 255] ^ t7[s >> 56])
            lanes[k] = s
        # the lanes step in blocks whose draws (1 MiB) stay in cache
        for lo in range(0, len(lanes), _BLOCK_LANES):
            block, state = steps[lo : lo + _BLOCK_LANES], lanes[lo : lo + _BLOCK_LANES]
            for column in block.T:
                _step(state)
                column[:] = state
        states = steps.reshape(-1)[:n]
        self._state = int(states[-1])
        states *= np.uint64(_MULTIPLIER)
        return states

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform floats in [0, 1) with 53 random mantissa bits."""
        return (self._raw(n) >> 11) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals, Box-Muller on pairs of uniforms: the cached
        spare first, and an odd last partner cached for the next draw.  The
        pairs are drawn in blocks, which bounds the Python floats ``math``
        works on; the stream is that of one draw of all of them."""
        out = np.empty(max(n, 0))
        done = 0
        if n > 0 and self._spare_normal is not None:
            out[0], self._spare_normal = self._spare_normal, None
            done = 1
        while done < n:
            pairs = min((n - done + 1) // 2, _BLOCK_PAIRS)
            u = self.uniforms(2 * pairs)
            log_u1 = list(map(math.log, (1.0 - u[0::2]).tolist()))
            radius = np.sqrt(-2.0 * np.array(log_u1))
            angle = ((2.0 * math.pi) * u[1::2]).tolist()
            values = np.empty((pairs, 2))
            values[:, 0] = radius * np.array(list(map(math.cos, angle)))
            values[:, 1] = radius * np.array(list(map(math.sin, angle)))
            block = values.ravel()[: n - done]
            out[done : done + len(block)] = block
            done += len(block)
            if len(block) % 2:
                self._spare_normal = float(values[-1, 1])
        return out

    def permutation(self, n: int) -> np.ndarray:
        """One Fisher-Yates permutation of range(n)."""
        return self.permutations(n, 1)[0]

    def permutations(self, n: int, count: int) -> np.ndarray:
        """``count`` Fisher-Yates permutations of range(n), one per row.

        Row by row, position i = n-1 .. 1 swaps with the next draw modulo
        i + 1.  All the rows' draws come from one bulk draw; the output is
        allocated first, so a count too large to hold fails before drawing.
        """
        out = np.empty((count, n), dtype=np.int64)
        swaps = self._raw(count * (n - 1)).reshape(count, max(n - 1, 0))
        swaps %= np.arange(n, 1, -1, dtype=np.uint64)
        identity, positions = list(range(n)), range(n - 1, 0, -1)
        for row, draws in zip(out, swaps):
            idx = identity.copy()
            for i, j in zip(positions, draws.tolist()):
                idx[i], idx[j] = idx[j], idx[i]
            row[:] = idx
        return out
