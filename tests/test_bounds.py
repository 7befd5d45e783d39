"""Exact packing-bound arithmetic, checked against independent oracles.

The oracle here is a hand-built Pascal triangle: binomials come from the
additive recurrence only, never from math.comb, so the production path and
the test path share no code.  ``head_solve_target_distance`` is the earlier
incremental solver, kept verbatim so the radius scan is pinned to it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashbound.bounds import (
    MAX_CODE_BITS,
    BoundProblem,
    MarginSet,
    bound_holds,
    derive_margins,
    margins_from_negative,
    solve_target_distance,
    sphere_volume,
)
from hashbound.codes import Codebook, codebook_min_distance, from_bits


# --- independent oracles -------------------------------------------------

def pascal_rows(max_n: int) -> list[list[int]]:
    rows = [[1]]
    for n in range(1, max_n + 1):
        prev = rows[-1]
        row = [1]
        row.extend(prev[k - 1] + prev[k] for k in range(1, n))
        row.append(1)
        rows.append(row)
    return rows


def oracle_binomial(n: int, k: int, _rows=pascal_rows(140)) -> int:
    if k > n:
        return 0
    return _rows[n][k]


def oracle_volume(bits: int, distance: int) -> int:
    radius = (distance - 1) // 2
    return sum(oracle_binomial(bits, i) for i in range(radius + 1))


def oracle_solve(bits: int, classes: int) -> int:
    for d in range(1, bits + 2):
        if classes * oracle_volume(bits, d) > 2**bits:
            return min(d, bits)
    return bits


# --- sphere volumes -------------------------------------------------------

def test_sphere_volume_distance_one_is_single_word():
    assert sphere_volume(12, 1) == 1


@pytest.mark.parametrize(
    "bits,distance,expected",
    [
        # direct sums: radius (d-1)//2
        (12, 9, 794),   # 1+12+66+220+495
        (12, 8, 299),   # 1+12+66+220
        (16, 7, 697),   # 1+16+120+560
        (12, 11, 1586),
    ],
)
def test_sphere_volume_direct_sums(bits, distance, expected):
    assert oracle_volume(bits, distance) == expected
    assert sphere_volume(bits, distance) == expected


def test_sphere_volume_matches_oracle_exhaustively():
    # distances up to 2 * bits + 3 take the radius past the length (C(n, k > n) = 0)
    for bits in range(1, 21):
        for distance in range(1, 2 * bits + 4):
            assert sphere_volume(bits, distance) == oracle_volume(bits, distance)


def test_sphere_volume_is_exact_at_128_bits():
    # 2**127 + C(128, 64) / 2: any fixed-width arithmetic would overflow.
    value = sphere_volume(128, 129)
    assert value == oracle_volume(128, 129)
    assert value > 2**127


def test_sphere_volume_input_validation():
    with pytest.raises(ValueError):
        sphere_volume(0, 1)
    with pytest.raises(ValueError):
        sphere_volume(4, 0)


@given(
    bits=st.integers(min_value=1, max_value=24),
    distance=st.integers(min_value=1, max_value=30),
)
def test_sphere_volume_nondecreasing_in_distance(bits, distance):
    assert sphere_volume(bits, distance + 1) >= sphere_volume(bits, distance)


# --- feasibility test -----------------------------------------------------

def test_bound_holds_boundary_cases():
    problem = BoundProblem(12, 10)
    # 10 * 299 = 2990 <= 4096, 10 * 794 = 7940 > 4096
    assert bound_holds(problem, 8) is True
    assert bound_holds(problem, 9) is False
    assert bound_holds(problem, 11) is False
    assert bound_holds(BoundProblem(1, 2), 1) is True


def test_bound_holds_is_exact_not_floating_point():
    # M * volume == 2**L exactly must count as holding.
    assert bound_holds(BoundProblem(4, 16), 1) is True
    assert bound_holds(BoundProblem(4, 16), 3) is False


def test_bound_problem_validation():
    with pytest.raises(ValueError):
        BoundProblem(12, 1)  # a single codeword has no minimum distance
    with pytest.raises(ValueError):
        BoundProblem(3, 9)  # 9 > 2**3
    with pytest.raises(ValueError):
        BoundProblem(0, 2)
    BoundProblem(3, 8)  # M == 2**L is allowed
    for bits in (1, 2, 63, 64, 65, 200, MAX_CODE_BITS):
        BoundProblem(bits, 2**bits)
        with pytest.raises(ValueError, match="distinct codewords"):
            BoundProblem(bits, 2**bits + 1)
    for bits in (MAX_CODE_BITS + 1, 10**30):  # refused before any 2**L
        with pytest.raises(ValueError, match="--bits"):
            BoundProblem(bits, 10)


# --- target-distance solver -----------------------------------------------

@pytest.mark.parametrize(
    "bits,classes,expected",
    [
        (12, 10, 9),
        (16, 100, 7),
        (12, 2, 12),  # unclamped scan yields 13; clamped to the length
        (1, 2, 1),
    ],
)
def test_solver_known_values(bits, classes, expected):
    assert oracle_solve(bits, classes) == expected
    assert solve_target_distance(BoundProblem(bits, classes)) == expected


def test_solver_matches_linear_scan_small():
    for bits in range(1, 11):
        for classes in range(2, 2**bits + 1):
            got = solve_target_distance(BoundProblem(bits, classes))
            assert got == oracle_solve(bits, classes), (bits, classes)


def head_solve_target_distance(problem: BoundProblem) -> int:
    """The incremental solver the radius scan replaced: scans d = 1, 2, ...,
    growing the volume by one binomial whenever the radius increments."""
    bits = problem.code_bits
    space = 2**bits
    volume = 1  # radius-0 sphere
    radius = 0
    d = 1
    while problem.num_classes * volume <= space:
        d += 1
        if d > bits:
            return bits
        new_radius = (d - 1) // 2
        if new_radius > radius:
            radius = new_radius
            volume += math.comb(bits, radius)
    return d


def test_radius_scan_matches_the_incremental_solver():
    for bits in range(1, 129):
        for classes in sorted({*range(2, 301), 2**bits}):
            if classes > 2**bits:
                continue
            problem = BoundProblem(bits, classes)
            expected = head_solve_target_distance(problem)
            assert solve_target_distance(problem) == expected, (bits, classes)


def test_solver_monotonicity():
    for bits in (8, 12, 16):
        values = [
            solve_target_distance(BoundProblem(bits, m)) for m in range(2, 2**8)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))  # non-increasing in M
    for classes in (2, 10, 100):
        values = [
            solve_target_distance(BoundProblem(bits, classes))
            for bits in range(7, 24)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))  # non-decreasing in L


# --- margins ---------------------------------------------------------------

@pytest.mark.parametrize(
    "bits,classes,expected_target,expected_negative",
    [
        (12, 10, 9, -6),
        (48, 10, 41, -34),
        (64, 100, 47, -30),
    ],
)
def test_derive_margins_reference_rows(bits, classes, expected_target, expected_negative):
    margins = derive_margins(BoundProblem(bits, classes))
    assert margins.target_distance == expected_target
    assert margins.positive_margin == bits
    assert margins.negative_margin == expected_negative


@given(
    bits=st.integers(min_value=1, max_value=20),
    classes=st.integers(min_value=2, max_value=1 << 16),
)
@settings(max_examples=200)
def test_margin_parity_invariant(bits, classes):
    if classes > 2**bits:
        classes = 2**bits
    margins = derive_margins(BoundProblem(bits, classes))
    assert margins.positive_margin - margins.negative_margin == 2 * margins.target_distance
    assert (bits - margins.negative_margin) % 2 == 0
    assert margins.positive_margin - margins.negative_margin > 0
    assert 1 <= margins.target_distance <= bits


def test_margin_set_validation():
    for bits, target in ((12, 0), (12, 13), (0, 1), (1, -1)):
        with pytest.raises(ValueError):
            MarginSet(bits, target)
    margins = MarginSet(12, 9)
    assert (margins.positive_margin, margins.negative_margin) == (12, -6)
    assert MarginSet(1, 1).negative_margin == -1
    assert MarginSet(12, 12) == margins_from_negative(12, -12)


def test_margins_from_negative():
    margins = margins_from_negative(12, -6)
    assert margins == derive_margins(BoundProblem(12, 10))
    assert margins_from_negative(12, 4).target_distance == 4
    assert margins_from_negative(12, -12).target_distance == 12
    with pytest.raises(ValueError):
        margins_from_negative(12, -5)  # parity
    with pytest.raises(ValueError):
        margins_from_negative(12, 12)  # target distance would be 0
    with pytest.raises(ValueError):
        margins_from_negative(12, -14)  # below the attainable inner product


# --- no real codebook beats the bound ---------------------------------------

def test_bound_necessity_on_random_codebooks():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        bits = int(rng.integers(2, 15))
        classes = int(rng.integers(2, min(2**bits, 9) + 1))
        seen = set()
        while len(seen) < classes:
            seen.add(tuple(rng.integers(0, 2, size=bits).tolist()))
        book = Codebook([from_bits(bits_) for bits_ in seen])
        observed = codebook_min_distance(book.word_matrix())
        problem = BoundProblem(bits, classes)
        target = solve_target_distance(problem)
        assert observed >= 1
        assert bound_holds(problem, observed) is True
        assert observed < target or (classes == 2 and observed == bits)
