"""Packed binary codes over {+1, -1} and their exact Hamming kernels.

Representation
--------------
A batch of n codes of length L is an (n, W) uint64 word matrix with
W = ceil(L/64), passed together with L.  This is what ``encoder``,
``evaluation`` and ``cli`` exchange, and what the vectorized kernels
(``pack_sign_rows``, ``packed_hamming_matrix``, ``codebook_min_distance``)
take and return.  ``packed_hamming_matrix`` gives its distances as uint8
for L <= 192 and as uint16 beyond, the narrowest type that holds 64 * W.
``BinaryCode`` and ``Codebook`` are the scalar edge: bit-level work (flips)
and nearest-codeword decoding.  ``packed_hamming_matrix`` is the one Hamming
kernel: the scalar distance and inner product, the codebook minimum distance
and decoding all run on it.

Bit layout
----------
Symbol i of a length-L code lives at bit (i % 64) of word (i // 64), LSB
first.  Bit value 1 means symbol +1, bit value 0 means symbol -1.  Bits at
positions >= L in the last word are always zero (canonical padding), which
makes equality and distance well defined.

Binarization follows sgn(0) = +1 so that encoding is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "BinaryCode",
    "Codebook",
    "from_signs",
    "from_bits",
    "flip_bits",
    "hamming_distance",
    "inner_product",
    "correction_radius",
    "check_words",
    "codebook_min_distance",
    "nearest_codeword",
    "pack_sign_rows",
    "packed_hamming_matrix",
]

_WORD_BITS = 64


def _word_count(length: int) -> int:
    return (length + _WORD_BITS - 1) // _WORD_BITS


def check_words(words: np.ndarray, length: int | None = None) -> np.ndarray:
    """Validate a packed (n, W) uint64 word matrix, and W == ceil(L/64) if L is given."""
    if not isinstance(words, np.ndarray) or words.ndim != 2 or words.dtype != np.uint64:
        raise ValueError("expected a 2-d uint64 word matrix")
    if length is not None:
        if length < 1:
            raise ValueError("code length must be >= 1")
        if words.shape[1] != _word_count(length):
            raise ValueError(
                f"length {length} needs {_word_count(length)} words per row, "
                f"got {words.shape[1]}"
            )
    return words


@dataclass(frozen=True)
class BinaryCode:
    """An immutable length-L code packed into 64-bit words."""

    length: int
    words: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("code length must be >= 1")
        expected = _word_count(self.length)
        if len(self.words) != expected:
            raise ValueError(
                f"length {self.length} needs {expected} words, got {len(self.words)}"
            )
        for w in self.words:
            if not 0 <= w < (1 << _WORD_BITS):
                raise ValueError("words must be unsigned 64-bit values")
        pad_bits = expected * _WORD_BITS - self.length
        if pad_bits and (self.words[-1] >> (_WORD_BITS - pad_bits)):
            raise ValueError("padding bits beyond the code length must be zero")

    def bit(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"bit index {i} out of range for length {self.length}")
        return (self.words[i // _WORD_BITS] >> (i % _WORD_BITS)) & 1

    def bits(self) -> np.ndarray:
        """The code as a 0/1 vector (1 where the symbol is +1)."""
        return np.array([self.bit(i) for i in range(self.length)], dtype=np.uint8)

    def signs(self) -> np.ndarray:
        """The code as a +1/-1 vector."""
        return self.bits().astype(np.int8) * 2 - 1


def pack_sign_rows(values: np.ndarray) -> np.ndarray:
    """Pack an (n, L) real matrix into (n, ceil(L/64)) uint64 sign words.

    Entry >= 0 maps to bit 1 (+1), entry < 0 to bit 0 (-1).  The signs go
    into a zeroed (n, 64 W) bool matrix, so the padding bits stay 0, and one
    flat little-endian ``packbits`` turns each row's 64 W bits into its W
    words.  This is the single packing routine in the package; the scalar
    ``from_signs`` wraps it.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] < 1:
        raise ValueError("expected a nonempty 2-d matrix of sign values")
    if not np.all(np.isfinite(values)):
        raise ValueError("sign values must all be finite")
    n, length = values.shape
    width = _word_count(length)
    bits = np.zeros((n, width * _WORD_BITS), dtype=bool)
    np.greater_equal(values, 0.0, out=bits[:, :length])
    return np.packbits(bits, bitorder="little").view(np.uint64).reshape(n, width)


def from_signs(values: Sequence[float] | np.ndarray) -> BinaryCode:
    """Binarize a real vector: symbol +1 where the entry is >= 0, else -1."""
    row = np.asarray(values, dtype=np.float64).reshape(1, -1)
    words = pack_sign_rows(row)[0]
    return BinaryCode(length=row.shape[1], words=tuple(int(w) for w in words))


def from_bits(bits: Sequence[int] | np.ndarray) -> BinaryCode:
    """Build a code from 0/1 values (1 meaning symbol +1)."""
    arr = np.asarray(bits)
    signs = np.where(arr != 0, 1.0, -1.0)
    return from_signs(signs)


def flip_bits(code: BinaryCode, positions: Sequence[int]) -> BinaryCode:
    """Copy of ``code`` with the symbols at ``positions`` inverted."""
    words = list(code.words)
    for p in positions:
        if not 0 <= p < code.length:
            raise IndexError(f"bit position {p} out of range")
        words[p // _WORD_BITS] ^= 1 << (p % _WORD_BITS)
    return BinaryCode(length=code.length, words=tuple(words))


def hamming_distance(a: BinaryCode, b: BinaryCode) -> int:
    """Number of differing symbols: ``packed_hamming_matrix`` on the two words."""
    if a.length != b.length:
        raise ValueError(f"code lengths differ: {a.length} vs {b.length}")
    words = Codebook([a, b]).word_matrix()
    return int(packed_hamming_matrix(words[:1], words[1:])[0, 0])


def inner_product(a: BinaryCode, b: BinaryCode) -> int:
    """Dot product over +-1 symbols: agreements minus disagreements."""
    return a.length - 2 * hamming_distance(a, b)


def correction_radius(min_distance: int) -> int:
    """Bit errors guaranteed recoverable by nearest-codeword decoding."""
    if min_distance < 1:
        raise ValueError("min_distance must be >= 1")
    return (min_distance - 1) // 2


@dataclass(frozen=True)
class Codebook:
    """An ordered, nonempty list of equal-length codes."""

    codes: tuple[BinaryCode, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", tuple(self.codes))
        if not self.codes:
            raise ValueError("a codebook needs at least one code")
        if any(c.length != self.length for c in self.codes):
            raise ValueError("all codes in a codebook must share one length")

    @property
    def length(self) -> int:
        return self.codes[0].length

    def word_matrix(self) -> np.ndarray:
        """All codes stacked as an (n, words) uint64 matrix."""
        return np.array([c.words for c in self.codes], dtype=np.uint64)


def packed_hamming_matrix(a_words: np.ndarray, b_words: np.ndarray) -> np.ndarray:
    """All-pairs Hamming distances between two packed word matrices.

    Popcount of the XORed words; the (n, m, W) intermediates take 9 bytes
    per word pair.  The sums come in the narrowest unsigned type that holds
    64 * W: uint8 up to W = 3 (L <= 192), uint16 beyond, so a stable argsort
    of a row runs as a radix sort.

    Args:
        a_words: (n, W) uint64.
        b_words: (m, W) uint64 with the same W.

    Returns:
        (n, m) uint8 or uint16 distance matrix.
    """
    check_words(a_words)
    check_words(b_words)
    if a_words.shape[1] != b_words.shape[1]:
        raise ValueError("word widths differ")
    xor = a_words[:, None, :] ^ b_words[None, :, :]
    dtype = np.min_scalar_type(_WORD_BITS * a_words.shape[1])
    return np.bitwise_count(xor).sum(axis=2, dtype=dtype)


def codebook_min_distance(words: np.ndarray) -> int:
    """Minimum pairwise distance over distinct rows of an (n, W) word matrix.

    Duplicate rows give 0.
    """
    check_words(words)
    if len(words) < 2:
        raise ValueError("minimum distance needs at least two codes")
    dist = packed_hamming_matrix(words, words)
    # no distance exceeds its dtype's maximum, so the minimum is over i != j
    np.fill_diagonal(dist, np.iinfo(dist.dtype).max)
    return int(dist.min())


def nearest_codeword(book: Codebook, query: BinaryCode) -> tuple[int, int]:
    """Index and distance of the closest code; ties go to the lowest index."""
    if query.length != book.length:
        raise ValueError(
            f"query length {query.length} does not match codebook length "
            f"{book.length}"
        )
    query_words = np.array([query.words], dtype=np.uint64)
    dists = packed_hamming_matrix(query_words, book.word_matrix())[0]
    best = int(np.argmin(dists))  # the first minimum
    return best, int(dists[best])
