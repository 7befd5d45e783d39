"""Packed code kernels against naive per-symbol oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_distance
from hashbound.codes import (
    BinaryCode,
    Codebook,
    check_words,
    codebook_min_distance,
    correction_radius,
    flip_bits,
    from_bits,
    from_signs,
    hamming_distance,
    inner_product,
    nearest_codeword,
    pack_sign_rows,
    packed_hamming_matrix,
)

LENGTHS = (1, 12, 63, 64, 65, 128)


def oracle_dot(a: BinaryCode, b: BinaryCode) -> int:
    return int(np.dot(a.signs().astype(np.int64), b.signs().astype(np.int64)))


def random_code(rng, length: int) -> BinaryCode:
    return from_bits(rng.integers(0, 2, size=length))


# --- binarization -----------------------------------------------------------

def test_from_signs_zero_maps_to_plus_one():
    code = from_signs([0.7, -0.2, 0.0])
    assert code.bits().tolist() == [1, 0, 1]
    assert code.signs().tolist() == [1, -1, 1]


def test_from_signs_all_positive():
    code = from_signs(np.full(70, 0.25))
    assert code.bits().tolist() == [1] * 70


def test_from_signs_negation_is_complement():
    rng = np.random.default_rng(1)
    values = rng.normal(size=65)
    values[np.abs(values) < 1e-9] = 0.5  # avoid the sgn(0) asymmetry
    a = from_signs(values)
    b = from_signs(-values)
    assert all(a.bit(i) != b.bit(i) for i in range(65))
    assert hamming_distance(a, b) == 65


def test_from_signs_rejects_non_finite():
    with pytest.raises(ValueError):
        from_signs([0.5, np.nan])
    with pytest.raises(ValueError):
        from_signs([np.inf, 1.0])


def test_pack_sign_rows_matches_per_bit_oracle():
    rng = np.random.default_rng(2)
    for length in LENGTHS:
        values = rng.normal(size=(9, length))
        words = pack_sign_rows(values)
        assert words.shape == (9, (length + 63) // 64)
        for row, packed in zip(values, words):
            code = BinaryCode(length, tuple(int(w) for w in packed))
            assert code.bits().tolist() == (row >= 0).astype(int).tolist()


def head_pack_sign_rows(values):
    """``pack_sign_rows`` as it was before its flat packing: a row-wise
    ``packbits`` padded with zero bytes to whole words."""
    n, length = values.shape
    bits = (values >= 0.0).astype(np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little")
    byte_width = (length + 63) // 64 * 8
    if packed.shape[1] < byte_width:
        pad = np.zeros((n, byte_width - packed.shape[1]), dtype=np.uint8)
        packed = np.concatenate([packed, pad], axis=1)
    return np.ascontiguousarray(packed).view(np.uint64)


@pytest.mark.parametrize("n", [1, 64, 900])
@pytest.mark.parametrize("length", [1, 12, 63, 64, 65, 130, 192, 193])
def test_pack_sign_rows_matches_head_packing(n, length):
    # normals with exact zeros and -0.0, which both pack to +1
    rng = np.random.default_rng([n, length])
    values = rng.normal(size=(n, length))
    values[rng.random(size=values.shape) < 0.1] = 0.0
    values[rng.random(size=values.shape) < 0.1] = -0.0
    words = pack_sign_rows(values)
    expected = head_pack_sign_rows(values)
    assert words.dtype == np.uint64 and words.shape == expected.shape
    assert np.array_equal(words, expected)
    # the padding bits beyond the length are zero
    if length % 64:
        assert not np.any(words[:, -1] >> np.uint64(length % 64))


def test_code_round_trip_via_bits():
    rng = np.random.default_rng(3)
    for length in LENGTHS:
        bits = rng.integers(0, 2, size=length)
        assert from_bits(bits).bits().tolist() == bits.tolist()


def test_binary_code_validates_padding_and_words():
    with pytest.raises(ValueError):
        BinaryCode(length=3, words=(0b1111,))  # bit 3 is padding
    with pytest.raises(ValueError):
        BinaryCode(length=65, words=(1,))  # needs two words
    with pytest.raises(ValueError):
        BinaryCode(length=4, words=(1 << 64,))
    BinaryCode(length=3, words=(0b101,))


# --- distance and inner product ----------------------------------------------

def test_distance_identity_and_antipodal():
    code = from_bits([1, 0] * 6)
    assert hamming_distance(code, code) == 0
    flipped = flip_bits(code, range(12))
    assert hamming_distance(code, flipped) == 12


def test_distance_matches_bit_loop_oracle():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a = random_code(rng, 100)
        b = random_code(rng, 100)
        assert hamming_distance(a, b) == oracle_distance(a, b)


def test_distance_rejects_length_mismatch():
    with pytest.raises(ValueError):
        hamming_distance(from_bits([1, 0]), from_bits([1, 0, 1]))
    with pytest.raises(ValueError):
        inner_product(from_bits([1]), from_bits([1, 1]))


def test_inner_product_examples():
    a = from_bits([1] * 12)
    assert inner_product(a, a) == 12
    assert inner_product(a, flip_bits(a, range(12))) == -12
    assert inner_product(a, flip_bits(a, [0, 5, 9])) == 6  # distance 3


def test_inner_product_matches_sign_dot_oracle():
    rng = np.random.default_rng(5)
    for length in LENGTHS:
        for _ in range(50):
            a = random_code(rng, length)
            b = random_code(rng, length)
            dot = oracle_dot(a, b)
            assert inner_product(a, b) == dot
            assert dot == length - 2 * oracle_distance(a, b)


@given(st.integers(min_value=1, max_value=256), st.data())
@settings(max_examples=150)
def test_metric_axioms(length, data):
    bits = st.lists(st.integers(0, 1), min_size=length, max_size=length)
    a = from_bits(data.draw(bits))
    b = from_bits(data.draw(bits))
    c = from_bits(data.draw(bits))
    assert hamming_distance(a, b) == hamming_distance(b, a)
    assert (hamming_distance(a, b) == 0) == (a == b)
    assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


@pytest.mark.parametrize("length", [1, 12, 63, 64, 65, 128, 130, 192, 193, 256])
def test_packed_hamming_matrix_matches_scalar_oracle(length):
    # duplicate rows on both sides give zero distances and tied rows
    rng = np.random.default_rng(length)
    codes_a = [random_code(rng, length) for _ in range(6)]
    codes_a += [codes_a[0], codes_a[3]]
    codes_b = [random_code(rng, length) for _ in range(4)] + [codes_a[0], codes_a[0]]
    matrix = packed_hamming_matrix(
        Codebook(codes_a).word_matrix(), Codebook(codes_b).word_matrix()
    )
    # the narrowest type that holds 64 * W: uint8 for W <= 3, uint16 at W = 4
    assert matrix.dtype == (np.uint8 if length <= 192 else np.uint16)
    assert matrix.tolist() == [
        [oracle_distance(a, b) for b in codes_b] for a in codes_a
    ]


@pytest.mark.parametrize("length", [64, 128, 192, 193, 255, 256])
def test_packed_hamming_matrix_holds_the_largest_distance(length):
    # complementary codes sit at distance L, the largest sum the dtype must hold
    ones = Codebook([from_bits([1] * length)]).word_matrix()
    zeros = Codebook([from_bits([0] * length)]).word_matrix()
    assert packed_hamming_matrix(ones, zeros).tolist() == [[length]]
    assert packed_hamming_matrix(ones, ones).tolist() == [[0]]


def test_packed_hamming_matrix_validation():
    narrow = Codebook([from_bits([1] * 12)]).word_matrix()
    wide = Codebook([from_bits([1] * 65)]).word_matrix()
    with pytest.raises(ValueError, match="widths differ"):
        packed_hamming_matrix(narrow, wide)
    with pytest.raises(ValueError, match="uint64"):
        packed_hamming_matrix(narrow.astype(np.int64), narrow)
    with pytest.raises(ValueError, match="uint64"):
        packed_hamming_matrix(narrow[0], narrow)


def test_check_words_width_against_length():
    wide = Codebook([from_bits([1] * 65)]).word_matrix()
    assert check_words(wide, 65) is wide
    assert check_words(wide, 128) is wide
    for bad_length, message in ((64, "words per row"), (129, "words per row"),
                                (0, "code length")):
        with pytest.raises(ValueError, match=message):
            check_words(wide, bad_length)


# --- codebooks ----------------------------------------------------------------

def test_codebook_validation():
    with pytest.raises(ValueError):
        Codebook([])
    with pytest.raises(ValueError):
        Codebook([from_bits([1, 0]), from_bits([1, 0, 1])])


def test_codebook_min_distance_examples():
    a = from_bits([1] * 12)
    b = flip_bits(a, range(12))
    assert codebook_min_distance(Codebook([a, b]).word_matrix()) == 12
    assert codebook_min_distance(Codebook([a, b, a]).word_matrix()) == 0  # duplicate
    with pytest.raises(ValueError, match="two codes"):
        codebook_min_distance(Codebook([a]).word_matrix())
    with pytest.raises(ValueError, match="uint64"):
        codebook_min_distance(Codebook([a, b]).word_matrix().astype(np.int64))


@pytest.mark.parametrize("length", [1, 12, 64, 65, 200])
def test_codebook_min_distance_skips_only_the_diagonal(length):
    # 200 bits give uint16 distances; the antipodal pair is the largest, L
    rng = np.random.default_rng(length)
    codes = [random_code(rng, length) for _ in range(6)]
    words = Codebook(codes).word_matrix()
    assert packed_hamming_matrix(words, words).dtype == (np.uint16 if length > 192 else np.uint8)
    assert codebook_min_distance(words) == min(
        oracle_distance(a, b) for i, a in enumerate(codes) for b in codes[i + 1 :]
    )
    assert codebook_min_distance(words[:2]) == oracle_distance(codes[0], codes[1])
    assert codebook_min_distance(words[[0, 1, 0]]) == 0
    antipodal = Codebook([codes[0], flip_bits(codes[0], range(length))]).word_matrix()
    assert codebook_min_distance(antipodal) == length


def test_codebook_min_distance_matches_pair_scan():
    rng = np.random.default_rng(7)
    for _ in range(30):
        codes = [random_code(rng, 16) for _ in range(10)]
        book = Codebook(codes)
        oracle = min(
            oracle_distance(codes[i], codes[j])
            for i in range(10)
            for j in range(i + 1, 10)
        )
        assert codebook_min_distance(book.word_matrix()) == oracle


def test_correction_radius():
    assert correction_radius(9) == 4
    assert correction_radius(1) == 0
    assert correction_radius(12) == 5
    with pytest.raises(ValueError):
        correction_radius(0)


def test_nearest_codeword_exact_hit():
    rng = np.random.default_rng(8)
    codes = [random_code(rng, 16) for _ in range(6)]
    book = Codebook(codes)
    assert nearest_codeword(book, codes[3]) == (3, 0)


def test_nearest_codeword_within_radius():
    all_plus = from_bits([1] * 12)
    all_minus = flip_bits(all_plus, range(12))
    book = Codebook([all_plus, all_minus])
    query = flip_bits(all_plus, [1, 4, 7])
    assert nearest_codeword(book, query) == (0, 3)


def test_nearest_codeword_tie_breaks_low_index():
    a = from_bits([1, 1, 0, 0])
    b = from_bits([0, 0, 1, 1])
    query = from_bits([1, 0, 1, 0])  # distance 2 to both
    assert nearest_codeword(Codebook([a, b]), query) == (0, 2)
    assert nearest_codeword(Codebook([b, a]), query) == (0, 2)


def test_nearest_codeword_length_mismatch():
    with pytest.raises(ValueError):
        nearest_codeword(Codebook([from_bits([1, 0])]), from_bits([1, 0, 1]))


def test_decode_within_radius_property():
    rng = np.random.default_rng(9)
    for _ in range(25):
        length = int(rng.integers(8, 17))
        classes = int(rng.integers(2, 7))
        codes = []
        seen = set()
        while len(codes) < classes:
            code = random_code(rng, length)
            if code.words not in seen:
                seen.add(code.words)
                codes.append(code)
        book = Codebook(codes)
        radius = correction_radius(codebook_min_distance(book.word_matrix()))
        for index, code in enumerate(codes):
            for _ in range(10):
                flips = rng.choice(length, size=int(rng.integers(0, radius + 1)), replace=False)
                assert nearest_codeword(book, flip_bits(code, flips))[0] == index
