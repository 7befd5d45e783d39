"""Ranking, average precision, MAP reports, and codebook diagnostics.

Frozen AP expectations were computed with an exact Fraction-based oracle
(reproduced below) and are asserted to 1e-12.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import oracle_distance
from hashbound import evaluation
from hashbound.bounds import MAX_CODE_BITS, BoundProblem, bound_holds
from hashbound.codes import (
    Codebook,
    codebook_min_distance,
    flip_bits,
    from_bits,
    pack_sign_rows,
)
from hashbound.evaluation import (
    _curve_cutoffs,
    average_precision,
    class_center_codes,
    mean_average_precision,
    stacked_scores,
)


def oracle_ap(relevance, k=None) -> Fraction:
    seq = relevance if k is None else relevance[:k]
    hits = 0
    total = Fraction(0)
    for position, rel in enumerate(seq, start=1):
        if rel:
            hits += 1
            total += Fraction(hits, position)
    return Fraction(0) if hits == 0 else total / hits


# (relevance, k, expected) with expected frozen from oracle_ap
AP_CASES = [
    ([1, 0, 1], None, 0.8333333333333334),
    ([1], None, 1.0),
    ([0], None, 0.0),
    ([1, 1, 1, 1], None, 1.0),
    ([0, 0, 0, 0], None, 0.0),
    ([0, 1], None, 0.5),
    ([1, 0], None, 1.0),
    ([0, 0, 1], None, 0.3333333333333333),
    ([1, 1, 0, 0], None, 1.0),
    ([0, 0, 1, 1], None, 0.4166666666666667),
    ([1, 0, 1, 0, 1], None, 0.7555555555555555),
    ([0, 1, 0, 1, 0, 1], None, 0.5),
    ([1, 1, 0, 1], None, 0.9166666666666666),
    ([1, 0, 0, 0, 1], None, 0.7),
    ([0, 1, 1, 0, 0, 0, 1], None, 0.5317460317460317),
    ([1, 0, 1], 2, 1.0),
    ([1, 0, 1], 1, 1.0),
    ([0, 0, 1, 1], 2, 0.0),
    ([1, 1, 0, 1, 0, 0, 1, 0], 4, 0.9166666666666666),
    ([0, 1, 0, 0, 1, 1, 0, 1, 0, 1], 6, 0.4666666666666667),
]


def random_code(rng, length):
    return from_bits(rng.integers(0, 2, size=length))


def report_for(queries, query_labels, db, db_labels, k=None):
    """mean_average_precision on lists of BinaryCode, packed to word matrices."""
    return mean_average_precision(
        Codebook(queries).word_matrix(), np.asarray(query_labels),
        Codebook(db).word_matrix(), np.asarray(db_labels), k, db[0].length,
    )


def ranked_order(query, db):
    """The ranking of ``db`` for ``query``, read back from per-query AP.

    With only database row j relevant, AP = 1 / (rank of j), so one
    single-relevant MAP call per row recovers the full order.
    """
    positions = [
        round(1.0 / report_for([query], [1], db, np.arange(len(db)) == j).map)
        for j in range(len(db))
    ]
    return np.argsort(positions).tolist()


def dense_map_oracle(query_words, query_labels, database_words, database_labels, k):
    """The whole-matrix ranking that the block scan replaced, kept as an oracle.

    It holds (nq, n_db) int64 distances and order and float64 relevance,
    cumulative hits and precision, and takes every mean over the full matrix.
    """
    query_labels = np.asarray(query_labels, dtype=np.int64)
    database_labels = np.asarray(database_labels, dtype=np.int64)
    xor = query_words[:, None, :] ^ database_words[None, :, :]
    dists = np.bitwise_count(xor).sum(axis=2, dtype=np.int64)
    order = np.argsort(dists, axis=1, kind="stable")
    relevance = (database_labels[order] == query_labels[:, None]).astype(np.float64)

    positions = np.arange(1, relevance.shape[1] + 1, dtype=np.float64)
    cum_hits = np.cumsum(relevance, axis=1)
    precision = cum_hits / positions

    def _map_at(cutoff):
        rel = relevance if cutoff is None else relevance[:, :cutoff]
        prec = precision if cutoff is None else precision[:, :cutoff]
        hits = rel.sum(axis=1)
        ap = np.where(hits > 0, (prec * rel).sum(axis=1) / np.maximum(hits, 1), 0.0)
        return float(ap.mean()), ap

    full_map, per_query = _map_at(None)
    map_at_k = _map_at(k)[0] if k is not None else None
    curve = [
        (cutoff, float(relevance[:, :cutoff].mean()))
        for cutoff in _curve_cutoffs(relevance.shape[1])
    ]
    return full_map, map_at_k, per_query.tolist(), curve


def random_words(rng, n, length):
    """An (n, W) word matrix of uniformly random length-``length`` codes."""
    return pack_sign_rows(rng.integers(0, 2, size=(n, length)) - 0.5)


def assert_matches_dense(query_words, query_labels, database_words, database_labels,
                         k, length):
    report = mean_average_precision(
        query_words, query_labels, database_words, database_labels, k, length
    )
    full_map, map_at_k, per_query, curve = dense_map_oracle(
        query_words, query_labels, database_words, database_labels, k
    )
    assert report.map == full_map
    assert report.map_at_k == map_at_k
    assert report.per_query_ap == per_query
    assert report.precision_curve == curve


def majority_center_oracle(codes, labels):
    """Bit-by-bit majority vote per sorted label; a tie goes to +1."""
    centers = []
    for c in sorted(set(labels.tolist())):
        members = [code for code, label in zip(codes, labels) if label == c]
        bits = []
        for i in range(codes[0].length):
            ones = sum(code.bit(i) for code in members)
            bits.append(1 if 2 * ones >= len(members) else 0)
        centers.append(from_bits(bits))
    return centers


# --- ranking (the order inside mean_average_precision) -------------------------

def test_rank_puts_exact_match_first():
    rng = np.random.default_rng(0)
    codes = [random_code(rng, 16) for _ in range(12)]
    assert ranked_order(codes[7], codes)[0] == 7


def test_rank_breaks_ties_by_index():
    base = from_bits([1] * 8)
    near_a = flip_bits(base, [0])
    near_b = flip_bits(base, [5])
    order = ranked_order(base, [near_b, near_a, base])
    assert order == [2, 0, 1]  # distance 0, then the two distance-1 ties


def test_rank_matches_sort_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        codes = [random_code(rng, 6) for _ in range(30)]  # short codes: many ties
        query = random_code(rng, 6)
        expected = sorted(
            range(30), key=lambda i: (oracle_distance(query, codes[i]), i)
        )
        assert ranked_order(query, codes) == expected


def test_rank_length_mismatch():
    short = Codebook([from_bits([1, 0])]).word_matrix()
    wide = Codebook([from_bits([1] * 65)]).word_matrix()
    with pytest.raises(ValueError, match="words per row"):
        mean_average_precision(short, [0], wide, [0], None, 2)
    with pytest.raises(ValueError, match="words per row"):
        mean_average_precision(wide, [0], wide, [0], None, 64)


# --- average precision ------------------------------------------------------------

@pytest.mark.parametrize("relevance,k,expected", AP_CASES)
def test_average_precision_frozen_values(relevance, k, expected):
    value = average_precision(relevance, k)
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(float(oracle_ap(relevance, k)), abs=1e-12)


def test_average_precision_random_against_fraction_oracle():
    rng = np.random.default_rng(2)
    for _ in range(200):
        relevance = rng.integers(0, 2, size=int(rng.integers(1, 40))).tolist()
        k = None if rng.random() < 0.5 else int(rng.integers(1, len(relevance) + 1))
        assert average_precision(relevance, k) == pytest.approx(
            float(oracle_ap(relevance, k)), abs=1e-12
        )


def test_average_precision_prepending_hit_never_hurts():
    rng = np.random.default_rng(3)
    for _ in range(200):
        relevance = rng.integers(0, 2, size=int(rng.integers(1, 30))).tolist()
        assert average_precision([1] + relevance) >= average_precision(relevance) - 1e-15


def test_average_precision_validation():
    with pytest.raises(ValueError):
        average_precision([])
    with pytest.raises(ValueError):
        average_precision([1, 0], k=0)
    for bad in ([2, 0], [0.5, 1], [1, np.nan], [-1, 1]):
        with pytest.raises(ValueError, match="0 or 1"):
            average_precision(bad)


def test_average_precision_takes_bools_and_floats():
    for relevance, k, expected in AP_CASES:
        as_bools = [rel == 1 for rel in relevance]
        assert average_precision(as_bools, k) == pytest.approx(expected, abs=1e-12)
        for values in (np.array(as_bools), np.array(relevance, dtype=float)):
            assert average_precision(values, k) == average_precision(relevance, k)


# --- MAP reports --------------------------------------------------------------------

def test_map_self_retrieval_unique_labels():
    rng = np.random.default_rng(4)
    codes = [random_code(rng, 16) for _ in range(8)]
    labels = np.arange(8)
    report = report_for(codes, labels, codes, labels)
    assert report.map == 1.0
    assert report.per_query_ap == [1.0] * 8


def test_map_two_query_hand_example():
    # database: three codes at distances (0,1,2) from the query point; with
    # labels [0,1,0] a label-0 query sees relevance [1,0,1] -> 5/6 and a
    # label-1 query sees [0,1,0] -> 1/2, so the mean is 2/3
    base = from_bits([1] * 8)
    db = [base, flip_bits(base, [0]), flip_bits(base, [0, 1])]
    db_labels = np.array([0, 1, 0])
    queries = [base, base]
    query_labels = np.array([0, 1])
    report = report_for(queries, query_labels, db, db_labels)
    expected = (float(oracle_ap([1, 0, 1])) + float(oracle_ap([0, 1, 0]))) / 2
    assert expected == pytest.approx(2 / 3, abs=1e-15)
    assert report.map == pytest.approx(expected, abs=1e-12)
    assert report.per_query_ap[0] == pytest.approx(5 / 6, abs=1e-12)
    assert report.per_query_ap[1] == pytest.approx(1 / 2, abs=1e-12)


def test_map_random_labels_approaches_class_prior():
    # With labels assigned independently of the codes, E[AP] ~ prior p
    rng = np.random.default_rng(5)
    p = 0.3
    n_db = 4000
    db = [random_code(rng, 32) for _ in range(300)]
    db_labels = (rng.random(300) < p).astype(np.int64)
    # resample db to n_db by reusing codes with fresh random labels
    db = db * (n_db // 300 + 1)
    db = db[:n_db]
    db_labels = (rng.random(n_db) < p).astype(np.int64)
    queries = [random_code(rng, 32) for _ in range(40)]
    query_labels = np.ones(40, dtype=np.int64)
    report = report_for(queries, query_labels, db, db_labels)
    assert report.map == pytest.approx(p, abs=0.02)


def test_map_at_k_recorded():
    rng = np.random.default_rng(6)
    codes = [random_code(rng, 16) for _ in range(20)]
    labels = rng.integers(0, 3, size=20)
    report = report_for(codes, labels, codes, labels, k=5)
    assert report.k == 5
    assert report.map_at_k is not None
    assert 0.0 <= report.map_at_k <= 1.0
    no_cutoff = report_for(codes, labels, codes, labels)
    assert no_cutoff.k is None and no_cutoff.map_at_k is None


def test_map_permutation_invariant_without_ties():
    # distinct distances per query => ranking content independent of order
    base = from_bits([1] * 16)
    db = [flip_bits(base, range(d)) for d in range(8)]  # distances 0..7
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    report = report_for([base], np.array([0]), db, labels)
    rng = np.random.default_rng(7)
    for _ in range(10):
        perm = rng.permutation(8)
        shuffled = report_for([base], np.array([0]), [db[i] for i in perm], labels[perm])
        assert shuffled.map == report.map


def test_map_bounds_and_curve():
    rng = np.random.default_rng(8)
    db = [random_code(rng, 16) for _ in range(120)]
    db_labels = rng.integers(0, 4, size=120)
    queries = [random_code(rng, 16) for _ in range(9)]
    report = report_for(queries, rng.integers(0, 4, size=9), db, db_labels)
    assert 0.0 <= report.map <= 1.0
    assert [k for k, _ in report.precision_curve] == [1, 5, 10, 50, 100]
    assert all(0.0 <= v <= 1.0 for _, v in report.precision_curve)


# --- the block scan against the dense oracle ------------------------------------------

# 1 ranks one query per block, 7 gives ragged blocks, 10**9 one block for all
CHUNKS = [1, 7, 10**9]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("length", [1, 3, 6, 64, 65, 192, 193, 256])
def test_block_scan_matches_dense_oracle(monkeypatch, chunk, length):
    # short codes tie heavily; 192 / 193 cross the uint8 / uint16 switch.
    # Labels are unsorted and non-contiguous, and k runs past the database.
    monkeypatch.setattr(evaluation, "_CHUNK_PAIRS", chunk)
    rng = np.random.default_rng([length, chunk])
    label_values = np.array([11, -4, 3, 8, 0, 27, -9, 5, 14, 2])
    for _ in range(12):
        nq, n_db = int(rng.integers(1, 13)), int(rng.integers(1, 60))
        query_words = random_words(rng, nq, length)
        database_words = random_words(rng, n_db, length)
        if rng.random() < 0.5:  # queries that also sit in the database
            picks = rng.integers(0, n_db, size=nq)
            query_words = database_words[picks]
        query_labels = rng.choice(label_values, size=nq)
        # up to 10 classes: more than the 2**L codewords at L = 1 and 3
        classes = int(rng.integers(1, len(label_values) + 1))
        database_labels = rng.choice(label_values[:classes], size=n_db)
        k = [None, 1, int(rng.integers(1, n_db + 1)), n_db + 5][int(rng.integers(0, 4))]
        assert_matches_dense(
            query_words, query_labels, database_words, database_labels, k, length
        )


@pytest.mark.parametrize("chunk", CHUNKS)
def test_block_scan_single_class_database(monkeypatch, chunk):
    # one database class: queries of another class score AP 0 everywhere
    monkeypatch.setattr(evaluation, "_CHUNK_PAIRS", chunk)
    rng = np.random.default_rng(chunk)
    database_words = random_words(rng, 30, 6)
    query_words = random_words(rng, 9, 6)
    query_labels = np.array([5, 2, 5, 5, 2, 5, 2, 2, 5])
    for k in (None, 3, 30, 31, 100):
        assert_matches_dense(query_words, query_labels, database_words,
                             np.full(30, 5), k, 6)
    report = mean_average_precision(
        query_words, query_labels, database_words, np.full(30, 5), 100, 6
    )
    assert report.per_query_ap == [1.0 if c == 5 else 0.0 for c in query_labels]
    assert report.min_interclass_distance is None


@pytest.mark.parametrize("chunk", CHUNKS)
def test_query_label_absent_from_the_database(monkeypatch, chunk):
    # label 7 has no relevant rank: AP and MAP@k 0, no hit in the curve
    monkeypatch.setattr(evaluation, "_CHUNK_PAIRS", chunk)
    rng = np.random.default_rng(chunk)
    database_words = random_words(rng, 40, 12)
    database_labels = rng.integers(0, 3, size=40)
    query_words = random_words(rng, 6, 12)
    query_labels = np.array([7, 1, 7, 0, 2, 7])
    for k in (None, 1, 10, 40, 41):
        assert_matches_dense(query_words, query_labels, database_words,
                             database_labels, k, 12)
    report = mean_average_precision(query_words, np.full(6, 7), database_words,
                                    database_labels, 10, 12)
    assert report.map == 0.0 and report.map_at_k == 0.0
    assert report.per_query_ap == [0.0] * 6
    assert all(value == 0.0 for _, value in report.precision_curve)


def test_block_scan_matches_dense_oracle_on_a_larger_database(monkeypatch):
    # a few hundred rows reach the 50 and 100 cutoffs of the precision curve
    monkeypatch.setattr(evaluation, "_CHUNK_PAIRS", 1000)
    rng = np.random.default_rng(11)
    database_words = random_words(rng, 700, 10)
    database_labels = rng.integers(-3, 7, size=700) * 3
    query_words = random_words(rng, 23, 10)
    query_labels = rng.integers(-3, 7, size=23) * 3
    for k in (None, 50, 699, 1000):
        assert_matches_dense(query_words, query_labels, database_words,
                             database_labels, k, 10)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("length", [1, 6, 64, 65])
def test_duplicate_queries_are_ranked_once(monkeypatch, chunk, length):
    # Queries drawn from a 4-code x 3-label grid: the same code under several
    # labels, the same label under several codes, and repeats spread over the
    # query order.  Here ``chunk`` counts rows per block, so the distinct rows
    # fall in one block each, in ragged blocks of 7, or all in one block.
    n_db = 25
    monkeypatch.setattr(evaluation, "_CHUNK_PAIRS", chunk * n_db)
    ranked = []
    real_matrix = evaluation.packed_hamming_matrix

    def spy(query_words, database_words):
        ranked.append(len(query_words))
        return real_matrix(query_words, database_words)

    monkeypatch.setattr(evaluation, "packed_hamming_matrix", spy)
    rng = np.random.default_rng([length, chunk])
    database_words = random_words(rng, n_db, length)
    database_labels = rng.integers(0, 3, size=n_db)
    query_words = random_words(rng, 4, length)[rng.integers(0, 4, size=40)]
    query_labels = rng.integers(0, 3, size=40)
    distinct = {(tuple(w), c) for w, c in zip(query_words.tolist(), query_labels.tolist())}
    assert len(distinct) <= 12
    for k in (None, 1, n_db, n_db + 5):
        ranked.clear()
        assert_matches_dense(
            query_words, query_labels, database_words, database_labels, k, length
        )
        assert sum(ranked) == len(distinct)
        assert max(ranked) <= min(chunk, len(distinct))


def stacked_inputs(rng, groups, length):
    """G groups of queries and databases that share two label vectors.

    Codes come from a pool of four, so distances tie heavily; group 0's
    queries are all one code, and the last group repeats the codes of the
    one before it.  Half the databases are small enough that a 7-pair block
    holds several distinct rows, so blocks cut across group boundaries.
    """
    n = int(rng.integers(1, 12))
    n_db = int(rng.integers(1, 8) if rng.random() < 0.5 else rng.integers(8, 40))
    pool = random_words(rng, 4, length)
    query_words = pool[rng.integers(0, 4, size=(groups, n))]
    database_words = pool[rng.integers(0, 4, size=(groups, n_db))]
    query_words[0] = query_words[0, 0]
    if groups > 1:
        query_words[-1], database_words[-1] = query_words[-2], database_words[-2]
    label_values = np.array([11, -4, 3, 8, 0])
    query_labels = rng.choice(label_values, size=n)
    database_labels = rng.choice(label_values[: int(rng.integers(1, 6))], size=n_db)
    return query_words, query_labels, database_words, database_labels


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("length", [1, 3, 12, 64, 65, 200])
@pytest.mark.parametrize("groups", [1, 2, 7])
def test_stacked_scan_matches_per_group_calls(monkeypatch, chunk, length, groups):
    # every number of a group equals that of a mean_average_precision call
    # on the group alone, compared with ==
    monkeypatch.setattr(evaluation, "_CHUNK_PAIRS", chunk)
    rng = np.random.default_rng([length, chunk, groups])
    for _ in range(4):
        stack = stacked_inputs(rng, groups, length)
        query_words, query_labels, database_words, database_labels = stack
        n, n_db = query_words.shape[1], database_words.shape[1]
        reports = {
            k: [
                mean_average_precision(query_words[g], query_labels, database_words[g],
                                       database_labels, k, length)
                for g in range(groups)
            ]
            for k in (None, 1, n_db + 5)
        }
        cutoffs = _curve_cutoffs(n_db)
        for k, want in reports.items():
            inverse, counts, ap, ap_at_k, within = evaluation._rank(*stack, k, cutoffs)
            assert np.array_equal(np.bincount(inverse.ravel()), counts)
            for g, report in enumerate(want):
                assert ap[inverse[g]].tolist() == report.per_query_ap
                if k is not None:
                    assert float(ap_at_k[inverse[g]].mean()) == report.map_at_k
                hits = within[inverse[g]].sum(axis=0).tolist()
                curve = [(c, h / (n * c)) for c, h in zip(cutoffs, hits)]
                assert curve == report.precision_curve
        maps, distances = stacked_scores(*stack, length)
        assert maps == [report.map for report in reports[None]]
        assert distances == [report.min_interclass_distance for report in reports[None]]


def test_stacked_scores_rank_each_distinct_row_once(monkeypatch):
    # two identical groups rank their shared codes once per group
    rng = np.random.default_rng(3)
    database_words = random_words(rng, 20, 12)[None].repeat(2, axis=0)
    query_words = random_words(rng, 2, 12)[rng.integers(0, 2, size=(2, 10))]
    query_words[1] = query_words[0]
    labels = np.zeros(10, dtype=int)
    ranked = []
    real_matrix = evaluation.packed_hamming_matrix

    def spy(query_words, database_words):
        ranked.append(len(query_words))
        return real_matrix(query_words, database_words)

    monkeypatch.setattr(evaluation, "packed_hamming_matrix", spy)
    stacked_scores(query_words, labels, database_words, rng.integers(0, 2, size=20), 12)
    assert sum(ranked) == 2 * len({tuple(w) for w in query_words[0].tolist()})


def test_stacked_scores_validation():
    words = random_words(np.random.default_rng(0), 4, 8)
    stack, labels = words[None], np.arange(4)
    # one class per row: each query finds its own row first, and the centers
    # are the rows themselves
    assert stacked_scores(stack, labels, stack, labels, 8) == (
        [1.0], [codebook_min_distance(words)]
    )
    with pytest.raises(ValueError, match="stacks"):
        stacked_scores(words, labels, words, labels, 8)
    with pytest.raises(ValueError, match="stacks"):
        stacked_scores(stack, labels, stack.repeat(2, axis=0), labels, 8)
    with pytest.raises(ValueError, match="stacks"):
        stacked_scores(stack[:0], labels, stack[:0], labels, 8)
    with pytest.raises(ValueError, match="words per row"):
        stacked_scores(stack, labels, stack, labels, 65)
    with pytest.raises(ValueError, match="database labels"):
        stacked_scores(stack, labels, stack, labels[:3], 8)
    with pytest.raises(ValueError, match="nonempty"):
        stacked_scores(stack[:, :0], labels[:0], stack, labels, 8)
    # one database class: no center distance
    assert stacked_scores(stack, labels, stack, np.zeros(4), 8)[1] == [None]


def map_peak_bytes(database_words, database_labels, num_queries):
    """tracemalloc's peak over one MAP@100 call of the first ``num_queries``
    database rows against the whole database."""
    tracemalloc.start()
    try:
        mean_average_precision(
            database_words[:num_queries], database_labels[:num_queries],
            database_words, database_labels, 100, 64,
        )
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_map_memory_does_not_grow_with_queries():
    # the dense form needs over 32 bytes per pair: about 500 MB at 128 x 100k
    rng = np.random.default_rng(12)
    database_words = rng.integers(0, 2**64, size=(100_000, 1), dtype=np.uint64)
    database_labels = rng.integers(0, 50, size=100_000)
    few = map_peak_bytes(database_words, database_labels, 16)
    many = map_peak_bytes(database_words, database_labels, 128)
    assert many < 32 * 2**20
    assert many <= 1.5 * few


def test_map_memory_does_not_grow_with_queries_on_two_classes():
    # half of all pairs are relevant, and the relevant-rank arrays grow with them
    rng = np.random.default_rng(13)
    database_words = rng.integers(0, 2**64, size=(100_000, 1), dtype=np.uint64)
    database_labels = rng.integers(0, 2, size=100_000)
    few = map_peak_bytes(database_words, database_labels, 16)
    many = map_peak_bytes(database_words, database_labels, 128)
    assert many < 32 * 2**20
    assert many <= 1.5 * few


def test_map_validation():
    words = Codebook([from_bits([1, 0])]).word_matrix()
    empty = np.zeros((0, 1), dtype=np.uint64)
    with pytest.raises(ValueError, match="nonempty"):
        mean_average_precision(empty, np.array([]), words, np.array([0]), None, 2)
    with pytest.raises(ValueError, match="query labels"):
        mean_average_precision(words, np.array([0, 1]), words, np.array([0]), None, 2)
    with pytest.raises(ValueError, match="database labels"):
        mean_average_precision(words, np.array([0]), words, np.array([]), None, 2)
    with pytest.raises(ValueError, match="k must be"):
        mean_average_precision(words, np.array([0]), words, np.array([0]), 0, 2)
    with pytest.raises(ValueError, match="uint64"):
        mean_average_precision(words.astype(np.int64), [0], words, [0], None, 2)
    with pytest.raises(ValueError, match="uint64"):
        mean_average_precision(words[0], [0], words, [0], None, 2)


def test_map_rejects_non_integer_labels():
    # a cast to int64 would read [0.9] against [0.2, 0.7, 1.5] as [0] against
    # [0, 0, 1] and report MAP 1.0
    codes = [from_bits([1, 0]), from_bits([0, 1]), from_bits([1, 1])]
    words = Codebook(codes).word_matrix()
    with pytest.raises(ValueError, match="query labels must be integers"):
        mean_average_precision(words[:1], [0.9], words, [0.2, 0.7, 1.5], None, 2)
    with pytest.raises(ValueError, match="database labels must be integers"):
        mean_average_precision(words[:1], [0], words, [0.2, 0.7, 1.5], None, 2)
    with pytest.raises(ValueError, match="labels must be integers"):
        mean_average_precision(words[:1], [0], words, [0, 1, np.nan], None, 2)
    with pytest.raises(ValueError, match="labels must be integers"):
        class_center_codes(words, 2, [0.5, 0.0, 1.0])
    # integer-valued floats are labels like any other
    report = mean_average_precision(words[:1], [1.0], words, [0.0, 1.0, 1.0], None, 2)
    assert report.map == mean_average_precision(words[:1], [1], words, [0, 1, 1], None, 2).map


# --- interclass diagnostics -----------------------------------------------------------

def test_min_interclass_distance_antipodal():
    a = from_bits([1] * 12)
    b = flip_bits(a, range(12))
    report = report_for([a], [0], [a, b], [0, 1])
    assert report.min_interclass_distance == 12


def test_min_interclass_distance_shared_code_is_zero():
    a = from_bits([1, 0, 1, 0])
    assert report_for([a], [0], [a, a], [0, 1]).min_interclass_distance == 0


def test_min_interclass_distance_matches_scan():
    rng = np.random.default_rng(9)
    for _ in range(10):
        codes = [random_code(rng, 16) for _ in range(25)]
        labels = rng.integers(0, 4, size=25)
        centers = majority_center_oracle(codes, labels)
        oracle = min(
            oracle_distance(centers[i], centers[j])
            for i in range(len(centers))
            for j in range(i + 1, len(centers))
        )
        report = report_for(codes[:3], labels[:3], codes, labels)
        assert report.min_interclass_distance == oracle
        center_words = class_center_codes(Codebook(codes).word_matrix(), 16, labels)
        assert codebook_min_distance(center_words) == oracle


def test_min_interclass_distance_single_class_error():
    codes = [from_bits([1]), from_bits([0])]
    report = report_for(codes, [0, 0], codes, [0, 0])
    assert report.min_interclass_distance is None
    assert report.target_distance is None
    centers = class_center_codes(Codebook(codes).word_matrix(), 1, np.array([0, 0]))
    with pytest.raises(ValueError, match="two codes"):
        codebook_min_distance(centers)


@pytest.mark.parametrize("length", [1, 2, 3])
def test_more_classes_than_codewords(length):
    # the ranking is well defined; only the packing bound has no answer, and
    # some two of the 2**L + 3 class centers must coincide
    rng = np.random.default_rng(length)
    classes = 2**length + 3
    database_words = random_words(rng, 40, length)
    database_labels = rng.permutation(np.arange(40) % classes)
    query_words = random_words(rng, 9, length)
    query_labels = rng.integers(0, classes, size=9)
    report = mean_average_precision(
        query_words, query_labels, database_words, database_labels, 5, length
    )
    assert report.target_distance is None
    assert report.min_interclass_distance == 0
    assert_matches_dense(
        query_words, query_labels, database_words, database_labels, 5, length
    )


def test_no_target_distance_past_the_code_length_limit():
    # the ranking and the center distance still run; the bound has no answer
    rng = np.random.default_rng(7)
    length = MAX_CODE_BITS + 1
    database_words = random_words(rng, 8, length)
    database_labels = np.arange(8) % 3
    report = mean_average_precision(
        database_words[:3], database_labels[:3], database_words, database_labels,
        4, length,
    )
    assert report.target_distance is None
    assert report.min_interclass_distance > 0
    assert_matches_dense(
        database_words[:3], database_labels[:3], database_words, database_labels,
        4, length,
    )


def test_class_center_codes_majority_vote():
    codes = [
        from_bits([1, 1, 0, 0]),
        from_bits([1, 0, 0, 0]),
        from_bits([1, 1, 1, 0]),  # class 0: majority (1, 1, 0, 0)
        from_bits([0, 0, 1, 1]),  # class 1: itself
    ]
    centers = class_center_codes(Codebook(codes).word_matrix(), 4, np.array([0, 0, 0, 1]))
    expected = Codebook([from_bits([1, 1, 0, 0]), from_bits([0, 0, 1, 1])])
    assert np.array_equal(centers, expected.word_matrix())


def test_class_center_tie_goes_positive():
    codes = [from_bits([1, 0]), from_bits([0, 1])]
    centers = class_center_codes(Codebook(codes).word_matrix(), 2, np.array([0, 0]))
    assert np.array_equal(centers, Codebook([from_bits([1, 1])]).word_matrix())


@pytest.mark.parametrize("length", [1, 12, 64, 65, 130])
def test_class_center_codes_match_majority_oracle(length):
    # even and odd class sizes, so exact +-1 ties occur; labels are
    # non-contiguous and unsorted, so rows follow the sorted label order
    rng = np.random.default_rng(length)
    for _ in range(5):
        sizes = rng.integers(1, 7, size=4)
        label_values = np.array([-3, 2, 9, 40])
        labels = rng.permutation(np.repeat(label_values, sizes))
        codes = [random_code(rng, length) for _ in range(len(labels))]
        expected = majority_center_oracle(codes, labels)
        centers = class_center_codes(Codebook(codes).word_matrix(), length, labels)
        assert centers.shape == (4, (length + 63) // 64)
        assert np.array_equal(centers, Codebook(expected).word_matrix())


def test_class_center_codes_match_majority_oracle_on_many_rows():
    # three words per code and over a thousand rows, labels unsorted
    rng = np.random.default_rng(130)
    labels = rng.choice(np.array([7, -2, 30, 4, 0]), size=1100)
    codes = [random_code(rng, 130) for _ in range(len(labels))]
    centers = class_center_codes(Codebook(codes).word_matrix(), 130, labels)
    expected = Codebook(majority_center_oracle(codes, labels)).word_matrix()
    assert np.array_equal(centers, expected)


def test_class_center_codes_validation():
    words = Codebook([from_bits([1, 0]), from_bits([0, 1])]).word_matrix()
    with pytest.raises(ValueError, match="labels must match"):
        class_center_codes(words, 2, np.array([0]))
    with pytest.raises(ValueError, match="words per row"):
        class_center_codes(words, 65, np.array([0, 1]))
    with pytest.raises(ValueError, match="at least one"):
        class_center_codes(words[:0], 2, np.array([], dtype=np.int64))


def test_report_diagnostics_respect_bound():
    # trained-like setup: tight clusters around distinct class codes
    rng = np.random.default_rng(10)
    length, classes = 12, 4
    class_codes = []
    seen = set()
    while len(class_codes) < classes:
        code = random_code(rng, length)
        if code.words not in seen:
            seen.add(code.words)
            class_codes.append(code)
    db, db_labels = [], []
    for c, code in enumerate(class_codes):
        for _ in range(20):
            db.append(flip_bits(code, rng.choice(length, size=1)))
            db_labels.append(c)
    report = report_for([class_codes[0]], np.array([0]), db, np.array(db_labels))
    assert report.min_interclass_distance is not None
    assert report.target_distance is not None
    problem = BoundProblem(length, classes)
    if report.min_interclass_distance >= 1:
        assert bound_holds(problem, report.min_interclass_distance)
