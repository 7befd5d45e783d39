"""Exact Hamming-ranked retrieval metrics: MAP, MAP@k, precision curves.

Ranking is a full linear scan sorted by (distance ascending, database index
ascending); ties are therefore resolved by database order, which makes every
number here deterministic for fixed inputs.  A query's numbers then depend
only on its code and its label, so each distinct (code, label) query is
ranked once and its result is given back to every query that holds it
(trained codes collapse, so most validation queries repeat one another).

The scan walks the distinct queries in blocks of about ``_CHUNK_PAIRS`` =
2**16 (query, database row) pairs (one query at least), so memory stays
bounded however many queries there are.  A block first holds its popcount
intermediates (9 bytes per word pair, see ``packed_hamming_matrix``) and
uint8/uint16 distances, then their int64 stable argsort (a radix sort for
such narrow integers) and the bool relevance gathered through it, then only
that relevance and a zeroed float64 precision matrix: about 10 bytes per
pair at once for codes of up to 64 bits, some 0.7 MB per block.  The
relevant ranks add some 40 bytes per relevant pair.  One kernel,
``_ranked_ap``, turns a block's relevance into AP: it computes precision
only at the relevant ranks, as the running hit count over the position, and
writes it into the zeroed matrix; AP sums each row, so each float, its
position and the order of the sum are those of the dense cumulative form.
Hits within a cutoff (MAP@k's depth, the precision curve) are counted by
binary search in the relevant ranks' sorted row-major keys.  Each query's
AP is summed within its own row, so the numbers are the same for any block
size.  ``average_precision`` is the kernel's one-row case.

The scan, ``_rank``, and the center-code pass, ``_center_distances``, each
take a stack of G groups that share one query and one database label
vector: ``_rank`` ranks each group's queries against its own database, and
one pass over all G databases gives every group's class-center codes (class
c of group g is center g * C + c).  ``mean_average_precision`` is their
G = 1 case.  ``stacked_scores`` runs them on G groups at once, for
training, which records one MAP and one center-code distance per epoch: its
distinct queries are keyed by (group, code, label), and a block may hold
rows of several groups (each group's distances come from its own database).
So each group gets the bits that a ``mean_average_precision`` call on it
alone gives, and the fixed numpy cost of a call is paid once per stack.

Average precision truncated at k divides by the number of relevant items
retrieved within the top k (not by the total relevant in the database).
With a full-length ranking the two conventions coincide; at a cutoff they do
not, and the retrieved-within-k denominator is the one used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import MAX_CODE_BITS, BoundProblem, solve_target_distance
from .codes import (
    check_words,
    codebook_min_distance,
    pack_sign_rows,
    packed_hamming_matrix,
)
from .data import _integer_labels

__all__ = [
    "EvalReport",
    "average_precision",
    "mean_average_precision",
    "stacked_scores",
    "class_center_codes",
]

# Cutoffs for the precision curve: 1, 5, 10, 50, 100, 500, ...
_CURVE_PATTERN = (1, 5)

# Target number of (query, database row) pairs ranked at once.
_CHUNK_PAIRS = 1 << 16


def _curve_cutoffs(limit: int) -> list[int]:
    out = []
    scale = 1
    while True:
        for base in _CURVE_PATTERN:
            k = base * scale
            if k > limit:
                return out
            out.append(k)
        scale *= 10


def average_precision(relevance: Sequence[int] | np.ndarray, k: int | None = None) -> float:
    """AP of a ranked 0/1 relevance list, optionally truncated at k.

    AP = sum_{i<=k} precision(i) * rel(i) / (# relevant within top k), and 0
    when nothing relevant appears within the cutoff.
    """
    rel = np.asarray(relevance)
    if rel.ndim != 1 or len(rel) == 0:
        raise ValueError("relevance must be a nonempty 1-d list")
    if not ((rel == 0) | (rel == 1)).all():
        raise ValueError("relevance values must be 0 or 1")
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    return float(_ranked_ap(rel[None, :] == 1, k, [])[1][0])


def _ranked_ap(
    relevance: np.ndarray, k: int | None, cutoffs: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's AP, its AP@k (the AP when k is None) and its hits within
    each cutoff, from a (rows, n) bool relevance matrix in rank order."""
    rows, n = relevance.shape
    r, c = np.nonzero(relevance)  # the relevant ranks, row by row
    hits = np.bincount(r, minlength=rows)
    starts = np.cumsum(hits) - hits
    precision = np.zeros(relevance.shape)
    precision[r, c] = (np.arange(1, len(r) + 1) - starts[r]) / (c + 1.0)
    # hits within each limit, the last of which is MAP@k's depth
    limits = np.array([*cutoffs, n if k is None else min(k, n)])
    within = np.searchsorted(r * n + c, np.arange(rows)[:, None] * n + limits)
    within -= starts[:, None]
    sums = precision.sum(axis=1)
    sums = np.stack([sums, sums if k is None else precision[:, :k].sum(axis=1)])
    counts = np.stack([hits, within[:, -1]])
    ap, ap_at_k = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    return ap, ap_at_k, within[:, :-1]


def _check_labels(words: np.ndarray, labels: np.ndarray, what: str = "") -> np.ndarray:
    labels = _integer_labels(labels, f"{what}labels")
    if labels.shape != (len(words),):
        raise ValueError(f"{what}labels must match the {what}codes")
    return labels


def class_center_codes(words: np.ndarray, length: int, labels: np.ndarray) -> np.ndarray:
    """Per-class center codes: the majority symbol in each bit position.

    Takes an (n, W) word matrix of length-``length`` codes and returns a
    (C, W) word matrix whose row i is the center of the i-th smallest label.
    Ties between +1 and -1 go to +1, matching the sgn(0) = +1 binarization
    convention.
    """
    check_words(words, length)
    labels = _check_labels(words, labels)
    if len(words) == 0:
        raise ValueError("center codes need at least one code")
    _, dense_ids, counts = np.unique(labels, return_inverse=True, return_counts=True)
    return _center_codes(words, length, dense_ids, counts)


def _center_codes(
    words: np.ndarray, length: int, ids: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """``class_center_codes`` on checked words, with each row's class id in
    0..C-1 and each class's row count given."""
    ones = np.empty((len(counts), length))
    # one bit column at a time, so the scratch stays O(n) for any length
    for i in range(length):
        has_bit = (words[:, i >> 6] & np.uint64(1 << (i & 63))) != 0
        ones[:, i] = np.bincount(ids, weights=has_bit, minlength=len(counts))
    # 2 * ones - count is the sum of the +-1 symbols; a tie (0) packs to +1
    return pack_sign_rows(2 * ones - counts[:, None])


def _center_distances(
    words: np.ndarray, labels: np.ndarray, length: int
) -> tuple[int, list[int | None]]:
    """The class count, and each group's minimum distance between its class
    center codes (None below two classes), for a checked (G, m, W) database
    stack whose groups share the labels."""
    groups, size, width = words.shape
    _, dense, counts = np.unique(labels, return_inverse=True, return_counts=True)
    if len(counts) < 2:
        return len(counts), [None] * groups
    # center g * C + c is group g's class c, from one pass over every row
    centers = _center_codes(
        words.reshape(groups * size, width),
        length,
        (np.arange(groups)[:, None] * len(counts) + dense).ravel(),
        np.tile(counts, groups),
    )
    return len(counts), [
        codebook_min_distance(c) for c in centers.reshape(groups, len(counts), width)
    ]


def _distinct_rows(
    words: np.ndarray, *keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (keys, code) rows, sorted by the last key first: each
    one's first row, every row's distinct index, and each one's count, via
    one lexsort."""
    order = np.lexsort((*words.T, *keys))
    words = words[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (words[1:] != words[:-1]).any(axis=1)
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    return order[starts], inverse, np.diff(starts, append=len(order))


def _rank(
    query_words: np.ndarray,
    query_labels: np.ndarray,
    database_words: np.ndarray,
    database_labels: np.ndarray,
    k: int | None,
    cutoffs: list[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rank G groups' (n, W) queries, (G, n, W), each against its own group's
    (m, W) database, (G, m, W); every group shares the two label vectors.

    Returns each query's distinct row, (G, n); and per distinct (group, code,
    label) row its query count, AP, AP@k and hits within each cutoff.
    """
    groups, n, width = query_words.shape
    words = query_words.reshape(groups * n, width)
    labels = np.tile(query_labels, groups)
    keys = (labels,) if groups == 1 else (labels, np.repeat(np.arange(groups), n))
    first, inverse, counts = _distinct_rows(words, *keys)
    words, labels, group = words[first], labels[first], first // n
    # the distinct rows come group by group: group g's are bounds[g]:bounds[g + 1]
    bounds = np.searchsorted(group, np.arange(groups + 1))

    ap, ap_at_k = np.empty(len(first)), np.empty(len(first))
    within = np.empty((len(first), len(cutoffs)), dtype=np.intp)
    block = max(1, _CHUNK_PAIRS // database_words.shape[1])
    for lo in range(0, len(first), block):
        hi = min(lo + block, len(first))
        parts = [
            packed_hamming_matrix(
                words[max(lo, bounds[g]) : min(hi, bounds[g + 1])], database_words[g]
            )
            for g in range(group[lo], group[hi - 1] + 1)
        ]
        order = np.argsort(
            parts[0] if len(parts) == 1 else np.concatenate(parts), axis=1, kind="stable"
        )
        del parts
        # relevance gathered as bools from the block's flat (row, index) matches
        order += np.arange(0, order.size, order.shape[1])[:, None]
        relevance = (database_labels == labels[lo:hi, None]).ravel()[order]
        del order  # only relevance lives on into the AP kernel
        ap[lo:hi], ap_at_k[lo:hi], within[lo:hi] = _ranked_ap(relevance, k, cutoffs)
    return inverse.reshape(groups, n), counts, ap, ap_at_k, within


@dataclass(frozen=True)
class EvalReport:
    """Retrieval quality plus codebook diagnostics against the packing bound.

    ``min_interclass_distance`` is measured on the per-class center codes of
    the database; ``target_distance`` is the bound-derived separation for
    the same (code length, class count), and None when the database holds
    more classes than the 2**L codewords (the bound has no answer then) or L
    exceeds ``bounds.MAX_CODE_BITS``.  Both are None when the database holds
    fewer than two classes.
    """

    map: float
    map_at_k: float | None
    k: int | None
    precision_curve: list[tuple[int, float]]
    min_interclass_distance: int | None
    target_distance: int | None
    per_query_ap: list[float]


def _check_pair(
    query_words: np.ndarray,
    query_labels: np.ndarray,
    database_words: np.ndarray,
    database_labels: np.ndarray,
    length: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The two label vectors, checked against nonempty word matrices of length-L codes."""
    check_words(query_words, length)
    check_words(database_words, length)
    query_labels = _check_labels(query_words, query_labels, "query ")
    database_labels = _check_labels(database_words, database_labels, "database ")
    if len(query_words) == 0 or len(database_words) == 0:
        raise ValueError("query and database must both be nonempty")
    return query_labels, database_labels


def mean_average_precision(
    query_words: np.ndarray,
    query_labels: np.ndarray,
    database_words: np.ndarray,
    database_labels: np.ndarray,
    k: int | None,
    length: int,
) -> EvalReport:
    """Mean AP over queries with relevance = label equality.

    Queries and database are (n, W) word matrices of length-``length``
    codes.  Rankings use the deterministic (distance, index) order.  The
    report also carries MAP@k when ``k`` is given, precision@k at cutoffs 1,
    5, 10, 50, ... up to the database size, and the center-distance
    diagnostic described on :class:`EvalReport`.
    """
    query_labels, database_labels = _check_pair(
        query_words, query_labels, database_words, database_labels, length
    )
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")

    cutoffs = _curve_cutoffs(len(database_words))
    inverse, counts, ap, ap_at_k, within = _rank(
        query_words[None], query_labels, database_words[None], database_labels, k, cutoffs
    )
    per_query = ap[inverse[0]]
    # each distinct row's hits count once per query that holds it
    curve = [
        (cutoff, hits / (len(query_words) * cutoff))
        for cutoff, hits in zip(cutoffs, (counts @ within).tolist())
    ]

    num_classes, [min_dist] = _center_distances(database_words[None], database_labels, length)
    target: int | None = None
    if num_classes >= 2 and (num_classes - 1).bit_length() <= length <= MAX_CODE_BITS:
        target = solve_target_distance(BoundProblem(length, num_classes))

    return EvalReport(
        map=float(per_query.mean()),
        map_at_k=float(ap_at_k[inverse[0]].mean()) if k is not None else None,
        k=k,
        precision_curve=curve,
        min_interclass_distance=min_dist,
        target_distance=target,
        per_query_ap=per_query.tolist(),
    )


def stacked_scores(
    query_words: np.ndarray,
    query_labels: np.ndarray,
    database_words: np.ndarray,
    database_labels: np.ndarray,
    length: int,
) -> tuple[list[float], list[int | None]]:
    """Each group's MAP and center-code minimum distance, for a stack of G
    (queries, database) pairs that share their two label vectors.

    Takes a (G, n, W) query and a (G, m, W) database stack of length-``length``
    codes.  Group g's numbers are the bits of ``mean_average_precision`` on
    group g's pair alone (its ``map`` and ``min_interclass_distance``, None
    below two classes), from one ranking and one center-code pass over all G.
    """
    if (
        np.ndim(query_words) != 3
        or np.ndim(database_words) != 3
        or len(query_words) != len(database_words)
        or len(query_words) == 0
    ):
        raise ValueError("expected (G, n, W) and (G, m, W) word stacks with G >= 1")
    query_labels, database_labels = _check_pair(
        query_words[0], query_labels, database_words[0], database_labels, length
    )
    inverse, _, ap, _, _ = _rank(
        query_words, query_labels, database_words, database_labels, None, []
    )
    maps = ap[inverse].mean(axis=1).tolist()
    return maps, _center_distances(database_words, database_labels, length)[1]
