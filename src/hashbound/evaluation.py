"""Exact Hamming-ranked retrieval metrics: MAP, MAP@k, precision curves.

Ranking is a full linear scan sorted by (distance ascending, database index
ascending); ties are therefore resolved by database order, which makes every
number here deterministic for fixed inputs.  A query's numbers then depend
only on its code and its label, so each distinct (code, label) query is
ranked once and its result is given back to every query that holds it
(trained codes collapse, so most validation queries repeat one another).

The scan walks the distinct queries in blocks of about ``_CHUNK_PAIRS`` =
2**18 (query, database row) pairs, so memory stays bounded however many
queries there are.  A block holds its uint8/uint16 distances, their stable
argsort (a radix sort for such narrow integers), the gathered labels, bool
relevance and a zeroed float64 precision matrix: about 30 bytes per pair,
some 8 MB per block.  The relevant ranks add some 40 bytes per relevant
pair.  One kernel, ``_ranked_ap``, turns a block's relevance into AP: it
computes precision only at the relevant ranks, as the running hit count
over the position, and writes it into the zeroed matrix; AP sums each row,
so each float, its position and the order of the sum are those of the dense
cumulative form.  Hits within a cutoff (MAP@k's depth, the precision curve)
are counted by binary search in the relevant ranks' sorted row-major keys.
Each query's AP is summed within its own row, so the numbers are the same
for any block size.  ``average_precision`` is the kernel's one-row case.

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
    "class_center_codes",
]

# Cutoffs for the precision curve: 1, 5, 10, 50, 100, 500, ...
_CURVE_PATTERN = (1, 5)

# Target number of (query, database row) pairs ranked at once.
_CHUNK_PAIRS = 1 << 18


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
    ones = np.empty((len(counts), length))
    # one bit column at a time, so the scratch stays O(n) for any length
    for i in range(length):
        bit = (words[:, i >> 6] >> (i & 63)) & 1
        ones[:, i] = np.bincount(dense_ids, weights=bit, minlength=len(counts))
    # 2 * ones - count is the sum of the +-1 symbols; a tie (0) packs to +1
    return pack_sign_rows(2 * ones - counts[:, None])


def _distinct_rows(
    words: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (code, label) rows: each one's first row, every row's
    distinct index, and each one's count, via one lexsort."""
    order = np.lexsort((*words.T, labels))
    words, labels = words[order], labels[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (labels[1:] != labels[:-1]) | (words[1:] != words[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    return order[starts], inverse, np.diff(starts, append=len(order))


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
    check_words(query_words, length)
    check_words(database_words, length)
    query_labels = _check_labels(query_words, query_labels, "query ")
    database_labels = _check_labels(database_words, database_labels, "database ")
    if len(query_words) == 0 or len(database_words) == 0:
        raise ValueError("query and database must both be nonempty")
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")

    # each distinct (code, label) query is ranked once (see the module docstring)
    first, inverse, counts = _distinct_rows(query_words, query_labels)
    distinct_words, distinct_labels = query_words[first], query_labels[first]

    num_queries, db_size = len(query_words), len(database_words)
    cutoffs = _curve_cutoffs(db_size)
    ap, ap_at_k = np.empty(len(first)), np.empty(len(first))
    curve_hits = np.zeros(len(cutoffs), dtype=np.int64)
    block = max(1, _CHUNK_PAIRS // db_size)
    for lo in range(0, len(first), block):
        rows = slice(lo, lo + block)
        dists = packed_hamming_matrix(distinct_words[rows], database_words)
        order = np.argsort(dists, axis=1, kind="stable")
        relevance = database_labels[order] == distinct_labels[rows, None]
        ap[rows], ap_at_k[rows], within = _ranked_ap(relevance, k, cutoffs)
        # each distinct row's hits count once per query that holds it
        curve_hits += (counts[rows, None] * within).sum(axis=0)
    per_query = ap[inverse]

    curve = [
        (cutoff, hits / (num_queries * cutoff))
        for cutoff, hits in zip(cutoffs, curve_hits.tolist())
    ]

    min_dist: int | None = None
    target: int | None = None
    centers = class_center_codes(database_words, length, database_labels)
    num_classes = len(centers)
    if num_classes >= 2:
        min_dist = codebook_min_distance(centers)
        if (num_classes - 1).bit_length() <= length <= MAX_CODE_BITS:
            target = solve_target_distance(BoundProblem(length, num_classes))

    return EvalReport(
        map=float(per_query.mean()),
        map_at_k=float(ap_at_k[inverse].mean()) if k is not None else None,
        k=k,
        precision_curve=curve,
        min_interclass_distance=min_dist,
        target_distance=target,
        per_query_ap=per_query.tolist(),
    )
