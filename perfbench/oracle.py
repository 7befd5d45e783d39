"""An independent numpy oracle for the eval_large report.

It recomputes the codes from the checkpoint weights with its own forward
pass, the Hamming distances from ``np.unpackbits`` bit matrices, the ranking
with a stable argsort (ties go to the lower database index), and AP with the
retrieved-within-k denominator.  It never calls the package's Hamming
kernel or its evaluation code; only the seeded split comes from the package,
because the eval command does not write its split out.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TOLERANCE = 1e-9


def _codes(ckpt: dict, features: np.ndarray) -> np.ndarray:
    d, h, l = ckpt["input_dim"], ckpt["hidden_dim"], ckpt["code_bits"]
    w1 = np.array(ckpt["hidden_weights"]).reshape(h, d)
    w2 = np.array(ckpt["output_weights"]).reshape(l, h)
    hidden = np.tanh(features @ w1.T + np.array(ckpt["hidden_bias"]))
    relaxed = hidden @ w2.T + np.array(ckpt["output_bias"])
    return np.packbits(relaxed >= 0.0, axis=1)


def _hamming(query_bytes: np.ndarray, db_bytes: np.ndarray) -> np.ndarray:
    q = np.unpackbits(query_bytes, axis=1).astype(np.int32)
    b = np.unpackbits(db_bytes, axis=1).astype(np.int32)
    # |a xor b| = |a| + |b| - 2 a.b over 0/1 vectors
    return (q.sum(1)[:, None] + b.sum(1)[None, :] - 2 * (q @ b.T)).astype(np.uint8)


def _ap(relevance: np.ndarray) -> np.ndarray:
    hits = relevance.sum(axis=1)
    ranks = np.arange(1, relevance.shape[1] + 1)
    precision = np.cumsum(relevance, axis=1) / ranks
    total = np.where(relevance, precision, 0.0).sum(axis=1)
    return np.where(hits > 0, total / np.maximum(hits, 1), 0.0)


def check_eval(report: dict, checkpoint: Path, features: np.ndarray,
               labels: np.ndarray, query: np.ndarray, database: np.ndarray,
               k: int) -> tuple[list[str], int]:
    """Problems found, and the number of queries whose top-k cut splits a tie."""
    codes = _codes(json.loads(checkpoint.read_text()), features)
    dist = _hamming(codes[query], codes[database])
    order = np.argsort(dist, axis=1, kind="stable")
    relevance = labels[database][order] == labels[query][:, None]

    # A tie group straddling rank k with mixed relevance makes MAP@k depend
    # on the tie rule: count the queries where that happens.
    sorted_dist = np.take_along_axis(dist, order, axis=1)
    at_cut = sorted_dist[:, k - 1:k]
    group = sorted_dist == at_cut
    mixed = (group & relevance).any(1) & (group & ~relevance).any(1)
    straddles = group[:, k:].any(1) & mixed

    per_query = _ap(relevance)
    expected = {
        "map": float(per_query.mean()),
        "map_at_k": float(_ap(relevance[:, :k]).mean()),
    }
    problems = []
    for key, value in expected.items():
        if abs(report[key] - value) > TOLERANCE:
            problems.append(f"{key} {report[key]} != oracle {value}")
    got = np.array(report["per_query_ap"])
    if got.shape != per_query.shape or np.abs(got - per_query).max() > TOLERANCE:
        problems.append("per-query AP differs from the oracle")
    curve = [[c, float(relevance[:, :c].mean())] for c, _ in report["precision_curve"]]
    if [c for c, _ in curve] != _cutoffs(len(database)) or any(
        abs(a[1] - b[1]) > TOLERANCE for a, b in zip(curve, report["precision_curve"])
    ):
        problems.append("precision curve differs from the oracle")
    return problems, int(straddles.sum())


def _cutoffs(limit: int) -> list[int]:
    out, scale = [], 1
    while True:
        for base in (1, 5):
            if base * scale > limit:
                return out
            out.append(base * scale)
        scale *= 10
