"""Margin hinge losses on relaxed codes, with analytic gradients.

Relaxed codes are plain float64 arrays: a batch is an (n, L) matrix whose
rows are the pre-binarization encoder outputs.  The pairwise loss compares
row inner products against the margins from :mod:`hashbound.bounds`:

    (1/|P|) sum_{(i,j) similar}   min(0, u_i.u_j - positive_margin)**2 / positive_margin**2
  + (1/|N|) sum_{(i,j) dissimilar} max(0, u_i.u_j - negative_margin)**2 / negative_margin**2

The quantization term sum_n ||sgn(u_n) - u_n||**2 penalizes distance to the
binarization; its gradient treats sgn(u_n) as a constant.  All values and
gradients are accumulated in float64.

A negative margin of exactly 0 would zero a denominator; that case keeps the
hinge location and substitutes a unit denominator (logged once per process).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PairBatch",
    "LossReport",
    "ClassCenters",
    "pairs_from_labels",
    "pairwise_loss",
    "quantization_loss",
    "total_loss",
    "classwise_loss",
    "classwise_total_loss",
    "update_centers",
]

logger = logging.getLogger(__name__)
_warned_zero_negative = False


def _as_code_batch(codes: np.ndarray) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.float64)
    if codes.ndim != 2 or codes.shape[0] < 1:
        raise ValueError("expected a nonempty (n, L) batch of relaxed codes")
    if not np.all(np.isfinite(codes)):
        raise ValueError("relaxed codes must be finite")
    return codes


def _hinge_denominator(margin: float) -> float:
    """margin**2, except a unit denominator when the margin is exactly 0."""
    global _warned_zero_negative
    if margin == 0:
        if not _warned_zero_negative:
            logger.warning(
                "negative margin is 0; using a unit denominator to keep the "
                "loss finite (hinge location unchanged)"
            )
            _warned_zero_negative = True
        return 1.0
    return float(margin) ** 2


@dataclass(frozen=True)
class PairBatch:
    """Index pairs over a code batch with a similar/dissimilar flag each."""

    first: np.ndarray
    second: np.ndarray
    similar: np.ndarray

    def __post_init__(self) -> None:
        first = np.asarray(self.first, dtype=np.int64)
        second = np.asarray(self.second, dtype=np.int64)
        similar = np.asarray(self.similar, dtype=bool)
        if not (len(first) == len(second) == len(similar)):
            raise ValueError("pair arrays must have equal length")
        if len(first) == 0:
            raise ValueError("a pair batch needs at least one pair")
        if np.any(first == second):
            raise ValueError("pairs may not relate a code to itself")
        if np.any(first < 0) or np.any(second < 0):
            raise ValueError("pair indices must be nonnegative")
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        object.__setattr__(self, "similar", similar)

    def __len__(self) -> int:
        return len(self.first)


def pairs_from_labels(labels: np.ndarray) -> PairBatch:
    """All unordered within-batch pairs; similar iff the labels match."""
    labels = np.asarray(labels)
    n = len(labels)
    if n < 2:
        raise ValueError("need at least two samples to form pairs")
    first, second = np.triu_indices(n, k=1)
    return PairBatch(first=first, second=second, similar=labels[first] == labels[second])


def pairwise_loss(
    codes: np.ndarray, batch: PairBatch, margins
) -> tuple[float, np.ndarray]:
    """Margin hinge loss over labeled pairs and its gradient wrt the codes.

    Each hinge term is normalized by the count of pairs of its kind; a kind
    with no pairs in the batch contributes 0.  Returns ``(value, grads)``
    with ``grads`` shaped like ``codes``.
    """
    codes = _as_code_batch(codes)
    n = codes.shape[0]
    if int(batch.first.max()) >= n or int(batch.second.max()) >= n:
        raise ValueError("pair indices exceed the code batch")

    pos = float(margins.positive_margin)
    neg = float(margins.negative_margin)
    theta = np.einsum("ij,ij->i", codes[batch.first], codes[batch.second])

    num_pos = int(batch.similar.sum())
    num_neg = len(batch) - num_pos
    loss = 0.0
    dtheta = np.zeros(len(batch))
    if num_pos:
        hinge = np.minimum(0.0, theta - pos) * batch.similar
        scale = num_pos * _hinge_denominator(pos)
        loss += float((hinge**2).sum()) / scale
        dtheta += 2.0 * hinge / scale
    if num_neg:
        hinge = np.maximum(0.0, theta - neg) * ~batch.similar
        scale = num_neg * _hinge_denominator(neg)
        loss += float((hinge**2).sum()) / scale
        dtheta += 2.0 * hinge / scale

    grads = np.zeros_like(codes)
    np.add.at(grads, batch.first, dtheta[:, None] * codes[batch.second])
    np.add.at(grads, batch.second, dtheta[:, None] * codes[batch.first])
    return loss, grads


def quantization_loss(codes: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared distance of each code to its binarization, summed over rows.

    The binarization sgn(u) (with sgn(0) = +1) is held constant, so the
    gradient is simply 2 * (u - sgn(u)).
    """
    codes = _as_code_batch(codes)
    binary = np.where(codes >= 0.0, 1.0, -1.0)
    diff = codes - binary
    return float((diff**2).sum()), 2.0 * diff


@dataclass(frozen=True)
class LossReport:
    """One evaluation of the combined objective."""

    pairwise: float
    quantization: float
    total: float
    code_grads: np.ndarray
    quant_weight: float

    def __post_init__(self) -> None:
        # equal_nan keeps this check out of the way on a diverging run; the
        # training loop is responsible for catching non-finite totals
        expected = self.pairwise + self.quant_weight * self.quantization
        if not np.isclose(self.total, expected, equal_nan=True):
            raise ValueError("total must equal pairwise + quant_weight * quantization")


def total_loss(
    codes: np.ndarray, batch: PairBatch, margins, quant_weight: float
) -> LossReport:
    """Pairwise hinge plus weighted quantization penalty, with gradients."""
    if quant_weight < 0:
        raise ValueError("quant_weight must be >= 0")
    pair_value, pair_grads = pairwise_loss(codes, batch, margins)
    quan_value, quan_grads = quantization_loss(codes)
    return LossReport(
        pairwise=pair_value,
        quantization=quan_value,
        total=pair_value + quant_weight * quan_value,
        code_grads=pair_grads + quant_weight * quan_grads,
        quant_weight=quant_weight,
    )


@dataclass(frozen=True)
class ClassCenters:
    """One maintained relaxed center per class, EMA-updated between steps.

    ``counts[c]`` is the number of updates class c has received; a zero
    count marks an uninitialized center.
    """

    values: np.ndarray
    counts: np.ndarray
    momentum: float = 0.9

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if values.ndim != 2 or len(counts) != values.shape[0]:
            raise ValueError("centers must be (num_classes, L) with one count each")
        # momentum 1.0 is allowed and freezes the centers after their first update
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError("momentum must be in [0, 1]")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def empty(cls, num_classes: int, code_bits: int, momentum: float = 0.9) -> "ClassCenters":
        return cls(
            values=np.zeros((num_classes, code_bits)),
            counts=np.zeros(num_classes, dtype=np.int64),
            momentum=momentum,
        )

    @property
    def num_classes(self) -> int:
        return self.values.shape[0]


def classwise_loss(
    codes: np.ndarray, labels: np.ndarray, centers: ClassCenters, margins
) -> tuple[float, np.ndarray]:
    """Hinge loss of each code against the class centers.

    Sample n with class c contributes one positive term against centers[c]
    and one negative term against every other initialized center; each kind
    is normalized by its term count.  Centers are constants here: gradients
    flow to the sample codes only.
    """
    codes = _as_code_batch(codes)
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != codes.shape[0]:
        raise ValueError("labels must match the code batch")
    if labels.min() < 0 or labels.max() >= centers.num_classes:
        raise ValueError("label outside the known class range")
    if np.any(centers.counts[np.unique(labels)] == 0):
        raise ValueError("every class in the batch needs an initialized center")

    pos = float(margins.positive_margin)
    neg = float(margins.negative_margin)
    n, num_classes = codes.shape[0], centers.num_classes
    theta = codes @ centers.values.T  # (n, num_classes)
    own = np.zeros((n, num_classes), dtype=bool)
    own[np.arange(n), labels] = True
    # classes that never received an update have meaningless center values
    negative_mask = ~own & (centers.counts > 0)[None, :]

    loss = 0.0
    dtheta = np.zeros_like(theta)

    num_pos = n
    pos_hinge = np.minimum(0.0, theta - pos) * own
    pos_scale = num_pos * _hinge_denominator(pos)
    loss += float((pos_hinge**2).sum()) / pos_scale
    dtheta += 2.0 * pos_hinge / pos_scale

    num_neg = int(negative_mask.sum())
    if num_neg:
        neg_hinge = np.maximum(0.0, theta - neg) * negative_mask
        neg_scale = num_neg * _hinge_denominator(neg)
        loss += float((neg_hinge**2).sum()) / neg_scale
        dtheta += 2.0 * neg_hinge / neg_scale

    grads = dtheta @ centers.values
    return loss, grads


def classwise_total_loss(
    codes: np.ndarray,
    labels: np.ndarray,
    centers: ClassCenters,
    margins,
    quant_weight: float,
) -> LossReport:
    """Class-center hinge plus weighted quantization penalty."""
    if quant_weight < 0:
        raise ValueError("quant_weight must be >= 0")
    pair_value, pair_grads = classwise_loss(codes, labels, centers, margins)
    quan_value, quan_grads = quantization_loss(codes)
    return LossReport(
        pairwise=pair_value,
        quantization=quan_value,
        total=pair_value + quant_weight * quan_value,
        code_grads=pair_grads + quant_weight * quan_grads,
        quant_weight=quant_weight,
    )


def update_centers(
    centers: ClassCenters, codes: np.ndarray, labels: np.ndarray
) -> ClassCenters:
    """EMA update of the centers for every class present in the batch.

    center <- momentum * center + (1 - momentum) * mean(class codes); a
    class's first update sets its center to the batch mean outright.
    """
    codes = _as_code_batch(codes)
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != codes.shape[0]:
        raise ValueError("labels must match the code batch")
    if labels.min() < 0 or labels.max() >= centers.num_classes:
        raise ValueError("label outside the known class range")

    values = centers.values.copy()
    counts = centers.counts.copy()
    for c in np.unique(labels):
        mean = codes[labels == c].mean(axis=0)
        if counts[c] == 0:
            values[c] = mean
        else:
            values[c] = centers.momentum * values[c] + (1.0 - centers.momentum) * mean
        counts[c] += 1
    return ClassCenters(values=values, counts=counts, momentum=centers.momentum)
