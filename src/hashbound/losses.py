"""Margin hinge losses on relaxed codes, with analytic gradients.

Relaxed codes are plain float64 arrays: a batch is an (n, L) matrix whose
rows are the pre-binarization encoder outputs.  The pairwise loss compares
the inner products of the pairs i < j within the batch (similar iff their
labels match) against the margins from :mod:`hashbound.bounds`:

    (1/|P|) sum_{(i,j) similar}   min(0, u_i.u_j - positive_margin)**2 / positive_margin**2
  + (1/|N|) sum_{(i,j) dissimilar} max(0, u_i.u_j - negative_margin)**2 / negative_margin**2

It is computed in Gram form, from the masked upper triangle of U @ U.T.  The
class-center variant applies the same hinge to code-center inner products.
The quantization term sum_n ||sgn(u_n) - u_n||**2 penalizes distance to the
binarization; its gradient treats sgn(u_n) as a constant.  All values and
gradients are accumulated in float64.

A negative margin of exactly 0 would zero a denominator; that case keeps the
hinge location and substitutes a unit denominator.  The CLI logs a warning
for it once per command.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossReport",
    "ClassCenters",
    "pairwise_loss",
    "quantization_loss",
    "total_loss",
    "classwise_loss",
    "update_centers",
]


def _as_code_batch(codes: np.ndarray) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.float64)
    if codes.ndim != 2 or codes.shape[0] < 1:
        raise ValueError("expected a nonempty (n, L) batch of relaxed codes")
    if not np.all(np.isfinite(codes)):
        raise ValueError("relaxed codes must be finite")
    return codes


def _as_batch_labels(
    labels: np.ndarray, codes: np.ndarray, num_classes: int | None = None
) -> np.ndarray:
    """One label per code row; int64 class indices below ``num_classes`` if given."""
    labels = np.asarray(labels, dtype=None if num_classes is None else np.int64)
    if labels.shape != (codes.shape[0],):
        raise ValueError("labels must match the code batch")
    if num_classes is not None and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("label outside the known class range")
    return labels


def _hinge(
    theta: np.ndarray, similar: np.ndarray, dissimilar: np.ndarray, margins
) -> tuple[float, np.ndarray]:
    """Both margin hinge terms over the masked entries of ``theta``.

    Similar entries pay min(0, theta - positive_margin)**2, dissimilar ones
    max(0, theta - negative_margin)**2.  Each kind is divided by its entry
    count times its squared margin (a unit denominator for a margin of 0);
    a kind with no entries contributes 0.  Returns ``(value, dtheta)``.
    """
    loss = 0.0
    dtheta = np.zeros_like(theta)
    for mask, margin, clip in (
        (similar, float(margins.positive_margin), np.minimum),
        (dissimilar, float(margins.negative_margin), np.maximum),
    ):
        count = int(np.count_nonzero(mask))
        if not count:
            continue
        hinge = np.subtract(theta, margin)
        clip(0.0, hinge, out=hinge)  # 0.0 first keeps the sign of zero entries
        hinge *= mask
        scale = count * (margin**2 if margin != 0 else 1.0)
        loss += float((hinge**2).sum()) / scale
        hinge *= 2.0
        hinge /= scale
        dtheta += hinge
    return loss, dtheta


@functools.lru_cache(maxsize=4)  # training sees two sizes: full and trailing batches
def _upper_pairs(n: int) -> np.ndarray:
    """Read-only mask of the pairs i < j of an n-row batch."""
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    upper.flags.writeable = False
    return upper


def _as_pair_labels(labels: np.ndarray, codes: np.ndarray) -> np.ndarray:
    labels = _as_batch_labels(labels, codes)
    if codes.shape[0] < 2:
        raise ValueError("need at least two samples to form pairs")
    return labels


def _pairwise(
    codes: np.ndarray, labels: np.ndarray, margins
) -> tuple[float, np.ndarray]:
    upper = _upper_pairs(codes.shape[0])
    same = labels[:, None] == labels[None, :]
    loss, dtheta = _hinge(codes @ codes.T, upper & same, upper > same, margins)
    dtheta += dtheta.T.copy()  # faster than numpy buffering the overlap of dtheta.T
    return loss, dtheta @ codes


def pairwise_loss(
    codes: np.ndarray, labels: np.ndarray, margins
) -> tuple[float, np.ndarray]:
    """Margin hinge loss over all pairs i < j of the batch, with its gradient.

    A pair is similar iff its labels match.  Returns ``(value, grads)`` with
    ``grads`` shaped like ``codes``.
    """
    codes = _as_code_batch(codes)
    return _pairwise(codes, _as_pair_labels(labels, codes), margins)


def _quantization(codes: np.ndarray) -> tuple[float, np.ndarray]:
    diff = codes - np.where(codes >= 0.0, 1.0, -1.0)
    return float((diff**2).sum()), 2.0 * diff


def quantization_loss(codes: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared distance of each code to its binarization, summed over rows.

    The binarization sgn(u) (with sgn(0) = +1) is held constant, so the
    gradient is simply 2 * (u - sgn(u)).
    """
    return _quantization(_as_code_batch(codes))


@dataclass(frozen=True)
class LossReport:
    """One evaluation of the combined objective."""

    pairwise: float
    quantization: float
    code_grads: np.ndarray
    quant_weight: float

    @property
    def total(self) -> float:
        """``pairwise + quant_weight * quantization``, derived so it cannot disagree."""
        return self.pairwise + self.quant_weight * self.quantization


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


def _as_center_labels(
    labels: np.ndarray, codes: np.ndarray, centers: ClassCenters
) -> np.ndarray:
    labels = _as_batch_labels(labels, codes, centers.num_classes)
    if np.any(centers.counts[np.unique(labels)] == 0):
        raise ValueError("every class in the batch needs an initialized center")
    return labels


def _classwise(
    codes: np.ndarray, labels: np.ndarray, centers: ClassCenters, margins
) -> tuple[float, np.ndarray]:
    own = labels[:, None] == np.arange(centers.num_classes)
    # classes that never received an update have meaningless center values
    initialized = centers.counts > 0
    loss, dtheta = _hinge(codes @ centers.values.T, own, ~own & initialized, margins)
    return loss, dtheta @ centers.values


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
    labels = _as_center_labels(labels, codes, centers)
    return _classwise(codes, labels, centers, margins)


def total_loss(
    codes: np.ndarray,
    labels: np.ndarray,
    margins,
    quant_weight: float,
    centers: ClassCenters | None = None,
) -> LossReport:
    """Hinge loss plus weighted quantization penalty, with gradients.

    The hinge is the pairwise loss, or the class-center loss when
    ``centers`` is given.
    """
    if quant_weight < 0:
        raise ValueError("quant_weight must be >= 0")
    codes = _as_code_batch(codes)
    if centers is None:
        pair_value, pair_grads = _pairwise(
            codes, _as_pair_labels(labels, codes), margins
        )
    else:
        pair_value, pair_grads = _classwise(
            codes, _as_center_labels(labels, codes, centers), centers, margins
        )
    quan_value, quan_grads = _quantization(codes)
    return LossReport(
        pairwise=pair_value,
        quantization=quan_value,
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
    labels = _as_batch_labels(labels, codes, centers.num_classes)

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
