"""Margin hinge losses on relaxed codes, with analytic gradients.

Relaxed codes are plain float64 arrays: a batch is an (n, L) matrix whose
rows are the pre-binarization encoder outputs.  The pairwise loss compares
the inner products of the pairs i < j within the batch (similar iff their
labels match) against the margins from :mod:`hashbound.bounds`:

    (1/|P|) sum_{(i,j) similar}   min(0, u_i.u_j - positive_margin)**2 / positive_margin**2
  + (1/|N|) sum_{(i,j) dissimilar} max(0, u_i.u_j - negative_margin)**2 / negative_margin**2

It is computed in Gram form, from the masked upper triangle of U @ U.T.  The
class-center variant applies the same hinge to code-center inner products:
each code against its own class's center (similar) and every other
initialized center (dissimilar), with the centers held constant.  The
quantization term sum_n ||sgn(u_n) - u_n||**2 penalizes distance to the
binarization; its gradient treats sgn(u_n) as a constant.  All values and
gradients are accumulated in float64.  The training kernel (``_total`` on
the pairwise loss) also runs on an (S, n, L) stack, the batches of S sweep
points that share their rows and labels: one BLAS call and one reduction
per point, so each point gets the bits of its own call.

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
    "total_loss",
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


def _point_sums(values: np.ndarray):
    """Sum over the last two axes: a float for one (n, L) batch, and an
    (S, 1, 1) array for a stack of S, each slice summed as one batch is."""
    if values.ndim == 2:
        return float(values.sum())
    return values.sum(axis=(-2, -1), keepdims=True)


def _hinge(
    theta: np.ndarray, similar: np.ndarray, dissimilar: np.ndarray, margins
) -> tuple[float | np.ndarray, np.ndarray]:
    """Both margin hinge terms over the masked entries of ``theta``.

    Similar entries pay min(0, theta - positive_margin)**2, dissimilar ones
    max(0, theta - negative_margin)**2.  Each kind is divided by its entry
    count times its squared margin (a unit denominator for a margin of 0);
    a kind with no entries contributes 0.  Returns ``(value, dtheta)``.

    ``theta`` may carry a leading axis of S points that share the (n, n)
    masks; each point's margins are then scalars or (S, 1, 1) arrays, and
    its value one entry of an (S, 1, 1) array (see ``_point_sums``).
    """
    loss = 0.0
    dtheta = np.zeros_like(theta)
    hinge = np.empty_like(theta)  # scratch, reused by both kinds
    for mask, margin, clip in (
        (similar, margins.positive_margin, np.minimum),
        (dissimilar, margins.negative_margin, np.maximum),
    ):
        count = int(np.count_nonzero(mask))
        if not count:
            continue
        np.subtract(theta, margin, out=hinge)
        clip(0.0, hinge, out=hinge)  # 0.0 first keeps the sign of zero entries
        hinge *= mask
        # the bool adds 1 to a margin of 0 (a unit denominator) and 0 elsewhere
        scale = count * (margin * margin + (margin == 0))
        loss += _point_sums(np.square(hinge)) / scale
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


def _pairwise(
    codes: np.ndarray, labels: np.ndarray, margins
) -> tuple[float | np.ndarray, np.ndarray]:
    upper = _upper_pairs(codes.shape[-2])
    same = labels[:, None] == labels[None, :]
    theta = codes @ codes.swapaxes(-1, -2)
    loss, dtheta = _hinge(theta, upper & same, upper > same, margins)
    # faster than numpy buffering the overlap of the transposed dtheta
    dtheta += dtheta.swapaxes(-1, -2).copy()
    return loss, dtheta @ codes


def _quantization(codes: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    diff = codes - np.where(codes >= 0.0, 1.0, -1.0)
    value = _point_sums(np.square(diff))
    diff *= 2.0
    return value, diff


@dataclass(frozen=True)
class LossReport:
    """One evaluation of the combined objective.

    For a stack of S points (see ``_total``) each number is an (S, 1, 1)
    array, one entry per point; the quant weight may also be one scalar.
    """

    pairwise: float | np.ndarray
    quantization: float | np.ndarray
    code_grads: np.ndarray
    quant_weight: float | np.ndarray

    @property
    def total(self) -> float | np.ndarray:
        """``pairwise + quant_weight * quantization``, derived so it cannot disagree."""
        return self.pairwise + self.quant_weight * self.quantization


@dataclass(frozen=True)
class ClassCenters:
    """One relaxed center per class, held constant by the class-center loss.

    A zero ``counts[c]`` marks class c's center as uninitialized: no code is
    compared against it, and a batch may hold no code of class c.
    """

    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if values.ndim != 2 or len(counts) != values.shape[0]:
            raise ValueError("centers must be (num_classes, L) with one count each")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)

    @property
    def num_classes(self) -> int:
        return self.values.shape[0]


def _classwise(
    codes: np.ndarray, labels: np.ndarray, centers: ClassCenters, margins
) -> tuple[float, np.ndarray]:
    own = labels[:, None] == np.arange(centers.num_classes)
    # uninitialized centers have meaningless values
    initialized = centers.counts > 0
    loss, dtheta = _hinge(codes @ centers.values.T, own, ~own & initialized, margins)
    return loss, dtheta @ centers.values


def _total(
    codes: np.ndarray,
    labels: np.ndarray,
    margins,
    quant_weight: float | np.ndarray,
    centers: ClassCenters | None,
) -> LossReport:
    """``total_loss`` on codes and labels already checked; the training step's kernel.

    The pairwise loss also takes an (S, n, L) stack of batches that share
    their labels, with each point's margins and quant weight as scalars or
    (S, 1, 1) arrays; every point gets the bits of its own (n, L) call.
    """
    if centers is None:
        pair_value, code_grads = _pairwise(codes, labels, margins)
    else:
        pair_value, code_grads = _classwise(codes, labels, centers, margins)
    quan_value, quan_grads = _quantization(codes)
    quan_grads *= quant_weight
    code_grads += quan_grads  # both are new arrays of this call
    return LossReport(
        pairwise=pair_value,
        quantization=quan_value,
        code_grads=code_grads,
        quant_weight=quant_weight,
    )


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
        labels = _as_batch_labels(labels, codes)
        if codes.shape[0] < 2:
            raise ValueError("need at least two samples to form pairs")
    else:
        labels = _as_batch_labels(labels, codes, centers.num_classes)
        if np.any(centers.counts[labels] == 0):
            raise ValueError("every class in the batch needs an initialized center")
    return _total(codes, labels, margins, quant_weight, centers)
