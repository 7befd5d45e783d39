"""A small tanh MLP encoder with hand-rolled backprop and momentum SGD.

The network maps a D-dimensional feature vector through one tanh hidden
layer to an L-dimensional relaxed code:

    u = W_out @ tanh(W_hidden @ x + b_hidden) + b_out

Gradients are computed analytically by the chain rule (no autograd) and are
checked against finite differences in the test suite.  Training is
single-threaded and fully deterministic for a given seed: weight init and
epoch shuffling both draw from the package's xorshift64* streams.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .bounds import BoundProblem, MarginSet, derive_margins, margins_from_negative
from .codes import pack_sign_rows
from .data import DatasetSplits
from .evaluation import mean_average_precision
from .fileio import atomic_open
from .losses import ClassCenters, total_loss, update_centers
from .prng import Xorshift64Star

__all__ = [
    "EncoderParams",
    "TrainConfig",
    "EpochRecord",
    "TrainHistory",
    "TrainingDivergedError",
    "init_params",
    "forward",
    "backward",
    "sgd_step",
    "zeros_like_params",
    "encode",
    "train",
    "training_margins",
    "save_checkpoint",
    "load_checkpoint",
]

# Substream ids for the experiment seed.
_STREAM_INIT = 0
_STREAM_SHUFFLE = 1

_CHECKPOINT_KEYS = ("hidden_weights", "hidden_bias", "output_weights", "output_bias")


class TrainingDivergedError(RuntimeError):
    """Raised when the loss stops being finite (learning rate too high)."""


@dataclass(frozen=True)
class EncoderParams:
    """Weights of the D -> H -> L network (also reused for grads/velocity).

    Shape consistency is enforced here; finiteness is checked where values
    enter from outside (checkpoint load) and by the training loop's
    divergence guard, so that a blowing-up run fails as a divergence rather
    than a validation error on its gradient containers.
    """

    hidden_weights: np.ndarray  # (H, D)
    hidden_bias: np.ndarray  # (H,)
    output_weights: np.ndarray  # (L, H)
    output_bias: np.ndarray  # (L,)

    def __post_init__(self) -> None:
        hw, hb = np.asarray(self.hidden_weights), np.asarray(self.hidden_bias)
        ow, ob = np.asarray(self.output_weights), np.asarray(self.output_bias)
        if hw.ndim != 2 or ow.ndim != 2:
            raise ValueError("weight matrices must be 2-d")
        if hb.shape != (hw.shape[0],) or ob.shape != (ow.shape[0],):
            raise ValueError("bias shapes must match their weight matrices")
        if ow.shape[1] != hw.shape[0]:
            raise ValueError("output layer width must match the hidden size")

    @property
    def input_dim(self) -> int:
        return self.hidden_weights.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.hidden_weights.shape[0]

    @property
    def code_bits(self) -> int:
        return self.output_weights.shape[0]


def init_params(input_dim: int, hidden_dim: int, code_bits: int, seed: int) -> EncoderParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    if min(input_dim, hidden_dim, code_bits) < 1:
        raise ValueError("all dimensions must be >= 1")
    rng = Xorshift64Star(seed, stream=_STREAM_INIT)

    def uniform_matrix(rows: int, cols: int, fan_in: int) -> np.ndarray:
        scale = 1.0 / np.sqrt(fan_in)
        flat = rng.uniforms(rows * cols)
        return (2.0 * flat - 1.0).reshape(rows, cols) * scale

    return EncoderParams(
        hidden_weights=uniform_matrix(hidden_dim, input_dim, input_dim),
        hidden_bias=np.zeros(hidden_dim),
        output_weights=uniform_matrix(code_bits, hidden_dim, hidden_dim),
        output_bias=np.zeros(code_bits),
    )


def zeros_like_params(params: EncoderParams) -> EncoderParams:
    return EncoderParams(
        **{key: np.zeros_like(getattr(params, key)) for key in _CHECKPOINT_KEYS}
    )


def _check_features(params: EncoderParams, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.input_dim:
        raise ValueError(
            f"expected (n, {params.input_dim}) features, got {features.shape}"
        )
    return features


def _hidden(params: EncoderParams, features: np.ndarray) -> np.ndarray:
    return np.tanh(features @ params.hidden_weights.T + params.hidden_bias)


def _codes(params: EncoderParams, hidden: np.ndarray) -> np.ndarray:
    return hidden @ params.output_weights.T + params.output_bias


def forward(params: EncoderParams, features: np.ndarray) -> np.ndarray:
    """Relaxed codes for a feature batch, shape (n, code_bits)."""
    return _codes(params, _hidden(params, _check_features(params, features)))


def _gradients(
    params: EncoderParams,
    features: np.ndarray,
    hidden: np.ndarray,
    code_grads: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Parameter gradients in field order, from the forward pass's hidden layer."""
    grad_pre = (code_grads @ params.output_weights) * (1.0 - hidden**2)
    return (
        grad_pre.T @ features,
        grad_pre.sum(axis=0),
        code_grads.T @ hidden,
        code_grads.sum(axis=0),
    )


def backward(
    params: EncoderParams, features: np.ndarray, code_grads: np.ndarray
) -> EncoderParams:
    """Parameter gradients given d(loss)/d(relaxed codes) for the batch."""
    features = _check_features(params, features)
    code_grads = np.asarray(code_grads, dtype=np.float64)
    if code_grads.shape != (features.shape[0], params.code_bits):
        raise ValueError(
            f"expected ({features.shape[0]}, {params.code_bits}) code grads, "
            f"got {code_grads.shape}"
        )
    hidden = _hidden(params, features)
    return EncoderParams(*_gradients(params, features, hidden, code_grads))


def _arrays(params: EncoderParams) -> list[np.ndarray]:
    return [getattr(params, key) for key in _CHECKPOINT_KEYS]


def _momentum_step(
    weights: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    velocity: Sequence[np.ndarray],
    learning_rate: float,
    momentum: float,
) -> None:
    """In place: v <- momentum*v - lr*g; theta <- theta + v."""
    for theta, g, v in zip(weights, grads, velocity, strict=True):
        v *= momentum
        v -= learning_rate * g
        theta += v


def sgd_step(
    params: EncoderParams,
    grads: EncoderParams,
    velocity: EncoderParams,
    learning_rate: float,
    momentum: float,
) -> tuple[EncoderParams, EncoderParams]:
    """Momentum SGD: v <- momentum*v - lr*g; theta <- theta + v."""
    new_params, new_velocity = (
        EncoderParams(*(np.array(a, dtype=np.float64) for a in _arrays(p)))
        for p in (params, velocity)
    )
    _momentum_step(
        _arrays(new_params), _arrays(grads), _arrays(new_velocity),
        learning_rate, momentum,
    )
    return new_params, new_velocity


def encode(params: EncoderParams, features: np.ndarray) -> np.ndarray:
    """Binarized codes for a feature batch as an (n, ceil(L/64)) uint64 word matrix."""
    return pack_sign_rows(forward(params, features))


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run."""

    code_bits: int
    hidden_dim: int = 64
    learning_rate: float = 0.05
    momentum: float = 0.5
    quant_weight: float = 0.002
    batch_size: int = 64
    epochs: int = 50
    seed: int = 0
    classwise: bool = False
    margin_override: int | None = None  # explicit negative margin for sweeps
    center_momentum: float = 0.9

    def __post_init__(self) -> None:
        if self.code_bits < 1 or self.hidden_dim < 1:
            raise ValueError("code_bits and hidden_dim must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        # 1.0 freezes each class center after its first update; rejects nan too
        if not 0.0 <= self.center_momentum <= 1.0:
            raise ValueError("center_momentum must be in [0, 1]")
        if not (math.isfinite(self.quant_weight) and self.quant_weight >= 0):
            raise ValueError("quant_weight must be finite and >= 0")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.margin_override is not None:
            # validates parity and range up front
            margins_from_negative(self.code_bits, self.margin_override)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    pairwise: float
    quantization: float
    total: float
    val_map: float
    min_center_distance: int


@dataclass(frozen=True)
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)
    margins: MarginSet | None = None


def training_margins(splits: DatasetSplits, config: TrainConfig) -> MarginSet:
    """The loss margins ``train`` uses; raises ValueError where it cannot train.

    Checks that the splits can be trained on, then takes the override margin,
    or the bound-derived one for the dataset's class count.
    """
    if len(np.unique(splits.dataset.labels[splits.train])) < 2:
        raise ValueError("training split must contain at least two classes")
    if len(splits.database) == 0 or len(splits.validation) == 0:
        raise ValueError("training needs nonempty database and validation splits")
    if config.margin_override is not None:
        return margins_from_negative(config.code_bits, config.margin_override)
    return derive_margins(BoundProblem(config.code_bits, splits.dataset.num_classes))


def train(
    splits: DatasetSplits, config: TrainConfig
) -> tuple[EncoderParams, TrainHistory]:
    """Train the encoder on the train split; track validation MAP per epoch.

    Per epoch: seeded shuffle, then per mini-batch forward -> loss (pairwise
    or class-center variant) -> backward -> momentum step.  The backward pass
    reuses the forward pass's hidden layer, and the step updates the weights
    and velocity in place; both give the same bits as ``forward``,
    ``backward`` and ``sgd_step``.  In class-center
    mode the centers are EMA-updated after each step from that batch's
    relaxed codes, and are initialized from a full forward pass over the
    train split before the first epoch.  A trailing batch of fewer than two
    samples is skipped (no pairs can be formed from it).

    The per-epoch record holds the batch-mean loss components, the MAP of
    the validation split queried against the database split, and the minimum
    pairwise distance among the per-class center codes of the database, both
    from one ``mean_average_precision`` call on packed word matrices.

    Raises:
        ValueError: where ``training_margins`` does.
        TrainingDivergedError: if any loss value stops being finite.
    """
    margins = training_margins(splits, config)
    dataset = splits.dataset
    train_labels = dataset.labels[splits.train]
    num_classes = dataset.num_classes
    params = init_params(dataset.dim, config.hidden_dim, config.code_bits, config.seed)
    weights = _arrays(params)  # updated in place by every step
    velocity = [np.zeros_like(w) for w in weights]
    shuffle_rng = Xorshift64Star(config.seed, stream=_STREAM_SHUFFLE)

    train_features = dataset.features[splits.train]
    centers: ClassCenters | None = None
    if config.classwise:
        centers = update_centers(
            ClassCenters.empty(num_classes, config.code_bits, config.center_momentum),
            forward(params, train_features),
            train_labels,
        )

    records: list[EpochRecord] = []
    n = len(splits.train)

    def check_finite(value, epoch: int) -> None:
        if not np.isfinite(value).all():
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch}; "
                "the learning rate is likely too high"
            )

    # Hinge overflow during a diverging run shows up as inf/nan; the
    # explicit finiteness checks turn that into a clean error.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            order = shuffle_rng.permutation(n)
            sum_pair = sum_quan = sum_total = 0.0
            batches = 0
            for start in range(0, n, config.batch_size):
                rows = order[start : start + config.batch_size]
                if len(rows) < 2:
                    continue
                feats = train_features[rows]
                labels = train_labels[rows]
                hidden = _hidden(params, feats)
                relaxed = _codes(params, hidden)
                check_finite(relaxed, epoch)
                report = total_loss(
                    relaxed, labels, margins, config.quant_weight, centers
                )
                check_finite(report.total, epoch)
                _momentum_step(
                    weights,
                    _gradients(params, feats, hidden, report.code_grads),
                    velocity,
                    config.learning_rate,
                    config.momentum,
                )
                if config.classwise:
                    centers = update_centers(centers, relaxed, labels)
                sum_pair += report.pairwise
                sum_quan += report.quantization
                sum_total += report.total
                batches += 1

            db_relaxed = forward(params, dataset.features[splits.database])
            check_finite(db_relaxed, epoch)
            val_relaxed = forward(params, dataset.features[splits.validation])
            check_finite(val_relaxed, epoch)
            report = mean_average_precision(
                pack_sign_rows(val_relaxed),
                dataset.labels[splits.validation],
                pack_sign_rows(db_relaxed),
                dataset.labels[splits.database],
                None,
                config.code_bits,
            )
            records.append(
                EpochRecord(
                    epoch=epoch,
                    pairwise=sum_pair / batches,
                    quantization=sum_quan / batches,
                    total=sum_total / batches,
                    val_map=report.map,
                    min_center_distance=report.min_interclass_distance,
                )
            )
    return params, TrainHistory(records=records, margins=margins)


def save_checkpoint(
    path, params: EncoderParams, config: TrainConfig, epoch: int
) -> None:
    """Write a JSON checkpoint: dims, seed, epoch, config, flat row-major weights.

    Floats are emitted via Python's repr, which round-trips float64 exactly.
    """
    doc: dict[str, Any] = {
        "input_dim": params.input_dim,
        "hidden_dim": params.hidden_dim,
        "code_bits": params.code_bits,
        "seed": config.seed,
        "epoch": epoch,
        "config": asdict(config),
    }
    for key in _CHECKPOINT_KEYS:
        doc[key] = [float(v) for v in getattr(params, key).ravel()]
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path) -> tuple[EncoderParams, dict[str, Any]]:
    """Read a checkpoint back; returns the params and the metadata dict."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        if not isinstance(doc, dict):
            raise TypeError("expected a JSON object")
        d, h, l = doc["input_dim"], doc["hidden_dim"], doc["code_bits"]
        if not all(type(v) is int and v >= 1 for v in (d, h, l)):
            raise ValueError("dimensions must be integers >= 1")
        shapes = {
            "hidden_weights": (h, d),
            "hidden_bias": (h,),
            "output_weights": (l, h),
            "output_bias": (l,),
        }
        arrays = {
            key: np.array(doc[key], dtype=np.float64).reshape(shapes[key])
            for key in _CHECKPOINT_KEYS
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed checkpoint: {exc}") from exc
    for key, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: malformed checkpoint: non-finite {key}")
    meta = {k: doc[k] for k in doc if k not in _CHECKPOINT_KEYS}
    return EncoderParams(**arrays), meta
