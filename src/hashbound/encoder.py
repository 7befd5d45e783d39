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

import functools
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .bounds import (
    MAX_CODE_BITS,
    BoundProblem,
    MarginSet,
    derive_margins,
    margins_from_negative,
)
from . import evaluation
from .codes import _word_count, pack_sign_rows
from .data import DatasetSplits
from .fileio import write_json
from .losses import _total
from .prng import Xorshift64Star

__all__ = [
    "EncoderParams",
    "TrainConfig",
    "EpochRecord",
    "TrainHistory",
    "TrainingDivergedError",
    "init_params",
    "forward",
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
    """Weights of the D -> H -> L network; ``train`` also views its flat
    gradient buffer through one.

    Shape consistency is enforced here; finiteness is checked where values
    enter from outside (checkpoint load) and by the training loop's
    divergence guard, so that a blowing-up run fails as a divergence rather
    than a validation error on its gradient views.
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


def _check_features(params: EncoderParams, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.input_dim:
        raise ValueError(
            f"expected (n, {params.input_dim}) features, got {features.shape}"
        )
    return features


def _hidden(params: EncoderParams, features: np.ndarray) -> np.ndarray:
    # in place: the same bits as tanh(x @ W.T + b), with no (n, H) temporaries
    h = features @ params.hidden_weights.T
    h += params.hidden_bias
    np.tanh(h, out=h)
    return h


def _codes(params: EncoderParams, hidden: np.ndarray) -> np.ndarray:
    return hidden @ params.output_weights.T + params.output_bias


def forward(params: EncoderParams, features: np.ndarray) -> np.ndarray:
    """Relaxed codes for a feature batch, shape (n, code_bits)."""
    return _codes(params, _hidden(params, _check_features(params, features)))


# Far enough below float64's 1.8e308 that rounding cannot carry a sum past it.
_FINITE_LIMIT = 1e300


def _forward_is_finite(params: EncoderParams, max_abs_feature: float) -> bool:
    """True only if ``forward`` is finite on all finite features with |x| <= the bound.

    Each hidden pre-activation is at most max_j sum_k |W_h[j,k]| * X +
    max |b_h| in magnitude, and so is every partial sum of it; tanh then
    maps into [-1, 1], so output i is at most sum_j |W_o[i,j]| + |b_o[i]|.
    With both below ``_FINITE_LIMIT`` no inf or nan can arise.  A nan or inf
    weight, or a product that overflows, fails the comparison, so False
    means "not proven", not "not finite".
    """
    hidden = (
        np.abs(params.hidden_weights).sum(axis=1).max() * max_abs_feature
        + np.abs(params.hidden_bias).max()
    )
    output = (
        np.abs(params.output_weights).sum(axis=1) + np.abs(params.output_bias)
    ).max()
    return bool(hidden < _FINITE_LIMIT and output < _FINITE_LIMIT)


def _gradients(
    params: EncoderParams,
    features: np.ndarray,
    hidden: np.ndarray,
    code_grads: np.ndarray,
    out: EncoderParams,
) -> None:
    """Parameter gradients into ``out``'s arrays, from the forward pass's hidden layer."""
    grad_pre = code_grads @ params.output_weights
    slope = np.square(hidden)
    np.subtract(1.0, slope, out=slope)
    grad_pre *= slope  # (code_grads @ W_o) * (1 - hidden**2)
    np.matmul(grad_pre.T, features, out=out.hidden_weights)
    grad_pre.sum(axis=0, out=out.hidden_bias)
    np.matmul(code_grads.T, hidden, out=out.output_weights)
    code_grads.sum(axis=0, out=out.output_bias)


def _arrays(params: EncoderParams) -> list[np.ndarray]:
    return [getattr(params, key) for key in _CHECKPOINT_KEYS]


def _flat(params: EncoderParams) -> np.ndarray:
    """A float64 copy of the four arrays, in field order, in one flat buffer."""
    return np.concatenate([np.ravel(a) for a in _arrays(params)], dtype=np.float64)


def _views(flat: np.ndarray, like: EncoderParams) -> EncoderParams:
    """Params shaped like ``like`` whose arrays are reshaped views into ``flat``."""
    arrays, start = [], 0
    for a in _arrays(like):
        arrays.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    return EncoderParams(*arrays)


def _momentum_step(
    weights: np.ndarray,
    grads: np.ndarray,
    velocity: np.ndarray,
    learning_rate: float,
    momentum: float,
) -> None:
    """In place on flat buffers: v <- momentum*v - lr*g; theta <- theta + v.

    ``grads`` is left scaled by the learning rate.
    """
    velocity *= momentum
    grads *= learning_rate
    velocity -= grads
    weights += velocity


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
    margin_override: int | None = None  # explicit negative margin for sweeps

    def __post_init__(self) -> None:
        if self.code_bits < 1 or self.hidden_dim < 1:
            raise ValueError("code_bits and hidden_dim must be >= 1")
        if self.code_bits > MAX_CODE_BITS:
            raise ValueError(f"code_bits (--bits) must be <= {MAX_CODE_BITS}")
        if self.hidden_dim > 2**20:
            raise ValueError(f"hidden_dim (--hidden) must be <= {2**20}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
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
    train_labels = splits.dataset.labels[splits.train]
    if len(train_labels) == 0 or train_labels.min() == train_labels.max():
        raise ValueError("training split must contain at least two classes")
    if len(splits.database) == 0 or len(splits.validation) == 0:
        raise ValueError("training needs nonempty database and validation splits")
    if config.margin_override is not None:
        return margins_from_negative(config.code_bits, config.margin_override)
    return derive_margins(BoundProblem(config.code_bits, splits.dataset.num_classes))


@functools.lru_cache(maxsize=4)  # the points of a sweep share their seed's shuffles
def _epoch_orders(seed: int, n: int, epochs: int) -> np.ndarray:
    """Read-only (epochs, n) array; row e is epoch e + 1's shuffle of the train rows."""
    orders = Xorshift64Star(seed, stream=_STREAM_SHUFFLE).permutations(n, epochs)
    orders.flags.writeable = False
    return orders


def train(
    splits: DatasetSplits, config: TrainConfig, *, validate: bool = True
) -> tuple[EncoderParams, TrainHistory]:
    """Train the encoder on the train split; track validation MAP per epoch.

    Per epoch: seeded shuffle, then per mini-batch forward -> pairwise hinge
    loss -> backward -> momentum step.  The step runs in place: the weights,
    the velocity and the gradients each live in one flat float64 buffer, the
    params' four arrays are views into the first, the gradients are written
    into their views and one momentum update runs over the flat buffers.  The
    backward pass reuses the forward pass's hidden layer.  Each batch checks
    one number, its loss total, before its step: a non-finite relaxed code
    makes the total inf or nan too (an inf times a 0 mask is nan in the
    hinge, the quantization term is inf, and a quant weight of 0 times inf
    is nan), so the loss kernel runs on the codes unchecked.
    The returned params are views into a buffer of this call alone.

    The epoch shuffles are the rows of one read-only (epochs, n) array drawn
    from the seed's shuffle stream and cached on (seed, n, epochs), so the
    points of a sweep that share a seed draw them once.  A trailing batch
    of fewer than two samples is skipped (no pairs can be formed from it).

    The per-epoch record holds the batch-mean loss components, the MAP of
    the validation split queried against the database split, and the minimum
    pairwise distance among the per-class center codes of the database.
    Every epoch end runs both forward passes and checks them finite, so a
    divergence raises at its epoch, but ranks nothing there: it keeps the
    epoch's loss means and packed validation and database words.  The
    records are ranked after the loop, in batches of at most
    ``evaluation._CHUNK_PAIRS`` database rows (at least one epoch), each by
    one ``evaluation.stacked_scores`` call, which gives every epoch the bits
    of a ``mean_average_precision`` call on that epoch alone.  A run that
    diverges raises before it ranks its pending epochs.

    With ``validate=False`` no epoch is ranked and ``records`` stays empty;
    the params are the same bits.  An epoch end then runs no forward pass
    when a bound on the weights proves that the database and validation
    codes are finite: with X the largest |x| in those splits,
    max_j sum_k |W_h[j,k]| * X + max |b_h| and
    max_i (sum_j |W_o[i,j]| + |b_o[i]|) both below 1e300.  Only when the
    bound fails does it run both forward passes and check them, so a
    divergence still raises at the same epoch with the same message.

    Raises:
        ValueError: where ``training_margins`` does.
        TrainingDivergedError: if any loss value stops being finite.
    """
    margins = training_margins(splits, config)
    dataset = splits.dataset
    train_labels = dataset.labels[splits.train]
    initial = init_params(dataset.dim, config.hidden_dim, config.code_bits, config.seed)
    # every step updates these flat buffers in place; the params are views
    weights = _flat(initial)
    params = _views(weights, initial)
    velocity = np.zeros_like(weights)
    grads = np.empty_like(weights)
    grad_views = _views(grads, initial)

    train_features = dataset.features[splits.train]
    db_features = dataset.features[splits.database]
    db_labels = dataset.labels[splits.database]
    val_features = dataset.features[splits.validation]
    val_labels = dataset.labels[splits.validation]
    max_abs_feature = max(np.abs(db_features).max(), np.abs(val_features).max())

    records: list[EpochRecord] = []
    # the epochs not ranked yet: their (epoch, loss means) and packed codes,
    # at most _CHUNK_PAIRS database rows of them (and at least one epoch)
    pending: list[tuple[int, float, float, float]] = []
    stack = min(config.epochs, max(1, evaluation._CHUNK_PAIRS // len(db_features)))
    width = _word_count(config.code_bits)
    pending_val = np.empty((stack, len(val_features), width), dtype=np.uint64)
    pending_db = np.empty((stack, len(db_features), width), dtype=np.uint64)
    n = len(splits.train)
    orders = _epoch_orders(config.seed, n, config.epochs)

    def check_finite(finite: bool, epoch: int) -> None:
        if not finite:
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch}; "
                "the learning rate is likely too high"
            )

    def rank_pending() -> None:
        ranked = len(pending)
        maps, distances = evaluation.stacked_scores(
            pending_val[:ranked],
            val_labels,
            pending_db[:ranked],
            db_labels,
            config.code_bits,
        )
        for fields, val_map, distance in zip(pending, maps, distances):
            records.append(EpochRecord(*fields, val_map, distance))
        pending.clear()

    # Hinge overflow during a diverging run shows up as inf/nan; the
    # explicit finiteness checks turn that into a clean error.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch, order in enumerate(orders, start=1):
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
                report = _total(relaxed, labels, margins, config.quant_weight, None)
                # a non-finite code makes the total inf or nan (see the docstring)
                check_finite(math.isfinite(report.total), epoch)
                _gradients(params, feats, hidden, report.code_grads, grad_views)
                _momentum_step(
                    weights, grads, velocity, config.learning_rate, config.momentum
                )
                sum_pair += report.pairwise
                sum_quan += report.quantization
                sum_total += report.total
                batches += 1

            if validate or not _forward_is_finite(params, max_abs_feature):
                db_relaxed = forward(params, db_features)
                check_finite(np.isfinite(db_relaxed).all(), epoch)
                val_relaxed = forward(params, val_features)
                check_finite(np.isfinite(val_relaxed).all(), epoch)
            if not validate:
                continue
            pending_val[len(pending)] = pack_sign_rows(val_relaxed)
            pending_db[len(pending)] = pack_sign_rows(db_relaxed)
            pending.append(
                (epoch, sum_pair / batches, sum_quan / batches, sum_total / batches)
            )
            if len(pending) == stack:
                rank_pending()
    if pending:
        rank_pending()
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
    write_json(path, doc)


def load_checkpoint(path) -> tuple[EncoderParams, dict[str, Any]]:
    """Read a checkpoint back; returns the params and the metadata dict."""
    with open(path, encoding="utf-8") as fh:
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
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed checkpoint: {exc}") from exc
    for key, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: malformed checkpoint: non-finite {key}")
    meta = {k: doc[k] for k in doc if k not in _CHECKPOINT_KEYS}
    return EncoderParams(**arrays), meta
