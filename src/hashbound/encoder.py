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
from dataclasses import asdict, dataclass, field, replace
from typing import Any, NamedTuple

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
    "train_points",
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
    """Weights of the D -> H -> L network, or of a stack of S such networks
    along a leading axis; training also views its flat gradient buffer
    through one.

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
        if hw.ndim < 2 or ow.ndim != hw.ndim:
            raise ValueError("weight matrices must be 2-d, or stacks of them")
        if hb.shape != hw.shape[:-1] or ob.shape != ow.shape[:-1]:
            raise ValueError("bias shapes must match their weight matrices")
        if ow.shape[:-2] != hw.shape[:-2] or ow.shape[-1] != hw.shape[-2]:
            raise ValueError("output layer width must match the hidden size")

    @property
    def input_dim(self) -> int:
        return self.hidden_weights.shape[-1]

    @property
    def hidden_dim(self) -> int:
        return self.hidden_weights.shape[-2]

    @property
    def code_bits(self) -> int:
        return self.output_weights.shape[-2]


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


# The step kernels (_hidden, _codes, _gradients, _momentum_step) also take
# stacked params: a leading axis of S points over shared (n, D) features.
# They work over the trailing axes, and 3-D matmul calls BLAS once per
# point, so each point gets the bits of its own 2-D call.


def _hidden(params: EncoderParams, features: np.ndarray) -> np.ndarray:
    # in place: the same bits as tanh(x @ W.T + b), with no (n, H) temporaries
    h = features @ params.hidden_weights.swapaxes(-1, -2)
    h += params.hidden_bias[..., None, :]
    np.tanh(h, out=h)
    return h


def _codes(params: EncoderParams, hidden: np.ndarray) -> np.ndarray:
    return hidden @ params.output_weights.swapaxes(-1, -2) + params.output_bias[..., None, :]


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
    """Parameter gradients into ``out``'s arrays, from the forward pass's hidden
    layer, which becomes its tanh slope 1 - hidden**2 in place.

    The in-place slope spares the step one (n, H) temporary per point: a
    stack whose step temporaries cross the allocator's trim threshold gets
    its heap shrunk and page-faulted back in at every step.
    """
    np.matmul(code_grads.swapaxes(-1, -2), hidden, out=out.output_weights)
    code_grads.sum(axis=-2, out=out.output_bias)
    grad_pre = code_grads @ params.output_weights
    slope = np.square(hidden, out=hidden)
    np.subtract(1.0, slope, out=slope)
    grad_pre *= slope  # (code_grads @ W_o) * (1 - hidden**2)
    np.matmul(grad_pre.swapaxes(-1, -2), features, out=out.hidden_weights)
    grad_pre.sum(axis=-2, out=out.hidden_bias)


def _arrays(params: EncoderParams) -> list[np.ndarray]:
    return [getattr(params, key) for key in _CHECKPOINT_KEYS]


def _flat(params: EncoderParams) -> np.ndarray:
    """A float64 copy of the four arrays, in field order, in one flat buffer."""
    return np.concatenate([np.ravel(a) for a in _arrays(params)], dtype=np.float64)


def _views(flat: np.ndarray, like: EncoderParams) -> EncoderParams:
    """Params shaped like ``like`` whose arrays are reshaped views into ``flat``;
    an (S, P) buffer gives a stack of S."""
    arrays, start = [], 0
    for a in _arrays(like):
        arrays.append(flat[..., start : start + a.size].reshape(*flat.shape[:-1], *a.shape))
        start += a.size
    return EncoderParams(*arrays)


def _momentum_step(
    weights: np.ndarray,
    grads: np.ndarray,
    velocity: np.ndarray,
    learning_rate: float,
    momentum: float,
) -> None:
    """In place on flat (P,) or (S, P) buffers: v <- momentum*v - lr*g; theta <- theta + v.

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


def _epoch_orders(seed: int, n: int, epochs: int) -> np.ndarray:
    """Read-only (epochs, n) array; row e is epoch e + 1's shuffle of the train rows."""
    orders = Xorshift64Star(seed, stream=_STREAM_SHUFFLE).permutations(n, epochs)
    orders.flags.writeable = False
    return orders


class _StackMargins(NamedTuple):
    """The margins of the stacked points, as ``_per_point`` gives them."""

    positive_margin: float | np.ndarray
    negative_margin: float | np.ndarray


def _per_point(values: list) -> float | np.ndarray:
    """One point's value as a float; S points' values as an (S, 1, 1) array."""
    if len(values) == 1:
        return float(values[0])
    return np.array(values, dtype=np.float64).reshape(-1, 1, 1)


class _Stack:
    """The points that still train in lockstep.

    Row k of the (S, P) weight, velocity and gradient buffers holds point k's
    four arrays, and ``views[k]`` its params, 2-D views into that row.  With
    one point the kernels get those views; with more, 3-D views.
    """

    def __init__(self, initial: EncoderParams, points: list[int], settings: list,
                 weights: np.ndarray, velocity: np.ndarray) -> None:
        self.initial = initial
        self.points = points  # the indices of the configs still training
        self.settings = settings  # (MarginSet, quant weight) of every config
        self.weights, self.velocity = weights, velocity
        self.grads = np.empty_like(weights)
        self.views = [_views(row, initial) for row in weights]
        if len(points) == 1:
            self.params = self.views[0]
            self.grad_views = _views(self.grads[0], initial)
        else:
            self.params = _views(weights, initial)
            self.grad_views = _views(self.grads, initial)
        margins = [settings[p][0] for p in points]
        self.margins = _StackMargins(
            _per_point([m.positive_margin for m in margins]),
            _per_point([m.negative_margin for m in margins]),
        )
        self.quant_weight = _per_point([settings[p][1] for p in points])

    def finite(self, totals: float | np.ndarray) -> bool:
        """Whether every point's loss total is finite."""
        if len(self.points) == 1:
            return math.isfinite(totals)
        return bool(np.isfinite(totals).all())

    def keep(self, alive: np.ndarray) -> _Stack:
        """The stack of the points where ``alive`` holds, in new buffers."""
        points = [p for p, kept in zip(self.points, alive) if kept]
        return _Stack(self.initial, points, self.settings,
                      self.weights[alive], self.velocity[alive])


def _lockstep(
    splits: DatasetSplits,
    configs: list[TrainConfig],
    margins: list[MarginSet],
    orders: np.ndarray,
    validate: bool,
) -> tuple[list[EncoderParams | str], list[EpochRecord]]:
    """The training loop, over a stack of points that differ only in their
    margins and quant weight (see ``train`` and ``train_points``).

    Returns each config's params, or the message of its divergence, and,
    with ``validate`` (one config only), the ranked epoch records.
    """
    config = configs[0]
    dataset = splits.dataset
    train_labels = dataset.labels[splits.train]
    initial = init_params(dataset.dim, config.hidden_dim, config.code_bits, config.seed)
    # every step updates these flat buffers in place; the params are views
    weights = np.tile(_flat(initial), (len(configs), 1))
    stack = _Stack(initial, list(range(len(configs))),
                   [(m, c.quant_weight) for m, c in zip(margins, configs)],
                   weights, np.zeros_like(weights))
    outcomes: list[EncoderParams | str] = [""] * len(configs)

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
    if validate:
        depth = min(config.epochs, max(1, evaluation._CHUNK_PAIRS // len(db_features)))
        width = _word_count(config.code_bits)
        pending_val = np.empty((depth, len(val_features), width), dtype=np.uint64)
        pending_db = np.empty((depth, len(db_features), width), dtype=np.uint64)
    n = len(splits.train)

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

    def leave(alive: np.ndarray, epoch: int) -> _Stack:
        """The stack without its diverged points, whose outcome is the message."""
        for point, kept in zip(stack.points, alive):
            if not kept:
                outcomes[point] = (
                    f"non-finite loss at epoch {epoch}; "
                    "the learning rate is likely too high"
                )
        return stack.keep(alive)

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
                hidden = _hidden(stack.params, feats)
                relaxed = _codes(stack.params, hidden)
                report = _total(relaxed, labels, stack.margins, stack.quant_weight, None)
                _gradients(stack.params, feats, hidden, report.code_grads, stack.grad_views)
                _momentum_step(stack.weights, stack.grads, stack.velocity,
                               config.learning_rate, config.momentum)
                # a non-finite code makes the total inf or nan (see ``train``);
                # a diverged point's step touched only its own rows
                if not stack.finite(report.total):
                    stack = leave(np.isfinite(report.total).reshape(-1), epoch)
                    if not stack.points:
                        return outcomes, records
                    continue
                if validate:
                    sum_pair += report.pairwise
                    sum_quan += report.quantization
                    sum_total += report.total
                    batches += 1

            alive = np.ones(len(stack.points), dtype=bool)
            for k, params in enumerate(stack.views):
                if not validate and _forward_is_finite(params, max_abs_feature):
                    continue
                db_relaxed = forward(params, db_features)
                val_relaxed = forward(params, val_features)
                alive[k] = np.isfinite(db_relaxed).all() and np.isfinite(val_relaxed).all()
            if not alive.all():
                stack = leave(alive, epoch)
                if not stack.points:
                    return outcomes, records
            if not validate:
                continue
            pending_val[len(pending)] = pack_sign_rows(val_relaxed)
            pending_db[len(pending)] = pack_sign_rows(db_relaxed)
            pending.append(
                (epoch, sum_pair / batches, sum_quan / batches, sum_total / batches)
            )
            if len(pending) == depth:
                rank_pending()
    if pending:
        rank_pending()
    for point, params in zip(stack.points, stack.views):
        outcomes[point] = params
    return outcomes, records


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
    one number, its loss total, after its step: a non-finite relaxed code
    makes the total inf or nan too (an inf times a 0 mask is nan in the
    hinge, the quantization term is inf, and a quant weight of 0 times inf
    is nan), so the loss kernel runs on the codes unchecked.
    The returned params are views into a buffer of this call alone.

    This is the one-point case of the loop that ``train_points`` runs on a
    stack of points; with one point it runs on 2-D arrays.  The epoch
    shuffles are the rows of one read-only (epochs, n) array drawn from the
    seed's shuffle stream.  A trailing batch of fewer than two samples is
    skipped (no pairs can be formed from it).

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
    orders = _epoch_orders(config.seed, len(splits.train), config.epochs)
    [outcome], records = _lockstep(splits, [config], [margins], orders, validate)
    if isinstance(outcome, str):
        raise TrainingDivergedError(outcome)
    return outcome, TrainHistory(records=records, margins=margins)


def train_points(
    splits: DatasetSplits, configs: list[TrainConfig], orders: np.ndarray
) -> list[EncoderParams | str]:
    """Train sweep points in lockstep: each config's params, or the message of
    its divergence.

    The configs may differ only in ``margin_override`` and ``quant_weight``:
    they share their seed, so their initial weights, and ``orders``, the
    (epochs, n) shuffles of their seed.  Each step gathers the batch and
    builds its pair masks once for the stack.  The weights, velocity and
    gradients are (S, P) buffers, the margins and quant weights (S, 1, 1)
    arrays, and every kernel runs one BLAS call or reduction per point, so
    each point gets the bits of ``train(splits, config, validate=False)``.
    A point leaves the stack at the epoch where that call would raise, with
    its message; the others go on unchanged.  A stack of one point runs on
    2-D arrays, as ``train`` does.  Memory grows with S times the square of
    the batch size, so the caller bounds S.

    Raises:
        ValueError: where ``training_margins`` does, or if the configs
            differ in anything else or ``orders`` does not fit them.
    """
    shared = {replace(c, margin_override=None, quant_weight=0.0) for c in configs}
    if len(shared) != 1:
        raise ValueError("stacked points may differ only in their margin and quant weight")
    if orders.shape != (configs[0].epochs, len(splits.train)):
        raise ValueError("the shuffles must hold one row of the train rows per epoch")
    margins = [training_margins(splits, config) for config in configs]
    return _lockstep(splits, configs, margins, orders, validate=False)[0]


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
