"""Encoder forward/backward/optimizer checks and training-loop contracts."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

from conftest import relative_error
from hashbound.bounds import (
    MAX_CODE_BITS,
    BoundProblem,
    derive_margins,
    margins_from_negative,
)
from hashbound.data import SplitSpec, generate_synthetic, split_dataset
from hashbound.encoder import (
    _FINITE_LIMIT,
    _STREAM_SHUFFLE,
    EncoderParams,
    EpochRecord,
    TrainConfig,
    TrainingDivergedError,
    _arrays,
    _codes,
    _epoch_orders,
    _flat,
    _forward_is_finite,
    _gradients,
    _hidden,
    _momentum_step,
    _views,
    encode,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
    train_points,
    training_margins,
)
from hashbound import evaluation
from hashbound.codes import Codebook, from_signs, pack_sign_rows
from hashbound.evaluation import mean_average_precision
from hashbound.losses import ClassCenters, _total, total_loss
from hashbound.prng import Xorshift64Star
from test_losses import head_total_loss
from test_prng import scalar_permutation


def params_equal(a: EncoderParams, b: EncoderParams) -> bool:
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for f in dataclasses.fields(EncoderParams)
    )


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def zero_params(like: EncoderParams) -> EncoderParams:
    return EncoderParams(*(np.zeros_like(a) for a in _arrays(like)))


def backward(params: EncoderParams, features, code_grads) -> EncoderParams:
    """Parameter gradients as ``train`` takes them: ``_gradients`` over ``_hidden``."""
    grads = EncoderParams(*(np.full(a.shape, np.nan) for a in _arrays(params)))
    _gradients(params, features, _hidden(params, features), code_grads, grads)
    return grads


def oracle_forward(params: EncoderParams, features: np.ndarray) -> np.ndarray:
    """Straightforward per-element loops; no matrix ops."""
    n = features.shape[0]
    out = np.zeros((n, params.code_bits))
    for s in range(n):
        hidden = np.zeros(params.hidden_dim)
        for h in range(params.hidden_dim):
            acc = params.hidden_bias[h]
            for d in range(params.input_dim):
                acc += params.hidden_weights[h, d] * features[s, d]
            hidden[h] = math.tanh(acc)
        for o in range(params.code_bits):
            acc = params.output_bias[o]
            for h in range(params.hidden_dim):
                acc += params.output_weights[o, h] * hidden[h]
            out[s, o] = acc
    return out


# --- init ---------------------------------------------------------------------

def test_init_shapes():
    params = init_params(8, 16, 12, seed=0)
    assert params.hidden_weights.shape == (16, 8)
    assert params.hidden_bias.shape == (16,)
    assert params.output_weights.shape == (12, 16)
    assert params.output_bias.shape == (12,)


def test_init_deterministic_per_seed():
    assert params_equal(init_params(8, 16, 12, seed=5), init_params(8, 16, 12, seed=5))
    assert not params_equal(init_params(8, 16, 12, seed=5), init_params(8, 16, 12, seed=6))


def test_init_scale_and_zero_biases():
    params = init_params(9, 25, 4, seed=1)
    assert np.all(np.abs(params.hidden_weights) <= 1 / 3)
    assert np.all(np.abs(params.output_weights) <= 1 / 5)
    assert np.all(params.hidden_bias == 0)
    assert np.all(params.output_bias == 0)


# --- forward ---------------------------------------------------------------------

def test_forward_zero_weights_gives_zero_codes():
    params = zero_params(init_params(4, 6, 3, seed=0))
    assert np.all(forward(params, np.ones((5, 4))) == 0.0)


def test_forward_affine_in_output_layer():
    rng = np.random.default_rng(0)
    params = init_params(4, 6, 3, seed=2)
    x = rng.normal(size=(2, 4))
    doubled = EncoderParams(
        hidden_weights=params.hidden_weights,
        hidden_bias=params.hidden_bias,
        output_weights=2.0 * params.output_weights,
        output_bias=np.zeros(3),
    )
    base = forward(
        EncoderParams(params.hidden_weights, params.hidden_bias,
                      params.output_weights, np.zeros(3)),
        x,
    )
    assert np.allclose(forward(doubled, x), 2.0 * base)


def test_forward_matches_loop_oracle():
    rng = np.random.default_rng(1)
    params = init_params(7, 9, 5, seed=3)
    x = rng.normal(size=(6, 7))
    assert np.max(np.abs(forward(params, x) - oracle_forward(params, x))) < 1e-10


def previous_hidden(params: EncoderParams, features: np.ndarray) -> np.ndarray:
    """The hidden layer as it was written before it was built in place."""
    return np.tanh(features @ params.hidden_weights.T + params.hidden_bias)


@pytest.mark.parametrize("rows", [1, 2, 64, 900, 5000])
def test_hidden_matches_previous_body_exactly(rows):
    rng = np.random.default_rng(rows)
    params = init_params(32, 64, 12, seed=rows)
    params = dataclasses.replace(params, hidden_bias=rng.normal(size=64))
    x = rng.normal(size=(rows, 32))
    # 1e3 saturates tanh to +-1 on nearly every unit
    for scale in (1.0, 1e3):
        assert bits_equal(_hidden(params, scale * x), previous_hidden(params, scale * x))


def test_forward_rejects_wrong_dim():
    params = init_params(4, 6, 3, seed=0)
    with pytest.raises(ValueError):
        forward(params, np.ones((2, 5)))


# --- backward ---------------------------------------------------------------------

def test_backward_zero_grads_in_zero_grads_out():
    params = init_params(4, 6, 3, seed=4)
    grads = backward(params, np.ones((2, 4)), np.zeros((2, 3)))
    assert params_equal(grads, zero_params(params))


def test_backward_single_sample_hand_chain():
    # 1-d chain: u = w2 * tanh(w1*x + b1) + b2, upstream gradient g
    w1, b1, w2, b2, x, g = 0.7, 0.1, -1.3, 0.4, 0.9, 2.0
    params = EncoderParams(
        hidden_weights=np.array([[w1]]),
        hidden_bias=np.array([b1]),
        output_weights=np.array([[w2]]),
        output_bias=np.array([b2]),
    )
    grads = backward(params, np.array([[x]]), np.array([[g]]))
    h = math.tanh(w1 * x + b1)
    assert grads.output_bias[0] == pytest.approx(g)
    assert grads.output_weights[0, 0] == pytest.approx(g * h)
    assert grads.hidden_bias[0] == pytest.approx(g * w2 * (1 - h * h))
    assert grads.hidden_weights[0, 0] == pytest.approx(g * w2 * (1 - h * h) * x)


def test_backward_matches_finite_differences_through_loss():
    rng = np.random.default_rng(2)
    params = init_params(3, 5, 4, seed=7)
    features = rng.normal(size=(6, 3)) * 2.0
    labels = rng.integers(0, 2, size=6)
    margins = derive_margins(BoundProblem(4, 2))

    def loss_of(p: EncoderParams) -> float:
        return total_loss(forward(p, features), labels, margins, 0.002).total

    report = total_loss(forward(params, features), labels, margins, 0.002)
    analytic = backward(params, features, report.code_grads)

    step = 1e-5
    for field in dataclasses.fields(EncoderParams):
        arr = getattr(params, field.name)
        numeric = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            bumped = dataclasses.replace(params, **{field.name: _bump(arr, idx, step)})
            up = loss_of(bumped)
            bumped = dataclasses.replace(params, **{field.name: _bump(arr, idx, -step)})
            down = loss_of(bumped)
            numeric[idx] = (up - down) / (2 * step)
        assert relative_error(getattr(analytic, field.name), numeric) < 1e-5, field.name


def _bump(arr: np.ndarray, idx, delta: float) -> np.ndarray:
    out = arr.copy()
    out[idx] += delta
    return out


# --- optimizer ---------------------------------------------------------------------

def test_sgd_step_zero_momentum_is_gradient_descent():
    weights, grads, velocity = np.full(4, 1.0), np.full(4, 2.0), np.zeros(4)
    _momentum_step(weights, grads, velocity, 0.1, 0.0)
    assert weights.tolist() == pytest.approx([0.8] * 4)
    assert velocity.tolist() == pytest.approx([-0.2] * 4)


def test_sgd_step_noop_on_zero_grads():
    weights, velocity = np.full(4, 1.5), np.zeros(4)
    _momentum_step(weights, np.zeros(4), velocity, 0.1, 0.5)
    assert weights.tolist() == [1.5] * 4
    assert velocity.tolist() == [0.0] * 4


def test_sgd_step_matches_the_momentum_formula_bitwise():
    rng = np.random.default_rng(5)
    weights, grads, velocity = (rng.normal(size=51) for _ in range(3))
    before = [a.copy() for a in (weights, grads, velocity)]
    _momentum_step(weights, grads, velocity, 0.05, 0.5)
    v = 0.5 * before[2] - 0.05 * before[1]
    assert bits_equal(velocity, v)
    assert bits_equal(weights, before[0] + v)
    # the gradients are left scaled by the learning rate
    assert bits_equal(grads, 0.05 * before[1])


def test_sgd_two_steps_match_hand_unroll():
    # p0=1, g1=2, g2=-1, lr=0.1, momentum=0.5 -> p1=0.8, p2=0.8
    weights, velocity = np.full(4, 1.0), np.zeros(4)
    _momentum_step(weights, np.full(4, 2.0), velocity, 0.1, 0.5)
    assert weights.tolist() == pytest.approx([0.8] * 4)
    _momentum_step(weights, np.full(4, -1.0), velocity, 0.1, 0.5)
    assert weights.tolist() == pytest.approx([0.8] * 4)


def head_gradients(params, features, hidden, code_grads):
    """``encoder._gradients`` before it wrote into the gradient buffers."""
    grad_pre = (code_grads @ params.output_weights) * (1.0 - hidden**2)
    return (
        grad_pre.T @ features,
        grad_pre.sum(axis=0),
        code_grads.T @ hidden,
        code_grads.sum(axis=0),
    )


def head_momentum_step(weights, grads, velocity, learning_rate, momentum):
    """``encoder._momentum_step`` before the flat buffers: one pass per array."""
    for theta, g, v in zip(weights, grads, velocity, strict=True):
        v *= momentum
        v -= learning_rate * g
        theta += v


STEP_BATCHES = {  # rows, label values drawn from, feature scale, fixed class centers
    "ties": (64, 3, 1.0, False),
    "one-class": (16, 1, 1.0, False),  # no dissimilar pair
    "all-distinct": (12, None, 1.0, False),  # no similar pair
    "trailing-2": (2, 2, 1.0, False),
    "trailing-63": (63, 5, 1.0, False),
    "classwise": (64, 4, 1.0, True),
    "saturated": (64, 3, 1e300, False),  # tanh saturates every hidden unit
}


@pytest.mark.parametrize("negative_margin", [0, -2, -12, 4])
@pytest.mark.parametrize("batch", STEP_BATCHES)
def test_training_step_matches_the_previous_chain_bitwise(batch, negative_margin):
    """Consecutive steps as ``train`` takes them (flat buffers, ``_total``,
    ``_gradients`` into views, one flat momentum step) against the previous
    chain: ``total_loss``, ``_gradients`` and a per-array momentum step."""
    rows, classes, scale, classwise = STEP_BATCHES[batch]
    rng = np.random.default_rng(23)
    margins = margins_from_negative(12, negative_margin)
    initial = init_params(16, 24, 12, seed=7)
    want = EncoderParams(*(a.copy() for a in _arrays(initial)))
    want_velocity = [np.zeros_like(a) for a in _arrays(initial)]
    weights = _flat(initial)
    params = _views(weights, initial)
    velocity = np.zeros_like(weights)
    grads = np.empty_like(weights)
    grad_views = _views(grads, initial)
    centers = None
    if classwise:
        centers = ClassCenters(rng.uniform(-1.0, 1.0, size=(classes, 12)),
                               np.ones(classes, dtype=np.int64))
    with np.errstate(over="ignore", invalid="ignore"):  # as train runs it
        for _ in range(4):
            feats = scale * rng.normal(size=(rows, 16))
            labels = (rng.permutation(rows) if classes is None
                      else rng.integers(0, classes, size=rows))
            hidden = _hidden(want, feats)
            relaxed = _codes(want, hidden)
            pair, quan, code_grads = head_total_loss(relaxed, labels, margins, 0.002,
                                                     centers)
            head_momentum_step(_arrays(want), head_gradients(want, feats, hidden, code_grads),
                               want_velocity, 0.05, 0.5)

            hidden = _hidden(params, feats)
            assert bits_equal(_codes(params, hidden), relaxed)
            report = _total(relaxed, labels, margins, 0.002, centers)
            _gradients(params, feats, hidden, report.code_grads, grad_views)
            _momentum_step(weights, grads, velocity, 0.05, 0.5)

            assert (report.pairwise, report.quantization) == (pair, quan)
            assert bits_equal(report.code_grads, code_grads)
            for got, expected in zip(_arrays(params), _arrays(want)):
                assert bits_equal(got, expected)
            for got, expected in zip(_arrays(_views(velocity, initial)), want_velocity):
                assert bits_equal(got, expected)
    if scale > 1.0:
        assert np.abs(_hidden(params, feats)).min() == 1.0


# --- encode ---------------------------------------------------------------------

def test_encode_matches_scalar_binarization():
    rng = np.random.default_rng(3)
    params = init_params(5, 8, 12, seed=9)
    feats = rng.normal(size=(4, 5))
    relaxed = forward(params, feats)
    words = encode(params, feats)
    assert words.shape == (4, 1) and words.dtype == np.uint64
    expected = Codebook([from_signs(row) for row in relaxed]).word_matrix()
    assert np.array_equal(words, expected)


# --- checkpoints ---------------------------------------------------------------------

def test_checkpoint_round_trip_bitwise(tmp_path):
    params = init_params(6, 10, 8, seed=11)
    config = TrainConfig(code_bits=8, seed=11, epochs=3)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, params, config, epoch=3)
    loaded, meta = load_checkpoint(path)
    assert params_equal(params, loaded)
    assert meta["epoch"] == 3
    assert meta["seed"] == 11
    assert meta["config"]["code_bits"] == 8


def test_checkpoint_rejects_malformed(tmp_path):
    path = tmp_path / "broken.json"
    for text in (
        '{"input_dim": 3, "hidden_dim": 2}',
        "[1, 2]",
        '{"input_dim": "a", "hidden_dim": 2, "code_bits": 1, "hidden_weights": [0, 0],'
        ' "hidden_bias": [0, 0], "output_weights": [0, 0], "output_bias": [0]}',
        # a -1 dimension would let reshape infer the shape
        '{"input_dim": -1, "hidden_dim": 2, "code_bits": 1, "hidden_weights": [0, 0],'
        ' "hidden_bias": [0, 0], "output_weights": [0, 0], "output_bias": [0]}',
        '{"input_dim": 1, "hidden_dim": 2, "code_bits": 1, "hidden_weights": [{}, 0],'
        ' "hidden_bias": [0, 0], "output_weights": [0, 0], "output_bias": [0]}',
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match="malformed"):
            load_checkpoint(path)


# --- training loop ---------------------------------------------------------------------

def small_splits(seed=0, classes=4, per_class=30):
    dataset = generate_synthetic(
        num_classes=classes, per_class=per_class, dim=8,
        center_scale=8.0, noise_sigma=0.8, seed=seed,
    )
    spec = SplitSpec(query_per_class=4, train_per_class=15, validation_per_class=4)
    return split_dataset(dataset, spec, seed=seed)


def test_train_single_epoch_single_record():
    splits = small_splits()
    config = TrainConfig(code_bits=8, epochs=1, batch_size=16, seed=1)
    _, history = train(splits, config)
    assert len(history.records) == 1
    assert history.records[0].epoch == 1


def test_train_config_rejects_zero_epochs():
    with pytest.raises(ValueError):
        TrainConfig(code_bits=8, epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(code_bits=8, batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(code_bits=8, margin_override=-7)  # parity
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(code_bits=8, learning_rate=bad)
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(code_bits=8, quant_weight=bad)
    TrainConfig(code_bits=MAX_CODE_BITS, hidden_dim=2**20)
    for huge in (MAX_CODE_BITS + 1, 10**30):
        with pytest.raises(ValueError, match="--bits"):
            TrainConfig(code_bits=huge)
    for huge in (2**20 + 1, 10**30):
        with pytest.raises(ValueError, match="--hidden"):
            TrainConfig(code_bits=8, hidden_dim=huge)


def test_train_is_deterministic():
    splits = small_splits()
    config = TrainConfig(code_bits=8, epochs=4, batch_size=16, seed=3)
    params_a, history_a = train(splits, config)
    params_b, history_b = train(splits, config)
    assert params_equal(params_a, params_b)
    assert history_a.records == history_b.records


def test_train_margin_wiring():
    splits = small_splits()
    config = TrainConfig(code_bits=8, epochs=1, batch_size=16)
    _, history = train(splits, config)
    assert history.margins == derive_margins(BoundProblem(8, 4))

    override = TrainConfig(code_bits=8, epochs=1, batch_size=16, margin_override=-2)
    _, history = train(splits, override)
    assert history.margins.negative_margin == -2
    assert history.margins.target_distance == 5


def test_train_diverges_cleanly_at_huge_learning_rate():
    splits = small_splits()
    config = TrainConfig(code_bits=8, epochs=5, batch_size=16, learning_rate=1e12)
    with pytest.raises(TrainingDivergedError):
        train(splits, config)


def test_train_handles_trailing_single_sample():
    # 60 train rows with batch 59 leaves a final batch of one: skipped
    splits = small_splits()
    config = TrainConfig(code_bits=8, epochs=2, batch_size=59, seed=2)
    _, history = train(splits, config)
    assert len(history.records) == 2


def test_training_progress_when_margin_is_attainable():
    # With two classes the clamped margin (antipodal codes) is realizable,
    # so the objective can actually approach zero.
    dataset = generate_synthetic(
        num_classes=2, per_class=100, dim=32,
        center_scale=10.0, noise_sigma=1.0, seed=3,
    )
    spec = SplitSpec(query_per_class=10, train_per_class=50, validation_per_class=10)
    splits = split_dataset(dataset, spec, seed=0)
    config = TrainConfig(code_bits=12, epochs=50, batch_size=64, seed=0)
    _, history = train(splits, config)
    assert history.margins.negative_margin == -12  # clamped case
    assert history.records[-1].total < 0.1 * history.records[0].total


def head_backward(params, features, code_grads):
    """``encoder.backward`` before it was deleted: new gradient arrays."""
    hidden = previous_hidden(params, features)
    return EncoderParams(*head_gradients(params, features, hidden, code_grads))


def head_sgd_step(params, grads, velocity, learning_rate, momentum):
    """``encoder.sgd_step`` before it was deleted: new params and velocity arrays."""
    velocity = EncoderParams(*(momentum * v - learning_rate * g
                               for v, g in zip(_arrays(velocity), _arrays(grads))))
    return EncoderParams(*(p + v for p, v in zip(_arrays(params), _arrays(velocity)))), velocity


def reference_train(splits, config):
    """The training loop as a chain of steps: ``forward`` -> ``total_loss`` ->
    ``head_backward`` -> ``head_sgd_step``, a new set of arrays per step, on
    each epoch's shuffle from ``scalar_permutation``."""
    margins = training_margins(splits, config)
    dataset = splits.dataset
    train_labels = dataset.labels[splits.train]
    params = init_params(dataset.dim, config.hidden_dim, config.code_bits, config.seed)
    velocity = zero_params(params)
    shuffle_rng = Xorshift64Star(config.seed, stream=_STREAM_SHUFFLE)
    train_features = dataset.features[splits.train]

    def check_finite(value, epoch):
        if not np.all(np.isfinite(value)):
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch}; "
                "the learning rate is likely too high"
            )

    records = []
    n = len(splits.train)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            order = scalar_permutation(shuffle_rng, n)
            sum_pair = sum_quan = sum_total = 0.0
            batches = 0
            for start in range(0, n, config.batch_size):
                rows = order[start : start + config.batch_size]
                if len(rows) < 2:
                    continue
                feats, labels = train_features[rows], train_labels[rows]
                relaxed = forward(params, feats)
                check_finite(relaxed, epoch)
                report = total_loss(relaxed, labels, margins, config.quant_weight)
                check_finite(report.total, epoch)
                grads = head_backward(params, feats, report.code_grads)
                params, velocity = head_sgd_step(
                    params, grads, velocity, config.learning_rate, config.momentum
                )
                sum_pair += report.pairwise
                sum_quan += report.quantization
                sum_total += report.total
                batches += 1
            db_relaxed = forward(params, dataset.features[splits.database])
            check_finite(db_relaxed, epoch)
            val_relaxed = forward(params, dataset.features[splits.validation])
            check_finite(val_relaxed, epoch)
            report = mean_average_precision(
                pack_sign_rows(val_relaxed), dataset.labels[splits.validation],
                pack_sign_rows(db_relaxed), dataset.labels[splits.database],
                None, config.code_bits,
            )
            records.append(EpochRecord(
                epoch=epoch,
                pairwise=sum_pair / batches,
                quantization=sum_quan / batches,
                total=sum_total / batches,
                val_map=report.map,
                min_center_distance=report.min_interclass_distance,
            ))
    return params, records


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"batch_size": 59},  # 60 train rows: a trailing batch of one is skipped
        {"quant_weight": 0.0},
        {"momentum": 0.9, "hidden_dim": 5, "learning_rate": 0.2},
    ],
    ids=["pairwise", "trailing-single-sample", "no-quantization", "high-momentum"],
)
def test_train_matches_reference_loop_bitwise(overrides):
    splits = small_splits(seed=2)
    config = TrainConfig(**{"code_bits": 8, "epochs": 4, "batch_size": 16, "seed": 5,
                            **overrides})
    params, history = train(splits, config)
    want_params, want_records = reference_train(splits, config)
    for f in dataclasses.fields(EncoderParams):
        assert bits_equal(getattr(params, f.name), getattr(want_params, f.name)), f.name
    assert history.records == want_records


@pytest.mark.parametrize("learning_rate,epoch", [(1e12, 1), (1e3, 2)])
def test_train_diverges_at_the_reference_loop_epoch(learning_rate, epoch):
    splits = small_splits()
    config = TrainConfig(code_bits=8, epochs=5, batch_size=16,
                         learning_rate=learning_rate)
    with pytest.raises(TrainingDivergedError) as want:
        reference_train(splits, config)
    with pytest.raises(TrainingDivergedError) as got:
        train(splits, config)
    assert str(got.value) == str(want.value)
    assert f"at epoch {epoch};" in str(got.value)


@pytest.mark.parametrize(
    "learning_rate,quant_weight,epoch,codes_finite",
    [
        (1e12, 0.0, 1, True),
        (1e3, 0.0, 2, True),
        (sys.float_info.max, 0.0, 1, False),
        (sys.float_info.max, 0.002, 1, False),
    ],
    ids=["lr-1e12", "lr-1e3", "inf-codes", "inf-codes-quantized"],
)
def test_train_checks_only_the_batch_total(
    monkeypatch, learning_rate, quant_weight, epoch, codes_finite
):
    # reference_train checks the relaxed codes before the loss and the total
    # after it; train checks the total alone.  A non-finite code still makes
    # the total non-finite (an inf times a 0 mask is nan in the hinge, the
    # quantization term is inf, and a quant weight of 0 times inf is nan), so
    # both raise at the same epoch with the same message.
    import hashbound.encoder as encoder_module

    splits = small_splits()
    config = TrainConfig(code_bits=8, epochs=5, batch_size=16,
                         learning_rate=learning_rate, quant_weight=quant_weight)
    with pytest.raises(TrainingDivergedError) as want:
        reference_train(splits, config)
    finite = []

    def spy(codes, *args):
        finite.append(bool(np.isfinite(codes).all()))
        return _total(codes, *args)

    monkeypatch.setattr(encoder_module, "_total", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(TrainingDivergedError) as got:
            train(splits, config)
    assert str(got.value) == str(want.value)
    assert f"at epoch {epoch};" in str(got.value)
    # the raising batch's codes: finite ones that overflow the loss, or the
    # inf/nan codes of weights that an earlier step overflowed
    assert finite[-1] is codes_finite


@pytest.mark.parametrize("quant_weight", [0.0, 0.002])
def test_a_non_finite_code_makes_the_loss_total_non_finite(quant_weight):
    # what train's one check per batch rests on, with the pairwise term
    # finite or not: one inf or nan code among finite ones, in batches of
    # one class (no dissimilar pair) and of two
    margins = derive_margins(BoundProblem(8, 4))
    rng = np.random.default_rng(0)
    seen_finite_pairwise = False
    with np.errstate(over="ignore", invalid="ignore"):
        for bad in (np.inf, -np.inf, np.nan):
            for labels in (np.zeros(6, dtype=int), np.arange(6) % 2):
                for _ in range(20):
                    codes = rng.normal(size=(6, 8))
                    codes[rng.integers(6), rng.integers(8)] = bad
                    report = _total(codes, labels, margins, quant_weight, None)
                    seen_finite_pairwise |= math.isfinite(report.pairwise)
                    assert not math.isfinite(report.total)
    assert seen_finite_pairwise


@pytest.mark.parametrize("every", [1, 3])
def test_train_ranks_pending_epochs_in_batches(monkeypatch, every):
    splits = small_splits(seed=2)
    config = TrainConfig(code_bits=8, epochs=7, batch_size=16, seed=5)
    monkeypatch.setattr(evaluation, "_CHUNK_PAIRS", every * len(splits.database))
    stacks = []
    real = evaluation.stacked_scores

    def spy(query_words, *args):
        stacks.append(len(query_words))
        return real(query_words, *args)

    monkeypatch.setattr(evaluation, "stacked_scores", spy)
    params, history = train(splits, config)
    assert stacks == ([1] * 7 if every == 1 else [3, 3, 1])
    want_params, want_records = reference_train(splits, config)
    for f in dataclasses.fields(EncoderParams):
        assert bits_equal(getattr(params, f.name), getattr(want_params, f.name)), f.name
    assert history.records == want_records


def test_train_ranks_all_epochs_after_the_loop(monkeypatch):
    splits = small_splits(seed=2)
    config = TrainConfig(code_bits=8, epochs=7, batch_size=16, seed=5)
    stacks = []
    real = evaluation.stacked_scores

    def spy(query_words, *args):
        stacks.append(len(query_words))
        return real(query_words, *args)

    monkeypatch.setattr(evaluation, "stacked_scores", spy)
    _, history = train(splits, config)
    assert stacks == [7]
    assert [r.epoch for r in history.records] == list(range(1, 8))


def test_divergence_after_pending_epochs_ranks_nothing(monkeypatch):
    # lr 1e3 diverges at epoch 2, with epoch 1 pending
    splits = small_splits()
    config = TrainConfig(code_bits=8, epochs=5, batch_size=16, learning_rate=1e3)
    with pytest.raises(TrainingDivergedError) as want:
        reference_train(splits, config)

    def forbidden(*args, **kwargs):
        raise AssertionError("a diverging run ranked its pending epochs")

    monkeypatch.setattr(evaluation, "stacked_scores", forbidden)
    with pytest.raises(TrainingDivergedError) as got:
        train(splits, config)
    assert str(got.value) == str(want.value)
    assert "at epoch 2;" in str(got.value)


@pytest.mark.parametrize("overrides", [{}], ids=["pairwise"])
@pytest.mark.parametrize("seed", [0, 3])
def test_train_without_validation_gives_the_same_params(overrides, seed):
    splits = small_splits(seed=seed)
    config = TrainConfig(**{"code_bits": 8, "epochs": 4, "batch_size": 16, "seed": seed,
                            **overrides})
    params, history = train(splits, config)
    lean_params, lean_history = train(splits, config, validate=False)
    for f in dataclasses.fields(EncoderParams):
        assert np.array_equal(getattr(lean_params, f.name), getattr(params, f.name)), f.name
    assert lean_history.records == []
    assert lean_history.margins == history.margins


def test_train_without_validation_ranks_nothing(monkeypatch):
    import hashbound.encoder as encoder_module

    def forbidden(*args, **kwargs):
        raise AssertionError("called by train(validate=False)")

    monkeypatch.setattr(evaluation, "stacked_scores", forbidden)
    monkeypatch.setattr(evaluation, "mean_average_precision", forbidden)
    monkeypatch.setattr(encoder_module, "pack_sign_rows", forbidden)
    train(small_splits(), TrainConfig(code_bits=8, epochs=2, batch_size=16),
          validate=False)


def test_train_without_validation_still_diverges_at_epoch_end():
    # one batch of all 60 train rows and one epoch: the batch's loss is
    # finite, so only the epoch-end forward passes can see the step overflow
    splits = small_splits()
    config = TrainConfig(code_bits=8, epochs=1, batch_size=60,
                         learning_rate=sys.float_info.max)
    with pytest.raises(TrainingDivergedError) as want:
        train(splits, config)
    with pytest.raises(TrainingDivergedError) as got:
        train(splits, config, validate=False)
    assert str(got.value) == str(want.value)
    assert "at epoch 1;" in str(got.value)


def random_magnitudes(rng, shape, top, special_share):
    """Signed values from 1e-3 to 10**top, some of them inf or nan."""
    values = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-3, top, size=shape)
    special = rng.random(size=shape)
    values[special < special_share / 2] = np.inf
    values[special > 1 - special_share / 2] = np.nan
    return values


def test_forward_is_finite_whenever_the_bound_says_so():
    rng = np.random.default_rng(0)
    proven = unproven = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2000):
            d, h, l = rng.integers(1, 6, size=3)
            top, special_share = rng.uniform(-3, 300), rng.choice([0.0, 0.05])
            params = EncoderParams(*(
                random_magnitudes(rng, shape, top, special_share)
                for shape in ((h, d), (h,), (l, h), (l,))
            ))
            max_abs_feature = 10.0 ** rng.uniform(-3, 300)
            if not _forward_is_finite(params, max_abs_feature):
                unproven += 1
                continue
            proven += 1
            # row j follows the signs of hidden row j: no cancellation, the
            # largest pre-activation that features of magnitude X can give
            signs = np.where(params.hidden_weights < 0, -1.0, 1.0)
            features = max_abs_feature * np.vstack([signs, -signs])
            assert np.isfinite(forward(params, features)).all()
            pre = features @ params.hidden_weights.T + params.hidden_bias
            assert np.abs(pre).max() < _FINITE_LIMIT * (1 + 1e-12)
    assert proven > 300 and unproven > 300


def test_forward_is_finite_refuses_overflowing_sums():
    one = np.ones((1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        # the hidden sum overflows; tanh saturates it, so False means
        # "not proven" and the codes are still finite
        hidden = EncoderParams(np.full((2, 1), 1e160), np.zeros(2),
                               np.ones((1, 2)), np.zeros(1))
        assert not _forward_is_finite(hidden, 1e160)
        assert np.isinf(1e160 * one @ hidden.hidden_weights.T).all()
        # the output sum overflows: 2 * tanh(1) * 1.5e308 is inf
        output = EncoderParams(np.ones((2, 1)), np.zeros(2),
                               np.full((1, 2), 1.5e308), np.zeros(1))
        assert not _forward_is_finite(output, 1.0)
        assert np.isinf(forward(output, one)).all()


@pytest.mark.parametrize("overrides", [{}], ids=["pairwise"])
def test_train_without_validation_runs_no_epoch_end_forward(monkeypatch, overrides):
    import hashbound.encoder as encoder_module

    seen = []

    def spy(params, features):
        seen.append(len(features))
        return forward(params, features)

    monkeypatch.setattr(encoder_module, "forward", spy)
    splits = small_splits()
    train(splits, TrainConfig(**{"code_bits": 8, "epochs": 4, "batch_size": 16, **overrides}),
          validate=False)
    assert seen == []


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"learning_rate": 1e12},
        {"learning_rate": 1e3},
        {"learning_rate": sys.float_info.max, "batch_size": 60, "epochs": 1},
    ],
    ids=["pairwise", "diverges-epoch-1", "diverges-epoch-2",
         "diverges-at-epoch-end"],
)
def test_train_without_validation_matches_the_unproven_path(monkeypatch, overrides):
    import hashbound.encoder as encoder_module

    splits = small_splits()
    config = TrainConfig(**{"code_bits": 8, "epochs": 5, "batch_size": 16, **overrides})

    def run():
        try:
            return train(splits, config, validate=False)[0]
        except TrainingDivergedError as exc:
            return str(exc)

    proven = run()
    monkeypatch.setattr(encoder_module, "_forward_is_finite", lambda *args: False)
    unproven = run()
    diverged = "learning_rate" in overrides
    assert isinstance(proven, str) == isinstance(unproven, str) == diverged
    if diverged:
        assert proven == unproven
    else:
        assert params_equal(proven, unproven)


def test_epoch_orders_are_the_shuffle_stream_read_only():
    orders = _epoch_orders(11, 37, 5)
    rng = Xorshift64Star(11, stream=_STREAM_SHUFFLE)
    assert orders.shape == (5, 37)
    for row in orders:
        assert np.array_equal(row, scalar_permutation(rng, 37))
    assert not orders.flags.writeable
    with pytest.raises(ValueError):
        orders[0, 0] = 1


def test_train_shares_no_buffer_between_calls():
    splits = small_splits()
    config = TrainConfig(code_bits=8, epochs=3, batch_size=16, seed=2)
    first, _ = train(splits, config, validate=False)
    kept = [a.copy() for a in _arrays(first)]
    # a second call, on the same seed's shuffles, leaves the first call's
    # params as they were
    second, _ = train(splits, dataclasses.replace(config, margin_override=-2),
                      validate=False)
    assert all(bits_equal(a, b) for a, b in zip(_arrays(first), kept))
    assert not all(bits_equal(a, b) for a, b in zip(_arrays(second), kept))
    # writing into returned params changes no later result
    for a in _arrays(first) + _arrays(second):
        a[...] = np.nan
    third, _ = train(splits, config, validate=False)
    assert all(bits_equal(a, b) for a, b in zip(_arrays(third), kept))


# --- lockstep points --------------------------------------------------------------------

def solo_outcome(splits, config):
    """What ``train_points`` must give for one config: its params, or the message."""
    try:
        return train(splits, config, validate=False)[0]
    except TrainingDivergedError as exc:
        return str(exc)


def assert_stack_matches_solo_runs(splits, configs):
    """Train ``configs`` as one stack; every outcome has the bits of a solo run."""
    orders = _epoch_orders(configs[0].seed, len(splits.train), configs[0].epochs)
    got = train_points(splits, configs, orders)
    assert len(got) == len(configs)
    outcomes = []
    for config, outcome in zip(configs, got):
        want = solo_outcome(splits, config)
        if isinstance(want, str):
            assert outcome == want, config
        else:
            assert isinstance(outcome, EncoderParams), (config, outcome)
            for a, b in zip(_arrays(outcome), _arrays(want)):
                assert bits_equal(a, b), config
            assert all(a.ndim == b.ndim for a, b in zip(_arrays(outcome), _arrays(want)))
        outcomes.append(want)
    return outcomes


def sweep_values(axis, bits, size):
    """``size`` values of the swept field: quant weights, or margins valid
    at ``bits`` from both ends and the middle (0 included when bits is even)."""
    if axis == "quant_weight":
        return [0.0, 0.002, 0.1, 1.0, 3.0][:size]
    valid = range(-bits, bits - 1, 2)
    picks = [valid[0], valid[len(valid) // 2], valid[-1],
             valid[len(valid) // 4], valid[3 * len(valid) // 4]]
    return picks[:size]


def stack_configs(axis, values, **fields):
    base = TrainConfig(**{"code_bits": 8, "epochs": 3, "batch_size": 16, "seed": 5,
                          **fields})
    return [dataclasses.replace(base, **{axis: value}) for value in values]


@pytest.mark.parametrize("size", [1, 2, 4, 5])
@pytest.mark.parametrize("bits", [1, 12, 64, 65])
@pytest.mark.parametrize("axis", ["margin_override", "quant_weight"])
def test_stacked_points_match_solo_runs_bitwise(axis, bits, size):
    # 60 train rows in batches of 16: a trailing batch of 12.  One bit
    # cannot place 4 classes, so that stack takes its one valid margin.
    splits = small_splits(seed=bits)
    fields = {"code_bits": bits, "margin_override": -1 if bits == 1 else None,
              "learning_rate": 0.01}
    configs = stack_configs(axis, sweep_values(axis, bits, size), **fields)
    outcomes = assert_stack_matches_solo_runs(splits, configs)
    # large margins and quant weights diverge at some L, mid-stack
    assert isinstance(outcomes[0], EncoderParams)


@pytest.mark.parametrize("batch_size", [59, 58, 120], ids=["trailing-1", "trailing-2", "one-batch"])
@pytest.mark.parametrize("axis", ["margin_override", "quant_weight"])
def test_stacked_points_take_the_batches_of_solo_runs(axis, batch_size):
    # 60 rows in batches of 59 leave a trailing batch of one (skipped) and
    # of 58 a trailing batch of two; 120 rows in one batch of 14,400 pairs
    splits = small_splits(seed=1) if batch_size < 120 else small_splits(seed=1, per_class=45)
    assert len(splits.train) in (60, 120)
    configs = stack_configs(axis, sweep_values(axis, 8, 4), batch_size=batch_size,
                            hidden_dim=7, epochs=4)
    assert_stack_matches_solo_runs(splits, configs)


def test_a_point_diverging_at_a_batch_leaves_its_stack_mates_unchanged():
    # the CI diverging sweep: lr 0.2 on the 4-class, 8-bit data; three points
    # diverge at a batch, at epochs 3, 3 and 2, and the fourth trains on
    dataset = generate_synthetic(num_classes=4, per_class=30, dim=8, seed=0)
    splits = split_dataset(dataset, SplitSpec(4, 15, 4), seed=0)
    configs = stack_configs("margin_override", [-8, -6, -4, 0], seed=0,
                            learning_rate=0.2)
    outcomes = assert_stack_matches_solo_runs(splits, configs)
    assert isinstance(outcomes[0], EncoderParams)
    assert [o.split(";")[0] for o in outcomes[1:]] == [
        f"non-finite loss at epoch {epoch}" for epoch in (3, 3, 2)
    ]
    # every pair and every triple of them, too
    for size in (2, 3):
        for start in range(len(configs) - size + 1):
            assert_stack_matches_solo_runs(splits, configs[start : start + size])


@pytest.mark.parametrize(
    "learning_rate,epochs,statuses",
    [
        (0.01, 3, ["ok"] * 4),
        (1e307, 1, ["ok", "ok", "epoch 1", "epoch 1"]),
        (1e307, 2, ["epoch 2", "epoch 2", "epoch 1", "epoch 1"]),
    ],
    ids=["bound-fails-all-finite", "two-diverge-at-epoch-end", "then-the-rest-at-a-batch"],
)
def test_stacked_points_check_the_epoch_end_as_solo_runs(monkeypatch, learning_rate,
                                                          epochs, statuses):
    # features near 1e300: the finiteness bound fails at every epoch end, so
    # each point runs its two forward passes there.  One batch per epoch: at
    # lr 1e307 the larger quant weights overflow their weights in the step,
    # which only the epoch-end forward passes can see.
    import hashbound.encoder as encoder_module

    dataset = generate_synthetic(num_classes=4, per_class=30, dim=8, noise_sigma=1e300,
                                 seed=0)
    splits = split_dataset(dataset, SplitSpec(4, 15, 4), seed=0)
    configs = stack_configs("quant_weight", [0.0, 0.002, 0.1, 1.0], seed=0,
                            batch_size=60, epochs=epochs, learning_rate=learning_rate)
    forwards = []

    def spy(params, features):
        forwards.append(len(features))
        return forward(params, features)

    monkeypatch.setattr(encoder_module, "forward", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        outcomes = assert_stack_matches_solo_runs(splits, configs)
    assert [
        o.split(";")[0].replace("non-finite loss at ", "") if isinstance(o, str) else "ok"
        for o in outcomes
    ] == statuses
    assert forwards


def test_one_point_trains_on_2d_arrays_and_a_stack_on_3d(monkeypatch):
    # train, and a stack of one, run the step kernels on 2-D arrays with
    # float margins and quant weight; a stack of two on (2, n, L) codes
    import hashbound.encoder as encoder_module

    splits = small_splits()
    configs = stack_configs("margin_override", [-8, -6], epochs=1)
    orders = _epoch_orders(5, len(splits.train), 1)
    seen = []
    real = encoder_module._total

    def spy(codes, labels, margins, quant_weight, centers):
        seen.append((codes.ndim, type(margins.negative_margin), type(quant_weight)))
        return real(codes, labels, margins, quant_weight, centers)

    monkeypatch.setattr(encoder_module, "_total", spy)
    for run in (lambda: train(splits, configs[0]),
                lambda: train_points(splits, configs[:1], orders)):
        seen.clear()
        run()
        assert set(seen) == {(2, float, float)}
    seen.clear()
    train_points(splits, configs, orders)
    assert set(seen) == {(3, np.ndarray, np.ndarray)}


def test_train_points_refuses_points_that_differ_in_more_than_margin_or_weight():
    splits = small_splits()
    configs = stack_configs("margin_override", [-8, -6])
    orders = _epoch_orders(5, len(splits.train), 3)
    for other in ({"learning_rate": 0.1}, {"seed": 6}, {"epochs": 4}, {"batch_size": 8}):
        mixed = [configs[0], dataclasses.replace(configs[1], **other)]
        with pytest.raises(ValueError, match="differ only"):
            train_points(splits, mixed, orders)
    for shape in ((2, 60), (3, 59)):
        with pytest.raises(ValueError, match="one row"):
            train_points(splits, configs, np.zeros(shape, dtype=np.int64))
