"""Encoder forward/backward/optimizer checks and training-loop contracts."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import relative_error
from hashbound.bounds import BoundProblem, derive_margins
from hashbound.data import SplitSpec, generate_synthetic, split_dataset
from hashbound.encoder import (
    _STREAM_SHUFFLE,
    EncoderParams,
    EpochRecord,
    TrainConfig,
    TrainingDivergedError,
    backward,
    encode,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    train,
    training_margins,
    zeros_like_params,
)
from hashbound.codes import Codebook, from_signs, pack_sign_rows
from hashbound.evaluation import mean_average_precision
from hashbound.losses import ClassCenters, total_loss, update_centers
from hashbound.prng import Xorshift64Star


def params_equal(a: EncoderParams, b: EncoderParams) -> bool:
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for f in dataclasses.fields(EncoderParams)
    )


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


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
    params = zeros_like_params(init_params(4, 6, 3, seed=0))
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


def test_forward_rejects_wrong_dim():
    params = init_params(4, 6, 3, seed=0)
    with pytest.raises(ValueError):
        forward(params, np.ones((2, 5)))


# --- backward ---------------------------------------------------------------------

def test_backward_zero_grads_in_zero_grads_out():
    params = init_params(4, 6, 3, seed=4)
    grads = backward(params, np.ones((2, 4)), np.zeros((2, 3)))
    assert params_equal(grads, zeros_like_params(params))


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


def test_backward_rejects_bad_shapes():
    params = init_params(3, 5, 4, seed=0)
    with pytest.raises(ValueError):
        backward(params, np.ones((2, 3)), np.ones((2, 5)))


# --- optimizer ---------------------------------------------------------------------

def unit_params(value: float) -> EncoderParams:
    return EncoderParams(
        hidden_weights=np.full((1, 1), value),
        hidden_bias=np.full(1, value),
        output_weights=np.full((1, 1), value),
        output_bias=np.full(1, value),
    )


def test_sgd_step_zero_momentum_is_gradient_descent():
    params, velocity = unit_params(1.0), unit_params(0.0)
    grads = unit_params(2.0)
    new_params, new_velocity = sgd_step(params, grads, velocity, 0.1, 0.0)
    assert new_params.hidden_weights[0, 0] == pytest.approx(0.8)
    assert new_velocity.hidden_weights[0, 0] == pytest.approx(-0.2)


def test_sgd_step_noop_on_zero_grads():
    params, velocity = unit_params(1.5), unit_params(0.0)
    new_params, new_velocity = sgd_step(params, unit_params(0.0), velocity, 0.1, 0.5)
    assert params_equal(new_params, params)
    assert params_equal(new_velocity, velocity)


def test_sgd_step_matches_the_momentum_formula_bitwise():
    rng = np.random.default_rng(5)
    params, grads, velocity = (
        EncoderParams(rng.normal(size=(6, 4)), rng.normal(size=6),
                      rng.normal(size=(3, 6)), rng.normal(size=3))
        for _ in range(3)
    )
    before = [np.copy(getattr(p, f.name)) for p in (params, grads, velocity)
              for f in dataclasses.fields(EncoderParams)]
    new_params, new_velocity = sgd_step(params, grads, velocity, 0.05, 0.5)
    for f in dataclasses.fields(EncoderParams):
        v = 0.5 * getattr(velocity, f.name) - 0.05 * getattr(grads, f.name)
        assert bits_equal(getattr(new_velocity, f.name), v)
        assert bits_equal(getattr(new_params, f.name), getattr(params, f.name) + v)
    # the inputs are left as they were
    after = [getattr(p, f.name) for p in (params, grads, velocity)
             for f in dataclasses.fields(EncoderParams)]
    assert all(bits_equal(a, b) for a, b in zip(after, before))


def test_sgd_two_steps_match_hand_unroll():
    # p0=1, g1=2, g2=-1, lr=0.1, momentum=0.5 -> p1=0.8, p2=0.8
    params, velocity = unit_params(1.0), unit_params(0.0)
    params, velocity = sgd_step(params, unit_params(2.0), velocity, 0.1, 0.5)
    assert params.output_bias[0] == pytest.approx(0.8)
    params, velocity = sgd_step(params, unit_params(-1.0), velocity, 0.1, 0.5)
    assert params.output_bias[0] == pytest.approx(0.8)


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


def test_train_classwise_mode_learns():
    splits = small_splits()
    config = TrainConfig(code_bits=8, epochs=25, batch_size=16, seed=4, classwise=True)
    _, history = train(splits, config)
    assert history.records[-1].val_map > 0.9
    assert history.records[-1].total < history.records[0].total


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


def reference_train(splits, config):
    """The training loop through the public steps: ``forward`` -> ``total_loss``
    -> ``backward`` -> ``sgd_step``, a new set of arrays per step."""
    margins = training_margins(splits, config)
    dataset = splits.dataset
    train_labels = dataset.labels[splits.train]
    params = init_params(dataset.dim, config.hidden_dim, config.code_bits, config.seed)
    velocity = zeros_like_params(params)
    shuffle_rng = Xorshift64Star(config.seed, stream=_STREAM_SHUFFLE)
    train_features = dataset.features[splits.train]
    centers = None
    if config.classwise:
        centers = update_centers(
            ClassCenters.empty(dataset.num_classes, config.code_bits,
                               config.center_momentum),
            forward(params, train_features),
            train_labels,
        )

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
            order = shuffle_rng.permutation(n)
            sum_pair = sum_quan = sum_total = 0.0
            batches = 0
            for start in range(0, n, config.batch_size):
                rows = order[start : start + config.batch_size]
                if len(rows) < 2:
                    continue
                feats, labels = train_features[rows], train_labels[rows]
                relaxed = forward(params, feats)
                check_finite(relaxed, epoch)
                report = total_loss(relaxed, labels, margins, config.quant_weight, centers)
                check_finite(report.total, epoch)
                grads = backward(params, feats, report.code_grads)
                params, velocity = sgd_step(
                    params, grads, velocity, config.learning_rate, config.momentum
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
        {"classwise": True, "epochs": 6},
        {"batch_size": 59},  # 60 train rows: a trailing batch of one is skipped
        {"quant_weight": 0.0},
        {"momentum": 0.9, "hidden_dim": 5, "learning_rate": 0.2},
    ],
    ids=["pairwise", "classwise", "trailing-single-sample", "no-quantization",
         "high-momentum"],
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


def test_train_config_rejects_bad_center_momentum():
    for bad in (-0.1, 1.5, 2.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="center_momentum"):
            TrainConfig(code_bits=8, center_momentum=bad)
    for good in (0.0, 0.5, 1.0):
        TrainConfig(code_bits=8, center_momentum=good)
