"""Hinge losses: frozen hand values, algebraic properties, gradient checks.

Every gradient assertion compares the analytic path against central finite
differences of the loss *value*, sampled away from hinge kinks and the sign
discontinuity of the quantization term.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import relative_error
import hashbound.losses as losses_module
from hashbound.bounds import margins_from_negative
from hashbound.losses import (
    ClassCenters,
    LossReport,
    classwise_loss,
    pairwise_loss,
    quantization_loss,
    total_loss,
    update_centers,
)

MARGINS_12 = margins_from_negative(12, -6)
FD_STEP = 1e-5
KINK_GAP = 5e-2  # keep sampled thetas this far from both margins
SIGN_GAP = 1e-3  # keep code entries this far from zero


def finite_difference(value_fn, codes: np.ndarray) -> np.ndarray:
    grads = np.zeros_like(codes)
    it = np.nditer(codes, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        bumped = codes.copy()
        bumped[idx] += FD_STEP
        up = value_fn(bumped)
        bumped[idx] -= 2 * FD_STEP
        down = value_fn(bumped)
        grads[idx] = (up - down) / (2 * FD_STEP)
    return grads


def sample_smooth_batch(rng, n, bits, margins, max_tries=200):
    """Random codes whose pair thetas stay away from the hinge kinks."""
    for _ in range(max_tries):
        codes = rng.uniform(-2.0, 2.0, size=(n, bits))
        codes[np.abs(codes) < SIGN_GAP] = SIGN_GAP
        theta = codes @ codes.T
        iu = np.triu_indices(n, k=1)
        gaps = np.abs(theta[iu][:, None] - [[margins.positive_margin, margins.negative_margin]])
        if gaps.min() > KINK_GAP:
            return codes
    raise AssertionError("could not sample a kink-free batch")


# --- oracle: the explicit pair-index form ------------------------------------

def pair_index_loss(codes, labels, margins):
    """Reference pairwise loss over explicit (i, j) index pairs, i < j.

    The pair-list implementation the Gram form replaced: B(B-1)/2 index
    arrays and ``np.add.at`` scatters of the per-pair gradients.
    """
    labels = np.asarray(labels)
    first, second = np.triu_indices(len(labels), k=1)
    similar = labels[first] == labels[second]
    theta = np.einsum("ij,ij->i", codes[first], codes[second])
    loss = 0.0
    dtheta = np.zeros(len(first))
    for mask, margin, clip in (
        (similar, float(margins.positive_margin), np.minimum),
        (~similar, float(margins.negative_margin), np.maximum),
    ):
        if mask.any():
            hinge = clip(0.0, theta - margin) * mask
            scale = int(mask.sum()) * (margin**2 if margin != 0 else 1.0)
            loss += float((hinge**2).sum()) / scale
            dtheta += 2.0 * hinge / scale
    grads = np.zeros_like(codes)
    np.add.at(grads, first, dtheta[:, None] * codes[second])
    np.add.at(grads, second, dtheta[:, None] * codes[first])
    return loss, grads


def assert_matches_oracle(codes, labels, margins):
    value, grads = pairwise_loss(codes, labels, margins)
    ref_value, ref_grads = pair_index_loss(codes, labels, margins)
    assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
    np.testing.assert_allclose(grads, ref_grads, rtol=1e-12, atol=1e-12 * np.abs(ref_grads).max())


@pytest.mark.parametrize("margins", [
    MARGINS_12,
    margins_from_negative(12, 0),  # unit denominator
    margins_from_negative(12, 4),
], ids=["neg-6", "neg-0", "neg+4"])
def test_pairwise_matches_pair_index_oracle(margins):
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 20))
        codes = rng.uniform(-2.0, 2.0, size=(n, 12))
        labels = rng.integers(0, int(rng.integers(1, 5)), size=n)  # ties
        assert_matches_oracle(codes, labels, margins)


@pytest.mark.parametrize("labels", [
    [3, 3, 3, 3, 3],        # single class: similar pairs only
    [4, 0, 2, 1, 3],        # all distinct: dissimilar pairs only
    [0, 0],                 # n = 2
    [0, 1],
    [7, 7, -1, 7, -1, 2],   # unsorted, negative and non-contiguous labels
], ids=["single-class", "all-distinct", "n2-similar", "n2-dissimilar", "unsorted"])
def test_pairwise_matches_oracle_edge_batches(labels):
    rng = np.random.default_rng(12)
    for margins in (MARGINS_12, margins_from_negative(12, 0)):
        codes = rng.uniform(-2.0, 2.0, size=(len(labels), 12))
        assert_matches_oracle(codes, np.array(labels), margins)


def previous_hinge(theta, similar, dissimilar, margins):
    """The hinge kernel before it worked in place: one new array per step."""
    loss = 0.0
    dtheta = np.zeros_like(theta)
    for mask, margin, clip in (
        (similar, float(margins.positive_margin), np.minimum),
        (dissimilar, float(margins.negative_margin), np.maximum),
    ):
        count = int(mask.sum())
        if not count:
            continue
        hinge = clip(0.0, theta - margin) * mask
        scale = count * (margin**2 if margin != 0 else 1.0)
        loss += float((hinge**2).sum()) / scale
        dtheta += 2.0 * hinge / scale
    return loss, dtheta


def previous_pairwise(codes, labels, margins):
    upper = np.triu(np.ones((len(labels), len(labels)), dtype=bool), k=1)
    same = labels[:, None] == labels[None, :]
    loss, dtheta = previous_hinge(codes @ codes.T, upper & same, upper & ~same, margins)
    return loss, (dtheta + dtheta.T) @ codes


def assert_same_bits(got, want):
    assert type(got[0]) is type(want[0]) is float  # history.csv writes its repr
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(np.signbit(got[1]), np.signbit(want[1]))


@pytest.mark.parametrize("margins", [
    MARGINS_12,
    margins_from_negative(12, 0),  # unit denominator
    margins_from_negative(12, 4),
], ids=["neg-6", "neg-0", "neg+4"])
def test_hinge_matches_previous_kernel_exactly(margins):
    rng = np.random.default_rng(13)
    for trial in range(150):
        n = (2, 64, int(rng.integers(2, 70)))[trial % 3]
        codes = rng.uniform(-2.0, 2.0, size=(n, 12))
        codes[rng.random(codes.shape) < 0.05] = 0.0  # zero thetas and signed zeros
        labels = rng.integers(0, int(rng.integers(1, 5)), size=n)  # one class at times
        assert_same_bits(pairwise_loss(codes, labels, margins),
                         previous_pairwise(codes, labels, margins))
        centers = make_centers(rng.uniform(-1.0, 1.0, size=(4, 12)))
        centers.counts[int(rng.integers(0, 4))] = 0  # one uninitialized center
        batch = labels[centers.counts[labels] > 0]
        if len(batch):
            own = batch[:, None] == np.arange(4)
            loss, dtheta = previous_hinge(codes[: len(batch)] @ centers.values.T, own,
                                          ~own & (centers.counts > 0), margins)
            assert_same_bits(classwise_loss(codes[: len(batch)], batch, centers, margins),
                             (loss, dtheta @ centers.values))


def test_pair_kind_counts_normalize():
    # labels [0, 0, 1, 1]: 2 similar pairs, 4 dissimilar pairs (i < j only)
    margins = SimpleNamespace(positive_margin=1.0, negative_margin=1.0)
    codes = np.array([[1.0], [1.0], [0.0], [3.0]])
    value, _ = pairwise_loss(codes, np.array([0, 0, 1, 1]), margins)
    # similar: (0,1) free, (2,3) pays 1; dissimilar: (0,3) and (1,3) pay 4 each
    assert value == pytest.approx(1.0 / 2 + 8.0 / 4)
    # a single-class pair has no dissimilar term at all
    value, grads = pairwise_loss(np.array([[2.0], [2.0]]), np.array([3, 3]), margins)
    assert value == 0.0
    assert np.all(grads == 0.0)


def test_pairwise_input_validation():
    with pytest.raises(ValueError, match="two samples"):
        pairwise_loss(np.ones((1, 4)), np.array([1]), MARGINS_12)
    with pytest.raises(ValueError, match="finite"):
        pairwise_loss(np.array([[1.0, np.nan], [1.0, 1.0]]), np.array([0, 1]), MARGINS_12)
    with pytest.raises(ValueError, match=r"\(n, L\)"):
        pairwise_loss(np.ones(4), np.array([0, 1, 0, 1]), MARGINS_12)


# --- pairwise loss ------------------------------------------------------------

SIMILAR = np.array([0, 0])
DISSIMILAR = np.array([0, 1])


def test_positive_pair_at_margin_is_free():
    codes = np.array([[2.0, 2.0, 2.0], [2.0, 1.0, 0.0]])  # theta = 12
    margins = margins_from_negative(3, -1)
    value, grads = pairwise_loss(codes, SIMILAR, margins)
    # theta = 12 >= positive margin 3
    assert value == 0.0
    assert np.all(grads == 0.0)


def test_negative_pair_hand_value():
    # theta = 0, negative margin -6: (0 - (-6))^2 / 36 = 1
    codes = np.array([[1.0] * 12, [1.0, -1.0] * 6])
    value, _ = pairwise_loss(codes, DISSIMILAR, MARGINS_12)
    assert value == pytest.approx(1.0)


def test_positive_pair_hand_value():
    # theta = 6, positive margin 12: (-6)^2 / 144 = 0.25
    base = np.ones(12)
    other = np.ones(12)
    other[:3] = -1.0  # theta = 6
    value, _ = pairwise_loss(np.stack([base, other]), SIMILAR, MARGINS_12)
    assert value == pytest.approx(0.25)


def test_one_sided_batches_contribute_single_term():
    codes = np.array([[1.0] * 12, [1.0] * 12])
    only_pos = SIMILAR
    value, _ = pairwise_loss(codes, only_pos, MARGINS_12)
    assert value == 0.0  # theta = 12 = margin; and no negative term at all
    only_neg = DISSIMILAR
    value, _ = pairwise_loss(codes, only_neg, MARGINS_12)
    assert value == pytest.approx((12.0 + 6.0) ** 2 / 36.0)


def test_hinge_deadzone():
    rng = np.random.default_rng(1)
    for _ in range(20):
        codes = sample_smooth_batch(rng, 6, 12, MARGINS_12)
        labels = rng.integers(0, 3, size=6)
        value, grads = pairwise_loss(codes, labels, MARGINS_12)
        first, second = np.triu_indices(6, k=1)
        theta = np.einsum("ij,ij->i", codes[first], codes[second])
        similar = labels[first] == labels[second]
        satisfied = np.all(theta[similar] >= MARGINS_12.positive_margin) and np.all(
            theta[~similar] <= MARGINS_12.negative_margin
        )
        assert (value == 0.0) == satisfied
        if satisfied:
            assert np.all(grads == 0.0)


def test_single_pair_monotonicity():
    def neg_loss_at(theta_target):
        # 1-bit codes with inner product exactly theta_target
        codes = np.array([[1.0], [theta_target]])
        margins = SimpleNamespace(positive_margin=1.0, negative_margin=-0.5)
        return pairwise_loss(codes, DISSIMILAR, margins)[0]

    thetas = np.linspace(-1.0, 3.0, 41)
    losses = [neg_loss_at(t) for t in thetas]
    below = thetas <= -0.5
    assert all(l == 0.0 for l, b in zip(losses, below) if b)
    active = [l for l, b in zip(losses, below) if not b]
    assert all(a <= b + 1e-15 for a, b in zip(active, active[1:]))

    def pos_loss_at(theta_target):
        codes = np.array([[1.0], [theta_target]])
        margins = SimpleNamespace(positive_margin=0.5, negative_margin=-1.0)
        return pairwise_loss(codes, SIMILAR, margins)[0]

    losses = [pos_loss_at(t) for t in thetas]
    above = thetas >= 0.5
    assert all(l == 0.0 for l, a in zip(losses, above) if a)
    active = [l for l, a in zip(losses, above) if not a]
    assert all(a >= b - 1e-15 for a, b in zip(active, active[1:]))


def test_maximal_negative_violation_value():
    # binary codes at theta = L: ((L - neg) / neg)^2
    codes = np.array([[1.0] * 12, [1.0] * 12])
    value, _ = pairwise_loss(codes, DISSIMILAR, MARGINS_12)
    assert value == pytest.approx((12 - (-6)) ** 2 / (-6) ** 2)


def test_joint_scaling_invariance():
    # scaling inner products and margins together by c leaves the loss as is,
    # i.e. codes scale by sqrt(c) while margins scale by c
    rng = np.random.default_rng(2)
    codes = rng.uniform(-1.5, 1.5, size=(6, 12))
    labels = rng.integers(0, 2, size=6)
    base, _ = pairwise_loss(codes, labels, MARGINS_12)
    for c in (0.25, 2.0, 10.0):
        scaled = SimpleNamespace(
            positive_margin=MARGINS_12.positive_margin * c,
            negative_margin=MARGINS_12.negative_margin * c,
        )
        value, _ = pairwise_loss(codes * np.sqrt(c), labels, scaled)
        assert value == pytest.approx(base, rel=1e-12)


def test_zero_negative_margin_uses_unit_denominator():
    margins = SimpleNamespace(positive_margin=4.0, negative_margin=0.0)
    codes = np.array([[1.0, 1.0], [1.0, 1.0]])  # theta = 2 > 0
    value, _ = pairwise_loss(codes, DISSIMILAR, margins)
    assert value == pytest.approx(4.0)  # (2 - 0)^2 / max(0, 1)


def test_binary_codes_negative_loss_iff_below_target_distance():
    from hashbound.codes import flip_bits, from_bits

    base = from_bits([1] * 12)
    for distance in range(13):
        other = flip_bits(base, range(distance))
        codes = np.stack([base.signs().astype(float), other.signs().astype(float)])
        value, _ = pairwise_loss(codes, DISSIMILAR, MARGINS_12)
        if distance >= MARGINS_12.target_distance:
            assert value == 0.0
        else:
            assert value > 0.0


def test_pairwise_rejects_mismatched_labels():
    for labels in ([0, 1, 0], [0], [[0, 1]]):
        with pytest.raises(ValueError, match="labels must match"):
            pairwise_loss(np.ones((2, 4)), np.array(labels), MARGINS_12)


# --- quantization loss ----------------------------------------------------------

def test_quantization_zero_at_binary_codes():
    codes = np.array([[1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]])
    value, grads = quantization_loss(codes)
    assert value == 0.0
    assert np.all(grads == 0.0)


def test_quantization_hand_value_and_gradient():
    value, grads = quantization_loss(np.array([[0.5, -0.5]]))
    assert value == pytest.approx(0.5)
    assert grads.tolist() == [[-1.0, 1.0]]
    numeric = finite_difference(lambda u: quantization_loss(u)[0], np.array([[0.5, -0.5]]))
    assert relative_error(grads, numeric) < 1e-9


def test_quantization_sums_over_batch():
    codes = np.array([[0.5, -0.5], [0.5, -0.5], [1.0, 1.0]])
    assert quantization_loss(codes)[0] == pytest.approx(1.0)


# --- combined objective -----------------------------------------------------------

def test_total_loss_zero_weight_equals_pairwise():
    rng = np.random.default_rng(3)
    codes = rng.uniform(-1.5, 1.5, size=(5, 12))
    labels = rng.integers(0, 2, size=5)
    report = total_loss(codes, labels, MARGINS_12, quant_weight=0.0)
    assert report.total == report.pairwise
    assert report.quantization > 0.0


def test_total_loss_zero_when_everything_satisfied():
    plus = np.ones(12)
    codes = np.stack([plus, plus, -plus])
    report = total_loss(codes, np.array([0, 0, 1]), MARGINS_12, quant_weight=0.002)
    assert report.total == 0.0
    assert np.all(report.code_grads == 0.0)


def test_loss_report_invariant_enforced():
    # total is derived from its terms, so no report can carry another one
    report = LossReport(pairwise=1.0, quantization=4.0,
                        code_grads=np.zeros((1, 1)), quant_weight=0.5)
    assert report.total == 3.0
    with pytest.raises(TypeError):
        LossReport(pairwise=1.0, quantization=1.0, total=3.0,
                   code_grads=np.zeros((1, 1)), quant_weight=0.5)
    with pytest.raises(AttributeError):
        report.total = 4.0


@pytest.mark.parametrize("quant_weight", [0.0, 0.002, 0.01])
def test_total_loss_gradient_matches_finite_differences(quant_weight):
    rng = np.random.default_rng(4)
    for _ in range(6):
        n = int(rng.integers(3, 9))
        codes = sample_smooth_batch(rng, n, 12, MARGINS_12)
        labels = rng.integers(0, 3, size=n)
        report = total_loss(codes, labels, MARGINS_12, quant_weight)
        numeric = finite_difference(
            lambda u: total_loss(u, labels, MARGINS_12, quant_weight).total, codes
        )
        assert relative_error(report.code_grads, numeric) < 1e-5


# --- class-center variant -----------------------------------------------------------

def make_centers(values: np.ndarray, momentum: float = 0.9) -> ClassCenters:
    return ClassCenters(
        values=values,
        counts=np.ones(values.shape[0], dtype=np.int64),
        momentum=momentum,
    )


def test_classwise_zero_loss_construction():
    # two +-1 centers at inner product exactly the negative margin
    margins = MARGINS_12
    center_a = np.ones(12)
    center_b = np.ones(12)
    center_b[:9] = -1.0  # distance 9 -> inner product -6
    centers = make_centers(np.stack([center_a, center_b]))
    codes = np.stack([center_a, center_b])
    value, grads = classwise_loss(codes, np.array([0, 1]), centers, margins)
    assert value == 0.0
    assert np.all(grads == 0.0)


def test_classwise_unknown_class_rejected():
    centers = make_centers(np.ones((2, 4)))
    with pytest.raises(ValueError):
        classwise_loss(np.ones((1, 4)), np.array([2]), centers, MARGINS_12)


def test_classwise_requires_initialized_centers():
    centers = ClassCenters(values=np.zeros((2, 4)), counts=np.array([1, 0]))
    with pytest.raises(ValueError):
        classwise_loss(np.ones((1, 4)), np.array([1]), centers, MARGINS_12)


def test_classwise_skips_uninitialized_centers_as_negatives():
    # class 2 never updated: its zero-vector center must not add hinge terms
    margins = margins_from_negative(4, -2)
    values = np.array([
        [1.0, 1.0, 1.0, 1.0],
        [-1.0, -1.0, -1.0, 1.0],  # theta vs class 0 = -2 = margin
        [9.0, 9.0, 9.0, 9.0],     # would violate wildly if it counted
    ])
    centers = ClassCenters(values=values, counts=np.array([1, 1, 0]))
    codes = values[:2].copy()
    value, grads = classwise_loss(codes, np.array([0, 1]), centers, margins)
    assert value == 0.0
    assert np.all(grads == 0.0)


def test_classwise_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    margins = MARGINS_12
    for quant_weight in (0.0, 0.002, 0.01):
        n, classes = 6, 3
        centers = make_centers(rng.uniform(-1.5, 1.5, size=(classes, 12)))
        labels = rng.integers(0, classes, size=n)
        for _ in range(50):
            codes = rng.uniform(-2.0, 2.0, size=(n, 12))
            codes[np.abs(codes) < SIGN_GAP] = SIGN_GAP
            theta = codes @ centers.values.T
            gaps = np.abs(theta.ravel()[:, None] -
                          [[margins.positive_margin, margins.negative_margin]])
            if gaps.min() > KINK_GAP:
                break
        report = total_loss(codes, labels, margins, quant_weight, centers)
        numeric = finite_difference(
            lambda u: total_loss(u, labels, margins, quant_weight, centers).total,
            codes,
        )
        assert relative_error(report.code_grads, numeric) < 1e-5


# --- center maintenance ----------------------------------------------------------

def test_update_centers_momentum_zero_tracks_batch():
    centers = make_centers(np.zeros((2, 3)), momentum=0.0)
    codes = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    updated = update_centers(centers, codes, np.array([0, 1]))
    assert np.array_equal(updated.values, codes)
    assert updated.counts.tolist() == [2, 2]


def test_update_centers_momentum_one_freezes():
    values = np.array([[1.0, -1.0], [0.5, 0.5]])
    centers = make_centers(values.copy(), momentum=1.0)
    updated = update_centers(centers, np.array([[9.0, 9.0]]), np.array([0]))
    assert np.array_equal(updated.values, values)


def test_update_centers_first_update_sets_mean():
    centers = ClassCenters(values=np.zeros((2, 2)), counts=np.zeros(2, dtype=np.int64),
                           momentum=0.9)
    codes = np.array([[2.0, 4.0], [4.0, 2.0], [-1.0, -1.0]])
    updated = update_centers(centers, codes, np.array([0, 0, 1]))
    assert updated.values[0].tolist() == [3.0, 3.0]
    assert updated.values[1].tolist() == [-1.0, -1.0]
    assert updated.counts.tolist() == [1, 1]


def test_update_centers_two_step_ema_closed_form():
    # after init at c0: c1 = b*c0 + (1-b)*m1, c2 = b*c1 + (1-b)*m2
    centers = make_centers(np.array([[3.0]]), momentum=0.9)
    step1 = update_centers(centers, np.array([[1.0]]), np.array([0]))
    step2 = update_centers(step1, np.array([[-2.0]]), np.array([0]))
    assert step1.values[0, 0] == pytest.approx(2.8000000000000003)
    assert step2.values[0, 0] == pytest.approx(2.3200000000000003)


def test_update_centers_only_touches_present_classes():
    values = np.array([[1.0, 1.0], [5.0, 5.0]])
    centers = make_centers(values.copy(), momentum=0.0)
    updated = update_centers(centers, np.array([[0.0, 0.0]]), np.array([0]))
    assert np.array_equal(updated.values[1], values[1])
    assert updated.counts.tolist() == [2, 1]


def test_pair_mask_is_cached_read_only():
    upper = losses_module._upper_pairs(5)
    assert upper is losses_module._upper_pairs(5)
    assert np.array_equal(upper, np.triu(np.ones((5, 5), dtype=bool), k=1))
    with pytest.raises(ValueError):
        upper[0, 1] = False
