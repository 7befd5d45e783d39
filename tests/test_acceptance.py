"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else; every expected value is
either a reference margin row, an exact identity, or was computed by the
independent oracles embedded in the tests.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import BENCH_CENTER_SCALE, BENCH_NOISE_SIGMA, relative_error
from hashbound.bounds import (
    BoundProblem,
    bound_holds,
    derive_margins,
    solve_target_distance,
)
from hashbound.cli import main as cli_main
from hashbound.codes import (
    Codebook,
    correction_radius,
    flip_bits,
    from_bits,
    inner_product,
    nearest_codeword,
)
from hashbound.encoder import TrainConfig, train
from hashbound.evaluation import average_precision
from hashbound.losses import total_loss

BENCH_ARGS = [
    "--classes", "10", "--per-class", "100", "--dim", "32",
    "--center-scale", str(BENCH_CENTER_SCALE),
    "--noise-sigma", str(BENCH_NOISE_SIGMA),
    "--data-seed", "7",
    "--query-per-class", "10", "--train-per-class", "50", "--val-per-class", "10",
    "--split-seed", "0",
]
BENCH_TRAIN_ARGS = [
    *BENCH_ARGS,
    "--bits", "12", "--lr", "0.05", "--momentum", "0.5",
    "--quant-weight", "0.002", "--epochs", "50", "--batch-size", "64",
]


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE criterion {criterion:02d} PASS: {message}")


# -------------------------------------------------------------------------
# 1. Margin-table reproduction (exact, < 1 s)
# -------------------------------------------------------------------------

REFERENCE_NEGATIVE_MARGINS = [
    (12, 10, -6),
    (24, 10, -14),
    (32, 10, -18),
    (48, 10, -34),
    (16, 10, -6),
    (16, 100, 2),
    (32, 100, -6),
    (48, 100, -18),
    (64, 100, -30),
]


def test_criterion_01_margin_tables():
    start = time.perf_counter()
    for bits, classes, expected in REFERENCE_NEGATIVE_MARGINS:
        margins = derive_margins(BoundProblem(bits, classes))
        assert margins.negative_margin == expected, (bits, classes)
        assert margins.positive_margin == bits
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"all {len(REFERENCE_NEGATIVE_MARGINS)} reference margin rows exact "
              f"({elapsed * 1e3:.0f} ms)")


# -------------------------------------------------------------------------
# 2. Bound-solver oracle equivalence (exact, < 60 s)
# -------------------------------------------------------------------------

def pascal_prefix_sums(bits: int) -> list[int]:
    """Prefix sums of one Pascal-triangle row, built by the additive rule."""
    row = [1]
    for n in range(1, bits + 1):
        row = [1] + [row[k - 1] + row[k] for k in range(1, n)] + [1]
    prefix, acc = [], 0
    for value in row:
        acc += value
        prefix.append(acc)
    return prefix


def test_criterion_02_solver_equals_brute_force():
    start = time.perf_counter()
    checked = 0
    for bits in range(1, 17):
        prefix = pascal_prefix_sums(bits)
        space = 2**bits
        for classes in range(2, space + 1):
            expected = bits
            for d in range(1, bits + 2):
                if classes * prefix[(d - 1) // 2] > space:
                    expected = min(d, bits)
                    break
            assert solve_target_distance(BoundProblem(bits, classes)) == expected, (
                bits, classes,
            )
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(2, f"solver == brute-force scan on {checked} problems ({elapsed:.1f} s)")


# -------------------------------------------------------------------------
# 3. Inner-product / distance identity on 10,000 random pairs
# -------------------------------------------------------------------------

def test_criterion_03_inner_product_identity():
    rng = np.random.default_rng(42)
    lengths = (1, 12, 63, 64, 65, 128)
    pairs_per_length = 1667  # 6 * 1667 = 10002 pairs
    total = 0
    for length in lengths:
        for _ in range(pairs_per_length):
            bits_a = rng.integers(0, 2, size=length)
            bits_b = rng.integers(0, 2, size=length)
            a, b = from_bits(bits_a), from_bits(bits_b)
            signs_a = bits_a.astype(np.int64) * 2 - 1
            signs_b = bits_b.astype(np.int64) * 2 - 1
            oracle_dot = int(signs_a @ signs_b)
            oracle_dist = int(np.count_nonzero(bits_a != bits_b))
            assert inner_product(a, b) == oracle_dot
            assert oracle_dot == length - 2 * oracle_dist
            total += 1
    assert total >= 10000
    report(3, f"theta == L - 2*dist exact on {total} pairs across L={lengths}")


# -------------------------------------------------------------------------
# 4. Decode-within-radius, zero failures
# -------------------------------------------------------------------------

def random_codebook(rng, bits: int, classes: int, min_distance: int = 1) -> Codebook:
    while True:
        seen = set()
        while len(seen) < classes:
            seen.add(tuple(rng.integers(0, 2, size=bits).tolist()))
        book = Codebook([from_bits(b) for b in seen])
        if codebook_min_distance_safe(book) >= min_distance:
            return book


def codebook_min_distance_safe(book: Codebook) -> int:
    from hashbound.codes import codebook_min_distance

    return codebook_min_distance(book.word_matrix())


def test_criterion_04_decode_within_radius():
    rng = np.random.default_rng(4)
    failures = 0
    books = 0
    patterns_each = 200
    while books < 100:
        bits = int(rng.integers(6, 17))
        classes = int(rng.integers(2, 9))
        # bias half the books toward real correction power
        wanted = 3 if books % 2 == 0 and classes <= 4 else 1
        book = random_codebook(rng, bits, classes, min_distance=wanted)
        radius = correction_radius(codebook_min_distance_safe(book))
        for index, code in enumerate(book.codes):
            for _ in range(patterns_each):
                flips = rng.choice(
                    bits, size=int(rng.integers(0, radius + 1)), replace=False
                )
                decoded, _ = nearest_codeword(book, flip_bits(code, flips))
                if decoded != index:
                    failures += 1
        books += 1
    assert failures == 0
    report(4, f"{books} codebooks x {patterns_each} flip patterns per codeword, "
              f"0 decode failures")


# -------------------------------------------------------------------------
# 5. Gradient correctness on 50 random small instances
# -------------------------------------------------------------------------

FD_STEP = 1e-5
KINK_GAP = 5e-2
SIGN_GAP = 1e-3


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


def sample_away_from_kinks(rng, n, bits, margins, reference_points):
    """Codes with entries off zero and thetas off both hinge margins."""
    for _ in range(500):
        codes = rng.uniform(-2.0, 2.0, size=(n, bits))
        codes[np.abs(codes) < SIGN_GAP] = SIGN_GAP
        theta = codes @ reference_points.T
        gaps = np.abs(
            theta.ravel()[:, None]
            - [[margins.positive_margin, margins.negative_margin]]
        )
        if gaps.min() > KINK_GAP:
            return codes
    raise AssertionError("could not sample a kink-free instance")


def test_criterion_05_gradient_checks():
    rng = np.random.default_rng(5)
    quant_weights = (0.0, 0.002, 0.01)
    checked = 0
    worst = 0.0
    for instance in range(50):
        bits = int(rng.choice([4, 12, 16]))
        n = int(rng.integers(4, 17))
        classes = int(rng.integers(2, 5))
        margins = derive_margins(BoundProblem(bits, classes))
        quant_weight = quant_weights[instance % len(quant_weights)]
        labels = rng.integers(0, classes, size=n)
        classwise = instance % 2 == 1

        if classwise:
            from hashbound.losses import ClassCenters

            centers = ClassCenters(
                values=rng.uniform(-1.5, 1.5, size=(classes, bits)),
                counts=np.ones(classes, dtype=np.int64),
            )
            codes = sample_away_from_kinks(rng, n, bits, margins, centers.values)
            value_fn = lambda u: total_loss(
                u, labels, margins, quant_weight, centers
            ).total
            analytic = total_loss(
                codes, labels, margins, quant_weight, centers
            ).code_grads
        else:
            for _ in range(500):
                codes = rng.uniform(-2.0, 2.0, size=(n, bits))
                codes[np.abs(codes) < SIGN_GAP] = SIGN_GAP
                theta = codes @ codes.T
                iu = np.triu_indices(n, k=1)
                gaps = np.abs(theta[iu][:, None] -
                              [[margins.positive_margin, margins.negative_margin]])
                if gaps.min() > KINK_GAP:
                    break
            else:
                raise AssertionError("could not sample a kink-free instance")
            value_fn = lambda u: total_loss(u, labels, margins, quant_weight).total
            analytic = total_loss(codes, labels, margins, quant_weight).code_grads

        numeric = finite_difference(value_fn, codes)
        err = relative_error(analytic, numeric)
        worst = max(worst, err)
        assert err < 1e-5, (instance, err)
        checked += 1
    assert checked == 50
    report(5, f"50 instances (pairwise+classwise, weights {quant_weights}), "
              f"worst relative error {worst:.2e} < 1e-5")


# -------------------------------------------------------------------------
# 6. Desk-scale training efficacy (< 5 min single-threaded)
# -------------------------------------------------------------------------

def test_criterion_06_training_efficacy(benchmark_dataset, benchmark_splits):
    # benchmark separability: class centers at least 6 noise-sigmas apart
    centers = np.array([
        benchmark_dataset.features[benchmark_dataset.labels == c].mean(axis=0)
        for c in range(benchmark_dataset.num_classes)
    ])
    gaps = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
    min_gap = gaps[np.triu_indices(len(centers), k=1)].min()
    assert min_gap >= 6 * BENCH_NOISE_SIGMA

    start = time.perf_counter()
    config = TrainConfig(
        code_bits=12, learning_rate=0.05, momentum=0.5, quant_weight=0.002,
        batch_size=64, epochs=50, seed=0,
    )
    params, history = train(benchmark_splits, config)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0

    assert history.margins == derive_margins(BoundProblem(12, 10))
    final = history.records[-1]
    assert final.val_map >= 0.95
    assert final.min_center_distance >= 1
    problem = BoundProblem(12, 10)
    assert bound_holds(problem, final.min_center_distance)
    report(6, f"MAP {final.val_map:.3f} >= 0.95, min center distance "
              f"{final.min_center_distance} >= 1 and bound-consistent "
              f"({elapsed:.1f} s)")


# -------------------------------------------------------------------------
# 7. Margin-sweep shape (< 30 min)
# -------------------------------------------------------------------------

def test_criterion_07_margin_sweep_shape(tmp_path):
    start = time.perf_counter()
    sweep_csv = tmp_path / "margin_sweep.csv"
    values = list(range(-12, 5, 2))
    code = cli_main([
        "sweep", "--margins=" + ",".join(str(v) for v in values),
        "--seeds", "0,1,2", "--out", str(sweep_csv), *BENCH_TRAIN_ARGS,
    ])
    assert code in (0, 2)  # individual points may legitimately diverge

    by_value: dict[int, list[float]] = {}
    flagged = set()
    lines = sweep_csv.read_text().splitlines()[1:]
    for line in lines:
        _, value, seed, map_str, status, bound_derived = line.split(",")
        if status == "ok":
            by_value.setdefault(int(value), []).append(float(map_str))
        if bound_derived == "True":
            flagged.add(int(value))
    assert flagged == {-6}

    means = {v: float(np.mean(maps)) for v, maps in by_value.items() if len(maps) == 3}
    assert -6 in means, "the bound-derived margin must converge on all seeds"
    best = max(means.values())
    assert means[-6] >= best - 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    report(7, f"bound margin -6 mean MAP {means[-6]:.3f} within 0.02 of sweep max "
              f"{best:.3f} over {len(lines)} runs ({elapsed:.0f} s)")


# -------------------------------------------------------------------------
# 8. Quantization-weight robustness
# -------------------------------------------------------------------------

def test_criterion_08_quant_weight_robustness(benchmark_splits):
    results = {}
    for weight in (0.001, 0.01, 0.1):
        config = TrainConfig(
            code_bits=12, learning_rate=0.05, momentum=0.5, quant_weight=weight,
            batch_size=16, epochs=50, seed=0,
        )
        params, history = train(benchmark_splits, config)  # raises if divergent
        final = history.records[-1]
        assert np.isfinite(final.total)
        assert final.val_map >= 0.9, weight
        results[weight] = final.val_map
    report(8, "converged with MAP >= 0.9 at quantization weights "
              + ", ".join(f"{w}={m:.3f}" for w, m in results.items()))


# -------------------------------------------------------------------------
# 9. Determinism of the train command
# -------------------------------------------------------------------------

def test_criterion_09_train_determinism(tmp_path):
    args = ["train", *BENCH_ARGS, "--bits", "12", "--epochs", "10",
            "--batch-size", "64", "--seed", "3"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out-dir", str(dir_a)]) == 0
    assert cli_main(args + ["--out-dir", str(dir_b)]) == 0
    bytes_a = (dir_a / "history.csv").read_bytes()
    bytes_b = (dir_b / "history.csv").read_bytes()
    assert bytes_a == bytes_b
    report(9, f"two train runs produced byte-identical history CSVs "
              f"({len(bytes_a)} bytes)")


# -------------------------------------------------------------------------
# 10. Average-precision oracle (20 fixed lists, 1e-12)
# -------------------------------------------------------------------------

AP_EXPECTED = [
    ([1, 0, 1], None, 0.8333333333333334),
    ([1], None, 1.0),
    ([0], None, 0.0),
    ([1, 1, 1, 1], None, 1.0),
    ([0, 0, 0, 0], None, 0.0),
    ([0, 1], None, 0.5),
    ([1, 0], None, 1.0),
    ([0, 0, 1], None, 0.3333333333333333),
    ([1, 1, 0, 0], None, 1.0),
    ([0, 0, 1, 1], None, 0.4166666666666667),
    ([1, 0, 1, 0, 1], None, 0.7555555555555555),
    ([0, 1, 0, 1, 0, 1], None, 0.5),
    ([1, 1, 0, 1], None, 0.9166666666666666),
    ([1, 0, 0, 0, 1], None, 0.7),
    ([0, 1, 1, 0, 0, 0, 1], None, 0.5317460317460317),
    ([1, 0, 1], 2, 1.0),
    ([1, 0, 1], 1, 1.0),
    ([0, 0, 1, 1], 2, 0.0),
    ([1, 1, 0, 1, 0, 0, 1, 0], 4, 0.9166666666666666),
    ([0, 1, 0, 0, 1, 1, 0, 1, 0, 1], 6, 0.4666666666666667),
]


def exact_ap(relevance, k=None) -> Fraction:
    seq = relevance if k is None else relevance[:k]
    hits, total = 0, Fraction(0)
    for position, rel in enumerate(seq, start=1):
        if rel:
            hits += 1
            total += Fraction(hits, position)
    return Fraction(0) if hits == 0 else total / hits


def test_criterion_10_average_precision_oracle():
    assert len(AP_EXPECTED) == 20
    for relevance, k, expected in AP_EXPECTED:
        assert float(exact_ap(relevance, k)) == pytest.approx(expected, abs=1e-15)
        assert average_precision(relevance, k) == pytest.approx(expected, abs=1e-12)
    report(10, "20 hand-computed AP values matched to 1e-12 "
               "(including [1,0,1] -> 0.83333...)")
