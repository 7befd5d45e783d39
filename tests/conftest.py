import numpy as np
import pytest

from hashbound.data import SplitSpec, generate_synthetic, split_dataset

# The desk-scale retrieval benchmark: 10 well-separated Gaussian classes,
# 100 samples each in 32 dimensions, split 10 query / 50 train / 10 val
# per class with the remaining 90 per class forming the database.
BENCH_CLASSES = 10
BENCH_PER_CLASS = 100
BENCH_DIM = 32
BENCH_CENTER_SCALE = 10.0
BENCH_NOISE_SIGMA = 1.0
BENCH_DATA_SEED = 7
BENCH_SPLIT_SEED = 0


@pytest.fixture(scope="session")
def benchmark_dataset():
    return generate_synthetic(
        num_classes=BENCH_CLASSES,
        per_class=BENCH_PER_CLASS,
        dim=BENCH_DIM,
        center_scale=BENCH_CENTER_SCALE,
        noise_sigma=BENCH_NOISE_SIGMA,
        seed=BENCH_DATA_SEED,
    )


@pytest.fixture(scope="session")
def benchmark_splits(benchmark_dataset):
    spec = SplitSpec(query_per_class=10, train_per_class=50, validation_per_class=10)
    return split_dataset(benchmark_dataset, spec, seed=BENCH_SPLIT_SEED)


def oracle_distance(a, b) -> int:
    """Hamming distance of two ``BinaryCode``s read bit by bit, apart from
    the packed kernel."""
    return int(sum(a.bit(i) != b.bit(i) for i in range(a.length)))


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Vector-level relative error used by all gradient checks."""
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric))
    if denom < 1e-12:
        return 0.0
    return float(np.linalg.norm(analytic - numeric) / denom)
