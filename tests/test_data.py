"""Synthetic generation, CSV round trips, and the split protocol."""

import numpy as np
import pytest

from hashbound.prng import Xorshift64Star
from hashbound.data import (
    FeatureDataset,
    SplitSpec,
    generate_synthetic,
    load_csv,
    save_csv,
    split_dataset,
)


# --- synthetic generation ------------------------------------------------------

def test_synthetic_counts_and_balance():
    dataset = generate_synthetic(num_classes=10, per_class=100, dim=32, seed=0)
    assert len(dataset) == 1000
    assert dataset.dim == 32
    assert np.bincount(dataset.labels).tolist() == [100] * 10


def test_synthetic_zero_noise_collapses_classes():
    dataset = generate_synthetic(num_classes=3, per_class=5, dim=8,
                                 noise_sigma=0.0, seed=1)
    for c in range(3):
        rows = dataset.features[dataset.labels == c]
        assert np.all(rows == rows[0])


def test_synthetic_deterministic_per_seed():
    a = generate_synthetic(4, 10, 6, seed=9)
    b = generate_synthetic(4, 10, 6, seed=9)
    c = generate_synthetic(4, 10, 6, seed=10)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_synthetic_centers_on_requested_sphere():
    dataset = generate_synthetic(5, 3, 16, center_scale=7.5, noise_sigma=0.0, seed=2)
    for c in range(5):
        center = dataset.features[dataset.labels == c][0]
        assert np.linalg.norm(center) == pytest.approx(7.5)


def row_by_row_synthetic(num_classes, per_class, dim, center_scale, noise_sigma, seed):
    """The former generator: one ``normals(dim)`` draw per row."""
    rng = Xorshift64Star(seed)
    centers = np.zeros((num_classes, dim))
    for c in range(num_classes):
        direction = rng.normals(dim)
        centers[c] = direction / float(np.linalg.norm(direction)) * center_scale
    features = np.zeros((num_classes * per_class, dim))
    labels = np.zeros(num_classes * per_class, dtype=np.int64)
    row = 0
    for c in range(num_classes):
        for _ in range(per_class):
            features[row] = centers[c] + noise_sigma * rng.normals(dim)
            labels[row] = c
            row += 1
    return features, labels


@pytest.mark.parametrize("shape", [(10, 100, 32), (3, 7, 5), (2, 1, 1), (4, 3, 17)])
@pytest.mark.parametrize("seed", [0, 7])
def test_synthetic_matches_row_by_row_oracle(shape, seed):
    # odd dims make Box-Muller's cached spare normal cross row boundaries
    dataset = generate_synthetic(*shape, center_scale=3.5, noise_sigma=0.7, seed=seed)
    features, labels = row_by_row_synthetic(*shape, 3.5, 0.7, seed)
    assert np.array_equal(dataset.features.view(np.uint64), features.view(np.uint64))
    assert np.array_equal(dataset.labels, labels)
    assert dataset.labels.dtype == np.int64


def test_synthetic_separability_grows_with_scale():
    def min_center_gap(scale):
        ds = generate_synthetic(6, 1, 16, center_scale=scale, noise_sigma=0.0, seed=3)
        gaps = [
            np.linalg.norm(ds.features[i] - ds.features[j])
            for i in range(6)
            for j in range(i + 1, 6)
        ]
        return min(gaps)

    assert min_center_gap(10.0) == pytest.approx(10.0 * min_center_gap(1.0))


def test_feature_dataset_validation():
    with pytest.raises(ValueError):
        FeatureDataset(features=np.ones((3, 2)), labels=np.array([0, 0, 2]),
                       num_classes=3)  # class 1 missing
    with pytest.raises(ValueError):
        FeatureDataset(features=np.array([[np.inf, 0.0]]), labels=np.array([0]),
                       num_classes=1)


@pytest.mark.parametrize("labels", [
    [0.5, 0.0, 1.0], [0.0, 1.0, np.nan], [0.0, 1.0, np.inf], [0.0, 1.0, 2.0**63],
    ["0", "1", "1"],
])
def test_feature_dataset_rejects_non_integer_labels(labels):
    # a cast to int64 would truncate 0.5 to class 0 without a word
    with pytest.raises(ValueError, match="labels must be integers"):
        FeatureDataset(features=np.ones((3, 2)), labels=labels, num_classes=2)


def test_feature_dataset_accepts_integer_valued_floats():
    dataset = FeatureDataset(features=np.ones((3, 2)), labels=[0.0, 1.0, 1.0],
                             num_classes=2)
    assert dataset.labels.dtype == np.int64
    assert dataset.labels.tolist() == [0, 1, 1]


# --- CSV ingestion ---------------------------------------------------------------

def test_csv_round_trip_exact(tmp_path):
    dataset = generate_synthetic(3, 4, 5, seed=4)
    path = tmp_path / "features.csv"
    save_csv(path, dataset)
    loaded, mapping = load_csv(path)
    assert np.array_equal(loaded.features, dataset.features)
    assert np.array_equal(loaded.labels, dataset.labels)
    assert mapping == {0: 0, 1: 1, 2: 2}


def test_csv_dense_label_remap(tmp_path):
    path = tmp_path / "sparse.csv"
    path.write_text("label,f0\n5,1.0\n5,2.0\n9,3.0\n")
    dataset, mapping = load_csv(path)
    assert dataset.num_classes == 2
    assert dataset.labels.tolist() == [0, 0, 1]
    assert mapping == {5: 0, 9: 1}


def test_csv_header_only_is_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("label,f0,f1\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(path)


def test_csv_empty_file_is_error(tmp_path):
    path = tmp_path / "zero.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_csv(path)


def test_csv_malformed_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(path)
    path.write_text("label,f0\n0,abc\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(path)
    path.write_text("label,f0\nx,1.0\n")
    with pytest.raises(ValueError, match="line 2.*label"):
        load_csv(path)


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "head.csv"
    path.write_text("id,f0\n0,1.0\n")
    with pytest.raises(ValueError, match="line 1"):
        load_csv(path)
    path.write_text("label,g0\n0,1.0\n")
    with pytest.raises(ValueError, match="f0"):
        load_csv(path)


# --- split protocol ---------------------------------------------------------------

def test_split_standard_retrieval_protocol():
    dataset = generate_synthetic(10, 100, 8, seed=5)
    spec = SplitSpec(query_per_class=10, train_per_class=50, validation_per_class=10)
    splits = split_dataset(dataset, spec, seed=0)
    assert len(splits.query) == 100
    assert len(splits.train) == 500
    assert len(splits.validation) == 100
    assert len(splits.database) == 900


def test_split_partition_contract():
    dataset = generate_synthetic(5, 20, 4, seed=6)
    spec = SplitSpec(query_per_class=3, train_per_class=10, validation_per_class=2)
    splits = split_dataset(dataset, spec, seed=1)
    query = set(splits.query.tolist())
    database = set(splits.database.tolist())
    assert query.isdisjoint(database)
    assert query | database == set(range(len(dataset)))
    assert set(splits.train.tolist()) <= database
    assert set(splits.validation.tolist()) <= database
    assert set(splits.train.tolist()).isdisjoint(splits.validation.tolist())


def test_split_per_class_balance():
    dataset = generate_synthetic(4, 25, 4, seed=7)
    spec = SplitSpec(query_per_class=5, train_per_class=12, validation_per_class=3)
    splits = split_dataset(dataset, spec, seed=2)
    for part, per_class in ((splits.query, 5), (splits.train, 12), (splits.validation, 3)):
        counts = np.bincount(dataset.labels[part], minlength=4)
        assert counts.tolist() == [per_class] * 4


def test_split_determinism():
    dataset = generate_synthetic(4, 25, 4, seed=8)
    spec = SplitSpec(query_per_class=5, train_per_class=10, validation_per_class=5)
    a = split_dataset(dataset, spec, seed=3)
    b = split_dataset(dataset, spec, seed=3)
    c = split_dataset(dataset, spec, seed=4)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.query, b.query)
    assert not np.array_equal(a.query, c.query)


def test_split_infeasible_spec():
    dataset = generate_synthetic(3, 10, 4, seed=9)
    with pytest.raises(ValueError, match="spec needs"):
        split_dataset(dataset, SplitSpec(5, 5, 5), seed=0)


def test_split_everything_as_query_is_error():
    dataset = generate_synthetic(3, 10, 4, seed=10)
    with pytest.raises(ValueError, match="database"):
        split_dataset(dataset, SplitSpec(10, 0, 0), seed=0)
