"""Synthetic generation, CSV round trips, and the split protocol."""

import csv
import tracemalloc
import warnings

import numpy as np
import pytest

import hashbound.data as data_module
from hashbound.cli import main as cli_main
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


def row_parser_oracle(path):
    """The former ``load_csv``: ``csv.reader``, ``int()`` and ``float()`` row by row."""
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if len(header) < 2 or header[0] != "label":
            raise ValueError(
                f"{path}: line 1: header must be 'label,f0,...,f{{D-1}}'"
            )
        dim = len(header) - 1
        expected = ["label"] + [f"f{i}" for i in range(dim)]
        if header != expected:
            raise ValueError(
                f"{path}: line 1: feature columns must be named f0..f{dim - 1}"
            )
        raw_labels: list[int] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != dim + 1:
                raise ValueError(
                    f"{path}: line {lineno}: expected {dim + 1} fields, got {len(row)}"
                )
            try:
                raw_labels.append(int(row[0]))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: label {row[0]!r} is not an integer"
                ) from None
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-numeric feature value"
                ) from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    originals = sorted(set(raw_labels))
    mapping = {orig: dense for dense, orig in enumerate(originals)}
    labels = np.array([mapping[v] for v in raw_labels], dtype=np.int64)
    dataset = FeatureDataset(
        features=np.array(rows, dtype=np.float64),
        labels=labels,
        num_classes=len(originals),
    )
    return dataset, mapping


def assert_loads_like_oracle(path):
    """``load_csv`` returns what the oracle returns, or fails with its message."""
    try:
        expected, expected_mapping = row_parser_oracle(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            load_csv(path)
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
        return
    except csv.Error as exc:  # a NUL byte before Python 3.11: load_csv names the line
        with pytest.raises(ValueError) as info:
            load_csv(path)
        assert str(info.value).startswith(f"{path}: line ")
        assert str(info.value).endswith(f": {exc}")
        return
    dataset, mapping = load_csv(path)
    assert dataset.features.flags.c_contiguous
    assert np.array_equal(dataset.features.view(np.uint64),
                          expected.features.view(np.uint64))
    assert dataset.labels.dtype == np.int64
    assert np.array_equal(dataset.labels, expected.labels)
    assert dataset.num_classes == expected.num_classes
    assert mapping == expected_mapping
    assert all(type(k) is int for k in mapping)


def random_csv_lines(seed):
    """Header and data lines of a random dataset with sparse, signed labels."""
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(1, 40)), int(rng.integers(1, 6))
    pool = rng.choice(np.arange(-50, 50), size=int(rng.integers(1, 6)), replace=False)
    labels = rng.choice(pool, size=n)
    features = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-300, 300, size=(n, dim))
    features[rng.random((n, dim)) < 0.1] = 0.0
    lines = ["label," + ",".join(f"f{i}" for i in range(dim))]
    for label, row in zip(labels, features):
        lines.append(",".join([str(label)] + [repr(float(v)) for v in row]))
    return lines


def write_csv_lines(path, lines, newline="\n", final_newline=True):
    path.write_bytes((newline.join(lines) + (newline if final_newline else "")).encode())


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("final_newline", [True, False], ids=["final", "unterminated"])
@pytest.mark.parametrize("seed", range(6))
def test_csv_bulk_parse_matches_row_parser(tmp_path, monkeypatch, seed, newline,
                                           final_newline):
    path = tmp_path / "random.csv"
    write_csv_lines(path, random_csv_lines(seed), newline, final_newline)
    assert_loads_like_oracle(path)
    # a well-formed file never reaches the row parser
    monkeypatch.setattr(data_module, "_parse_rows", None)
    assert_loads_like_oracle(path)


@pytest.mark.parametrize("chunk_bytes", [1, 2, 3, 7])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_csv_line_count_across_chunks(tmp_path, monkeypatch, chunk_bytes, newline):
    # a CRLF split over two chunks is still one line ending
    monkeypatch.setattr(data_module, "_CHUNK_BYTES", chunk_bytes)
    lines = random_csv_lines(0)
    path = tmp_path / "chunked.csv"
    write_csv_lines(path, lines, newline)
    assert data_module._data_lines(path) == len(lines) - 1
    write_csv_lines(path, lines + [""], newline)  # one blank line more
    assert data_module._data_lines(path) == len(lines)
    assert_loads_like_oracle(path)


def around(before="", after=""):
    return lambda fields: before + ",".join(fields) + after


def with_label(value):
    return lambda fields: ",".join([value, *fields[1:]])


def with_feature(value):
    return lambda fields: ",".join([*fields[:-1], value])


# Each edit rewrites the first data line of a random file from its fields;
# every result, loaded or rejected, must be the row parser's.
LINE_EDITS = {
    "blank-line": around(after="\n"),
    "whitespace-line": around(after="\n  "),
    "hash-line": around(before="# comment\n"),
    "hash-after-line": around(after="\n#"),
    "lone-cr": around(after="\r"),
    "cr-before-newline": around(after="\r\r"),
    "quoted-label": lambda fields: ",".join([f'"{fields[0]}"', *fields[1:]]),
    "quoted-feature": lambda fields: ",".join([*fields[:-1], f'"{fields[-1]}"']),
    "underscore-label": with_label("1_0"),
    "label-beyond-int64": with_label(str(10**20)),
    "label-float": with_label("1.0"),
    "label-hex-float": with_label("0x1p3"),
    "label-arabic-digit": with_label("\u0663"),
    "label-padded": with_label(" +3 "),
    "underscore-feature": with_feature("1_0.5"),
    "feature-padded": with_feature(" 1.5 "),
    "feature-nbsp": with_feature("1.5\xa0"),
    "feature-separator-byte": with_feature("1.5\x1c"),
    "feature-nul": with_feature("1.5\x00"),
    "feature-inf": with_feature("inf"),
    "feature-infinity": with_feature("-Infinity"),
    "feature-nan": with_feature("nan"),
    "feature-hex": with_feature("0x1p3"),
    "feature-empty": with_feature(""),
    "extra-field": around(after=",1.0"),
    "missing-field": lambda fields: ",".join(fields[:-1]),
}


@pytest.mark.parametrize("edit", list(LINE_EDITS))
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("seed", range(3))
def test_csv_edge_cases_match_row_parser(tmp_path, edit, newline, seed):
    lines = random_csv_lines(seed)
    lines[1] = LINE_EDITS[edit](lines[1].split(",")).replace("\n", newline)
    path = tmp_path / "edge.csv"
    write_csv_lines(path, lines, newline)
    assert_loads_like_oracle(path)


def test_csv_label_beyond_int64_loads_through_row_parser(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(f"label,f0\n{10**20},1.0\n-1,2.0\n{10**20},3.0\n")
    dataset, mapping = load_csv(path)
    assert dataset.labels.tolist() == [1, 0, 1]
    assert mapping == {-1: 0, 10**20: 1}
    assert_loads_like_oracle(path)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
def test_csv_non_finite_features_rejected(tmp_path, value):
    path = tmp_path / "inf.csv"
    path.write_text(f"label,f0\n0,1.0\n1,{value}\n")
    with pytest.raises(ValueError, match="^features must be finite$"):
        load_csv(path)
    assert_loads_like_oracle(path)


def test_csv_falls_back_when_loadtxt_warns(tmp_path, monkeypatch):
    # numpy 2.0 parses "1.0" as an int64 label with only a DeprecationWarning
    path = tmp_path / "float-label.csv"
    path.write_text("label,f0\n1.0,2.0\n")

    def lenient_loadtxt(fname, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        table = np.zeros(1, dtype=dtype)
        table["label"], table["f"] = 1, 2.0
        return table

    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    with pytest.raises(ValueError, match="line 2: label '1.0' is not an integer"):
        load_csv(path)
    monkeypatch.undo()
    assert_loads_like_oracle(path)


def test_csv_oversized_field_is_a_value_error(tmp_path, capsys):
    # the blank line sends the file to the row parser, whose csv reader
    # rejects a field over csv.field_size_limit() (131072 characters)
    path = tmp_path / "long.csv"
    path.write_text("label,f0\n1," + "1" * 140000 + "\n\n2,3.0\n")
    message = f"{path}: line 2: field larger than field limit (131072)"
    with pytest.raises(ValueError) as info:
        load_csv(path)
    assert str(info.value) == message
    out_dir = tmp_path / "out"
    assert cli_main(["train", "--data", str(path), "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("offset", [5, 12000], ids=["header", "past-first-chunk"])
def test_csv_not_utf8_names_the_file(tmp_path, capsys, offset):
    # the text decoder reads 8 KiB chunks: a bad byte in the first one stops
    # the header, a later one the row parser (after loadtxt gave up on it)
    text = "label,f0\n" + "".join(f"{i % 3},{i}.25\n" for i in range(2000))
    raw = text.encode()
    path = tmp_path / "latin1.csv"
    path.write_bytes(raw[:offset] + b"\xe9" + raw[offset:])
    message = f"{path}: not UTF-8 text (invalid continuation byte)"
    with pytest.raises(ValueError) as info:
        load_csv(path)
    assert str(info.value) == message
    out_dir = tmp_path / "out"
    assert cli_main(["train", "--data", str(path), "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


class NulRejectingReader:
    """``csv.reader`` as Python 3.10 has it: a NUL byte is a ``csv.Error``."""

    def __init__(self, fh, reader=csv.reader):
        self._reader = reader(fh)

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self._reader)
        if any("\0" in field for field in row):
            raise csv.Error("line contains NUL")
        return row

    @property
    def line_num(self):
        return self._reader.line_num


def test_csv_nul_rejected_by_the_csv_module_is_a_value_error(tmp_path, monkeypatch):
    path = tmp_path / "nul.csv"
    path.write_text("label,f0\n1,2.0\n2,3\x00\n")
    monkeypatch.setattr(csv, "reader", NulRejectingReader)
    with pytest.raises(ValueError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: line 3: line contains NUL"
    assert_loads_like_oracle(path)


def test_csv_load_peak_memory(tmp_path):
    dataset = generate_synthetic(100, 200, 32, seed=11)
    path = tmp_path / "large.csv"
    save_csv(path, dataset)
    tracemalloc.start()
    try:
        loaded, _ = load_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.features, dataset.features)
    # the row parser held a list of Python floats: about 5.5x the array
    assert peak < 3 * loaded.features.nbytes


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
