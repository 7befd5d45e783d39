"""Feature datasets: synthetic generation, CSV ingestion, and splitting.

The split protocol mirrors standard retrieval evaluation: a per-class query
set is held out, everything else forms the database, and the train and
validation sets are sampled from the database (training rows stay part of
the searchable database).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_open
from .prng import Xorshift64Star

__all__ = [
    "FeatureDataset",
    "SplitSpec",
    "DatasetSplits",
    "generate_synthetic",
    "save_csv",
    "load_csv",
    "split_dataset",
]


def _integer_labels(values, what: str = "labels") -> np.ndarray:
    """``values`` as int64 labels; floats must hold integer values exactly."""
    labels = np.asarray(values)
    if labels.dtype.kind not in "biu" and not (
        labels.dtype.kind == "f"
        and np.all((np.abs(labels) < 2.0**63) & (labels == np.trunc(labels)))
    ):
        raise ValueError(f"{what} must be integers")
    return labels.astype(np.int64)


@dataclass(frozen=True)
class FeatureDataset:
    """N feature vectors with dense class labels 0..num_classes-1."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        labels = _integer_labels(self.labels)
        if features.ndim != 2 or features.shape[0] < 1:
            raise ValueError("features must be a nonempty (N, D) matrix")
        if len(labels) != features.shape[0]:
            raise ValueError("labels must match the number of feature rows")
        if not np.all(np.isfinite(features)):
            raise ValueError("features must be finite")
        present = np.unique(labels)
        if self.num_classes < 1 or not np.array_equal(
            present, np.arange(self.num_classes)
        ):
            raise ValueError(
                "labels must cover exactly 0..num_classes-1 with every class present"
            )
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def generate_synthetic(
    num_classes: int,
    per_class: int,
    dim: int,
    center_scale: float = 10.0,
    noise_sigma: float = 1.0,
    seed: int = 0,
) -> FeatureDataset:
    """Gaussian blobs around class centers drawn uniformly on a sphere.

    The centers sit on the sphere of radius ``center_scale``; samples add
    isotropic Gaussian noise of std ``noise_sigma``.  Larger scale (or
    smaller noise) makes the classes easier to separate.  Deterministic for
    a given seed.
    """
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if per_class < 1 or dim < 1:
        raise ValueError("per_class and dim must be >= 1")
    if not all(math.isfinite(v) and v >= 0 for v in (center_scale, noise_sigma)):
        raise ValueError("center_scale and noise_sigma must be finite and >= 0")
    rng = Xorshift64Star(seed)
    centers = np.zeros((num_classes, dim))
    for c in range(num_classes):
        direction = rng.normals(dim)
        norm = float(np.linalg.norm(direction))
        while norm == 0.0:  # astronomically unlikely, but keep it total
            direction = rng.normals(dim)
            norm = float(np.linalg.norm(direction))
        centers[c] = direction / norm * center_scale
    # One draw per class keeps the stream order of a draw per row, since
    # normals() carries its spare value across calls.
    features = np.zeros((num_classes, per_class, dim))
    for c in range(num_classes):
        noise = rng.normals(per_class * dim).reshape(per_class, dim)
        features[c] = centers[c] + noise_sigma * noise
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return FeatureDataset(
        features=features.reshape(-1, dim), labels=labels, num_classes=num_classes
    )


def save_csv(path, dataset: FeatureDataset) -> None:
    """Write ``label,f0,...,f{D-1}`` rows; floats use repr (round-trip exact)."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i}" for i in range(dataset.dim)])
        for label, row in zip(dataset.labels, dataset.features):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])


def load_csv(path) -> tuple[FeatureDataset, dict[int, int]]:
    """Parse a feature CSV; labels are remapped to dense 0..M-1.

    Returns the dataset and the mapping from original label values to the
    dense ids (original labels in ascending order).  Malformed input fails
    with the offending line number; bytes that are not UTF-8 name the file.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = _csv_rows(csv.reader(fh), path)
        header = next(rows, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
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
        raw_labels, features = _parse_bulk(path, dim) or _parse_rows(rows, path, dim)
    originals, labels = np.unique(raw_labels, return_inverse=True)
    mapping = {orig: dense for dense, orig in enumerate(originals.tolist())}
    dataset = FeatureDataset(
        features=features, labels=labels, num_classes=len(originals)
    )
    return dataset, mapping


def _parse_bulk(path, dim: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The data rows through numpy's C reader, or None to use the row parser.

    ``loadtxt`` accepts a subset of what ``int()``/``float()`` accept, with
    the same values, but skips blank lines; so its result stands only when
    it raised nothing, warned nothing (numpy 2.0 parses ``1.0`` as an int64
    with a DeprecationWarning) and has one row per data line.
    """
    lines = _data_lines(path)
    if not lines:  # a header alone, or bytes loadtxt reads differently
        return None
    dtype = np.dtype([("label", np.int64), ("f", np.float64, (dim,))])
    try:
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                fh, dtype=dtype, delimiter=",", skiprows=1, comments=None, ndmin=1
            )
    except (ValueError, Warning):
        return None
    if len(table) != lines:
        return None
    return table["label"], np.ascontiguousarray(table["f"])


_CHUNK_BYTES = 1 << 20


def _data_lines(path) -> int | None:
    """Lines after the header as the csv module splits them (at LF, CRLF or a
    lone CR), read in binary chunks.

    None if the file holds a byte 0x1c-0x1f: ``loadtxt`` strips those from a
    number as whitespace, while ``int()`` and ``float()`` reject them.
    """
    lines, tail = 0, b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(_CHUNK_BYTES):
            control = np.frombuffer(chunk, np.uint8)
            control = control[control < 0x20]
            if np.any(control >= 0x1C):
                return None
            lines += int(np.count_nonzero(control == 0x0A))
            if np.any(control == 0x0D):
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            lines -= tail == b"\r" and chunk[:1] == b"\n"  # a CRLF across chunks
            tail = chunk[-1:]
    return lines + (tail not in b"\r\n") - 1


def _parse_rows(csv_rows, path, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The data rows one by one from ``csv_rows``, which stands after the header.

    The error path: each rejected row names its line, as does a line the
    csv module rejects (a field over ``csv.field_size_limit()``, or a NUL
    byte before Python 3.11).  Labels stay Python ints (an object array), as
    they may exceed int64.
    """
    raw_labels: list[int] = []
    rows: list[list[float]] = []
    for lineno, row in enumerate(csv_rows, start=2):
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
    return np.array(raw_labels, dtype=object), np.array(rows, dtype=np.float64)


def _csv_rows(reader, path):
    """The rows of ``reader``; a line the csv module rejects is a ValueError,
    and so is a byte that is not UTF-8, which names no line: the decoder
    reads ahead in chunks, so ``reader.line_num`` is not the bad byte's line.
    """
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


@dataclass(frozen=True)
class SplitSpec:
    """Per-class sample counts for the query/train/validation draws."""

    query_per_class: int
    train_per_class: int
    validation_per_class: int

    def __post_init__(self) -> None:
        for name in ("query_per_class", "train_per_class", "validation_per_class"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class DatasetSplits:
    """Row-index views into one dataset.

    ``query`` and ``database`` partition all rows; ``train`` and
    ``validation`` are disjoint subsets of ``database``.
    """

    dataset: FeatureDataset
    train: np.ndarray
    validation: np.ndarray
    query: np.ndarray
    database: np.ndarray


def split_dataset(
    dataset: FeatureDataset, spec: SplitSpec, seed: int = 0
) -> DatasetSplits:
    """Seeded per-class sampling without replacement into the four splits.

    Per class the order is: query first, remainder becomes database, then
    train and validation are taken from the class's database rows.  Raises
    if any class is too small for the spec or the database would be empty.
    """
    rng = Xorshift64Star(seed)
    train: list[int] = []
    validation: list[int] = []
    query: list[int] = []
    database: list[int] = []
    for c in range(dataset.num_classes):
        class_rows = np.flatnonzero(dataset.labels == c)
        need = spec.query_per_class + spec.train_per_class + spec.validation_per_class
        if need > len(class_rows):
            raise ValueError(
                f"class {c} has {len(class_rows)} rows; spec needs {need}"
            )
        shuffled = class_rows[rng.permutation(len(class_rows))]
        q = spec.query_per_class
        query.extend(shuffled[:q])
        rest = shuffled[q:]
        database.extend(rest)
        train.extend(rest[: spec.train_per_class])
        validation.extend(
            rest[spec.train_per_class : spec.train_per_class + spec.validation_per_class]
        )
    if not database:
        raise ValueError("spec leaves the database empty; retrieval is undefined")
    return DatasetSplits(
        dataset=dataset,
        train=np.sort(np.array(train, dtype=np.int64)),
        validation=np.sort(np.array(validation, dtype=np.int64)),
        query=np.sort(np.array(query, dtype=np.int64)),
        database=np.sort(np.array(database, dtype=np.int64)),
    )
