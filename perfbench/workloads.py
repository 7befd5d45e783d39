"""The three benchmark workloads: their inputs, argv and output checks.

Every input is a pure function of the workload seed.  Seed 0 reproduces the
desk configuration of the acceptance suite (data seed 7, split seed 0, init
seed 0); another seed shifts the data, split and init seeds together.

This module imports nothing heavy at the top, because the set-up child
times the package import itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

EPOCHS = 50
TRAIN_ROWS = 10 * 50  # classes x train-per-class of the desk config
MARGINS = list(range(-12, 5, 2))  # the criterion-07 negative-margin grid
BOUND_MARGIN = -6  # derive_margins for 12 bits, 10 classes

EVAL_CLASSES = 100
EVAL_PER_CLASS = 500
EVAL_QUERY_PER_CLASS = 2
EVAL_DIM = 32
EVAL_BITS = 64
EVAL_K = 100
EVAL_QUERIES = EVAL_CLASSES * EVAL_QUERY_PER_CLASS
EVAL_DATABASE = EVAL_CLASSES * (EVAL_PER_CLASS - EVAL_QUERY_PER_CLASS)
# The checkpoint is trained briefly on separate rows of the same classes.
CKPT_PER_CLASS = 20
CKPT_EPOCHS = 4

NAMES = ("train_desk", "sweep_margin", "eval_large")


def desk_args(seed: int) -> list[str]:
    """BENCH_TRAIN_ARGS of tests/test_acceptance.py with seeds shifted by ``seed``."""
    return [
        "--classes", "10", "--per-class", "100", "--dim", "32",
        "--center-scale", "10.0", "--noise-sigma", "1.0",
        "--data-seed", str(7 + seed),
        "--query-per-class", "10", "--train-per-class", "50", "--val-per-class", "10",
        "--split-seed", str(seed),
        "--bits", "12", "--lr", "0.05", "--momentum", "0.5",
        "--quant-weight", "0.002", "--epochs", str(EPOCHS), "--batch-size", "64",
        "--seed", str(seed),
    ]


def argv(workload: str, seed: int, inputs: Path, out: Path) -> list[str]:
    """The ``hashbound.cli.main`` argv of one operation writing into ``out``."""
    if workload == "train_desk":
        return ["train", *desk_args(seed), "--out-dir", str(out)]
    if workload == "sweep_margin":
        return [
            "sweep", *desk_args(seed),
            "--margins=" + ",".join(str(m) for m in MARGINS),
            "--seeds", str(seed), "--out", str(out / "sweep.csv"),
        ]
    return [
        "eval", "--data", str(inputs / "database.csv"),
        "--checkpoint", str(inputs / "checkpoint.json"),
        "--k", str(EVAL_K),
        *_eval_split_args(seed, train_per_class=0, val_per_class=0),
        "--out-dir", str(out),
    ]


def work_items(workload: str) -> int:
    """Units of work in one operation: training samples, sweep points or ranked pairs."""
    if workload == "train_desk":
        return EPOCHS * TRAIN_ROWS
    if workload == "sweep_margin":
        return len(MARGINS)
    return EVAL_QUERIES * EVAL_DATABASE


WORK_UNIT = {
    "train_desk": "train_samples_per_s",
    "sweep_margin": "sweep_points_per_s",
    "eval_large": "eval_pairs_per_s",
}


def _eval_split_args(seed: int, train_per_class: int, val_per_class: int) -> list[str]:
    return [
        "--query-per-class", str(EVAL_QUERY_PER_CLASS),
        "--train-per-class", str(train_per_class),
        "--val-per-class", str(val_per_class),
        "--split-seed", str(seed),
    ]


# ---------------------------------------------------------------------------
# Inputs made in set-up (eval_large only; the desk jobs generate their data
# in-process from argv).


def eval_features(seed: int, per_class: int, stream: int):
    """Gaussian blobs, class-major, from the benchmark's own numpy generator.

    The class centres depend on ``seed`` only, so the checkpoint rows
    (stream 1) and the database rows (stream 0) share their classes.
    """
    import numpy as np

    centers = np.random.default_rng([seed, 0]).standard_normal((EVAL_CLASSES, EVAL_DIM))
    centers *= 10.0 / np.linalg.norm(centers, axis=1, keepdims=True)
    rng = np.random.default_rng([seed, 1 + stream])
    noise = rng.standard_normal((EVAL_CLASSES, per_class, EVAL_DIM))
    features = (centers[:, None, :] + noise).reshape(-1, EVAL_DIM)
    labels = np.repeat(np.arange(EVAL_CLASSES), per_class)
    return features, labels


def _write_csv(path: Path, features, labels) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("label," + ",".join(f"f{i}" for i in range(features.shape[1])) + "\n")
        for label, row in zip(labels.tolist(), features.tolist()):
            fh.write(f"{label}," + ",".join(map(repr, row)) + "\n")


def make_inputs(workload: str, seed: int, inputs: Path, main) -> None:
    """Write the workload's input files into ``inputs`` (only eval_large has any)."""
    if workload != "eval_large":
        return
    _write_csv(inputs / "database.csv", *eval_features(seed, EVAL_PER_CLASS, stream=0))
    _write_csv(inputs / "ckpt_rows.csv", *eval_features(seed, CKPT_PER_CLASS, stream=1))
    code = main([
        "train", "--data", str(inputs / "ckpt_rows.csv"),
        "--bits", str(EVAL_BITS), "--epochs", str(CKPT_EPOCHS), "--batch-size", "64",
        "--seed", str(seed),
        *_eval_split_args(seed, train_per_class=16, val_per_class=2),
        "--out-dir", str(inputs / "ckpt"),
    ])
    if code != 0:
        raise RuntimeError(f"checkpoint training exited with {code}")
    (inputs / "ckpt" / "checkpoint.json").replace(inputs / "checkpoint.json")


def input_digest(inputs: Path) -> str:
    """One digest over the files the operations read."""
    h = hashlib.sha256()
    for name in ("database.csv", "checkpoint.json"):
        path = inputs / name
        if path.exists():
            h.update(name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Output checks.  Each returns (problems, outcome) where outcome holds the
# quality figures of the operation and the digest of its deterministic files.


def _report(out: Path) -> dict:
    doc = json.loads((out / "report.json").read_text())
    doc["metadata"].pop("created_at")
    return doc


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


def check(workload: str, exit_code: int, out: Path) -> tuple[list[str], dict]:
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    if workload == "sweep_margin":
        return _check_sweep(out)
    report = _report(out)
    outcome = {
        "map": report["map"],
        "min_center_distance": report["min_interclass_distance"],
        "report": report,
    }
    problems = []
    canonical = json.dumps(report, sort_keys=True).encode()
    if workload == "train_desk":
        history = (out / "history.csv").read_bytes()
        rows = len(history.decode().splitlines()) - 1
        if rows != EPOCHS:
            problems.append(f"history.csv has {rows} rows, expected {EPOCHS}")
        if report["map"] < 0.95:
            problems.append(f"query MAP {report['map']} < 0.95")
        outcome["digest"] = _digest(
            history, (out / "checkpoint.json").read_bytes(), canonical
        )
    else:
        outcome["map_at_k"] = report["map_at_k"]
        outcome["digest"] = _digest(canonical)
    return problems, outcome


def _check_sweep(out: Path) -> tuple[list[str], dict]:
    raw = (out / "sweep.csv").read_bytes()
    rows = list(csv.DictReader(raw.decode().splitlines()))
    problems = []
    failed = [r["value"] for r in rows if r["status"] != "ok"]
    if failed:
        problems.append(f"failed sweep points at margins {failed}")
    if [int(r["value"]) for r in rows] != MARGINS:
        problems.append("sweep rows do not follow the margin grid")
    flagged = [int(r["value"]) for r in rows if r["bound_derived"] == "True"]
    if flagged != [BOUND_MARGIN]:
        problems.append(f"bound_derived rows {flagged}, expected [{BOUND_MARGIN}]")
    maps: dict[int, list[float]] = {}
    for r in rows:
        if r["status"] == "ok":
            maps.setdefault(int(r["value"]), []).append(float(r["map"]))
    means = {v: sum(m) / len(m) for v, m in maps.items()}
    outcome = {"digest": _digest(raw), "points": len(rows), "points_failed": len(failed)}
    if BOUND_MARGIN not in means:
        problems.append(f"margin {BOUND_MARGIN} has no converged point")
        return problems, outcome
    best = max(means.values())
    if means[BOUND_MARGIN] < best - 0.02:
        problems.append(
            f"MAP at margin {BOUND_MARGIN} is {means[BOUND_MARGIN]}, "
            f"more than 0.02 below the best {best}"
        )
    outcome["map"] = means[BOUND_MARGIN]
    return problems, outcome
