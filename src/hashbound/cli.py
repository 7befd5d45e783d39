"""Command-line entry point: bound tables, data generation, training,
evaluation, and margin / quantization-weight sweeps.

Subcommands: ``bound``, ``gen-data``, ``train``, ``eval``, ``sweep``; run
them as ``hashbound CMD`` or ``python -m hashbound CMD``.  Any subcommand
accepts ``--config PATH`` pointing at a JSON object whose keys are the long
flag names with underscores; explicit flags override the file.  A config
file that cannot be decoded as UTF-8 or parsed as JSON, names an unknown
field or gives a value of the wrong type is a usage error.  ``--out`` files
and ``--out-dir`` directories get their missing parent directories created;
an ``--out-dir`` that is, or lies under, a file fails before data is loaded.

``sweep`` trains its points one after another in this process; its CSV rows
and printed lines follow the order of the points.  A point skips the
per-epoch validation that ``train`` records in ``history.csv`` and keeps
only its final query MAP.  A negative margin of 0 is warned about once per
``train`` or ``sweep`` command, before the first point trains.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure.
All outputs are machine readable (JSON / CSV) and byte-identical across
reruns with the same config and seed, except the ``metadata.created_at``
timestamp isolated inside evaluation reports.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

from .bounds import BoundProblem, MarginSet, bound_holds, derive_margins
from .codes import correction_radius
from .data import (
    DatasetSplits,
    FeatureDataset,
    SplitSpec,
    generate_synthetic,
    load_csv,
    save_csv,
    split_dataset,
)
from .encoder import (
    TrainConfig,
    TrainingDivergedError,
    EncoderParams,
    encode,
    load_checkpoint,
    save_checkpoint,
    train,
    training_margins,
)
from .evaluation import EvalReport, mean_average_precision
from .fileio import write_csv, write_json

__all__ = ["main", "entry_point"]

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _UsageError(Exception):
    pass


class _RuntimeFailure(Exception):
    """A runtime failure that ``main`` reports as ``error: <message>``, exit 2."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this CLI reserves 2 for
    # runtime failures, so usage problems are rerouted through _UsageError.
    def error(self, message):
        raise _UsageError(message)


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("data source")
    group.add_argument("--data", type=str, default=None, help="feature CSV path")
    group.add_argument("--classes", type=int, default=10, help="synthetic class count")
    group.add_argument("--per-class", type=int, default=100, help="synthetic samples per class")
    group.add_argument("--dim", type=int, default=32, help="synthetic feature dimension")
    group.add_argument("--center-scale", type=float, default=10.0)
    group.add_argument("--noise-sigma", type=float, default=1.0)
    group.add_argument("--data-seed", type=int, default=0)


def _add_split_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("split protocol")
    group.add_argument("--query-per-class", type=int, default=10)
    group.add_argument("--train-per-class", type=int, default=50)
    group.add_argument("--val-per-class", type=int, default=10)
    group.add_argument("--split-seed", type=int, default=0)


def _add_train_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("training")
    group.add_argument("--bits", type=int, default=12, help="hash code length")
    group.add_argument("--hidden", type=int, default=64, help="hidden layer width")
    group.add_argument("--lr", type=float, default=0.05)
    group.add_argument("--momentum", type=float, default=0.5)
    group.add_argument("--quant-weight", type=float, default=0.002,
                       help="weight of the quantization term in the objective")
    group.add_argument("--batch-size", type=int, default=64)
    group.add_argument("--epochs", type=int, default=50)
    group.add_argument("--seed", type=int, default=0)
    group.add_argument("--margin-override", type=int, default=None,
                       help="use this negative margin instead of the derived one")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hashbound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p_bound = sub.add_parser("bound", help="derive loss margins from the packing bound")
    p_bound.add_argument("--config", type=str, default=None)
    p_bound.add_argument("--bits", type=int, required=False)
    p_bound.add_argument("--classes", type=int, required=False)
    p_bound.add_argument("--out", type=str, default=None, help="write the margins as JSON")

    p_gen = sub.add_parser("gen-data", help="write a synthetic feature CSV")
    p_gen.add_argument("--config", type=str, default=None)
    _add_data_args(p_gen)
    p_gen.add_argument("--out", type=str, required=False, help="CSV output path")

    p_train = sub.add_parser("train", help="train the encoder and evaluate it")
    p_train.add_argument("--config", type=str, default=None)
    _add_data_args(p_train)
    _add_split_args(p_train)
    _add_train_args(p_train)
    p_train.add_argument("--k", type=int, default=None, help="MAP@k cutoff for the report")
    p_train.add_argument("--out-dir", type=str, required=False)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--config", type=str, default=None)
    p_eval.add_argument("--checkpoint", type=str, required=False)
    _add_data_args(p_eval)
    _add_split_args(p_eval)
    p_eval.add_argument("--k", type=int, default=None)
    p_eval.add_argument("--out-dir", type=str, required=False)

    p_sweep = sub.add_parser("sweep", help="train+eval across margin or weight values")
    p_sweep.add_argument("--config", type=str, default=None)
    _add_data_args(p_sweep)
    _add_split_args(p_sweep)
    _add_train_args(p_sweep)
    p_sweep.add_argument("--margins", type=str, default=None,
                         help="comma list of negative margins to sweep")
    p_sweep.add_argument("--quant-weights", type=str, default=None,
                         help="comma list of quantization weights to sweep")
    p_sweep.add_argument("--seeds", type=str, default=None,
                         help="comma list of seeds per sweep value (default: --seed)")
    p_sweep.add_argument("--out", type=str, required=False, help="sweep CSV path")
    return parser


def _apply_config_file(parser: _Parser, argv: list[str] | None) -> argparse.Namespace:
    """Parse argv, then re-parse with the JSON config file as defaults.

    Each value must have its flag's type (``null`` only where the flag
    defaults to unset), so a bad file is a usage error, not a traceback.
    """
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    path = Path(args.config)
    if not path.is_file():
        raise _UsageError(f"config file not found: {path}")
    try:
        values = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise _UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(values, dict):
        raise _UsageError(f"config file {path} must hold a JSON object")
    command_parser = parser.commands[args.command]
    actions = {
        a.dest: a for a in command_parser._actions
        if not isinstance(a, argparse._HelpAction)
    }
    for key, value in values.items():
        if key not in actions:
            raise _UsageError(f"config file {path}: unknown field {key!r}")
        expected = _config_type_error(actions[key], value)
        if expected:
            raise _UsageError(
                f"config file {path}: field {key!r} must be {expected}, got {value!r}"
            )
    command_parser.set_defaults(**values)
    return parser.parse_args(argv)


def _config_type_error(action: argparse.Action, value) -> str | None:
    """What a config value for ``action`` should have been, or None if it fits."""
    if value is None:
        return None if action.default is None else "a value, not null"
    accepted = (int, float) if action.type is float else action.type
    # an int past the float range is no number either: float() overflows on it
    huge = action.type is float and isinstance(value, int) and abs(value) > sys.float_info.max
    if isinstance(value, accepted) and not isinstance(value, bool) and not huge:
        return None
    return {int: "an integer", float: "a number", str: "a string"}[action.type]


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            flag = "--" + name.replace("_", "-")
            raise _UsageError(f"{flag} is required (flag or config file)")


def _load_dataset(args: argparse.Namespace) -> FeatureDataset:
    if args.data is not None:
        path = Path(args.data)
        if not path.is_file():
            raise _UsageError(f"dataset file not found: {path}")
        dataset, mapping = load_csv(path)
        remapped = {k: v for k, v in mapping.items() if k != v}
        if remapped:
            print(f"remapped labels: {remapped}")
        return dataset
    return generate_synthetic(
        num_classes=args.classes,
        per_class=args.per_class,
        dim=args.dim,
        center_scale=args.center_scale,
        noise_sigma=args.noise_sigma,
        seed=args.data_seed,
    )


def _make_splits(args: argparse.Namespace, dataset: FeatureDataset) -> DatasetSplits:
    spec = SplitSpec(
        query_per_class=args.query_per_class,
        train_per_class=args.train_per_class,
        validation_per_class=args.val_per_class,
    )
    splits = split_dataset(dataset, spec, seed=args.split_seed)
    if len(splits.query) == 0:  # refused before train or sweep writes anything
        raise _UsageError("--query-per-class must be >= 1: MAP needs a nonempty query split")
    return splits


def _train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(
        code_bits=args.bits,
        hidden_dim=args.hidden,
        learning_rate=args.lr,
        momentum=args.momentum,
        quant_weight=args.quant_weight,
        batch_size=args.batch_size,
        epochs=args.epochs,
        seed=args.seed,
        margin_override=args.margin_override,
    )


def _warn_on_zero_negative_margin(margins: list[MarginSet]) -> None:
    """Log once if any run trains with a negative margin of 0.

    Logged by the command, not the loss, so that a sweep warns once however
    many of its points train with that margin.
    """
    if any(m.negative_margin == 0 for m in margins):
        logger.warning(
            "negative margin is 0; using a unit denominator to keep the "
            "loss finite (hinge location unchanged)"
        )


def _check_cutoff(args: argparse.Namespace) -> None:
    if args.k is not None and args.k < 1:
        raise _UsageError("--k must be >= 1")


def _evaluate(
    params: EncoderParams, splits: DatasetSplits, k: int | None
) -> EvalReport:
    dataset = splits.dataset
    return mean_average_precision(
        encode(params, dataset.features[splits.query]),
        dataset.labels[splits.query],
        encode(params, dataset.features[splits.database]),
        dataset.labels[splits.database],
        k,
        params.code_bits,
    )


def _output_file(text: str) -> Path:
    """The path of an ``--out`` file, its directory created as for ``--out-dir``."""
    path = Path(text)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _output_dir(text: str) -> Path:
    """The ``--out-dir`` path; a runtime failure, before any data is loaded, if
    the nearest of it and its ancestors that exists is not a directory."""
    path = Path(text)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise _RuntimeFailure(f"--out-dir {path}: {existing} is not a directory")
    return path


def _write_report(out_dir: Path, report: EvalReport, meta: dict) -> None:
    """Write ``report.json`` (timestamped metadata) and ``precision_curve.csv``."""
    doc = asdict(report)
    doc["metadata"] = {
        "created_at": datetime.now(timezone.utc).isoformat(),
        "tie_break": "distance ascending, then database index ascending",
        **meta,
    }
    write_json(out_dir / "report.json", doc)
    write_csv(
        out_dir / "precision_curve.csv",
        ["k", "precision"],
        ([cutoff, repr(value)] for cutoff, value in report.precision_curve),
    )


_BOUND_LABELS = (
    "code bits", "classes", "target distance", "positive margin",
    "negative margin", "correction radius", "clamped to length",
)


def _cmd_bound(args: argparse.Namespace) -> int:
    _require(args, "bits", "classes")
    problem = BoundProblem(code_bits=args.bits, num_classes=args.classes)
    margins = derive_margins(problem)
    doc = {
        "code_bits": args.bits,
        "num_classes": args.classes,
        "target_distance": margins.target_distance,
        "positive_margin": margins.positive_margin,
        "negative_margin": margins.negative_margin,
        "correction_radius": correction_radius(margins.target_distance),
        "clamped": bound_holds(problem, margins.target_distance),
    }
    for label, value in zip(_BOUND_LABELS, doc.values()):
        if isinstance(value, bool):
            value = "yes" if value else "no"
        print(f"{label + ':':<20}{value}")
    if args.out:
        write_json(_output_file(args.out), doc)
    return EXIT_OK


def _cmd_gen_data(args: argparse.Namespace) -> int:
    _require(args, "out")
    if args.data is not None:
        raise _UsageError("gen-data generates synthetic data; --data makes no sense")
    dataset = _load_dataset(args)
    save_csv(_output_file(args.out), dataset)
    print(f"wrote {len(dataset)} rows x {dataset.dim} features to {args.out}")
    return EXIT_OK


def _cmd_train(args: argparse.Namespace) -> int:
    _require(args, "out_dir")
    _check_cutoff(args)
    config = _train_config(args)
    out_dir = _output_dir(args.out_dir)
    dataset = _load_dataset(args)
    splits = _make_splits(args, dataset)
    _warn_on_zero_negative_margin([training_margins(splits, config)])

    params, history = train(splits, config)
    out_dir.mkdir(parents=True, exist_ok=True)

    save_checkpoint(out_dir / "checkpoint.json", params, config, epoch=config.epochs)
    write_csv(
        out_dir / "history.csv",
        ["epoch", "pairwise", "quan", "total", "val_map", "min_dist"],
        (
            [r.epoch, repr(r.pairwise), repr(r.quantization), repr(r.total),
             repr(r.val_map), r.min_center_distance]
            for r in history.records
        ),
    )
    write_json(
        out_dir / "splits.json",
        {
            "train": splits.train.tolist(),
            "validation": splits.validation.tolist(),
            "query": splits.query.tolist(),
            "database": splits.database.tolist(),
        },
    )
    report = _evaluate(params, splits, args.k)
    _write_report(
        out_dir,
        report,
        {
            "negative_margin": history.margins.negative_margin,
            "seed": config.seed,
        },
    )
    final = history.records[-1]
    print(
        f"trained {config.epochs} epochs: total loss {final.total:.6f}, "
        f"val MAP {final.val_map:.4f}, query MAP {report.map:.4f}"
    )
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    _require(args, "checkpoint", "out_dir")
    _check_cutoff(args)
    path = Path(args.checkpoint)
    if not path.is_file():
        raise _UsageError(f"checkpoint not found: {path}")
    try:
        params, meta = load_checkpoint(path)
    except json.JSONDecodeError as exc:  # a ValueError, which main calls a usage error
        raise _RuntimeFailure(
            f"corrupted checkpoint {path}: line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:  # a ValueError too
        raise _RuntimeFailure(
            f"corrupted checkpoint {path}: not UTF-8 text ({exc.reason})"
        ) from exc
    out_dir = _output_dir(args.out_dir)
    dataset = _load_dataset(args)
    if dataset.dim != params.input_dim:
        raise _RuntimeFailure(
            f"checkpoint expects {params.input_dim}-d features, "
            f"dataset has {dataset.dim}"
        )
    splits = _make_splits(args, dataset)
    report = _evaluate(params, splits, args.k)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(out_dir, report, {"checkpoint": str(path), "epoch": meta.get("epoch")})
    print(f"query MAP {report.map:.4f}" + (f", MAP@{args.k} {report.map_at_k:.4f}" if args.k else ""))
    return EXIT_OK


def _parse_number_list(text: str, cast) -> list:
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise _UsageError(f"could not parse list {text!r}")


def _sweep_point(splits: DatasetSplits, config: TrainConfig) -> float | str:
    """Train one point: its query MAP, or the message of its divergence."""
    try:
        params, _ = train(splits, config, validate=False)
    except TrainingDivergedError as exc:
        return str(exc)
    return _evaluate(params, splits, None).map


def _cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, "out")
    if (args.margins is None) == (args.quant_weights is None):
        raise _UsageError("exactly one of --margins / --quant-weights is required")
    if args.margins is not None:
        parameter, field = "negative_margin", "margin_override"
        values = _parse_number_list(args.margins, int)
    else:
        parameter, field = "quant_weight", "quant_weight"
        values = _parse_number_list(args.quant_weights, float)
    seeds = (
        _parse_number_list(args.seeds, int) if args.seeds is not None else [args.seed]
    )
    if not values or not seeds:
        raise _UsageError("the sweep list is empty")

    # Validate all configurations before any training starts.
    base = _train_config(args)
    configs = []
    for value in values:
        for seed in seeds:
            try:
                configs.append((value, seed, replace(base, seed=seed, **{field: value})))
            except ValueError as exc:
                raise _UsageError(f"sweep value {value}: {exc}")

    dataset = _load_dataset(args)
    splits = _make_splits(args, dataset)
    _warn_on_zero_negative_margin(
        [training_margins(splits, config) for _, _, config in configs]
    )
    # With more classes than codewords no margin is bound-derived (as in
    # EvalReport.target_distance), but any explicit margin still trains.
    derived = None
    if parameter == "negative_margin" and dataset.num_classes <= 2**args.bits:
        derived = derive_margins(
            BoundProblem(code_bits=args.bits, num_classes=dataset.num_classes)
        ).negative_margin

    out = _output_file(args.out)

    rows = []
    for value, seed, config in configs:
        result = _sweep_point(splits, config)
        if isinstance(result, str):
            print(f"{parameter}={value} seed={seed}: {result}", file=sys.stderr)
            rows.append([parameter, value, seed, "", "failed", value == derived])
            continue
        rows.append([parameter, value, seed, repr(result), "ok", value == derived])
        print(f"{parameter}={value} seed={seed}: MAP {result:.4f}")

    write_csv(out, ["parameter", "value", "seed", "map", "status", "bound_derived"], rows)
    return EXIT_RUNTIME if any(row[4] == "failed" for row in rows) else EXIT_OK


_COMMANDS = {
    "bound": _cmd_bound,
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    """Run the CLI on ``argv`` (default ``sys.argv[1:]``); returns the exit code."""
    try:
        args = _apply_config_file(_build_parser(), argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError) as exc:
        # invalid domain values surfacing from the library are config errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingDivergedError, OSError, MemoryError, _RuntimeFailure) as exc:
        # a bare MemoryError has no message; numpy's names the allocation
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
