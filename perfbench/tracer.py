"""Runtime spans at the hashbound module boundaries, and the stats derived from them.

``Tracer.install`` replaces every public function of each package module
with a wrapper that records one span per call: ``(name, start, end, parent,
count, count2, raised)``, where the counts are computed from the arguments.  The wrapper is bound in every ``hashbound`` module
namespace that holds the original object (``encoder`` binds ``forward``,
``total_loss`` and ``class_center_codes`` itself, ``cli`` binds ``train``,
and so on), so calls between modules are seen too.  Of the classes, only
the vectorised draws of ``Xorshift64Star`` are wrapped: a span per scalar
draw or per ``BinaryCode.bit`` call would cost more than the call, so their
time stays in the caller's self time.

Spans stay in memory and are written out once, at exit.  ``summarize``
derives calls, total and self time per function, and the layer metrics the
benchmark reports, from the span list alone.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from time import perf_counter

LAYERS = ("prng", "data", "bounds", "codes", "losses", "encoder", "evaluation", "cli")
PRNG_METHODS = ("uniforms", "normals", "permutation")


def _hamming_work(a_words, b_words, *_, **__):
    # pairs, and bytes of the (n, m, 8W) uint8 XOR plus its uint16 lookup
    n, m, width = a_words.shape[0], b_words.shape[0], a_words.shape[1]
    return n * m, n * m * 8 * width * (1 + 2)


# Computed counts: derived from argument shapes, not measured.
COUNTERS = {
    "codes.packed_hamming_matrix": _hamming_work,
    "evaluation.mean_average_precision": lambda q, _ql, db, *_, **__: (len(q) * len(db), 0),
    "codes.codes_from_word_rows": lambda words, *_, **__: (words.shape[0], 0),
    "codes.word_matrix": lambda codes, *_, **__: (len(codes), 0),
    "losses.pairwise_loss": lambda _codes, batch, *_, **__: (len(batch), 0),
    "encoder.encode": lambda _params, features, *_, **__: (len(features), 0),
    "data.load_csv": lambda path, *_, **__: (os.path.getsize(path), 0),
}


# The (function, stat) pairs reported by name.  .pairs, .rows and .bytes
# read the span's first count, .bytes_computed its second.
LISTED = [
    ("evaluation.class_center_codes", "self_s"),
    ("codes.packed_hamming_matrix", "self_s"),
    ("codes.packed_hamming_matrix", "pairs"),
    ("codes.packed_hamming_matrix", "bytes_computed"),
    ("evaluation.mean_average_precision", "self_s"),
    ("evaluation.mean_average_precision", "pairs"),
    ("codes.codes_from_word_rows", "self_s"),
    ("codes.codes_from_word_rows", "rows"),
    ("codes.word_matrix", "rows"),
    ("codes.pack_sign_rows", "self_s"),
    ("losses.pairwise_loss", "self_s"),
    ("losses.pairwise_loss", "pairs"),
    ("losses.pairs_from_labels", "self_s"),
    ("losses.quantization_loss", "self_s"),
    ("losses.total_loss", "total_s"),
    ("encoder.forward", "self_s"),
    ("encoder.forward", "calls"),
    ("encoder.backward", "self_s"),
    ("encoder.backward", "calls"),
    ("encoder.sgd_step", "self_s"),
    ("encoder.sgd_step", "calls"),
    ("encoder.encode", "self_s"),
    ("encoder.encode", "rows"),
    ("encoder.load_checkpoint", "total_s"),
    ("encoder.save_checkpoint", "total_s"),
    ("encoder.train", "self_s"),
    ("data.load_csv", "self_s"),
    ("data.load_csv", "bytes"),
    ("data.generate_synthetic", "self_s"),
    ("data.split_dataset", "self_s"),
    ("prng.normals", "calls"),
    ("prng.permutation", "self_s"),
    ("bounds.solve_target_distance", "calls"),
    ("cli.main", "self_s"),
]
_FIELDS = {"pairs": "count", "rows": "count", "bytes": "count", "bytes_computed": "count2"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            count = counter(*args, **kwargs) if counter else (0, 0)
            stack.append(index)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, *count, raised)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module (imports the package)."""
        import importlib

        modules = {layer: importlib.import_module(f"hashbound.{layer}") for layer in LAYERS}
        wrappers = {}  # id of the original -> (original, kept alive; wrapper)
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        rng_class = modules["prng"].Xorshift64Star
        for method in PRNG_METHODS:
            setattr(rng_class, method, self._wrap(f"prng.{method}", getattr(rng_class, method)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hashbound" and not mod_name.startswith("hashbound."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)][1])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _ancestors(spans: list, index: int):
    parent = spans[index][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def summarize(spans: list, wall_s: float, command: str, epochs_per_train: int):
    """Per-function table and the named layer metrics of one traced operation."""
    selfs = self_times(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0, "count2": 0, "raised": 0}
    table: dict[str, dict] = {}
    for (name, start, end, _, count, count2, raised), own in zip(spans, selfs):
        row = table.setdefault(name, dict(empty))
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
        row["count"] += count
        row["count2"] += count2
        row["raised"] += raised

    def get(name: str, stat: str):
        return table.get(name, empty)[stat]

    trains = get("encoder.train", "calls")
    centers_in_train = sum(
        1 for i, span in enumerate(spans)
        if span[0] == "evaluation.class_center_codes"
        and "encoder.train" in _ancestors(spans, i)
    )
    sweep = command == "sweep"
    metrics = {f"{fn}.{stat}": get(fn, _FIELDS.get(stat, stat)) for fn, stat in LISTED}
    metrics["evaluation.class_center_codes.calls_per_epoch"] = (
        centers_in_train / (trains * epochs_per_train) if trains else 0.0
    )
    metrics["cli.sweep.points"] = trains if sweep else 0
    metrics["cli.sweep.points_failed"] = get("encoder.train", "raised") if sweep else 0
    metrics["cli.sweep.train_busy_over_wall"] = (
        get("encoder.train", "total_s") / wall_s if sweep else 0.0
    )
    listed_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    metrics["trace.wall_s"] = wall_s
    metrics["trace.unattributed_s"] = wall_s - listed_self
    metrics["trace.unlisted_self_s"] = sum(selfs) - listed_self
    metrics["trace.outside_spans_s"] = wall_s - sum(selfs)
    return table, metrics
