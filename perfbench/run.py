"""hashbound benchmark: the three user-facing jobs, end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload train_desk --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

One client process runs one workload at a time in a closed loop: each
operation is one ``hashbound.cli.main(argv)`` call in a fresh child process,
started only after the previous one has ended.  Set-up (package import plus
the workload's input files) runs ``SETUPS`` times, each in its own child.
With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced operations and prints the per-layer
metrics derived from the traced spans.  Every operation's outputs are
checked; the last stdout line is one JSON object, and the exit code is 1
when a check failed.  See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracer import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUPS = 3
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_THREADS = "1"  # the package is single-threaded; cores stay free for processes
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run an operation at all."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name in BLAS_ENV:
        env[name] = BLAS_THREADS
    return env


def _run_child(request: dict, deadline: float) -> dict:
    """Run child.py on ``request`` and return its result.json."""
    out = Path(request["dir"])
    out.mkdir(parents=True)
    (out / "request.json").write_text(json.dumps(request))
    with open(out / "stdout.txt", "wb") as stdout, open(out / "stderr.txt", "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(out / "request.json")],
            cwd=ROOT, env=_child_env(), stdout=stdout, stderr=stderr,
        )
        try:
            status = proc.wait(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{request['mode']} child passed the {DEADLINE_S:.0f} s deadline")
    if status != 0 or not (out / "result.json").exists():
        tail = (out / "stderr.txt").read_text(errors="replace")[-2000:]
        raise BenchError(f"{request['mode']} child exited with {status}:\n{tail}")
    return json.loads((out / "result.json").read_text())


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "hashbound").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "child_processes_at_once": 1,
        "commit": commit,
        "src_sha256": source.hexdigest()[:16],
    }


def _eval_oracle(seed: int, inputs: Path, report: dict) -> list[str]:
    """Compare one eval_large report with the numpy oracle."""
    sys.path.insert(0, str(SRC))
    from hashbound.data import FeatureDataset, SplitSpec, split_dataset

    from oracle import check_eval

    features, labels = workloads.eval_features(seed, workloads.EVAL_PER_CLASS, stream=0)
    dataset = FeatureDataset(features, labels, workloads.EVAL_CLASSES)
    splits = split_dataset(
        dataset, SplitSpec(workloads.EVAL_QUERY_PER_CLASS, 0, 0), seed=seed
    )
    problems, straddling = check_eval(
        report, inputs / "checkpoint.json", features, labels,
        splits.query, splits.database, workloads.EVAL_K,
    )
    print(f"  oracle: {len(splits.query)} queries x {len(splits.database)} rows, "
          f"{straddling} queries with a mixed-relevance tie across rank {workloads.EVAL_K}")
    if straddling == 0:
        problems.append("no query has a tie across the MAP@k cut; the tie rule went unchecked")
    return problems


def _spread(values: list[float]) -> str:
    ordered, n = sorted(values), len(values)
    # the highest percentile with at least ten samples beyond it
    tail = (f"p{100 * (n - 10) // n} {ordered[n - 11]:.6g}" if n > 20
            else "no percentile above p50 has 10 samples beyond it")
    return (f"p50 {statistics.median(ordered):.6g} (n={n}, "
            f"min {ordered[0]:.6g}, max {ordered[-1]:.6g}; {tail})")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    problems: list[str] = []

    setup_times, digests = [], []
    for i in range(SETUPS):
        result = _run_child(
            {"mode": "setup", "workload": workload, "seed": seed, "dir": str(work / f"setup{i}")},
            deadline,
        )
        setup_times.append(result["setup_s"])
        digests.append(workloads.input_digest(work / f"setup{i}"))
        if i:
            shutil.rmtree(work / f"setup{i}")
    if len(set(digests)) != 1:
        problems.append("set-up wrote different inputs on the same seed")
    inputs = work / "setup0"

    ops: list[dict] = []
    first_digest = None
    start = perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(ops) % 2 == 1
        out = work / f"op{len(ops)}"
        argv = workloads.argv(workload, seed, inputs, out)
        begin = perf_counter()
        result = _run_child(
            {"mode": "run", "workload": workload, "seed": seed, "dir": str(out),
             "trace": traced, "argv": argv},
            deadline,
        )
        longest = max(longest, perf_counter() - begin)
        try:
            op_problems, outcome = workloads.check(workload, result["exit_code"], out)
        except (OSError, ValueError, KeyError) as exc:
            op_problems, outcome = [f"missing or malformed output: {exc!r}"], {}
        if first_digest is None:
            first_digest = outcome.get("digest")
            if workload == "eval_large" and not op_problems:
                op_problems += _eval_oracle(seed, inputs, outcome["report"])
        elif outcome.get("digest") != first_digest:
            op_problems.append("outputs differ from the first operation's (determinism)")
        op = {"traced": traced, "wall_s": result["wall_s"],
              "peak_rss_mb": result["peak_rss_mb"], "outcome": outcome,
              "problems": op_problems}
        if traced:
            spans = json.loads((out / "spans.json").read_text())
            op["table"], op["layers"] = summarize(
                spans, result["wall_s"], argv[0], workloads.EPOCHS
            )
        ops.append(op)
        for problem in op_problems:
            print(f"  FAILED op {len(ops) - 1}: {problem}", file=sys.stderr)
        shutil.rmtree(out)
        now = perf_counter()
        enough = len(ops) >= (2 if trace else 1)
        if now + longest > deadline:
            if not enough:
                raise BenchError("the deadline leaves no time for a traced operation")
            break
        if enough and now - start + longest > seconds:
            break
    shutil.rmtree(work, ignore_errors=True)
    ops[0]["problems"] += problems
    return {"setup_times": setup_times, "ops": ops,
            "failed": sum(1 for op in ops if op["problems"])}


def report(workload: str, seed: int, trace: bool, run: dict, units: dict) -> dict:
    """Print the human-readable summary; return the metrics of the JSON line."""
    ops = run["ops"]
    failed = run["failed"]
    plain = [op for op in ops if not op["traced"]]
    walls = [op["wall_s"] for op in plain]
    items = workloads.work_items(workload)
    rates = [items / w for w in walls]
    rss = [op["peak_rss_mb"] for op in plain]
    first = ops[0]["outcome"]

    print(f"workload {workload} seed {seed}: {len(ops)} operations, "
          f"{len(run['setup_times'])} set-ups, failed_frac {failed}/{len(ops)}")
    print(f"  wall_s {_spread(walls)} s")
    print(f"  {workloads.WORK_UNIT[workload]} (throughput) {_spread(rates)} 1/s "
          f"at {items} units per operation")
    print(f"  setup_s {_spread(run['setup_times'])} s")
    print(f"  peak_rss_mb {_spread(rss)} MB")
    for key in ("map", "map_at_k", "min_center_distance"):
        if first.get(key) is not None:
            print(f"  {key} {first[key]!r}")
    if workload == "sweep_margin":
        print(f"  sweep points {first.get('points')}, failed {first.get('points_failed')}")

    if not trace:
        return {
            "wall_s": statistics.median(walls),
            "throughput": statistics.median(rates),
            "setup_s": statistics.median(run["setup_times"]),
            "peak_rss_mb": statistics.median(rss),
        }
    # One whole traced operation, the median by wall time, so that its self
    # times and unattributed remainder still add up to its traced wall_s.
    traced = sorted((op for op in ops if op["traced"]), key=lambda op: op["wall_s"])
    middle = traced[(len(traced) - 1) // 2]
    layers = dict(middle["layers"])
    layers["trace.overhead_s"] = (
        statistics.median(op["wall_s"] for op in traced) - statistics.median(walls)
    )
    print(f"  traced: {len(traced)} operations; per function (median traced operation):")
    print(f"    {'function':44s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
    for name, row in sorted(middle["table"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"    {name:44s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    print("  per-layer metrics (.pairs, .rows and .bytes_computed are computed "
          "from argument shapes, not measured):")
    for name, value in layers.items():
        print(f"    {name} {value!r} {units[name]}")
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.NAMES, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hashbound" / "cli.py").is_file():
        print(f"error: no hashbound package under {SRC}", file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    deadline = perf_counter() + DEADLINE_S * len(names)
    print("environment " + json.dumps(_environment()))
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        values = report(name, args.seed, bool(args.trace), run, units)
        attempted += len(run["ops"])
        failed += run["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
