"""CLI contracts: subcommands, exit codes, config files, reproducibility."""

import csv
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest

import hashbound.encoder as encoder_module
from hashbound import cli
from hashbound.cli import main
from hashbound.data import SplitSpec, generate_synthetic, load_csv, split_dataset
from hashbound.encoder import TrainConfig

FAST_DATA = [
    "--classes", "4", "--per-class", "30", "--dim", "8",
    "--query-per-class", "4", "--train-per-class", "15", "--val-per-class", "4",
]
FAST_TRAIN = [
    *FAST_DATA,
    "--bits", "8", "--epochs", "3", "--batch-size", "16",
]


_SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    ),
}


def run_train(out_dir, extra=()):
    return main(["train", "--out-dir", str(out_dir), *FAST_TRAIN, *extra])


# --- bound -----------------------------------------------------------------

@pytest.mark.parametrize(
    "bits,classes,expected_negative",
    [(12, 10, -6), (16, 10, -6), (48, 100, -18)],
)
def test_bound_command_reference_rows(capsys, tmp_path, bits, classes, expected_negative):
    out = tmp_path / "margins.json"
    assert main(["bound", "--bits", str(bits), "--classes", str(classes),
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert f"negative margin:    {expected_negative}" in printed
    doc = json.loads(out.read_text())
    assert doc["negative_margin"] == expected_negative
    assert doc["positive_margin"] == bits


def test_bound_command_reports_clamp(capsys):
    assert main(["bound", "--bits", "12", "--classes", "2"]) == 0
    printed = capsys.readouterr().out
    assert "target distance:    12" in printed
    assert "clamped to length:  yes" in printed


def test_bound_command_rejects_invalid_problem(capsys):
    assert main(["bound", "--bits", "12", "--classes", "1"]) == 1
    assert "num_classes" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["bound", "--bits", "12", "--classes", "10", "--bogus"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["hashbound", "hashbound.cli"])
def test_python_dash_m_runs_the_cli(module):
    def run(*flags):
        return subprocess.run(
            [sys.executable, "-m", module, "bound", "--bits", "12", "--classes", "10", *flags],
            capture_output=True, text=True, env=_SUBPROCESS_ENV,
        )

    ok = run()
    assert ok.returncode == 0
    assert "negative margin:    -6" in ok.stdout
    bad = run("--bogus")
    assert bad.returncode == 1
    assert "error" in bad.stderr and "Traceback" not in bad.stderr


# --- gen-data ----------------------------------------------------------------

def test_gen_data_round_trip(tmp_path):
    out = tmp_path / "synthetic.csv"
    assert main(["gen-data", "--classes", "3", "--per-class", "5", "--dim", "4",
                 "--data-seed", "5", "--out", str(out)]) == 0
    dataset, _ = load_csv(out)
    assert len(dataset) == 15
    assert dataset.num_classes == 3


def test_gen_data_requires_out(capsys):
    assert main(["gen-data", "--classes", "3"]) == 1
    assert "--out" in capsys.readouterr().err


# --- train ----------------------------------------------------------------------

def test_train_writes_all_outputs(tmp_path):
    out_dir = tmp_path / "run"
    assert run_train(out_dir) == 0
    for name in ("checkpoint.json", "history.csv", "report.json",
                 "precision_curve.csv", "splits.json"):
        assert (out_dir / name).is_file(), name
    history = (out_dir / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,pairwise,quan,total,val_map,min_dist"
    assert len(history) == 4  # header + 3 epochs
    report = json.loads((out_dir / "report.json").read_text())
    assert 0.0 <= report["map"] <= 1.0
    assert "created_at" in report["metadata"]


def test_train_missing_dataset_no_partial_outputs(tmp_path, capsys):
    out_dir = tmp_path / "never"
    code = main(["train", "--out-dir", str(out_dir), "--data",
                 str(tmp_path / "missing.csv")])
    assert code == 1
    assert not out_dir.exists()
    assert "not found" in capsys.readouterr().err


def test_train_invalid_config_no_partial_outputs(tmp_path, capsys):
    out_dir = tmp_path / "never2"
    code = main(["train", "--out-dir", str(out_dir), *FAST_TRAIN,
                 "--margin-override", "-7"])  # wrong parity for 8 bits
    assert code == 1
    assert not out_dir.exists()
    assert "parity" in capsys.readouterr().err
    # a MAP@k cutoff below 1 is refused before any training, flag or file
    assert main(["train", "--out-dir", str(out_dir), *FAST_TRAIN, "--k", "0"]) == 1
    assert not out_dir.exists()
    assert "--k" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": -1}))
    assert main(["train", "--config", str(config), "--out-dir", str(out_dir),
                 *FAST_TRAIN]) == 1
    assert not out_dir.exists()
    assert "--k" in capsys.readouterr().err
    # train()'s own checks on the splits and the margins also run first
    assert run_train(out_dir, ["--val-per-class", "0"]) == 1
    assert not out_dir.exists()
    assert "nonempty database" in capsys.readouterr().err
    assert run_train(out_dir, ["--bits", "2", "--classes", "6"]) == 1
    assert not out_dir.exists()
    assert "cannot place 6 distinct codewords" in capsys.readouterr().err


def test_train_records_classwise_flag(tmp_path):
    out_dir = tmp_path / "run"
    assert run_train(out_dir, ["--classwise"]) == 0
    checkpoint = json.loads((out_dir / "checkpoint.json").read_text())
    assert checkpoint["config"]["classwise"] is True


def test_train_write_failing_midway_keeps_the_old_outputs(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "run"
    assert run_train(out_dir) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}

    def failing_dumps(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(json, "dumps", failing_dumps)
    assert run_train(out_dir, ["--seed", "1"]) == 2
    assert "disk full" in capsys.readouterr().err
    # checkpoint.json and history.csv were written before the failing
    # splits.json; the rest are the previous run's bytes, and no temp is left
    after = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert sorted(after) == sorted(before)
    for name in ("splits.json", "report.json", "precision_curve.csv"):
        assert after[name] == before[name]


def test_sweep_write_failing_midway_keeps_the_old_table(tmp_path, monkeypatch, capsys):
    sweep_csv = tmp_path / "sweep.csv"
    argv = ["sweep", "--margins=-6", "--out", str(sweep_csv), *FAST_TRAIN]
    assert main(argv) == 0
    before = sweep_csv.read_bytes()
    real_writer = csv.writer

    class HeaderOnlyWriter:
        def __init__(self, fh):
            self._writer = real_writer(fh)

        def writerow(self, row):
            self._writer.writerow(row)

        def writerows(self, rows):
            raise OSError("disk full")

    monkeypatch.setattr(csv, "writer", HeaderOnlyWriter)
    assert main(argv) == 2
    assert "disk full" in capsys.readouterr().err
    assert sweep_csv.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv"]


def test_train_byte_identical_reruns(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert run_train(dir_a) == 0
    assert run_train(dir_b) == 0
    assert (dir_a / "history.csv").read_bytes() == (dir_b / "history.csv").read_bytes()
    assert (dir_a / "checkpoint.json").read_bytes() == (dir_b / "checkpoint.json").read_bytes()
    assert (dir_a / "splits.json").read_bytes() == (dir_b / "splits.json").read_bytes()


def test_train_divergence_is_runtime_failure(tmp_path, capsys):
    out_dir = tmp_path / "diverge"
    code = run_train(out_dir, ["--lr", "1e12"])
    assert code == 2
    assert "learning rate" in capsys.readouterr().err


# --- eval ----------------------------------------------------------------------

def test_eval_reproduces_train_report(tmp_path):
    out_dir = tmp_path / "run"
    assert run_train(out_dir) == 0
    eval_dir = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(out_dir / "checkpoint.json"),
                 "--out-dir", str(eval_dir), *FAST_DATA]) == 0
    train_report = json.loads((out_dir / "report.json").read_text())
    eval_report = json.loads((eval_dir / "report.json").read_text())
    assert eval_report["map"] == train_report["map"]
    assert eval_report["per_query_ap"] == train_report["per_query_ap"]
    assert eval_report["precision_curve"] == train_report["precision_curve"]


def test_eval_records_cutoff(tmp_path):
    out_dir = tmp_path / "run"
    assert run_train(out_dir) == 0
    eval_dir = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(out_dir / "checkpoint.json"),
                 "--out-dir", str(eval_dir), "--k", "10", *FAST_DATA]) == 0
    report = json.loads((eval_dir / "report.json").read_text())
    assert report["k"] == 10
    assert report["map_at_k"] is not None


def test_eval_invalid_cutoff_no_partial_outputs(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert run_train(out_dir) == 0
    eval_dir = tmp_path / "never"
    assert main(["eval", "--checkpoint", str(out_dir / "checkpoint.json"),
                 "--out-dir", str(eval_dir), "--k", "0", *FAST_DATA]) == 1
    assert not eval_dir.exists()
    assert "--k" in capsys.readouterr().err


def test_eval_empty_query_split_no_partial_outputs(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert run_train(out_dir) == 0
    eval_dir = tmp_path / "never"
    assert main(["eval", "--checkpoint", str(out_dir / "checkpoint.json"),
                 "--out-dir", str(eval_dir), *FAST_DATA, "--query-per-class", "0"]) == 1
    assert not eval_dir.exists()
    assert "nonempty" in capsys.readouterr().err


def test_eval_corrupted_checkpoint(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    out_dir = tmp_path / "out"
    for content, detail in (
        ('{"input_dim": 8,\n  "броken"'.encode(), "line 2 column 11"),  # truncated JSON
        (b'\xff{"input_dim": 8}', "not UTF-8 text"),  # bytes that decode to no text
    ):
        bad.write_bytes(content)
        code = main(["eval", "--checkpoint", str(bad), "--out-dir", str(out_dir), *FAST_DATA])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupted checkpoint {bad}: {detail}")
        assert not out_dir.exists()


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"input_dim": "a", "hidden_dim": 2, "code_bits": 1, "hidden_weights": [0, 0],
     "hidden_bias": [0, 0], "output_weights": [0, 0], "output_bias": [0]},
], ids=["list", "string-dim"])
def test_eval_malformed_checkpoint_is_usage_error(tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    result = subprocess.run(
        [sys.executable, "-c", "from hashbound.cli import entry_point; entry_point()",
         "eval", "--checkpoint", str(bad), "--out-dir", str(tmp_path / "out"), *FAST_DATA],
        capture_output=True, text=True, env=_SUBPROCESS_ENV,
    )
    assert result.returncode == 1
    assert "malformed checkpoint" in result.stderr
    assert "Traceback" not in result.stderr


def test_eval_dimension_mismatch(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert run_train(out_dir) == 0
    code = main(["eval", "--checkpoint", str(out_dir / "checkpoint.json"),
                 "--out-dir", str(tmp_path / "out"),
                 "--classes", "4", "--per-class", "30", "--dim", "9",
                 "--query-per-class", "4", "--train-per-class", "15",
                 "--val-per-class", "4"])
    assert code == 2
    assert "features" in capsys.readouterr().err


# --- sweep ----------------------------------------------------------------------

def test_sweep_single_value_matches_train_eval(tmp_path):
    out_dir = tmp_path / "run"
    assert run_train(out_dir) == 0
    report = json.loads((out_dir / "report.json").read_text())

    sweep_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--margins", str(report["metadata"]["negative_margin"]),
                 "--out", str(sweep_csv), *FAST_TRAIN]) == 0
    rows = sweep_csv.read_text().splitlines()
    assert rows[0] == "parameter,value,seed,map,status,bound_derived"
    _, value, seed, map_str, status, flagged = rows[1].split(",")
    assert status == "ok"
    assert float(map_str) == report["map"]


def test_sweep_flags_bound_derived_margin(tmp_path):
    sweep_csv = tmp_path / "margins.csv"
    assert main(["sweep", "--margins=-8,-6,-4", "--out", str(sweep_csv),
                 *FAST_TRAIN]) == 0
    lines = sweep_csv.read_text().splitlines()[1:]
    flags = {line.split(",")[1]: line.split(",")[5] for line in lines}
    # derive_margins(8, 4) -> negative margin -6
    assert flags == {"-8": "False", "-6": "True", "-4": "False"}


def test_sweep_records_failures_and_continues(tmp_path, capsys):
    sweep_csv = tmp_path / "lambda.csv"
    code = main(["sweep", "--quant-weights", "0.002,1e12", "--out", str(sweep_csv),
                 *FAST_TRAIN])
    lines = sweep_csv.read_text().splitlines()[1:]
    status = {line.split(",")[1]: line.split(",")[4] for line in lines}
    assert status["0.002"] == "ok"
    assert status["1000000000000.0"] == "failed"
    assert code == 2


@pytest.mark.parametrize("flags", [["--lr", "nan"], ["--quant-weight", "inf"]],
                         ids=["lr-nan", "quant-weight-inf"])
def test_train_rejects_non_finite_hyperparameters(tmp_path, capsys, flags):
    out_dir = tmp_path / "never"
    assert run_train(out_dir, flags) == 1
    assert not out_dir.exists()
    assert "finite" in capsys.readouterr().err


def test_sweep_rejects_non_finite_weight_before_training(tmp_path, capsys):
    sweep_csv = tmp_path / "lambda.csv"
    code = main(["sweep", "--quant-weights", "nan,0.1", "--out", str(sweep_csv),
                 *FAST_TRAIN])
    assert code == 1
    assert not sweep_csv.exists()
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert "MAP" not in captured.out


def test_sweep_requires_exactly_one_axis(tmp_path, capsys):
    assert main(["sweep", "--out", str(tmp_path / "s.csv"), *FAST_TRAIN]) == 1
    assert main(["sweep", "--margins=-4", "--quant-weights", "0.1",
                 "--out", str(tmp_path / "s.csv"), *FAST_TRAIN]) == 1


def test_sweep_rejects_empty_seed_list(tmp_path, capsys):
    sweep_csv = tmp_path / "seeds.csv"
    assert main(["sweep", "--margins=-2", "--seeds", "", "--out", str(sweep_csv),
                 *FAST_TRAIN]) == 1
    assert not sweep_csv.exists()
    assert "empty" in capsys.readouterr().err


def test_sweep_more_classes_than_codewords(tmp_path, capsys):
    # 6 classes cannot be placed in 2**2 words: no margin is bound-derived,
    # but an explicit margin trains just as `train --margin-override` does
    sweep_csv = tmp_path / "tiny.csv"
    argv = [*FAST_TRAIN, "--bits", "2", "--classes", "6", "--lr", "0.01"]
    assert main(["train", "--out-dir", str(tmp_path / "run"), *argv,
                 "--margin-override", "0"]) == 0
    assert main(["sweep", "--margins=-2,0", "--out", str(sweep_csv), *argv]) == 0
    rows = list(csv.DictReader(sweep_csv.read_text().splitlines()))
    assert [(r["value"], r["status"], r["bound_derived"]) for r in rows] == [
        ("-2", "ok", "False"), ("0", "ok", "False"),
    ]


def test_sweep_multi_seed_rows(tmp_path):
    sweep_csv = tmp_path / "seeds.csv"
    assert main(["sweep", "--margins=-4", "--seeds", "0,1",
                 "--out", str(sweep_csv), *FAST_TRAIN]) == 0
    lines = sweep_csv.read_text().splitlines()[1:]
    assert [line.split(",")[2] for line in lines] == ["0", "1"]


def test_sweep_point_ranks_only_its_final_evaluation(monkeypatch):
    calls = {"mean_average_precision": 0, "pack_sign_rows": 0}

    def spy_on(module, name):
        real = getattr(module, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    for module in (cli, encoder_module):
        spy_on(module, "mean_average_precision")
    spy_on(encoder_module, "pack_sign_rows")
    dataset = generate_synthetic(num_classes=4, per_class=30, dim=8, seed=0)
    splits = split_dataset(dataset, SplitSpec(4, 15, 4), seed=0)
    result = cli._sweep_point(splits, TrainConfig(code_bits=8, epochs=3, batch_size=16))
    assert isinstance(result, float)
    # one ranking of the query codes against the database codes, packed once each
    assert calls == {"mean_average_precision": 1, "pack_sign_rows": 2}


@pytest.mark.parametrize(
    "zero_margin,other_margin",
    [
        (["train", "--margin-override", "0"], ["train", "--margin-override", "-2"]),
        (["sweep", "--margins=0,-2,0", "--seeds", "0,1"], ["sweep", "--margins=-2"]),
    ],
    ids=["train", "sweep"],
)
def test_zero_negative_margin_warns_once_per_command(tmp_path, monkeypatch, caplog,
                                                     zero_margin, other_margin):
    # one CPU, so the sweep points train in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    out = {"train": ["--out-dir", str(tmp_path / "run")],
           "sweep": ["--out", str(tmp_path / "s.csv")]}[zero_margin[0]]
    for argv, expected in ((zero_margin, 1), (zero_margin, 1), (other_margin, 0)):
        caplog.clear()
        assert main([*argv, *out, *FAST_TRAIN, "--lr", "0.01"]) == 0
        warnings = [r for r in caplog.records if "unit denominator" in r.message]
        assert [r.levelname for r in warnings] == ["WARNING"] * expected


def sweep_on_cpus(monkeypatch, capfd, cpus, out, argv):
    """Run a sweep as if ``cpus`` CPUs were available: exit code, CSV, stdout, stderr.

    ``capfd`` captures at the file-descriptor level, so anything a worker
    process writes shows up too.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    code = main(["sweep", *argv, "--out", str(out)])
    captured = capfd.readouterr()
    return code, out.read_bytes() if out.exists() else None, captured.out, captured.err


@pytest.mark.parametrize(
    "argv,expected_code,pooled_cpus",
    [
        (["--quant-weights", "0.002,1e12", *FAST_TRAIN], 2, [2]),
        # 4 workers: more than the cores of a small machine
        (["--margins=-8,-6,-4", "--seeds", "0,3", *FAST_TRAIN], 0, [2, 4]),
        # the zero-margin warning comes from this process, not from the
        # workers; both points diverge at this learning rate
        (["--margins=0", "--seeds", "0,1", *FAST_TRAIN], 2, [2, 4]),
    ],
    ids=["failing-point", "multi-seed", "zero-margin"],
)
def test_sweep_pool_output_matches_one_worker(tmp_path, monkeypatch, capfd,
                                              argv, expected_code, pooled_cpus):
    one = sweep_on_cpus(monkeypatch, capfd, 1, tmp_path / "one.csv", argv)
    assert one[0] == expected_code
    for cpus in pooled_cpus:
        assert sweep_on_cpus(monkeypatch, capfd, cpus, tmp_path / f"{cpus}.csv", argv) == one
    # a header, then one CSV row and one printed line per point
    assert one[1].count(b"\r\n") == 1 + len(one[2].splitlines()) + len(one[3].splitlines())


def spy_on_blas_env(monkeypatch):
    """Wrap ``cli._one_blas_thread``; the list gets the BLAS variables set inside it."""
    entered = []
    real = cli._one_blas_thread

    @contextmanager
    def spy():
        with real():
            entered.append({name: os.environ.get(name) for name in cli._BLAS_THREAD_VARS})
            yield

    monkeypatch.setattr(cli, "_one_blas_thread", spy)
    return entered


def test_pooled_sweep_leaves_environ_unchanged(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "")
    entered = spy_on_blas_env(monkeypatch)
    before = dict(os.environ)
    sigterm_handler = signal.getsignal(signal.SIGTERM)
    assert main(["sweep", "--margins=-8,-6", "--out", str(tmp_path / "s.csv"),
                 *FAST_TRAIN]) == 0
    assert dict(os.environ) == before
    assert signal.getsignal(signal.SIGTERM) is sigterm_handler
    # the pool started its workers with one BLAS thread each
    assert entered == [dict.fromkeys(cli._BLAS_THREAD_VARS, "1")]


def test_pooled_sweep_outside_the_main_thread(tmp_path, monkeypatch):
    # only the main thread can set a signal handler; the sweep runs without one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    entered = spy_on_blas_env(monkeypatch)
    codes = []
    argv = ["sweep", "--margins=-8,-6", "--out", str(tmp_path / "s.csv"), *FAST_TRAIN]
    thread = threading.Thread(target=lambda: codes.append(main(argv)))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert codes == [0]
    assert len(entered) == 1


def test_sweep_one_worker_runs_in_process(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    entered = spy_on_blas_env(monkeypatch)
    assert main(["sweep", "--margins=-8,-6", "--out", str(tmp_path / "s.csv"),
                 *FAST_TRAIN]) == 0
    assert entered == []


def test_sweep_value_error_in_a_worker_is_a_usage_error(tmp_path, monkeypatch, capfd):
    # empty validation splits pass the config checks; train()'s own check
    # refuses them in this process, before any worker starts
    argv = ["--margins=-8,-6", *FAST_TRAIN, "--val-per-class", "0"]
    entered = spy_on_blas_env(monkeypatch)
    one = sweep_on_cpus(monkeypatch, capfd, 1, tmp_path / "one.csv", argv)
    two = sweep_on_cpus(monkeypatch, capfd, 2, tmp_path / "two.csv", argv)
    assert one == two
    code, table, out, err = two
    assert (code, table, out) == (1, None, "")
    assert err == "error: training needs nonempty database and validation splits\n"
    assert entered == []


def test_center_momentum_out_of_range_leaves_nothing(tmp_path, monkeypatch, capfd):
    out_dir = tmp_path / "X"
    assert main(["train", "--classwise", "--center-momentum", "2", *FAST_TRAIN,
                 "--out-dir", str(out_dir)]) == 1
    assert not out_dir.exists()
    assert capfd.readouterr().err == "error: center_momentum must be in [0, 1]\n"
    # a sweep refuses it before any worker starts
    entered = spy_on_blas_env(monkeypatch)
    argv = ["--margins=-8,-6", "--classwise", "--center-momentum", "nan", *FAST_TRAIN]
    result = sweep_on_cpus(monkeypatch, capfd, 2, tmp_path / "new" / "s.csv", argv)
    assert result == (1, None, "", "error: center_momentum must be in [0, 1]\n")
    assert not (tmp_path / "new").exists()
    assert entered == []


def child_pids(pid):
    """Processes whose parent is ``pid``, read from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:  # exited meanwhile
                continue
            if int(fields[1]) == pid:
                found.append(int(entry))
    return found


def is_running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


# Runs the CLI as if two CPUs were available, so the sweep always pools.
_TWO_CPU_SWEEP = (
    "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
    "from hashbound.cli import main; sys.exit(main(sys.argv[1:]))"
)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_sigterm_ends_the_sweep_and_its_workers(tmp_path):
    argv = ["sweep", "--margins=-8,-6,-4,-2", *FAST_DATA, "--bits", "8",
            "--epochs", "100000", "--batch-size", "16", "--out", str(tmp_path / "s.csv")]
    proc = subprocess.Popen([sys.executable, "-c", _TWO_CPU_SWEEP, *argv],
                            env=_SUBPROCESS_ENV)
    children = []
    try:
        deadline = time.monotonic() + 60
        while len(child_pids(proc.pid)) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(1.0)  # every worker has started
        children = child_pids(proc.pid)
        assert len(children) >= 2
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 143
        deadline = time.monotonic() + 10
        while any(map(is_running, children)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in children if is_running(pid)] == []
        assert not (tmp_path / "s.csv").exists()
    finally:
        proc.kill()
        proc.wait()
        for pid in children:
            if is_running(pid):
                os.kill(pid, signal.SIGKILL)


def raise_value_error(splits, config):
    """Stands in for ``cli._sweep_point``: the point fails with a ValueError."""
    raise ValueError(f"no point at seed {config.seed}")


def test_sweep_value_error_raised_by_a_point(tmp_path, monkeypatch, capfd):
    # the pool pickles the function by name, so the workers run this one
    monkeypatch.setattr(cli, "_sweep_point", raise_value_error)
    argv = ["--margins=-8,-6", *FAST_TRAIN]
    one = sweep_on_cpus(monkeypatch, capfd, 1, tmp_path / "s.csv", argv)
    entered = spy_on_blas_env(monkeypatch)
    assert sweep_on_cpus(monkeypatch, capfd, 2, tmp_path / "s.csv", argv) == one
    assert len(entered) == 1
    assert one == (1, None, "", "error: no point at seed 0\n")


def die_abruptly(splits, config):
    """Stands in for ``cli._sweep_point``: the worker process ends without a result."""
    os._exit(3)


def test_sweep_worker_death_is_a_runtime_error(tmp_path, monkeypatch, capfd):
    # the pool pickles the function by name, so the workers run this one
    monkeypatch.setattr(cli, "_sweep_point", die_abruptly)
    code, table, out, err = sweep_on_cpus(monkeypatch, capfd, 2, tmp_path / "s.csv",
                                          ["--margins=-8,-6", *FAST_TRAIN])
    assert (code, table, out) == (2, None, "")
    assert err.startswith("error: a sweep worker process died: ")
    assert err.count("\n") == 1


def test_sweep_runs_in_process_when_free_memory_fits_one_worker(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal: 8000000 kB\nMemFree: 6000000 kB\nMemAvailable: 4 kB\n",
                       encoding="ascii")
    monkeypatch.setattr(cli, "_MEMINFO", str(meminfo))
    entered = spy_on_blas_env(monkeypatch)
    assert main(["sweep", "--margins=-8,-6", "--out", str(tmp_path / "s.csv"),
                 *FAST_TRAIN]) == 0
    assert entered == []


@pytest.mark.parametrize(
    "meminfo,available_kib",
    [
        ("MemTotal: 8000000 kB\nMemFree: 6000000 kB\nMemAvailable: 7000000 kB\n", 7000000),
        ("MemTotal: 8000000 kB\nMemFree: 6000000 kB\n", None),  # before Linux 3.14
        (None, None),  # no /proc
    ],
    ids=["MemAvailable", "no-MemAvailable", "no-meminfo"],
)
def test_available_memory_counts_reclaimable_cache(tmp_path, monkeypatch, meminfo,
                                                   available_kib):
    # MemAvailable when the kernel reports it, else the free pages alone
    path = tmp_path / "meminfo"
    if meminfo is not None:
        path.write_text(meminfo, encoding="ascii")
    monkeypatch.setattr(cli, "_MEMINFO", str(path))
    real_sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: 3 if name == "SC_AVPHYS_PAGES"
                        else real_sysconf(name))
    expected = (3 * real_sysconf("SC_PAGE_SIZE") if available_kib is None
                else available_kib * 1024)
    assert cli._available_memory() == expected


def test_sweep_memory_cap_ignores_the_inherited_peak(tmp_path, monkeypatch):
    # Linux carries ru_maxrss across exec, so a large launching process would
    # make this one look too large to run two workers
    import resource

    monkeypatch.setattr(resource, "getrusage",
                        lambda who: SimpleNamespace(ru_maxrss=2**50))  # KiB
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    entered = spy_on_blas_env(monkeypatch)
    assert main(["sweep", "--margins=-8,-6", "--out", str(tmp_path / "s.csv"),
                 *FAST_TRAIN]) == 0
    assert len(entered) == 1


@pytest.mark.parametrize(
    "command",
    [
        ["sweep", "--margins=-6", *FAST_TRAIN],
        ["gen-data", *FAST_DATA[:6]],
        ["bound", "--bits", "12", "--classes", "10"],
    ],
    ids=["sweep", "gen-data", "bound"],
)
def test_out_file_into_missing_directory(tmp_path, capsys, command):
    out = tmp_path / "new" / "dir" / "out.file"
    assert main([*command, "--out", str(out)]) == 0
    assert out.is_file()
    assert sorted(p.name for p in out.parent.iterdir()) == ["out.file"]



@pytest.mark.parametrize(
    "command,message",
    [
        (["gen-data", *FAST_DATA[:4], "--classes", "1"], "two classes"),
        (["sweep", "--margins=-7", *FAST_TRAIN], "parity"),
        (["sweep", "--margins=-8", *FAST_TRAIN, "--val-per-class", "0"],
         "nonempty database"),
        (["sweep", "--quant-weights", "0.1", *FAST_TRAIN, "--bits", "2", "--classes", "6"],
         "cannot place 6 distinct codewords"),
    ],
    ids=["gen-data", "sweep", "sweep-empty-validation", "sweep-too-few-codewords"],
)
def test_out_file_usage_error_creates_no_directory(tmp_path, capsys, command, message):
    out = tmp_path / "new" / "dir" / "out.file"
    assert main([*command, "--out", str(out)]) == 1
    assert not (tmp_path / "new").exists()
    assert message in capsys.readouterr().err

# --- config file ----------------------------------------------------------------------

def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bits": 16, "classes": 10}))
    assert main(["bound", "--config", str(config)]) == 0
    assert "negative margin:    -6" in capsys.readouterr().out
    # flags override the file
    assert main(["bound", "--config", str(config), "--bits", "12"]) == 0
    assert "negative margin:    -6" in capsys.readouterr().out
    assert main(["bound", "--config", str(config), "--classes", "100"]) == 0
    assert "negative margin:    2" in capsys.readouterr().out


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bits": 16, "classes": 10, "nonsense": 1}))
    assert main(["bound", "--config", str(config)]) == 1
    assert "nonsense" in capsys.readouterr().err


@pytest.mark.parametrize(
    "values,field",
    [
        ({"bits": 12, "classes": 10, "out": 5}, "out"),
        ({"bits": 12.5, "classes": 10}, "bits"),
        ({"bits": True, "classes": 10}, "bits"),
        ({"bits": "12", "classes": 10}, "bits"),
        ({"bits": 12, "classes": [10]}, "classes"),
        ({"bits": 12, "classes": 10, "command": "train"}, "command"),
    ],
)
def test_config_file_wrong_value_type(tmp_path, capsys, values, field):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    assert main(["bound", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert repr(field) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "values",
    [
        {"epochs": None},
        {"classwise": 1},
        {"lr": "0.1"},
        {"margin_override": -6.0},
    ],
)
def test_config_file_wrong_train_value_type(tmp_path, capsys, values):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    code = main(["train", "--config", str(config), "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert repr(next(iter(values))) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_file_typed_values_accepted(tmp_path):
    # an integer for a float flag, a bool for a switch, null for an unset flag
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "lr": 1, "classwise": True, "margin_override": None, "k": None,
        "out_dir": str(tmp_path / "run"),
    }))
    assert main(["train", "--config", str(config), *FAST_TRAIN]) == 0
    checkpoint = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
    assert checkpoint["config"]["classwise"] is True
    assert checkpoint["config"]["learning_rate"] == 1


def test_config_file_invalid_json(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{not json")
    assert main(["bound", "--config", str(config)]) == 1
    assert "JSON" in capsys.readouterr().err


def test_config_file_not_utf8(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xff\xfe{")
    assert main(["bound", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "is not valid JSON" in err and "Traceback" not in err
