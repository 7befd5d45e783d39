"""CLI contracts: subcommands, exit codes, config files, reproducibility."""

import csv
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hashbound.encoder as encoder_module
from hashbound import cli, evaluation
from hashbound.cli import main
from hashbound.data import SplitSpec, generate_synthetic, load_csv, split_dataset
from hashbound.encoder import TrainConfig, init_params, save_checkpoint
from hashbound.prng import Xorshift64Star

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
    [
        (12, 10, -6), (16, 10, -6), (48, 100, -18),
        (4096, 100, -3802),  # the longest --bits, bounds.MAX_CODE_BITS
    ],
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


HUGE = str(10**30)


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["bound", "--bits", HUGE, "--classes", "10"], "--bits"),
        (["bound", "--bits", "100000", "--classes", "10"], "--bits"),
        (["train", "--bits", HUGE, *FAST_DATA], "--bits"),
        (["sweep", "--margins=-4", "--bits", HUGE, *FAST_DATA], "--bits"),
        (["train", "--hidden", HUGE, *FAST_DATA], "--hidden"),
    ],
    ids=["bound", "bound-100000", "train", "sweep", "train-hidden"],
)
def test_huge_code_length_or_hidden_width_is_a_usage_error(tmp_path, argv, flag):
    # refused before any 2**L or weight matrix is formed: exit 1 at once
    out = tmp_path / "out"
    target = ["--out-dir", str(out)] if argv[0] == "train" else ["--out", str(out)]
    result = subprocess.run(
        [sys.executable, "-m", "hashbound", *argv, *target],
        capture_output=True, text=True, env=_SUBPROCESS_ENV, timeout=30,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith("error: ") and flag in line
    assert not out.exists()


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


def test_train_write_failing_midway_keeps_the_old_outputs(tmp_path, monkeypatch, capsys):
    out_dir, new_dir = tmp_path / "run", tmp_path / "new"
    rerun = ["--seed", "1", "--split-seed", "1"]
    assert run_train(out_dir) == 0
    assert run_train(new_dir, rerun) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    new = {p.name: p.read_bytes() for p in new_dir.iterdir()}
    real_dumps = json.dumps

    def dumps_failing_on_splits(doc, *args, **kwargs):
        if "database" in doc:  # the splits.json document
            raise OSError("disk full")
        return real_dumps(doc, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps_failing_on_splits)
    assert run_train(out_dir, rerun) == 2
    assert "disk full" in capsys.readouterr().err
    # checkpoint.json and history.csv were written before the failing
    # splits.json; the rest are the previous run's bytes, and no temp is left
    after = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert sorted(after) == sorted(before)
    for name in ("checkpoint.json", "history.csv"):
        assert after[name] == new[name] != before[name], name
    for name in ("splits.json", "report.json", "precision_curve.csv"):
        assert after[name] == before[name] != new[name], name


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
    # the --out-dir is made once training has returned, as eval makes its own
    assert not out_dir.exists()


def train_forbidden(*args, **kwargs):
    raise AssertionError("train() or train_points() was called")


def data_forbidden(*args, **kwargs):
    raise AssertionError("the dataset was loaded")


@pytest.mark.parametrize("under", [False, True], ids=["is-a-file", "under-a-file"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_out_dir_on_an_existing_file_is_refused_before_loading_data(
    tmp_path, monkeypatch, capfd, command, under
):
    checkpoint = tmp_path / "checkpoint.json"
    save_checkpoint(checkpoint, init_params(8, 4, 8, seed=0), TrainConfig(code_bits=8),
                    epoch=0)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out_dir = blocker / "run" if under else blocker
    monkeypatch.setattr(cli, "train", train_forbidden)
    monkeypatch.setattr(cli, "generate_synthetic", data_forbidden)
    argv = {"train": ["train", *FAST_TRAIN],
            "eval": ["eval", "--checkpoint", str(checkpoint), *FAST_DATA]}[command]
    assert main([*argv, "--out-dir", str(out_dir)]) == 2
    assert capfd.readouterr() == (
        "", f"error: --out-dir {out_dir}: {blocker} is not a directory\n"
    )
    assert blocker.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.json", "file"]


# Where each command writes: train an --out-dir, sweep an --out CSV.
OUTPUTS = {"train": ["--out-dir", "run"], "sweep": ["--margins=-8,-6", "--out", "s.csv"]}


@pytest.mark.parametrize("command", OUTPUTS)
def test_empty_query_split_is_refused_before_training(tmp_path, monkeypatch, capfd,
                                                      command):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "train", train_forbidden)
    monkeypatch.setattr(cli, "train_points", train_forbidden)
    assert main([command, *OUTPUTS[command], *FAST_TRAIN, "--query-per-class", "0"]) == 1
    assert list(tmp_path.iterdir()) == []
    assert capfd.readouterr() == (
        "", "error: --query-per-class must be >= 1: MAP needs a nonempty query split\n"
    )


@pytest.mark.parametrize("message", ["Unable to allocate 44.7 GiB for an array", ""],
                         ids=["numpy", "bare"])
@pytest.mark.parametrize("command", OUTPUTS)
def test_out_of_memory_is_a_runtime_failure(tmp_path, monkeypatch, capfd, command,
                                            message):
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "train", out_of_memory)
    monkeypatch.setattr(cli, "train_points", out_of_memory)
    assert main([command, *OUTPUTS[command], *FAST_TRAIN]) == 2
    assert capfd.readouterr() == ("", f"error: {message or 'MemoryError'}\n")
    assert list(tmp_path.iterdir()) == []


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


def test_eval_reads_a_checkpoint_with_the_class_center_config_keys(tmp_path):
    # checkpoints written while train had a class-center mode hold two more
    # config keys, which eval ignores as it ignores the rest of the config
    assert run_train(tmp_path / "run") == 0
    doc = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
    assert "classwise" not in doc["config"] and "center_momentum" not in doc["config"]
    config = {}
    for key, value in doc["config"].items():  # in the order those checkpoints hold
        if key == "margin_override":
            config["classwise"] = False
        config[key] = value
    config["center_momentum"] = 0.9
    checkpoint = tmp_path / "checkpoint.json"
    outputs = {}
    for name, version in (("old", {**doc, "config": config}), ("new", doc)):
        checkpoint.write_text(json.dumps(version, indent=1) + "\n")
        assert main(["eval", "--checkpoint", str(checkpoint), "--k", "10",
                     "--out-dir", str(tmp_path / name), *FAST_DATA]) == 0
        report = json.loads((tmp_path / name / "report.json").read_text())
        report["metadata"].pop("created_at")
        outputs[name] = report, (tmp_path / name / "precision_curve.csv").read_bytes()
    assert outputs["old"] == outputs["new"]


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
    {"input_dim": 1, "hidden_dim": 2, "code_bits": 1, "hidden_weights": [0, 0],
     "hidden_bias": [0, 0], "output_weights": [0, 0], "output_bias": [10**400]},
], ids=["list", "string-dim", "huge-int"])
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


def test_no_command_imports_numpy_ma(tmp_path):
    # a bare np.unique imports numpy.ma on numpy 2.4, some 15 ms per process
    fast = [*FAST_TRAIN, "--lr", "0.01"]
    run = tmp_path / "run"
    commands = [
        ["train", "--out-dir", str(run), *fast],
        ["sweep", "--margins=-8,-6", "--out", str(tmp_path / "sweep.csv"), *fast],
        ["eval", "--checkpoint", str(run / "checkpoint.json"),
         "--out-dir", str(tmp_path / "eval"), *FAST_DATA],
    ]
    script = (
        "import sys\n"
        "from hashbound.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=_SUBPROCESS_ENV)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "eval" / "report.json").exists()


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


@pytest.mark.parametrize(
    "flags",
    [["--center-scale", "nan"], ["--noise-sigma", "inf"], ["--noise-sigma", "-1"]],
    ids=["center-scale-nan", "noise-sigma-inf", "noise-sigma-negative"],
)
@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_synthetic_data_flags_must_be_finite(tmp_path, capsys, command, flags):
    new = tmp_path / "new"
    argv = {"gen-data": ["gen-data", *FAST_DATA[:6], "--out", str(new / "data.csv")],
            "train": ["train", *FAST_TRAIN, "--out-dir", str(new)]}[command]
    assert main([*argv, *flags]) == 1
    # the message names both flags, and nothing is written
    assert capsys.readouterr().err == (
        "error: center_scale and noise_sigma must be finite and >= 0\n"
    )
    assert not new.exists()


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
    calls = {"mean_average_precision": 0, "stacked_scores": 0, "pack_sign_rows": 0}

    def spy_on(module, name):
        real = getattr(module, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    spy_on(cli, "mean_average_precision")
    spy_on(evaluation, "stacked_scores")
    spy_on(encoder_module, "pack_sign_rows")
    dataset = generate_synthetic(num_classes=4, per_class=30, dim=8, seed=0)
    splits = split_dataset(dataset, SplitSpec(4, 15, 4), seed=0)
    configs = [TrainConfig(code_bits=8, epochs=3, batch_size=16, margin_override=m)
               for m in (-8, -6)]
    orders = encoder_module._epoch_orders(0, len(splits.train), 3)
    results = cli._sweep_stack(splits, configs, orders)
    assert [type(result) for result in results] == [float, float]
    # per point, one ranking of the query codes against the database codes,
    # packed once each
    assert calls == {"mean_average_precision": 2, "stacked_scores": 0, "pack_sign_rows": 4}


@pytest.mark.parametrize(
    "zero_margin,other_margin",
    [
        (["train", "--margin-override", "0"], ["train", "--margin-override", "-2"]),
        (["sweep", "--margins=0,-2,0", "--seeds", "0,1"], ["sweep", "--margins=-2"]),
    ],
    ids=["train", "sweep"],
)
def test_zero_negative_margin_warns_once_per_command(tmp_path, caplog,
                                                     zero_margin, other_margin):
    out = {"train": ["--out-dir", str(tmp_path / "run")],
           "sweep": ["--out", str(tmp_path / "s.csv")]}[zero_margin[0]]
    for argv, expected in ((zero_margin, 1), (zero_margin, 1), (other_margin, 0)):
        caplog.clear()
        assert main([*argv, *out, *FAST_TRAIN, "--lr", "0.01"]) == 0
        warnings = [r for r in caplog.records if "unit denominator" in r.message]
        assert [r.levelname for r in warnings] == ["WARNING"] * expected


def run_sweep(capfd, out, argv):
    """Run a sweep: its exit code, CSV bytes (None if not written), stdout, stderr."""
    code = main(["sweep", *argv, "--out", str(out)])
    captured = capfd.readouterr()
    return code, out.read_bytes() if out.exists() else None, captured.out, captured.err


def train_in_this_process(splits, configs, orders):
    """Stands in for ``cli._sweep_stack``: the id of the process that trains each point."""
    return [float(os.getpid())] * len(configs)


def test_sweep_trains_every_point_in_process(tmp_path, monkeypatch, capfd):
    # more CPUs than points: the points still train here, in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(cli, "_sweep_stack", train_in_this_process)
    code, table, out, err = run_sweep(capfd, tmp_path / "s.csv",
                                      ["--margins=-8,-6,-4", *FAST_TRAIN])
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in table.decode().splitlines()[1:]]
    assert [(row[1], float(row[3])) for row in rows] == [
        (value, os.getpid()) for value in ("-8", "-6", "-4")
    ]
    # one printed line per point, in the order of the points
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"negative_margin={value} seed=0" for value in (-8, -6, -4)
    ]


def test_sweep_draws_each_seeds_shuffles_once(tmp_path, monkeypatch, capfd):
    draws = []
    real = Xorshift64Star.permutations

    def spy(self, n, count):
        draws.append((n, count))
        return real(self, n, count)

    monkeypatch.setattr(Xorshift64Star, "permutations", spy)
    code, table, _, _ = run_sweep(capfd, tmp_path / "s.csv",
                                  ["--margins=-8,-6,-4", "--seeds", "0,1", *FAST_TRAIN])
    assert code == 0 and len(table.decode().splitlines()) == 1 + 6
    # one draw of the 3 epochs' shuffles of the 60 train rows per seed, not
    # one per point; the splits draw one permutation at a time
    assert [draw for draw in draws if draw[1] != 1] == [(4 * 15, 3)] * 2


def spy_on_stacks(monkeypatch, capfd, calls):
    """Record each ``train_points`` call as (seed, points, stdout lines printed
    before it); returns the stdout and stderr that the spy took from ``capfd``."""
    real = cli.train_points
    taken = {"out": "", "err": ""}

    def spy(splits, configs, orders):
        captured = capfd.readouterr()
        taken["out"] += captured.out
        taken["err"] += captured.err
        calls.append((configs[0].seed, len(configs), len(taken["out"].splitlines())))
        return real(splits, configs, orders)

    monkeypatch.setattr(cli, "train_points", spy)
    return taken


@pytest.mark.parametrize(
    "stack_pairs,sizes",
    [
        (16**2, [1] * 5),  # one point per stack: each point trained alone
        (2 * 16**2, [2, 2, 1]),  # the last stack smaller than the rest
        (4 * 16**2, [3, 2]),
        (2**14, [5]),  # 64 points at batch 16
    ],
    ids=["stacks-of-1", "2-2-1", "3-2", "one-stack"],
)
@pytest.mark.parametrize("lr", ["0.01", "0.2"], ids=["trains", "three-diverge"])
def test_sweep_stacks_each_seeds_points(tmp_path, monkeypatch, capfd, stack_pairs, sizes,
                                        lr):
    # 5 margins x seeds 0 and 1, at batch 16: each seed's points split into
    # the fewest stacks of at most _STACK_PAIRS // 16**2, of near-equal sizes.
    # Every stacking gives the bytes of the one-point stacks, so of points
    # trained alone; at lr 0.2 points diverge mid-stack.
    argv = ["--margins=-8,-6,-4,-2,0", "--seeds", "0,1", *FAST_TRAIN, "--lr", lr]
    monkeypatch.setattr(cli, "_STACK_PAIRS", 16**2)
    alone = run_sweep(capfd, tmp_path / "alone.csv", argv)
    monkeypatch.setattr(cli, "_STACK_PAIRS", stack_pairs)
    calls = []
    taken = spy_on_stacks(monkeypatch, capfd, calls)
    code, table, out, err = run_sweep(capfd, tmp_path / "stacked.csv", argv)
    assert [(seed, size) for seed, size, _ in calls] == [
        (seed, size) for seed in (0, 1) for size in sizes
    ]
    assert (code, table, taken["out"] + out, taken["err"] + err) == alone
    assert code == (0 if lr == "0.01" else 2)
    # the rows, and the printed lines, in value-major order
    rows = [line.split(",")[:3] for line in table.decode().splitlines()[1:]]
    assert rows == [["negative_margin", str(v), str(s)] for v in (-8, -6, -4, -2, 0)
                    for s in (0, 1)]


def test_sweep_prints_a_stacks_lines_once_every_earlier_point_is_done(
    tmp_path, monkeypatch, capfd
):
    # points (-8, 0), (-8, 1), (-6, 0), (-6, 1), (-4, 0), (-4, 1): seed 0's
    # stack ends with only the first point printable, seed 1's with all
    calls = []
    taken = spy_on_stacks(monkeypatch, capfd, calls)
    code, _, out, err = run_sweep(capfd, tmp_path / "s.csv",
                                  ["--margins=-8,-6,-4", "--seeds", "0,1", *FAST_TRAIN])
    assert (code, taken["err"] + err) == (0, "")
    assert [(seed, before) for seed, _, before in calls] == [(0, 0), (1, 1)]
    assert [line.split(":")[0] for line in (taken["out"] + out).splitlines()] == [
        f"negative_margin={v} seed={s}" for v in (-8, -6, -4) for s in (0, 1)
    ]


@pytest.mark.parametrize("batch_size", [64, 256])
def test_sweep_stack_memory_stays_bounded(tmp_path, monkeypatch, capfd, batch_size):
    # 9 points at the desk size: at batch 64 they train as three stacks of
    # 3, whose peak stays within 1.5x a one-point sweep's; from batch 79 on a
    # stack holds one point
    import tracemalloc

    argv = ["--classes", "10", "--per-class", "100", "--dim", "32", "--bits", "12",
            "--epochs", "2", "--batch-size", str(batch_size)]
    calls = []
    spy_on_stacks(monkeypatch, capfd, calls)
    peaks = []
    for margins in ("-6", "-6", "-12,-10,-8,-6,-4,-2,0,2,4"):  # the first one warms up
        calls.clear()
        tracemalloc.start()
        try:
            assert run_sweep(capfd, tmp_path / "s.csv", [f"--margins={margins}", *argv])[0] == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert [size for _, size, _ in calls] == ([3, 3, 3] if batch_size == 64 else [1] * 9)
    if batch_size == 64:
        assert peaks[2] <= 1.5 * peaks[1], peaks


def test_sweep_point_diverging_in_its_first_epoch(tmp_path, capfd):
    argv = ["--margins=-8,-6", "--seeds", "0,3", *FAST_TRAIN, "--lr", "1e6"]
    first = run_sweep(capfd, tmp_path / "first.csv", argv)
    again = run_sweep(capfd, tmp_path / "again.csv", argv)
    assert first == again
    code, table, out, err = first
    points = [(margin, seed) for margin in (-8, -6) for seed in (0, 3)]
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"negative_margin={margin} seed={seed}: non-finite loss at epoch 1; "
        "the learning rate is likely too high"
        for margin, seed in points
    ]
    assert table.decode().splitlines()[1:] == [
        f"negative_margin,{margin},{seed},,failed,{margin == -6}" for margin, seed in points
    ]


def test_sweep_value_error_in_a_worker_is_a_usage_error(tmp_path, capfd):
    # empty validation splits pass the config checks; train()'s own check
    # refuses them before the first point trains
    argv = ["--margins=-8,-6", *FAST_TRAIN, "--val-per-class", "0"]
    assert run_sweep(capfd, tmp_path / "s.csv", argv) == (
        1, None, "", "error: training needs nonempty database and validation splits\n"
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (["train", "--classwise", *OUTPUTS["train"]], "unrecognized arguments: --classwise"),
        (["train", "--center-momentum", "0.5", *OUTPUTS["train"]],
         "unrecognized arguments: --center-momentum 0.5"),
        (["sweep", "--classwise", *OUTPUTS["sweep"]], "unrecognized arguments: --classwise"),
        (["train", "--config", "config.json", *OUTPUTS["train"]],
         "config file config.json: unknown field 'classwise'"),
    ],
    ids=["train-classwise", "train-center-momentum", "sweep-classwise", "config-file"],
)
def test_class_center_training_options_are_usage_errors(tmp_path, monkeypatch, capfd,
                                                        argv, message):
    # the class-center training mode and its center momentum are gone
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "train", train_forbidden)
    monkeypatch.setattr(cli, "train_points", train_forbidden)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"classwise": True}))
    assert main([*argv, *FAST_TRAIN]) == 1
    assert capfd.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == [config]


def test_sigterm_ends_the_sweep_and_its_workers(tmp_path):
    # the sweep has no workers and no handler: the signal ends it, mid-training
    argv = ["sweep", "--margins=-8,-6,-4,-2", *FAST_DATA, "--bits", "8",
            "--epochs", "20000", "--batch-size", "16", "--out", str(tmp_path / "s.csv")]
    proc = subprocess.Popen([sys.executable, "-m", "hashbound", *argv],
                            env=_SUBPROCESS_ENV)
    try:
        # past the imports and about 0.2 s of shuffle draws, into the first
        # point, which trains for 5 s or more
        time.sleep(2.0)
        assert proc.poll() is None
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == -signal.SIGTERM
        # no table, and no temporary file of one
        assert list(tmp_path.iterdir()) == []
    finally:
        proc.kill()
        proc.wait()


def raise_value_error(splits, configs, orders):
    """Stands in for ``cli._sweep_stack``: the stack fails with a ValueError."""
    raise ValueError(f"no point at seed {configs[0].seed}")


def test_sweep_value_error_raised_by_a_point(tmp_path, monkeypatch, capfd):
    monkeypatch.setattr(cli, "_sweep_stack", raise_value_error)
    result = run_sweep(capfd, tmp_path / "s.csv", ["--margins=-8,-6", *FAST_TRAIN])
    assert result == (1, None, "", "error: no point at seed 0\n")


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
        # ints too large for a float are not numbers (train's float fields)
        ({"lr": 10**400}, "lr"),
        ({"center_scale": 10**400}, "center_scale"),
        ({"noise_sigma": -(10**400)}, "noise_sigma"),
        ({"quant_weight": 10**400}, "quant_weight"),
    ],
)
def test_config_file_wrong_value_type(tmp_path, capsys, values, field):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    out_dir = tmp_path / "o"
    command = ["bound"] if "bits" in values else ["train", "--out-dir", str(out_dir)]
    assert main([*command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert repr(field) in err and "Traceback" not in err
    assert err.count("\n") == 1
    if "bits" not in values:
        assert f"must be a number, got {values[field]!r}" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "values",
    [
        {"epochs": None},
        {"classwise": 1},  # no longer a flag: refused as an unknown field
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
    # an integer for a float flag, null for an unset flag
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "momentum": 0, "margin_override": None, "k": None, "out_dir": str(tmp_path / "run"),
    }))
    assert main(["train", "--config", str(config), *FAST_TRAIN]) == 0
    checkpoint = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
    assert checkpoint["config"]["momentum"] == 0
    assert checkpoint["config"]["margin_override"] is None


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
