"""Atomic writes, and the two text formats of the artifacts.

A write that fails midway keeps the old file and leaves no temp file.  JSON
is indented by one space, CSV lines end in CRLF.
"""

import pytest

from hashbound import fileio
from hashbound.encoder import TrainConfig, init_params, save_checkpoint
from hashbound.fileio import atomic_open, write_csv, write_json


def names(directory):
    return sorted(p.name for p in directory.iterdir())


def test_atomic_open_replaces_the_file_on_success(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with atomic_open(path) as fh:
        fh.write("new\n")
        assert path.read_text() == "old\n"  # the new bytes land only at the end
    assert path.read_text() == "new\n"
    assert names(tmp_path) == ["out.txt"]


def test_atomic_open_keeps_newline_mode(tmp_path):
    path = tmp_path / "rows.csv"
    with atomic_open(path) as fh:
        fh.write("a\r\nb\n")
    assert path.read_bytes() == b"a\r\nb\n"


def test_atomic_open_failure_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    for target in (path, tmp_path / "new.txt"):
        with pytest.raises(RuntimeError, match="midway"):
            with atomic_open(target) as fh:
                fh.write("half a")
                raise RuntimeError("midway")
    assert path.read_text() == "old\n"
    assert names(tmp_path) == ["out.txt"]  # no new.txt and no temp file


def test_artifact_text_formats(tmp_path):
    write_json(tmp_path / "doc.json", {"a": [1, 2.5], "b": None})
    assert (tmp_path / "doc.json").read_bytes() == (
        b'{\n "a": [\n  1,\n  2.5\n ],\n "b": null\n}\n'
    )
    write_csv(tmp_path / "table.csv", ["k", "v"], ([k, repr(k / 4)] for k in range(2)))
    assert (tmp_path / "table.csv").read_bytes() == b"k,v\r\n0,0.0\r\n1,0.25\r\n"
    assert names(tmp_path) == ["doc.json", "table.csv"]


def test_checkpoint_write_failing_midway_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.json"
    config = TrainConfig(code_bits=8, seed=1, epochs=3)
    save_checkpoint(path, init_params(6, 10, 8, seed=1), config, epoch=3)
    before = path.read_bytes()

    class HalfWrite:
        """A text handle whose write puts down 200 characters, then fails."""

        def __init__(self, fh):
            self._fh = fh

        def write(self, text):
            self._fh.write(text[:200])
            raise OSError("disk full")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self._fh.__exit__(*exc)

    monkeypatch.setattr(
        fileio, "open", lambda *args, **kwargs: HalfWrite(open(*args, **kwargs)),
        raising=False,
    )
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, init_params(6, 10, 8, seed=2), config, epoch=3)
    assert path.read_bytes() == before
    assert names(tmp_path) == ["checkpoint.json"]
