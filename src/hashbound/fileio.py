"""Atomic file writes: a sibling temporary file renamed over the target.

Every artifact the package writes (checkpoints, reports, precision curves,
histories, splits, sweep tables, feature CSVs) is text and goes through
``atomic_open``, so a reader never sees a half-written file and a write
that fails midway leaves the previous file as it was.  ``write_json`` and
``write_csv`` own the two text formats of those artifacts.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path

__all__ = ["atomic_open", "write_json", "write_csv"]


@contextmanager
def atomic_open(path):
    """Open a UTF-8 text file for writing that replaces ``path`` only on success.

    Newlines are left untranslated (``newline=""``), so the bytes do not
    depend on the platform or the locale.

    The data goes to a temporary file in the same directory, which
    ``os.replace`` renames over ``path`` when the block exits normally.  If
    the block raises, the temporary file is removed and the error re-raised.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc) -> None:
    """Write ``doc`` as JSON indented by one space, with a final newline."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


def write_csv(path, header: list[str], rows) -> None:
    """Write a CSV of ``header`` and then ``rows``, each line ending in CRLF."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
