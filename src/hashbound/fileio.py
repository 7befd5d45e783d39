"""Atomic file writes: a sibling temporary file renamed over the target.

Every artifact the package writes (checkpoints, reports, precision curves,
histories, splits, sweep tables, feature CSVs, HMX1 code files) goes through
``atomic_open``, so a reader never sees a half-written file and a write
that fails midway leaves the previous file as it was.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

__all__ = ["atomic_open"]


@contextmanager
def atomic_open(path, binary: bool = False):
    """Open a file for writing that replaces ``path`` only on success.

    Text mode leaves newlines untranslated (``newline=""``), so the bytes
    do not depend on the platform; ``binary=True`` opens it in ``"wb"`` mode.

    The data goes to a temporary file in the same directory, which
    ``os.replace`` renames over ``path`` when the block exits normally.  If
    the block raises, the temporary file is removed and the error re-raised.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
