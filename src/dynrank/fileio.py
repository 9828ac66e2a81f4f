"""Atomic file writes: a reader of the path sees the old content or the
new content, never a partly written file."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing (text as UTF-8).

    When the block ends normally the temporary file replaces ``path`` in one
    ``os.replace``. When the block raises, the temporary file is removed and
    ``path`` keeps what it held before.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
