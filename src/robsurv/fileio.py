"""Atomic file writes so re-runs never leave partial outputs behind.

An ``OSError`` from creating or writing an output becomes ``OutputError``
naming the path.
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import OutputError


def ensure_dir(path) -> Path:
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise OutputError(f"cannot create output directory {path}: {err.strerror}") from None
    return path


def atomic_bytes(path, chunks) -> None:
    """Write the byte strings in ``chunks`` to ``path`` via a temporary file
    in the same directory, never joining them into one copy."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "xb")  # mode 0o666 less the umask, as for any new file
        try:
            with fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as err:
        raise OutputError(f"cannot write {path}: {err.strerror}") from None


def atomic_text(path, text: str) -> None:
    atomic_bytes(path, [text.encode()])
