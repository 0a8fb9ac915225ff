"""Atomic writes: a failed write leaves the previous file and no temporary behind."""

import pytest

from robsurv.fileio import atomic_text


def test_failed_write_keeps_previous_bytes(tmp_path):
    path = tmp_path / "out.txt"
    atomic_text(path, "previous\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_text(path, "\ud800")  # a lone surrogate cannot be encoded
    assert path.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
