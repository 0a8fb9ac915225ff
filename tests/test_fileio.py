"""Atomic writes: a failed write leaves the previous file and no temporary behind."""

import os
import re
import stat

import numpy as np
import pytest

from robsurv import trainer
from robsurv.errors import OutputError
from robsurv.fileio import atomic_bytes, atomic_text, ensure_dir


def test_failed_write_keeps_previous_bytes(tmp_path):
    path = tmp_path / "out.txt"
    atomic_text(path, "previous\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_text(path, "\ud800")  # a lone surrogate cannot be encoded
    assert path.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_new_files_follow_the_umask(tmp_path):
    model = trainer.SurvivalModel.init(trainer.TrainConfig(), np.random.default_rng(0),
                                       np.arange(1.0, 10.0))
    old = os.umask(0o022)
    try:
        atomic_bytes(tmp_path / "a.bin", [b"x"])
        atomic_text(tmp_path / "b.txt", "x")
        model.save(tmp_path / "model.json")
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {"a.bin": 0o644, "b.txt": 0o644, "model.json": 0o644}


def test_unwritable_outputs_raise_output_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_bytes(b"keep")
    for target in (blocker, blocker / "sub"):
        with pytest.raises(OutputError, match=re.escape(str(target))):
            ensure_dir(target)
    with pytest.raises(OutputError, match=re.escape(str(blocker / "x.txt"))):
        atomic_text(blocker / "x.txt", "x")  # parent is not a directory
    (tmp_path / "dir").mkdir()
    with pytest.raises(OutputError, match=re.escape(str(tmp_path / "dir"))):
        atomic_text(tmp_path / "dir", "x")  # os.replace onto a directory
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert blocker.read_bytes() == b"keep"
