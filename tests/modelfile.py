"""An independent reader and writer of the model file layout (safetensors),
built from ``struct`` and ``json`` alone.  Tests compare ``save``'s bytes
with ``reference_file`` and damage saved files one field at a time.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from robsurv import trainer


def pack(header, buffer: bytes) -> bytes:
    """u64 little-endian header length, header JSON padded with spaces to a
    multiple of 8, then the buffer."""
    text = json.dumps(header, sort_keys=True).encode()
    text += b" " * (-len(text) % 8)
    return struct.pack("<Q", len(text)) + text + buffer


def lay_out(arrays: dict) -> tuple[dict, bytes]:
    """Header entries and buffer for ``arrays``, back to back in sorted-name order."""
    entries, chunks, offset = {}, [], 0
    for name in sorted(arrays):
        array = np.asarray(arrays[name], dtype="<f8")
        raw = array.tobytes()
        entries[name] = {"dtype": "F64", "shape": list(array.shape),
                         "data_offsets": [offset, offset + len(raw)]}
        chunks.append(raw)
        offset += len(raw)
    return entries, b"".join(chunks)


def reference_file(model) -> bytes:
    """What ``save`` must write for ``model``."""
    header, buffer = lay_out({k: v.data for k, v in model.params.items()})
    header["__metadata__"] = {
        "format_version": "3",
        "config": json.dumps(trainer.config_to_dict(model.config), sort_keys=True),
        "bin_edges": json.dumps([float(e) for e in model.bin_edges]),
        "sha256": hashlib.sha256(buffer).hexdigest(),
    }
    return pack(header, buffer)


@dataclass
class ModelFile:
    """A parsed model file to edit: the header object and the raw buffer."""

    header: dict
    buffer: bytes

    @classmethod
    def read(cls, path) -> "ModelFile":
        data = Path(path).read_bytes()
        (size,) = struct.unpack_from("<Q", data)
        return cls(json.loads(data[8:8 + size]), data[8 + size:])

    def write(self, path) -> None:
        Path(path).write_bytes(pack(self.header, self.buffer))

    @property
    def meta(self) -> dict:
        return self.header["__metadata__"]

    def config(self) -> dict:
        return json.loads(self.meta["config"])

    def edit_config(self, edit) -> None:
        config = self.config()
        edit(config)
        self.meta["config"] = json.dumps(config, sort_keys=True)

    def arrays(self) -> dict:
        arrays = {}
        for name, entry in self.header.items():
            if name != "__metadata__":
                begin, _ = entry["data_offsets"]
                count = math.prod(entry["shape"])
                arrays[name] = np.frombuffer(self.buffer, "<f8", count, begin).reshape(
                    entry["shape"])
        return arrays

    def reseal(self) -> None:
        """Recompute the checksum, so that an edit leaves exactly one fault."""
        self.meta["sha256"] = hashlib.sha256(self.buffer).hexdigest()

    def set_arrays(self, arrays: dict) -> None:
        """Lay ``arrays`` out afresh, keeping the metadata, and reseal."""
        entries, self.buffer = lay_out(arrays)
        self.header = {"__metadata__": self.meta, **entries}
        self.reseal()
