"""Binary checkpoint files for named parameters.

Layout: magic "PTMF", format version u32, parameter count u32; then per
parameter: name length u32, UTF-8 name, rank u32, one u32 per extent, and the
row-major f64 little-endian payload. Round-trips are bit-exact.
"""

from __future__ import annotations

import struct
from typing import Iterable

import numpy as np

from .autodiff import Parameter
from .errors import DataFormatError, ValidationError

MAGIC = b"PTMF"
VERSION = 1


def save_checkpoint(path, params: Iterable[Parameter]) -> None:
    params = list(params)
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate parameter names in checkpoint")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(params)))
        for name, tensor in params:
            raw = name.encode("utf-8")
            arr = np.ascontiguousarray(tensor.data, dtype="<f8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes(order="C"))


def _read_exact(fh, n: int, path, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise DataFormatError(f"{path}: truncated checkpoint while reading {what}")
    return buf


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint into an ordered name -> f64 array mapping."""
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, path, "magic")
        if magic != MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        version, count = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
        if version != VERSION:
            raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, path, "name length"))
            name = _read_exact(fh, name_len, path, "name").decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, path, "rank"))
            shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, path, "extents"))
            n = int(np.prod(shape, dtype=np.int64)) if rank else 1
            payload = _read_exact(fh, 8 * n, path, f"payload of {name!r}")
            arr = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
            if name in out:
                raise DataFormatError(f"{path}: duplicate parameter {name!r}")
            out[name] = arr
        if fh.read(1):
            raise DataFormatError(f"{path}: trailing bytes after {count} parameters")
    return out


def load_into(params: Iterable[Parameter], path) -> None:
    """Assign checkpoint arrays onto a model's parameters, matching by name."""
    stored = load_checkpoint(path)
    params = list(params)
    names = {p.name for p in params}
    missing = sorted(names - stored.keys())
    extra = sorted(stored.keys() - names)
    if missing or extra:
        raise ValidationError(f"checkpoint/model parameter mismatch: missing={missing} extra={extra}")
    for name, tensor in params:
        arr = stored[name]
        if arr.shape != tensor.shape:
            raise ValidationError(f"parameter {name!r}: checkpoint shape {arr.shape} vs model {tensor.shape}")
        tensor.data = arr
