"""Binary checkpoint files for named parameters.

Layout: magic "PTMF", format version u32, parameter count u32; then per
parameter: name length u32, UTF-8 name, rank u32, one u32 per extent, and the
row-major f64 little-endian payload. Round-trips are bit-exact.

Format version 2 stores each parameter in the layout its forward reads:
fused LSTM gates (W: D x 4H, U: H x 4H, b: 1 x 4H), Linear weights as
(d_in, d_out) and biases as (1, d). Version 1 files (per-gate LSTM tensors,
(d_out, d_in) Linear weights) are rejected, not converted.

The reader checks every length, rank and extent against the bytes left in
the file before reading, so a corrupt header fails with DataFormatError
without allocating the payload it claims. A payload holding NaN or Inf
also fails with DataFormatError, naming its parameter.
"""

from __future__ import annotations

import math
import os
import struct
from typing import Iterable

import numpy as np

from .autodiff import Parameter
from .dataio import atomic_write
from .errors import DataFormatError, ValidationError

MAGIC = b"PTMF"
VERSION = 2


def save_checkpoint(path, params: Iterable[Parameter]) -> None:
    params = list(params)
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate parameter names in checkpoint")
    with atomic_write(path, "wb") as fh:
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


def _read_exact(fh, n: int, end: int, path, what: str) -> bytes:
    buf = fh.read(n) if n <= end - fh.tell() else b""
    if len(buf) != n:
        raise DataFormatError(f"{path}: truncated checkpoint while reading {what}")
    return buf


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint into an ordered name -> f64 array mapping."""
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        magic = _read_exact(fh, 4, end, path, "magic")
        if magic != MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        version, count = struct.unpack("<II", _read_exact(fh, 8, end, path, "header"))
        if version != VERSION:
            raise DataFormatError(
                f"{path}: unsupported checkpoint version {version}; this build reads version {VERSION}")
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, end, path, "name length"))
            try:
                name = _read_exact(fh, name_len, end, path, "name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"{path}: parameter name is not valid UTF-8") from exc
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, end, path, "rank"))
            shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, end, path, "extents"))
            payload = _read_exact(fh, 8 * math.prod(shape), end, path, f"payload of {name!r}")
            arr = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
            if not np.all(np.isfinite(arr)):
                raise DataFormatError(f"{path}: parameter {name!r} holds non-finite values")
            if name in out:
                raise DataFormatError(f"{path}: duplicate parameter {name!r}")
            out[name] = arr
        if fh.read(1):
            raise DataFormatError(f"{path}: trailing bytes after {count} parameters")
    return out


def load_into(params: Iterable[Parameter], path) -> None:
    """Copy checkpoint arrays into a model's parameters in place, matching by name."""
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
        tensor.data[...] = arr
