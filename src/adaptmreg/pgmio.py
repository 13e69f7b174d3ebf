"""Minimal image file I/O: binary PGM (P5) and a raw float64 grid format.

PGM supports 8-bit and 16-bit samples (16-bit big endian per the format);
comments are preserved on read only. The grid format is two ASCII header
lines, "AMRGRID1" and "width height", followed by row-major little-endian
float64 samples; it round-trips real intensities losslessly.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = ["read_pgm", "write_pgm", "read_grid", "write_grid"]

GRID_MAGIC = b"AMRGRID1"


def _pgm_tokens(data: bytes):
    """Header tokens of a PGM file, skipping whitespace and # comments."""
    i = 0
    while True:
        while i < len(data) and data[i: i + 1].isspace():
            i += 1
        if i < len(data) and data[i: i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < len(data) and not data[i: i + 1].isspace():
            i += 1
        if start == i:
            raise ValidationError("truncated PGM header")
        yield data[start:i], i


def _header_int(token: bytes, what: str) -> int:
    """A header field written as unsigned ASCII decimal digits.

    More than 20 digits is refused too: int() rejects very long digit
    strings, and no raster is that large.
    """
    if not token.isdigit() or len(token) > 20:
        raise ValidationError(f"{what} must be a decimal integer of at most 20 digits, "
                              f"got {token[:32]!r}")
    return int(token)


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a binary PGM; returns (float array of shape (height, width), maxval)."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = _pgm_tokens(data)
    magic, _ = next(tokens)
    if magic != b"P5":
        raise ValidationError(f"unsupported PGM magic {magic!r} (binary P5 only)")
    width = _header_int(next(tokens)[0], "PGM width")
    height = _header_int(next(tokens)[0], "PGM height")
    token, end = next(tokens)
    maxval = _header_int(token, "PGM maxval")
    if not (0 < maxval < 65536):
        raise ValidationError(f"invalid PGM maxval {maxval}")
    # exactly one whitespace byte separates the header from the raster
    if end == len(data):
        raise ValidationError("truncated PGM header")
    raster = data[end + 1:]
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    need = width * height * dtype.itemsize
    if len(raster) < need:
        raise ValidationError("truncated PGM raster")
    pixels = np.frombuffer(raster[:need], dtype=dtype).astype(float)
    return pixels.reshape(height, width), maxval


def write_pgm(path, array: np.ndarray, maxval: int = 255) -> None:
    """Write a binary PGM, rounding and clipping samples into [0, maxval]."""
    arr = np.asarray(array, dtype=float)
    if arr.ndim != 2:
        raise ValidationError("image array must be 2-d")
    if not (0 < maxval < 65536):
        raise ValidationError(f"invalid PGM maxval {maxval}")
    # clipped in place: a second image-sized temporary set the peak RSS of a
    # 1024x1024 denoise, whose int32 sorts leave less freed memory to reuse
    quant = np.rint(arr)
    np.clip(quant, 0, maxval, out=quant)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(quant.astype(dtype).tobytes())


def read_grid(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != GRID_MAGIC:
            raise ValidationError(f"not a grid file: magic {magic!r}")
        line = fh.readline()
        dims = line.split()
        if len(dims) != 2 or not line.endswith(b"\n"):
            raise ValidationError("grid header must be one complete 'width height' line")
        width = _header_int(dims[0], "grid width")
        height = _header_int(dims[1], "grid height")
        # read what is there: a huge declared size must not size the buffer
        raw = fh.read()
    if len(raw) < width * height * 8:
        raise ValidationError("truncated grid payload")
    return np.frombuffer(raw, dtype="<f8", count=width * height).reshape(height, width).copy()


def write_grid(path, array: np.ndarray) -> None:
    arr = np.asarray(array, dtype=float)
    if arr.ndim != 2:
        raise ValidationError("grid array must be 2-d")
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC + b"\n")
        fh.write(f"{arr.shape[1]} {arr.shape[0]}\n".encode("ascii"))
        fh.write(arr.astype("<f8").tobytes())
