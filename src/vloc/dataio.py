"""Shared on-disk formats: binary PGM images, raw float arrays, TUM
trajectories and comma-separated tables. All text is plain ASCII; all
binary is little-endian."""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from .errors import FormatError
from .geometry import Pose, fmt17


def write_pgm(path, image: np.ndarray) -> None:
    """8-bit grayscale binary PGM (P5)."""
    img = np.asarray(image)
    if img.dtype != np.uint8 or img.ndim != 2:
        raise ValueError("PGM writer expects a 2-D uint8 array")
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        f.write(img.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    try:
        if not data.startswith(b"P5"):
            raise ValueError("not a P5 PGM")
        # header: magic, width, height, maxval, separated by whitespace
        fields = []
        pos = 2
        while len(fields) < 3:
            while pos < len(data) and data[pos : pos + 1].isspace():
                pos += 1
            if data[pos : pos + 1] == b"#":
                while pos < len(data) and data[pos] != 0x0A:
                    pos += 1
                continue
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            fields.append(int(data[start:pos]))
        pos += 1
        width, height, maxval = fields
        if maxval != 255:
            raise ValueError(f"unsupported maxval {maxval}")
        pixels = data[pos : pos + width * height]
        if len(pixels) != width * height:
            raise ValueError(f"truncated pixel data ({len(pixels)} of {width * height} bytes)")
        return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width).copy()
    except (ValueError, IndexError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def float_image(image) -> np.ndarray:
    """An image as float64: a uint8 image scaled to [0, 1], any other
    dtype cast unscaled."""
    img = np.asarray(image)
    imgf = img.astype(np.float64)
    if img.dtype == np.uint8:
        imgf = imgf / 255.0
    return imgf


def write_raw(path, array: np.ndarray, dtype: str) -> None:
    """Raw row-major values of a little-endian dtype: ``"<f4"`` for map
    descriptors, ``"<f8"`` for segment depth."""
    with open(path, "wb") as f:
        f.write(np.ascontiguousarray(array, dtype=dtype).tobytes())


def read_raw(path, dtype: str, shape=None) -> np.ndarray:
    """The values ``write_raw`` wrote with ``dtype``, reshaped to ``shape``
    when given; a byte size that does not fit raises FormatError."""
    dtype = np.dtype(dtype)
    size = os.path.getsize(path)
    if size % dtype.itemsize != 0:
        raise FormatError(f"{path}: byte size {size} is not a multiple of {dtype.itemsize}")
    raw = np.fromfile(path, dtype=dtype)
    if shape is not None:
        if min(shape) < 0:
            raise FormatError(f"{path}: negative shape {tuple(shape)}")
        expected = int(np.prod(shape))
        if raw.size != expected:
            raise FormatError(
                f"{path}: expected {expected} {dtype.name} values, found {raw.size}"
            )
        raw = raw.reshape(shape)
    return raw


def write_trajectory(path, stamped_poses) -> None:
    """TUM-style lines: ``timestamp x y z qw qx qy qz``, 17 sig digits."""
    with open(path, "w") as f:
        for ts, pose in stamped_poses:
            f.write(fmt17(ts) + " " + pose.to_line() + "\n")


def read_trajectory(path):
    out = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tok = line.split()
            if len(tok) != 8:
                raise FormatError(f"{path}:{lineno}: expected 8 fields, got {len(tok)}")
            with line_errors(path, lineno):
                out.append((float(tok[0]), Pose.from_fields(tok[1:])))
    return out


@contextmanager
def line_errors(path, lineno: int):
    """Raise a ValueError or IndexError from parsing one line of a text file
    as a FormatError that names the file and the line."""
    try:
        yield
    except (ValueError, IndexError) as exc:
        raise FormatError(f"{path}:{lineno}: {exc}") from exc


def write_csv(path, header: str, rows) -> None:
    """A comma-separated table: the header line, then each row's string
    fields joined by commas, one row a line."""
    with open(path, "w") as f:
        f.write(header + "\n")
        f.writelines(",".join(row) + "\n" for row in rows)


def read_csv_rows(path, expected_header: str, convert):
    """The line numbers and the ``convert(fields)`` values of the non-blank
    rows of a comma-separated file, as two lists, after validating the
    header line. Every row must have as many fields as the header, and a
    ValueError or IndexError from ``convert`` becomes a FormatError naming
    the file and the line."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0].strip() != expected_header:
        found = lines[0].strip() if lines else "<empty>"
        raise FormatError(f"{path}:1: expected header '{expected_header}', found '{found}'")
    n_fields = expected_header.count(",") + 1
    linenos, values = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        row = line.split(",")
        if len(row) != n_fields:
            raise FormatError(f"{path}:{lineno}: expected {n_fields} fields, "
                              f"got {len(row)}")
        with line_errors(path, lineno):
            values.append(convert(row))
        linenos.append(lineno)
    return linenos, values
