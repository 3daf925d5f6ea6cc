"""Shared on-disk formats: binary PGM images, raw float32 rasters, TUM
trajectories. All text is plain ASCII; all binary is little-endian."""

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


def write_f32(path, array: np.ndarray) -> None:
    """Raw little-endian IEEE-754 float32, row-major."""
    with open(path, "wb") as f:
        f.write(np.ascontiguousarray(array, dtype="<f4").tobytes())


def read_f32(path, shape=None) -> np.ndarray:
    size = os.path.getsize(path)
    if size % 4 != 0:
        raise FormatError(f"{path}: byte size {size} is not a multiple of 4")
    raw = np.fromfile(path, dtype="<f4")
    if shape is not None:
        expected = int(np.prod(shape))
        if raw.size != expected:
            raise FormatError(
                f"{path}: expected {expected} float32 values, found {raw.size}"
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


def read_csv_rows(path, expected_header: str):
    """Rows of a comma-separated file after validating the header line.
    Every non-blank row must have as many fields as the header."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0].strip() != expected_header:
        found = lines[0].strip() if lines else "<empty>"
        raise FormatError(f"{path}:1: expected header '{expected_header}', found '{found}'")
    n_fields = expected_header.count(",") + 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        row = line.split(",")
        if len(row) != n_fields:
            raise FormatError(f"{path}:{lineno}: expected {n_fields} fields, "
                              f"got {len(row)}")
        rows.append((lineno, row))
    return rows
