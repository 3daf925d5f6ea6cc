"""Global-descriptor extraction and top-k place retrieval.

The built-in extractor is a hand-crafted stand-in for a learned VPR
backbone: a mean-subtracted 16x16 box-averaged intensity block combined
with an 8x8 grid of 8-bin gradient-orientation histograms, reduced to the
256-dim descriptor contract and L2-normalized. Externally computed
descriptors of the same dimension are drop-in via ``ingest_descriptors``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataio import float_image, read_raw
from .errors import DimensionMismatch, EmptyMap, NonUnitNorm, NonUnitNormWarning

DESCRIPTOR_DIM = 256
_INTENSITY_WEIGHT = 1.0
_GRADIENT_WEIGHT = 0.5
_NORM_SOFT_TOL = 1e-6      # renormalize silently below this deviation
_NORM_HARD_TOL = 0.10      # reject beyond this deviation


@dataclass(frozen=True)
class RetrievalResult:
    """(node_id, cosine similarity) pairs, best first, ties by lower id."""

    ranked: list

    def top1(self):
        return self.ranked[0]


def _block_reduce_mean(img: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Box-average an image onto a rows x cols grid (uneven splits allowed)."""
    h, w = img.shape
    r_edges = (np.arange(rows + 1) * h) // rows
    c_edges = (np.arange(cols + 1) * w) // cols
    sums = np.add.reduceat(np.add.reduceat(img, r_edges[:-1], axis=0),
                           c_edges[:-1], axis=1)
    counts = np.outer(np.diff(r_edges), np.diff(c_edges))
    return sums / counts


def _normalized_or_zero(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        return np.zeros_like(v)
    return v / n


def extract_descriptor(image: np.ndarray) -> np.ndarray:
    """Deterministic 256-dim unit descriptor of a grayscale image.

    A constant image has no texture in either block; the descriptor falls
    back to the unit vector e0 to preserve the norm invariant. Raises,
    before any work, ValueError for an image it cannot describe: not 2-D,
    a side under 16 px (the intensity block's grid), or a value that is
    not finite (not checked on uint8 images, which cannot hold one). An
    empty image is one of the first two.
    """
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError(f"image of shape {img.shape} is not 2-D")
    h, w = img.shape
    if min(h, w) < 16:
        raise ValueError(f"image of {w}x{h} px has a side under 16 px")
    imgf = float_image(img)
    if img.dtype != np.uint8 and not np.isfinite(imgf).all():
        raise ValueError("image has a value that is not finite")

    intensity = _block_reduce_mean(imgf, 16, 16)
    intensity = (intensity - intensity.mean()).ravel()

    gy, gx = np.gradient(imgf)
    mag = np.sqrt(gx * gx + gy * gy)
    ori = np.arctan2(gy, gx)
    bins = np.minimum((ori + np.pi) / (2.0 * np.pi) * 8.0, 7.0).astype(np.int64)
    rows = (np.arange(h) * 8) // h
    cols = (np.arange(w) * 8) // w
    cell = rows[:, None] * 64 + cols[None, :] * 8 + bins
    hist = np.bincount(cell.ravel(), weights=mag.ravel(), minlength=512)
    # adjacent orientation bins folded pairwise: 8x8 cells x 4 bins = 256
    hist = hist.reshape(8, 8, 4, 2).sum(axis=-1).ravel()

    desc = (_INTENSITY_WEIGHT * _normalized_or_zero(intensity)
            + _GRADIENT_WEIGHT * _normalized_or_zero(hist))
    norm = float(np.linalg.norm(desc))
    if norm < 1e-12:
        desc = np.zeros(DESCRIPTOR_DIM)
        desc[0] = 1.0
        return desc.astype(np.float32)
    return (desc / norm).astype(np.float32)


def similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two unit descriptors (exactly symmetric)."""
    return float(np.dot(np.asarray(a, dtype=np.float64),
                        np.asarray(b, dtype=np.float64)))


def top_k(query: np.ndarray, topo_map, k: int) -> RetrievalResult:
    """Exhaustive exact retrieval over all map nodes."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not topo_map.nodes:
        raise EmptyMap("retrieval against an empty map")
    q = np.asarray(query, dtype=np.float64)
    sims = topo_map.descriptor_matrix().astype(np.float64) @ q
    order = np.lexsort((np.arange(sims.size), -sims))[:k]
    return RetrievalResult(ranked=[(int(i), float(sims[i])) for i in order])


def ingest_descriptors(path, topo_map) -> None:
    """Replace the map's descriptors wholesale from a descriptors.f32 file.

    Vectors off unit norm by at most 10% are renormalized with a warning;
    larger deviations and non-finite rows are rejected, naming the row.
    """
    raw = read_raw(path, "<f4")
    n = len(topo_map.nodes)
    if n == 0 or raw.size % n != 0 or raw.size // n != topo_map.descriptor_dim:
        raise DimensionMismatch(
            f"{path}: {raw.size} values do not form {n} x {topo_map.descriptor_dim}"
        )
    mat = raw.reshape(n, topo_map.descriptor_dim)
    norms = np.linalg.norm(mat.astype(np.float64), axis=1)
    dev = np.abs(norms - 1.0)
    if not np.all(dev <= _NORM_HARD_TOL):     # a non-finite row fails this too
        worst = int(np.argmax(dev))           # the first NaN, if any
        raise NonUnitNorm(f"{path}: row {worst} norm {norms[worst]:.6f}")
    if np.any(dev > _NORM_SOFT_TOL):
        warnings.warn(NonUnitNormWarning(
            f"{path}: renormalized descriptors (max deviation {dev.max():.4f})"
        ))
        mat = (mat / norms[:, None]).astype(np.float32)
    for node, row in zip(topo_map.nodes, mat):
        node.descriptor = row.copy()
