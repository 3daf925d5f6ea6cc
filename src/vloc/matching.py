"""2D-2D pixel correspondence generation between a reference image and the
current observation: a classical Harris/patch matcher, a landmark-id oracle
matcher for simulator frames, and CSV ingestion of externally computed
correspondences.

A ``MatchSet`` holds its correspondences as three columns: ``uv_ref``
(N, 2) and ``uv_query`` (N, 2) float pixels and ``confidence`` (N,); row i
of each column is one match.

The classical matcher is a feature step (``classical_features``: Harris
corners and patch descriptors of one image) and a match step
(``match_features``). Its tuning values are module constants, so an
image's features depend on the image alone: a map node's are computed on
its first classical match and kept in memory with the node
(``MapNode.classical_features``), never saved; a query's are computed on
every call."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .dataio import float_image, read_csv_rows
from .errors import FormatError, OutOfBounds

# classical matcher tuning
MAX_CORNERS = 500
NMS_RADIUS = 5
RATIO = 0.8                # Lowe ratio test
PATCH_SIZE = 11
HARRIS_K = 0.04
RESPONSE_FLOOR = 1e-4      # fraction of the max response


@dataclass(eq=False)
class MatchSet:
    """Correspondences against one reference image as float columns
    ``uv_ref`` (N, 2), ``uv_query`` (N, 2) and ``confidence`` (N,); at most
    one match per query pixel. ``MatchSet()`` is the empty set."""

    uv_ref: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    uv_query: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    confidence: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.uv_ref = np.asarray(self.uv_ref, dtype=float)
        self.uv_query = np.asarray(self.uv_query, dtype=float)
        self.confidence = np.asarray(self.confidence, dtype=float)
        n = self.confidence.size
        if (self.confidence.shape != (n,) or self.uv_ref.shape != (n, 2)
                or self.uv_query.shape != (n, 2)):
            raise ValueError(
                f"match set columns disagree: uv_ref {self.uv_ref.shape}, "
                f"uv_query {self.uv_query.shape}, confidence {self.confidence.shape}")
        if len(_first_rows(self.uv_query)) != n:
            raise ValueError("duplicate query pixels in match set")

    def __len__(self):
        return self.confidence.size


def _first_rows(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row of an
    (n, 2) array, rows compared as ``np.unique(rows, axis=0)`` compares
    them: -0.0 equals 0.0, and a row holding NaN equals no row. A stable
    sort makes equal rows adjacent, first occurrence first."""
    order = np.lexsort((rows[:, 1], rows[:, 0]))
    ranked = rows[order]
    repeat = np.zeros(len(rows), dtype=bool)
    repeat[1:] = (ranked[1:, 0] == ranked[:-1, 0]) & (ranked[1:, 1] == ranked[:-1, 1])
    return np.sort(order[~repeat])


def _window_max(a: np.ndarray, size: int) -> np.ndarray:
    """``ndimage.maximum_filter(a, size)`` of a 2-D array for an odd
    ``size``, its default ``reflect`` border included (numpy's
    ``symmetric`` pad): along each axis the window grows by doubling, with
    a last shift to reach ``size`` (1, 2, 4 and 3 for 11)."""
    out = np.pad(a, size // 2, mode="symmetric")
    for _ in range(2):
        width = 1
        while width < size:
            shift = min(width, size - width)
            out = np.maximum(out[:-shift], out[shift:])
            width += shift
        out = out.T
    return out


def _harris(imgf: np.ndarray) -> np.ndarray:
    """Top corners of a float image by Harris response with non-max
    suppression: (N, 2) integer pixel coordinates (u, v), ordered by
    descending response with (v, u) tie-break, N <= MAX_CORNERS. Corners
    closer than half a patch to the border are discarded."""
    gy, gx = np.gradient(imgf)
    win = 2 * 2 + 1
    sxx = ndimage.uniform_filter(gx * gx, size=win)
    syy = ndimage.uniform_filter(gy * gy, size=win)
    sxy = ndimage.uniform_filter(gx * gy, size=win)
    resp = (sxx * syy - sxy * sxy) - HARRIS_K * (sxx + syy) ** 2

    size = 2 * NMS_RADIUS + 1
    is_peak = (resp == _window_max(resp, size))
    peak = float(resp.max())
    is_peak &= resp > (RESPONSE_FLOOR * peak if peak > 0 else np.inf)
    margin = PATCH_SIZE // 2
    h, w = is_peak.shape
    is_peak[:margin, :] = False
    is_peak[h - margin:, :] = False
    is_peak[:, :margin] = False
    is_peak[:, w - margin:] = False

    vs, us = np.nonzero(is_peak)
    if len(vs) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    order = np.lexsort((us, vs, -resp[vs, us]))[:MAX_CORNERS]
    return np.stack([us[order], vs[order]], axis=1).astype(np.int64)


def _patch_descriptors(imgf: np.ndarray, corners: np.ndarray):
    """Zero-mean unit-norm patches around (u, v) corners lying at least half
    a patch inside the image; drops textureless corners. Returns
    (descriptors (M, PATCH_SIZE**2), keep mask over the corners)."""
    half = PATCH_SIZE // 2
    windows = sliding_window_view(imgf, (PATCH_SIZE, PATCH_SIZE))
    p = windows[corners[:, 1] - half, corners[:, 0] - half].reshape(
        len(corners), PATCH_SIZE * PATCH_SIZE)
    p = p - p.mean(axis=1, keepdims=True)
    norm = np.linalg.norm(p, axis=1)
    keep = norm >= 1e-9
    return p[keep] / norm[keep, None], keep


def classical_features(image):
    """The feature step of ``match_classical``: Harris corners of a
    grayscale image and their patch descriptors, the image converted to
    float once. Returns (corners (M, 2) int64 (u, v), unit descriptors
    (M, PATCH_SIZE**2)), textureless corners dropped. An image with a
    side under PATCH_SIZE has no corner half a patch inside it: M is 0."""
    imgf = float_image(image)
    if min(imgf.shape) < PATCH_SIZE:
        return np.zeros((0, 2), dtype=np.int64), np.zeros((0, PATCH_SIZE * PATCH_SIZE))
    corners = _harris(imgf)
    desc, keep = _patch_descriptors(imgf, corners)
    return corners[keep], desc


def match_features(features_ref, features_query) -> MatchSet:
    """The match step of ``match_classical``: mutual nearest neighbours of
    two ``classical_features`` results under squared patch distance, with
    a Lowe ratio test, ordered by query pixel (v, u)."""
    corners_r, desc_r = features_ref
    corners_q, desc_q = features_query
    if len(desc_r) == 0 or len(desc_q) == 0:
        return MatchSet()
    ncc = desc_q @ desc_r.T                   # (nq, nr), unit patches
    d2 = np.maximum(2.0 - 2.0 * ncc, 0.0)     # squared L2 distance
    rows = np.arange(len(d2))
    best_r = np.argmin(d2, axis=1)
    best_q_for_r = np.argmin(d2, axis=0)
    keep = best_q_for_r[best_r] == rows       # mutual nearest neighbours
    if d2.shape[1] > 1:
        d_second = np.partition(d2, 1, axis=1)[:, 1]
        keep &= np.sqrt(d2[rows, best_r]) < RATIO * np.sqrt(d_second)
    q, r = rows[keep], best_r[keep]
    order = np.lexsort((corners_q[q, 0], corners_q[q, 1]))   # by query (v, u)
    q, r = q[order], r[order]
    return MatchSet(uv_ref=corners_r[r], uv_query=corners_q[q],
                    confidence=np.maximum(ncc[q, r], 0.0))


def match_classical(obs_ref, obs_query) -> MatchSet:
    """Harris corners + normalized-patch mutual nearest neighbor matching
    with a Lowe ratio test. Deterministic; an empty MatchSet is a valid
    outcome on featureless input.

    Either side is an image or carries one as ``color``. A side that keeps
    its features (a ``MapNode``, by ``classical_features()``) serves them:
    a node's are computed on its first classical match and kept in memory.
    Any other side's are computed on every call and never kept."""
    return match_features(_features_of(obs_ref), _features_of(obs_query))


def _features_of(side):
    if hasattr(side, "classical_features"):
        return side.classical_features()
    return classical_features(getattr(side, "color", side))


def match_oracle(frame_ref, frame_query, outlier_rate: float = 0.0,
                 noise_px: float = 0.0, seed: int = 0) -> MatchSet:
    """Ground-truth matcher over simulator landmark annotations.

    Pairs pixels observing the same landmark id, perturbs query pixels with
    Gaussian noise of sigma ``noise_px``, then replaces exactly
    ``floor(outlier_rate * n)`` of them with uniform random pixels. Fully
    deterministic given the seed.
    """
    if not 0.0 <= outlier_rate < 1.0:
        raise ValueError("outlier_rate must lie in [0, 1)")
    if frame_ref.landmark_ids is None or frame_query.landmark_ids is None:
        raise ValueError("oracle matcher needs landmark annotations")
    ids_r = np.asarray(frame_ref.landmark_ids)
    ids_q = np.asarray(frame_query.landmark_ids)
    height, width = np.asarray(frame_query.color).shape

    common, idx_r, idx_q = np.intersect1d(ids_r, ids_q, return_indices=True)
    uv_r = np.asarray(frame_ref.landmark_uv, dtype=float)[idx_r]
    uv_q = np.asarray(frame_query.landmark_uv, dtype=float)[idx_q].copy()

    rng = np.random.default_rng(seed)
    if noise_px > 0.0 and len(uv_q):
        uv_q += rng.normal(0.0, noise_px, uv_q.shape)
    n_out = int(np.floor(outlier_rate * len(uv_q)))
    if n_out > 0:
        corrupt = rng.choice(len(uv_q), size=n_out, replace=False)
        uv_q[corrupt, 0] = rng.uniform(0.0, width - 1.0, n_out)
        uv_q[corrupt, 1] = rng.uniform(0.0, height - 1.0, n_out)
    uv_q[:, 0] = np.clip(uv_q[:, 0], 0.0, width - 1e-6)
    uv_q[:, 1] = np.clip(uv_q[:, 1], 0.0, height - 1e-6)

    # duplicate query pixels after corruption are theoretically possible
    # but measure zero; drop later duplicates defensively, so the match
    # set's own check passes
    first = _first_rows(uv_q)
    return MatchSet(uv_ref=uv_r[first], uv_query=uv_q[first],
                    confidence=np.ones(len(first)))


MATCH_CSV_HEADER = "u_ref,v_ref,u_query,v_query,confidence"


def ingest_matches(path, width: int, height: int) -> MatchSet:
    """Parse a match CSV, validating every pixel against the image bounds.
    Each error names the file and the offending line; of two rows sharing a
    query pixel, the later one."""
    linenos, rows = read_csv_rows(path, MATCH_CSV_HEADER,
                                  lambda row: [float(v) for v in row])
    vals = np.array(rows).reshape(-1, 5)

    u, v = vals[:, [0, 2]], vals[:, [1, 3]]          # (N, 2): ref, query
    outside = ~((u >= 0.0) & (u < width) & (v >= 0.0) & (v < height))
    if outside.any():
        k, side = np.argwhere(outside)[0]
        raise OutOfBounds(
            f"{path}:{linenos[k]}: {('ref', 'query')[side]} pixel "
            f"({u[k, side]}, {v[k, side]}) outside {width}x{height}")
    bad_conf = np.flatnonzero(~np.isfinite(vals[:, 4]))
    if bad_conf.size:
        k = bad_conf[0]
        raise FormatError(f"{path}:{linenos[k]}: non-finite confidence {vals[k, 4]}")
    _, first, inverse = np.unique(vals[:, 2:4], axis=0, return_index=True,
                                  return_inverse=True)
    first_row = first[inverse.reshape(-1)]
    repeat = np.flatnonzero(first_row != np.arange(len(vals)))
    if repeat.size:
        k = repeat[0]
        raise FormatError(
            f"{path}:{linenos[k]}: query pixel ({vals[k, 2]}, {vals[k, 3]}) "
            f"repeats line {linenos[first_row[k]]}")
    return MatchSet(uv_ref=vals[:, 0:2], uv_query=vals[:, 2:4], confidence=vals[:, 4])
