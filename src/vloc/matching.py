"""2D-2D pixel correspondence generation between a reference image and the
current observation: a classical Harris/patch matcher, a landmark-id oracle
matcher for simulator frames, and CSV ingestion of externally computed
correspondences.

A ``MatchSet`` holds its correspondences as three columns: ``uv_ref``
(N, 2) and ``uv_query`` (N, 2) float pixels and ``confidence`` (N,); row i
of each column is one match."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .dataio import read_csv_rows
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
        if len(np.unique(self.uv_query, axis=0)) != n:
            raise ValueError("duplicate query pixels in match set")

    def __len__(self):
        return self.confidence.size


def _to_float_image(image) -> np.ndarray:
    img = np.asarray(image)
    imgf = img.astype(np.float64)
    if img.dtype == np.uint8:
        imgf = imgf / 255.0
    return imgf


def harris_corners(image) -> np.ndarray:
    """Top corners by Harris response with non-max suppression.

    Returns (N, 2) integer pixel coordinates (u, v), ordered by descending
    response with (v, u) tie-break, N <= MAX_CORNERS. Corners closer than
    half a patch to the border are discarded.
    """
    imgf = _to_float_image(image)
    gy, gx = np.gradient(imgf)
    win = 2 * 2 + 1
    sxx = ndimage.uniform_filter(gx * gx, size=win)
    syy = ndimage.uniform_filter(gy * gy, size=win)
    sxy = ndimage.uniform_filter(gx * gy, size=win)
    resp = (sxx * syy - sxy * sxy) - HARRIS_K * (sxx + syy) ** 2

    size = 2 * NMS_RADIUS + 1
    is_peak = (resp == ndimage.maximum_filter(resp, size=size))
    floor = RESPONSE_FLOOR * float(resp.max()) if resp.max() > 0 else np.inf
    is_peak &= resp > floor
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


def match_classical(obs_ref, obs_query) -> MatchSet:
    """Harris corners + normalized-patch mutual nearest neighbor matching
    with a Lowe ratio test. Deterministic; an empty MatchSet is a valid
    outcome on featureless input."""
    img_ref = obs_ref.color if hasattr(obs_ref, "color") else obs_ref
    img_query = obs_query.color if hasattr(obs_query, "color") else obs_query
    ref_f = _to_float_image(img_ref)
    qry_f = _to_float_image(img_query)
    corners_r = harris_corners(img_ref)
    corners_q = harris_corners(img_query)
    desc_r, keep_r = _patch_descriptors(ref_f, corners_r)
    desc_q, keep_q = _patch_descriptors(qry_f, corners_q)
    if len(desc_r) == 0 or len(desc_q) == 0:
        return MatchSet()
    corners_r = corners_r[keep_r]
    corners_q = corners_q[keep_q]

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
    # but measure zero; drop later duplicates defensively
    first = np.sort(np.unique(uv_q, axis=0, return_index=True)[1])
    return MatchSet(uv_ref=uv_r[first], uv_query=uv_q[first],
                    confidence=np.ones(len(first)))


MATCH_CSV_HEADER = "u_ref,v_ref,u_query,v_query,confidence"


def write_matches(path, match_set: MatchSet) -> None:
    rows = np.column_stack([match_set.uv_ref, match_set.uv_query,
                            match_set.confidence])
    with open(path, "w") as f:
        f.write(MATCH_CSV_HEADER + "\n")
        for row in rows:
            f.write(",".join(format(v, ".9g") for v in row) + "\n")


def _parse_match_row(path, lineno: int, row: list) -> list:
    if len(row) != 5:
        raise OutOfBounds(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
    try:
        return [float(v) for v in row]
    except ValueError as exc:
        raise FormatError(f"{path}:{lineno}: {exc}") from None


def ingest_matches(path, width: int, height: int) -> MatchSet:
    """Parse a match CSV, validating every pixel against the image bounds.
    Each error names the file and the offending line; of two rows sharing a
    query pixel, the later one."""
    rows = read_csv_rows(path, MATCH_CSV_HEADER)
    linenos = [lineno for lineno, _ in rows]
    vals = np.array([_parse_match_row(path, lineno, row) for lineno, row in rows],
                    dtype=float).reshape(-1, 5)

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
