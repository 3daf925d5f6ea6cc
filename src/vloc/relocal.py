"""Map-free relative localization: lift query pixels to 3D through the
depth image, solve the camera pose with a minimal P3P solver inside a
RANSAC loop, refine on inliers by Gauss-Newton on reprojection error, and
judge success by inlier count. Also the relocalization evaluation metrics
(max/median errors, precision buckets, estimation rate).

Correspondences arrive as a ``vloc.matching.MatchSet``, whose columns
``uv_ref`` (N, 2), ``uv_query`` (N, 2) and ``confidence`` (N,) hold one
match per row; ``lift`` samples depth for the whole ``uv_query`` column in
one pass.

The solver's tuning values are module constants: the inlier threshold
``REPROJ_THRESH``, the stop rule's ``RANSAC_CONFIDENCE`` and its cap
``RANSAC_MAX_ITERS``, the refinement's ``REFINE_ITERS`` and the cheirality
bound ``Z_MIN_DEFAULT``; the refinement stops by the fusion solver's
``poseslam.COST_FLOOR`` and ``poseslam.LM_REL_DECREASE``. ``PnPParams``
holds only what callers set: ``min_inliers`` and ``seed``. There is no
planar-scene rejection (see ``PnPParams``).

RANSAC hypotheses are solved and scored in blocks of samples: one batched
companion-matrix eigenvalue call (``_quartic_roots``, ``np.roots``
batched) finds every solvable sample's quartic roots, one batched SVD
aligns every candidate, and one array op scores a block's picks against
all points. The sample sequence, the pick among a sample's candidates, the
stop rule and so the result are those of the sequential loop, which
``tests/test_relocal.py`` keeps as the reference. The samples depend only
on the seed and the point count and are drawn once per pair
(``_sample_rows``).

Grunert's quartic has one formula, ``_grunert_quartic``, one root finder,
``_quartic_roots``, and one evaluator, ``_p3p_grunert``, on float64 blocks
of every size, the first one-sample block included (whose quartic runs on
numpy scalars, which round as arrays do). A sample's result does not
depend on the size of its block, which makes ``_BLOCK_SIZES`` a free
constant: every operation is elementwise or per row, and each pair dot
product is one BLAS ``ddot`` (``rowdot``), whatever the block's shape.
``rowdot`` and ``_square`` (``x ** 2`` as C ``pow`` rounds it) keep the
roundings that the pinned outputs under ``tests/data`` record; a plain sum
or ``x * x`` differs in the last bit for some inputs. The pinned poses
therefore depend on the BLAS kernel (OpenBLAS 0.3.31's Haswell ``ddot`` is
a forward chain of fused multiply-adds) as well as on this code.

Frame convention: ``solve_pnp_ransac`` returns the transform that maps
point coordinates into the observing camera's frame. When the points are
lifted in the query camera frame and observed in the reference image, that
transform is exactly the query camera's pose expressed in the reference
frame; composing with the reference node's world pose gives the world
pose.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput
from .geometry import (
    DEPTH_MAX_DEFAULT,
    DEPTH_MIN_DEFAULT,
    Z_MIN_DEFAULT,
    CameraIntrinsics,
    Pose,
    rotation_angle,
    rowdot,
    se3_exp_array,
    so3_hat_array,
    unproject,
)
from .mapgraph import MapNode, Observation
from .poseslam import COST_FLOOR, LM_REL_DECREASE


class RelocStatus(enum.Enum):
    SUCCESS = "Success"
    TOO_FEW_MATCHES = "TooFewMatches"
    RANSAC_FAILED = "RansacFailed"


@dataclass(frozen=True)
class RelocResult:
    pose: Pose | None
    inliers: int
    total: int
    status: RelocStatus
    # RANSAC samples the stop rule went through, and the P3P candidates
    # they gave; 0 when the solver did not run
    iterations: int = 0
    hypotheses: int = 0
    # Gauss-Newton refinement of the best hypothesis: accepted steps, and
    # trial costs evaluated without acceptance (step halvings)
    refine_steps: int = 0
    refine_halvings: int = 0

    def __post_init__(self):
        if self.inliers > self.total:
            raise ValueError("inliers cannot exceed total")


REPROJ_THRESH = 3.0        # px; a point within it is an inlier
RANSAC_CONFIDENCE = 0.999
RANSAC_MAX_ITERS = 1000    # samples drawn at most
REFINE_ITERS = 20


@dataclass(frozen=True)
class PnPParams:
    # an (almost) coplanar inlier set has a two-fold pose ambiguity the
    # reprojection error cannot break; the solver returns either pose, and
    # the localization pipeline drops the mirror one by its attitude gate
    min_inliers: int = 12
    seed: int = 0


# ---------------------------------------------------------------------------
# depth lifting
# ---------------------------------------------------------------------------

def lift(match_set, depth_query: np.ndarray, K: CameraIntrinsics):
    """Lift a MatchSet's query pixels (its ``uv_query`` column) to 3D
    query-camera points by bilinear depth, keeping their ``uv_ref`` pixels.

    A match is dropped, silently and with order preserved, when any of its
    four depth neighbours lies outside (DEPTH_MIN_DEFAULT, DEPTH_MAX_DEFAULT):
    mixing foreground and background depths across an occlusion edge is
    worse than dropping the sample. On the last row or column an integral pixel falls
    back to that exact pixel; other pixels without four neighbours drop.

    Returns (p3d_query (N, 3), uv_ref (N, 2), n_dropped)."""
    u, v = match_set.uv_query[:, 0], match_set.uv_query[:, 1]
    h, w = depth_query.shape
    x0, y0 = np.floor(u), np.floor(v)
    inner = (x0 >= 0) & (x0 + 1 < w) & (y0 >= 0) & (y0 + 1 < h)
    exact = ((u == x0) & (v == y0) & (0 <= u) & (u <= w - 1)
             & (0 <= v) & (v <= h - 1))
    ok = inner | exact
    xi = np.where(ok, x0, 0).astype(np.intp)
    yi = np.where(ok, y0, 0).astype(np.intp)
    step = inner.astype(np.intp)        # a border fallback reads one pixel 4x
    q = np.stack([depth_query[yi, xi], depth_query[yi, xi + step],
                  depth_query[yi + step, xi], depth_query[yi + step, xi + step]],
                 axis=1).astype(float)
    valid = ok & np.all((q > DEPTH_MIN_DEFAULT) & (q < DEPTH_MAX_DEFAULT), axis=1)

    q, u, v = q[valid], u[valid], v[valid]
    ax, ay = u - x0[valid], v - y0[valid]
    top = q[:, 0] * (1 - ax) + q[:, 1] * ax
    bot = q[:, 2] * (1 - ax) + q[:, 3] * ax
    d = top * (1 - ay) + bot * ay
    p3d = unproject(K, u, v, d)
    return p3d, match_set.uv_ref[valid], int(len(valid) - np.count_nonzero(valid))


# ---------------------------------------------------------------------------
# minimal P3P (Grunert) + absolute orientation, over blocks of samples
# ---------------------------------------------------------------------------

# Samples solved per block of the hypothesis loop; the last size repeats. A
# clean scene stops after its first sample, so the first block is one
# sample; a low inlier ratio runs hundreds, over which blocks amortise the
# per-call cost of the array operations. Results do not depend on the
# schedule: the 550 solves of one set-up and one pass of each benchmark
# workload at seeds 1 and 9001, replayed under (1, 8, 64) and (1, 16, 128),
# gave the same pose bytes and telemetry. Over two replays (best of 5 a
# call, 2-vCPU host), (1, 16, 128) cut their summed solve time by 9-14% on
# `track` and 2-6% on `kidnap`, and moved `nav` by -1.5% to +0.4%.
_BLOCK_SIZES = (1, 16, 128)

# the point pairs (2, 3), (1, 3), (1, 2) of a sample's triple: they span
# the sides opposite points 1, 2, 3 and the angles between their rays
_PAIR_I = np.array([1, 0, 0])
_PAIR_J = np.array([2, 2, 1])


def _square(x: np.ndarray) -> np.ndarray:
    """``x ** 2`` rounded as C ``pow`` rounds it for one float; ``x * x``
    differs from it in the last bit for some inputs."""
    return np.float_power(x, 2)


def _kabsch(src: np.ndarray, dst: np.ndarray):
    """Rigid transforms with dst = R @ src + t for stacks of point triples
    (H, 3, 3) (least squares, no scale). Returns (R (H, 3, 3), t (H, 3))."""
    cs = np.add.reduce(src, axis=1) / 3
    cd = np.add.reduce(dst, axis=1) / 3
    h = (src - cs[:, None]).swapaxes(1, 2) @ (dst - cd[:, None])
    u, _, vt = np.linalg.svd(h)
    v, ut = vt.swapaxes(1, 2), u.swapaxes(1, 2)
    v[:, :, 2] *= np.sign(np.linalg.det(v @ ut))[:, None]
    r = v @ ut
    return r, cd - (r @ cs[:, :, None])[:, :, 0]


def _pair_dots(pts: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """Squared sides (a^2, b^2, c^2 opposite points 1, 2, 3) and the
    cosines of the angles between the rays to the other two points
    (B, 6) of blocks of 3 points (B, 3, 3) and their unit rays."""
    d = pts.take(_PAIR_I, axis=1) - pts.take(_PAIR_J, axis=1)
    return rowdot(np.concatenate([d, rays.take(_PAIR_I, axis=1)], axis=1),
                  np.concatenate([d, rays.take(_PAIR_J, axis=1)], axis=1))


def _grunert_quartic(a2, b2, c2, cos_al, cos_be, cos_ga):
    """Grunert's quartic in v = d3 / d1 from the squared sides and the ray
    cosines of a block of samples, float64 columns (B,) or the numpy scalars
    of one sample: q1 = (a^2 - c^2) / b^2 and the five coefficients,
    highest first."""
    sq_al, sq_be, sq_ga = _square(cos_al), _square(cos_be), _square(cos_ga)
    # scaling by 2 or 4 is exact: 4.0 * cb rounds as 4.0 * c2 / b2 does
    q1, q2, cb, ab, bcb, bab = (x / b2 for x in (a2 - c2, a2 + c2, c2, a2,
                                                 b2 - c2, b2 - a2))
    sq_q1 = _square(q1)
    al_ga = (1.0 - q2) * cos_al * cos_ga
    cb_al = 2.0 * cb * sq_al
    ab_ga = 2.0 * ab * sq_ga
    return q1, (
        _square(q1 - 1.0) - 2.0 * cb_al,
        4.0 * (q1 * (1.0 - q1) * cos_be - al_ga + cb_al * cos_be),
        2.0 * (sq_q1 - 1.0 + 2.0 * sq_q1 * sq_be + 2.0 * bcb * sq_al
               - 4.0 * q2 * cos_al * cos_be * cos_ga + 2.0 * bab * sq_ga),
        4.0 * (-q1 * (1.0 + q1) * cos_be + ab_ga * cos_be - al_ga),
        _square(1.0 + q1) - 2.0 * ab_ga,
    )


def _quartic_roots(coeffs: np.ndarray) -> np.ndarray:
    """``np.roots`` of the Grunert quartics (k, 5), highest first, batched,
    once a leading coefficient below 1e-14 is set to 0 in place (a
    vanishing leading coefficient leaves a cubic): roots (k, 4), each row's
    in ``np.roots`` order and then 0 for a row of lower degree. The rows
    with nonzero end coefficients and a finite companion matrix, the only
    ones the solver meets in practice, share one ``eigvals`` call; every
    other row goes through ``np.roots`` itself, and keeps roots 0 where
    that raises (a non-finite companion matrix). Callers pass the rows
    they can solve and silence the warnings of rows that are not finite."""
    coeffs[np.abs(coeffs[:, 0]) < 1e-14, 0] = 0.0
    k = len(coeffs)
    roots = np.zeros((k, 4), dtype=complex)
    comp = np.zeros((k, 4, 4))
    comp[:, 0] = -coeffs[:, 1:] / coeffs[:, :1]  # not finite on a zero leading one
    comp.reshape(k, 16)[:, 4::5] = 1.0            # subdiagonal
    full = (coeffs[:, -1] != 0.0) & np.isfinite(comp[:, 0]).all(axis=1)
    roots[full] = np.linalg.eigvals(comp[full])
    for i in np.flatnonzero(~full):
        try:
            found = np.roots(coeffs[i])
        except np.linalg.LinAlgError:
            continue
        roots[i, :len(found)] = found
    return roots


def _p3p_grunert(pts: np.ndarray, rays: np.ndarray):
    """Camera-frame candidate solutions for blocks of 3 world points
    (B, 3, 3) and their 3 unit rays (B, 3, 3).

    Returns (valid (B, 4), R (B, 4, 3, 3), t (B, 4, 3)) with
    cam = R @ world + t. Slot k of a sample holds the solution from its
    k-th quartic root in ``np.roots`` order when that root gives one, as
    ``valid`` marks; other slots are zero. A degenerate sample has none.
    """
    n_samples = len(pts)
    with np.errstate(all="ignore"):
        dots = _pair_dots(pts, rays)
        sides = np.sqrt(dots[:, :3])
        # the block's columns (B,); every solve starts with a one-sample
        # block, whose columns squeeze to numpy scalars: they round as
        # arrays do, at a quarter of the per-call cost in the quartic
        a2, b2, c2 = (sides * sides).T.squeeze()
        cosines = dots[:, 3:].T.squeeze()
        q1, coeffs = _grunert_quartic(a2, b2, c2, *cosines)
        coeffs = np.array(coeffs).reshape(5, -1).T
        solvable = (sides >= 1e-9).all(axis=1) & np.isfinite(coeffs).all(axis=1)
        roots = np.zeros((n_samples, 4), dtype=complex)  # a 0 root gives none
        roots[solvable] = _quartic_roots(coeffs[solvable])

        # the depth ratios u = d2 / d1, v = d3 / d1 of each root
        v = roots.real
        q1, cos_al, cos_be, cos_ga, b2 = np.array(
            [q1, *cosines, b2]).reshape(5, -1, 1)    # (B, 1) columns
        denom = 2.0 * (cos_ga - v * cos_al)
        u = ((-1.0 + q1) * v * v - 2.0 * q1 * cos_be * v + 1.0 + q1) / denom
        s1_sq = b2 / (1.0 + v * v - 2.0 * v * cos_be)
        valid = ((np.abs(roots.imag) <= 1e-8) & (np.abs(denom) >= 1e-12)
                 & (np.minimum(np.minimum(v, u), s1_sq) > 0.0) & (s1_sq < np.inf))

    sample, slot = np.nonzero(valid)
    d1 = np.sqrt(s1_sq[sample, slot])
    dist = np.array([np.ones_like(u), u, v])[:, sample, slot].T * d1[:, None]
    r = np.zeros((n_samples, 4, 3, 3))
    t = np.zeros((n_samples, 4, 3))
    r[sample, slot], t[sample, slot] = _kabsch(pts[sample],
                                               dist[:, :, None] * rays[sample])
    return valid, r, t


def _pixel_rays(uv: np.ndarray, K: CameraIntrinsics) -> np.ndarray:
    rays = unproject(K, uv[:, 0], uv[:, 1], np.ones(len(uv)))
    return rays / np.sqrt((rays * rays).sum(axis=1, keepdims=True))


def _reprojection_errors(r, t, p3d, uv, K):
    """Pixel reprojection errors (inf behind the camera) of the points
    p3d (..., N, 3) against uv (..., N, 2) under one transform r (3, 3),
    t (3,), or under stacks r (..., 3, 3), t (..., 3) that broadcast
    against the points' leading axes: (H, 3, 3) with (N, 3) gives (H, N)."""
    cam = p3d @ r.swapaxes(-1, -2) + t[..., None, :]
    z = cam[..., 2]
    ok = z > Z_MIN_DEFAULT
    zs = np.where(ok, z, 1.0)
    du = K.fx * cam[..., 0] / zs + K.cx - uv[..., 0]
    dv = K.fy * cam[..., 1] / zs + K.cy - uv[..., 1]
    err = np.hypot(du, dv)
    return np.where(ok, err, np.inf)


def reprojection_residual_jacobian(r, t, p3d, uv, K):
    """Stacked residuals (2n,) and Jacobian (2n, 6) of pixel reprojection
    error wrt a right-multiplicative SE(3) perturbation of the transform."""
    n = len(p3d)
    cam = p3d @ r.T + t
    x, y = cam[:, 0], cam[:, 1]
    z = np.maximum(cam[:, 2], Z_MIN_DEFAULT)
    res = np.empty(2 * n)
    res[0::2] = K.fx * x / z + K.cx - uv[:, 0]
    res[1::2] = K.fy * y / z + K.cy - uv[:, 1]

    # d(pixel)/d(cam point) per point, times d(cam point)/d(delta) =
    # [R | -R hat(p)]
    dpi = np.zeros((n, 2, 3))
    dpi[:, 0, 0] = K.fx / z
    dpi[:, 0, 2] = -K.fx * x / (z * z)
    dpi[:, 1, 1] = K.fy / z
    dpi[:, 1, 2] = -K.fy * y / (z * z)
    d_rho = dpi @ r
    jac = np.concatenate([d_rho, -(d_rho @ so3_hat_array(p3d))],
                         axis=2).reshape(2 * n, 6)
    return res, jac


def _refine_gauss_newton(r, t, p3d, uv, K, errors=None):
    """Gauss-Newton with step halving; cost is monotone non-increasing.
    A step retracts as the fusion solver does, r <- r exp(delta), and the
    refinement stops by its rules: below ``poseslam.COST_FLOOR``, after an
    accepted step that lowers the cost by less than
    ``poseslam.LM_REL_DECREASE`` of it, after a rejected step whose model
    decrease is below that share of the cost, and after a step none of
    whose 12 halvings lowers it. ``errors`` are the points' reprojection
    errors at (r, t) when the caller has them. Returns (R, t, accepted
    steps, rejected trial steps), R and t being the inputs when no step
    helps or the cost at them is not finite."""

    def cost_of(rr, tt):
        e = _reprojection_errors(rr, tt, p3d, uv, K)
        return float((e * e).sum())        # inf when a point is behind

    cost = cost_of(r, t) if errors is None else float((errors * errors).sum())
    if not np.isfinite(cost):
        return r, t, 0, 0
    steps = halvings = 0
    for _ in range(REFINE_ITERS):
        if cost < COST_FLOOR:
            break
        res, jac = reprojection_residual_jacobian(r, t, p3d, uv, K)
        h = jac.T @ jac
        g = jac.T @ res
        try:
            delta = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            break
        improved = False
        step = 1.0
        for _ in range(12):
            dt, dr = se3_exp_array((delta * step)[None])
            r_new = r @ dr[0]
            t_new = r @ dt[0] + t
            c_new = cost_of(r_new, t_new)
            if c_new < cost:
                improved = True
                break
            halvings += 1
            # a shorter step only lowers the model's decrease -g . delta, so
            # once that is below the relative stop no halving can pass it
            # but by rounding (the fusion solver's rule for a rejected trial)
            if -(g @ delta) < LM_REL_DECREASE * cost:
                break
            step *= 0.5
        if not improved:
            break
        steps += 1
        rel = (cost - c_new) / cost
        r, t, cost = r_new, t_new, c_new
        if rel < LM_REL_DECREASE:
            break
    return r, t, steps, halvings


def _score_block(sel, p3d, uv, rays, K):
    """Solve and score a block of 4-point samples sel (B, 4).

    The first three points of a sample give its P3P candidates and the 4th
    picks one, the first with the smallest reprojection error. Returns the
    picked (R (B, 3, 3), t (B, 3)), their errors over every point (B, N),
    their inlier counts (B,), -1 for a sample without candidates, and the
    number of candidates of each sample (B,)."""
    triples = sel[:, :3]
    pts, pts_rays = p3d.take(triples, axis=0), rays.take(triples, axis=0)
    valid, r, t = _p3p_grunert(pts, pts_rays)
    probe = sel[:, None, 3:]
    e4 = _reprojection_errors(r, t, p3d.take(probe, axis=0), uv.take(probe, axis=0),
                              K)[..., 0]
    # np.argmin's rule: the first smallest error, where a NaN is smallest
    e4 = np.where(valid, np.where(np.isnan(e4), -np.inf, e4), np.inf)
    pick = np.argmax(valid & (e4 == e4.min(axis=1, keepdims=True)), axis=1)
    rows = np.arange(len(sel))
    r, t = r[rows, pick], t[rows, pick]
    err = _reprojection_errors(r, t, p3d, uv, K)
    inliers = np.where(valid.any(axis=1),
                       np.count_nonzero(err < REPROJ_THRESH, axis=1), -1)
    return r, t, err, inliers, valid.sum(axis=1)


_STREAM_KEYS = 128


@functools.lru_cache(maxsize=_STREAM_KEYS)
def _stream(seed: int, n: int) -> list:
    """[generator, its draws so far] of the (seed, n) sample stream, which
    ``_sample_rows`` grows in place."""
    return [np.random.default_rng(seed), np.empty((0, 4), dtype=np.int64)]


def _sample_rows(seed: int, n: int, stop: int) -> np.ndarray:
    """RANSAC's 4-point samples over n points for ``seed``, at least the
    first ``stop`` of them, read-only: row i is the (i + 1)-th
    ``rng.choice(n, 4, replace=False)`` of ``np.random.default_rng(seed)``.

    The draws depend only on (seed, n), so each stream is drawn once and
    kept with its generator by ``_stream``, an LRU cache of the
    ``_STREAM_KEYS`` keys used last. A stream grows by doubling, but never
    past ``max(stop, RANSAC_MAX_ITERS)`` rows, so the cache holds at most
    ``_STREAM_KEYS`` x (``RANSAC_MAX_ITERS`` x 32 bytes of rows + about
    1.6 kB of generator): 4.3 MB at the default cap, far less in practice.
    Growing a stream is not thread-safe: two threads growing one stream at
    once would interleave its draws."""
    entry = _stream(seed, n)
    rng, rows = entry
    if len(rows) < stop:
        size = min(max(2 * len(rows), stop), max(stop, RANSAC_MAX_ITERS))
        rows = np.concatenate([rows, [rng.choice(n, size=4, replace=False)
                                      for _ in range(size - len(rows))]])
        rows.flags.writeable = False
        entry[1] = rows
    return rows


def solve_pnp_ransac(p3d: np.ndarray, uv: np.ndarray, K: CameraIntrinsics,
                     params: PnPParams = PnPParams()) -> RelocResult:
    """P3P hypotheses from minimal 4-point samples (4th point picks among
    the quartic's solutions), scored by reprojection error, with adaptive
    iteration count and Gauss-Newton refinement over the best inlier set.
    Deterministic given the seed.

    Samples are solved and scored in blocks (``_BLOCK_SIZES``) but judged
    one at a time, in the order a sequential loop would: the best replaced
    only on a strictly larger inlier count, the stop rule applied after
    each. They are the successive ``rng.choice(n, 4, replace=False)`` draws
    of ``default_rng(seed)``, kept per (seed, n) by ``_sample_rows``. A
    block never takes more samples than the stop rule still allows."""
    p3d = np.asarray(p3d, dtype=float).reshape(-1, 3)
    uv = np.asarray(uv, dtype=float).reshape(-1, 2)
    n = len(p3d)
    if n < 4:
        return RelocResult(pose=None, inliers=0, total=n,
                           status=RelocStatus.TOO_FEW_MATCHES)

    rays = _pixel_rays(uv, K)
    best_r = best_t = best_err = None
    best_inliers = 0
    iteration = hypotheses = 0
    needed = RANSAC_MAX_ITERS
    blocks = itertools.chain(_BLOCK_SIZES, itertools.repeat(_BLOCK_SIZES[-1]))
    while iteration < needed:
        stop = iteration + min(next(blocks), needed - iteration)
        sel = _sample_rows(params.seed, n, stop)[iteration:stop]
        r, t, err, inliers, candidates = _score_block(sel, p3d, uv, rays, K)
        for i in range(len(sel)):
            iteration += 1
            hypotheses += int(candidates[i])
            if inliers[i] > best_inliers:
                best_inliers = int(inliers[i])
                best_r, best_t, best_err = r[i], t[i], err[i]
                w = best_inliers / n
                if w >= 1.0 - 1e-12:
                    needed = iteration
                    break
                denom = math.log(max(1e-12, 1.0 - w ** 4))
                needed = min(RANSAC_MAX_ITERS,
                             int(math.ceil(math.log(1.0 - RANSAC_CONFIDENCE) / denom)))
            if iteration >= needed:
                break

    if best_r is None or best_inliers < 4:
        return RelocResult(pose=None, inliers=0, total=n,
                           status=RelocStatus.RANSAC_FAILED,
                           iterations=iteration, hypotheses=hypotheses)

    mask = best_err < REPROJ_THRESH
    r_ref, t_ref, steps, halvings = _refine_gauss_newton(
        best_r, best_t, p3d[mask], uv[mask], K, best_err[mask])
    if r_ref is not best_r:
        err_ref = _reprojection_errors(r_ref, t_ref, p3d, uv, K)
        inl_ref = int(np.count_nonzero(err_ref < REPROJ_THRESH))
        if inl_ref >= best_inliers:
            best_r, best_t, best_inliers = r_ref, t_ref, inl_ref

    pose = Pose.from_rt(best_r, best_t)
    status = RelocStatus.SUCCESS if best_inliers >= params.min_inliers \
        else RelocStatus.RANSAC_FAILED
    return RelocResult(pose=pose, inliers=best_inliers, total=n, status=status,
                       iterations=iteration, hypotheses=hypotheses,
                       refine_steps=steps, refine_halvings=halvings)


def localize_against_node(node: MapNode, obs: Observation, K: CameraIntrinsics,
                          matcher, params: PnPParams = PnPParams()) -> RelocResult:
    """Full per-node chain: match -> lift -> PnP/RANSAC -> world pose.

    The matcher gets the node itself as its reference (``color`` and the
    landmark fields, read at call time), so ``match_classical`` reuses the
    node's kept features: they are computed on the node's first classical
    match, kept in memory and never saved. The returned pose is the query
    camera in the world frame (node pose composed with the relative
    solution)."""
    if node.image is None:
        raise ValueError(f"node {node.id} has no stored image")
    match_set = matcher(node, obs)
    p3d, uv_ref, _ = lift(match_set, obs.depth, K)
    rel = solve_pnp_ransac(p3d, uv_ref, K, params)
    if rel.status is not RelocStatus.SUCCESS:
        return rel
    return dataclasses.replace(rel, pose=node.pose.compose(rel.pose))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

PRECISION_BUCKETS = ((0.05, 5.0), (0.25, 5.0), (1.0, 10.0))


@dataclass(frozen=True)
class RelocMetrics:
    """One ``write_csv`` row under ``CSV_HEADER``."""

    CSV_HEADER = ("max_et_m,max_er_deg,median_et_m,median_er_deg,"
                  "prec_5cm_5deg,prec_25cm_5deg,prec_1m_10deg,"
                  "pct_estimated,mean_time_ms")

    max_et: float
    max_er: float
    median_et: float
    median_er: float
    precision: tuple          # percent per bucket in PRECISION_BUCKETS
    pct_estimated: float
    mean_time_ms: float

    def csv_fields(self) -> list:
        return [format(v, ".9g") for v in (
            self.max_et, self.max_er, self.median_et, self.median_er,
            *self.precision, self.pct_estimated, self.mean_time_ms)]


def compute_reloc_metrics(results, times_ms=None) -> RelocMetrics:
    """Aggregate per-query (RelocResult, gt_pose) pairs.

    Median/max errors are over successful queries only; each precision
    bucket counts a query as hitting only when it is BOTH successful and
    within both thresholds, over all queries (so methods that estimate
    rarely cannot score high buckets)."""
    results = list(results)
    if not results:
        raise EmptyInput("no relocalization results")
    ets, ers = [], []
    hits = [0, 0, 0]
    n_success = 0
    for res, gt in results:
        if res.status is not RelocStatus.SUCCESS:
            continue
        n_success += 1
        et = float(np.linalg.norm(res.pose.t - gt.t))
        er = math.degrees(rotation_angle(res.pose.q, gt.q))
        ets.append(et)
        ers.append(er)
        for k, (bt, br) in enumerate(PRECISION_BUCKETS):
            if et <= bt and er <= br:
                hits[k] += 1
    n = len(results)
    if n_success:
        max_et, max_er = max(ets), max(ers)
        med_et, med_er = float(np.median(ets)), float(np.median(ers))
    else:
        max_et = max_er = med_et = med_er = float("nan")
    mean_time = float(np.mean(times_ms)) if times_ms is not None and len(times_ms) \
        else 0.0
    return RelocMetrics(
        max_et=max_et, max_er=max_er, median_et=med_et, median_er=med_er,
        precision=tuple(100.0 * h / n for h in hits),
        pct_estimated=100.0 * n_success / n,
        mean_time_ms=mean_time,
    )
