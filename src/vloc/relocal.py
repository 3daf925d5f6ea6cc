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
``REPROJ_THRESH``, the stop rule's ``RANSAC_CONFIDENCE``, the refinement's
``REFINE_ITERS`` and the cheirality bound ``Z_MIN_DEFAULT``. ``PnPParams``
holds only what callers set: ``min_inliers``, ``max_iters`` and ``seed``.
There is no planar-scene rejection (see ``PnPParams``).

RANSAC hypotheses are solved and scored in blocks of samples: one batched
companion-matrix eigenvalue call finds every sample's quartic roots, one
batched SVD aligns every candidate, and one array op scores a block's
picks against all points. The sample sequence, the pick among a sample's
candidates, the stop rule and so the result are those of the sequential
loop, which ``tests/test_relocal.py`` keeps as the reference.

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
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .dataio import line_errors, read_csv_rows, read_f32, read_pgm, write_f32, write_pgm
from .errors import EmptyInput
from .geometry import (
    DEPTH_MAX_DEFAULT,
    DEPTH_MIN_DEFAULT,
    Z_MIN_DEFAULT,
    CameraIntrinsics,
    Pose,
    matrix_to_quat,
    quat_to_matrix,
    rotation_angle,
    rotvec_to_quat,
    so3_left_jacobian,
    unproject,
)
from .mapgraph import MapNode, Observation


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

    def __post_init__(self):
        if self.inliers > self.total:
            raise ValueError("inliers cannot exceed total")


REPROJ_THRESH = 3.0        # px; a point within it is an inlier
RANSAC_CONFIDENCE = 0.999
REFINE_ITERS = 20


@dataclass(frozen=True)
class PnPParams:
    # an (almost) coplanar inlier set has a two-fold pose ambiguity the
    # reprojection error cannot break; the solver returns either pose, and
    # the localization pipeline drops the mirror one by its attitude gate
    min_inliers: int = 12
    max_iters: int = 1000
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
# per-call cost of the array operations.
_BLOCK_SIZES = (1, 8, 64)

# Refinement stops below this sum of squared pixel errors: the pose then
# reprojects to within about 1e-9 px, and further steps move it by less
# than any tolerance downstream while step halving finds nothing to gain.
_COST_FLOOR = 1e-18

# the point pairs (2, 3), (1, 3), (1, 2) of a sample's triple: they span
# the sides opposite points 1, 2, 3 and the angles between their rays
_PAIR_I = np.array([1, 0, 0])
_PAIR_J = np.array([2, 2, 1])


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, each one BLAS ``ddot`` as ``np.dot``
    and ``np.linalg.norm`` of a single vector compute it, so a block rounds
    exactly as one sample at a time does."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


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


def _poly_roots(p: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Roots (k, m - 1) of the polynomials with coefficient rows p (k, m),
    highest first, as ``np.roots`` finds them: leading and trailing zeros
    stripped, the eigenvalues of the rest's companion matrix, then a zero
    root per trailing zero. Only the ``rows`` asked for whose companion
    matrix is finite are solved (``np.roots`` raises on the others); the
    other rows' roots are 0. Callers silence the other rows' warnings."""
    k, m = p.shape
    roots = np.zeros((k, m - 1), dtype=complex)
    nonzero = p != 0.0
    first = nonzero.argmax(axis=1)
    end = m - nonzero[:, ::-1].argmax(axis=1)
    for lo, hi in set(zip(first[rows].tolist(), end[rows].tolist())):
        deg = hi - lo - 1
        if deg == 0:
            continue
        comp = np.zeros((k, deg, deg))
        comp[:, 0] = -p[:, lo + 1:hi] / p[:, lo:lo + 1]
        comp.reshape(k, deg * deg)[:, deg::deg + 1] = 1.0     # subdiagonal
        # an all-zero row falls in the first group and fails this test
        ok = rows & (first == lo) & (end == hi) & np.isfinite(comp[:, 0]).all(axis=1)
        comp[~ok] = 0.0
        roots[ok, :deg] = np.linalg.eigvals(comp)[ok]
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
    # sides a, b, c opposite points 1, 2, 3 and the cosines of the angles
    # between the rays to the other two points
    d = pts.take(_PAIR_I, axis=1) - pts.take(_PAIR_J, axis=1)
    dots = _rowdot(np.concatenate([d, rays.take(_PAIR_I, axis=1)], axis=1),
                   np.concatenate([d, rays.take(_PAIR_J, axis=1)], axis=1))
    sides = np.sqrt(dots[:, :3])
    a2, b2, c2 = (sides * sides).T
    cos_al, cos_be, cos_ga = cosines = dots[:, 3:].T
    sq_al, sq_be, sq_ga = _square(cosines)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # scaling by 2 or 4 is exact: 4.0 * cb rounds as 4.0 * c2 / b2 does
        q1, q2, cb, ab, bcb, bab = np.array(
            [a2 - c2, a2 + c2, c2, a2, b2 - c2, b2 - a2]) / b2
        sq_q1 = _square(q1)
        al_ga = (1.0 - q2) * cos_al * cos_ga
        cb_al = 2.0 * cb * sq_al
        ab_ga = 2.0 * ab * sq_ga
        coeffs = np.array([
            _square(q1 - 1.0) - 2.0 * cb_al,
            4.0 * (q1 * (1.0 - q1) * cos_be - al_ga + cb_al * cos_be),
            2.0 * (sq_q1 - 1.0 + 2.0 * sq_q1 * sq_be + 2.0 * bcb * sq_al
                   - 4.0 * q2 * cos_al * cos_be * cos_ga + 2.0 * bab * sq_ga),
            4.0 * (-q1 * (1.0 + q1) * cos_be + ab_ga * cos_be - al_ga),
            _square(1.0 + q1) - 2.0 * ab_ga,
        ]).T
        solvable = (sides >= 1e-9).all(axis=1) & np.isfinite(coeffs).all(axis=1)

        # a vanishing leading coefficient leaves a cubic
        coeffs[np.abs(coeffs[:, 0]) < 1e-14, 0] = 0.0
        roots = _poly_roots(coeffs, solvable)     # a 0 root gives no solution

        # the depth ratios u = d2 / d1, v = d3 / d1 of each root
        v = roots.real
        q1, cos_al, cos_be, cos_ga, b2 = np.array(
            [q1, cos_al, cos_be, cos_ga, b2])[:, :, None]    # (B, 1) columns
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
    rays = np.ones((len(uv), 3))
    rays[:, :2] = (uv - (K.cx, K.cy)) / (K.fx, K.fy)
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
    hats = np.zeros((n, 3, 3))
    px, py, pz = p3d[:, 0], p3d[:, 1], p3d[:, 2]
    hats[:, 0, 1], hats[:, 0, 2] = -pz, py
    hats[:, 1, 0], hats[:, 1, 2] = pz, -px
    hats[:, 2, 0], hats[:, 2, 1] = -py, px
    d_rho = dpi @ r
    jac = np.concatenate([d_rho, -(d_rho @ hats)], axis=2).reshape(2 * n, 6)
    return res, jac


def _refine_gauss_newton(r, t, p3d, uv, K, errors=None):
    """Gauss-Newton with step halving; cost is monotone non-increasing.
    ``errors`` are the points' reprojection errors at (r, t) when the
    caller has them. Returns (R, t, converged) or the inputs when no step
    helps."""

    def cost_of(rr, tt):
        e = _reprojection_errors(rr, tt, p3d, uv, K)
        return float((e * e).sum())        # inf when a point is behind

    cost = cost_of(r, t) if errors is None else float((errors * errors).sum())
    if not np.isfinite(cost):
        return r, t, False
    for _ in range(REFINE_ITERS):
        if cost < _COST_FLOOR:
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
            d = delta * step
            rho, phi = d[:3], d[3:]
            r_new = r @ quat_to_matrix(rotvec_to_quat(phi))
            t_new = r @ (so3_left_jacobian(phi) @ rho) + t
            c_new = cost_of(r_new, t_new)
            if c_new < cost:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        decrease = cost - c_new
        r, t, cost = r_new, t_new, c_new
        if decrease < 1e-10:
            break
    return r, t, True


def _score_block(sel, p3d, uv, rays, K):
    """Solve and score a block of 4-point samples sel (B, 4).

    The first three points of a sample give its P3P candidates and the 4th
    picks one, the first with the smallest reprojection error. Returns the
    picked (R (B, 3, 3), t (B, 3)), their errors over every point (B, N),
    their inlier counts (B,), -1 for a sample without candidates, and the
    number of candidates of each sample (B,)."""
    triples = sel[:, :3]
    valid, r, t = _p3p_grunert(p3d.take(triples, axis=0), rays.take(triples, axis=0))
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


def solve_pnp_ransac(p3d: np.ndarray, uv: np.ndarray, K: CameraIntrinsics,
                     params: PnPParams = PnPParams()) -> RelocResult:
    """P3P hypotheses from minimal 4-point samples (4th point picks among
    the quartic's solutions), scored by reprojection error, with adaptive
    iteration count and Gauss-Newton refinement over the best inlier set.
    Deterministic given the seed.

    Samples are solved and scored in blocks (``_BLOCK_SIZES``) but drawn
    and judged one at a time, in the order a sequential loop would: one
    ``rng.choice(n, 4, replace=False)`` each, the best replaced only on a
    strictly larger inlier count, the stop rule applied after each. A block
    never draws more samples than the stop rule still allows."""
    p3d = np.asarray(p3d, dtype=float).reshape(-1, 3)
    uv = np.asarray(uv, dtype=float).reshape(-1, 2)
    n = len(p3d)
    if n < 4:
        return RelocResult(pose=None, inliers=0, total=n,
                           status=RelocStatus.TOO_FEW_MATCHES)

    rays = _pixel_rays(uv, K)
    rng = np.random.default_rng(params.seed)
    best_r = best_t = best_err = None
    best_inliers = 0
    iteration = hypotheses = 0
    needed = params.max_iters
    blocks = itertools.chain(_BLOCK_SIZES, itertools.repeat(_BLOCK_SIZES[-1]))
    while iteration < needed:
        sel = np.array([rng.choice(n, size=4, replace=False)
                        for _ in range(min(next(blocks), needed - iteration))])
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
                needed = min(params.max_iters,
                             int(math.ceil(math.log(1.0 - RANSAC_CONFIDENCE) / denom)))
            if iteration >= needed:
                break

    if best_r is None or best_inliers < 4:
        return RelocResult(pose=None, inliers=0, total=n,
                           status=RelocStatus.RANSAC_FAILED,
                           iterations=iteration, hypotheses=hypotheses)

    mask = best_err < REPROJ_THRESH
    r_ref, t_ref, ok = _refine_gauss_newton(best_r, best_t, p3d[mask], uv[mask],
                                            K, best_err[mask])
    if ok and r_ref is not best_r:
        err_ref = _reprojection_errors(r_ref, t_ref, p3d, uv, K)
        inl_ref = int(np.count_nonzero(err_ref < REPROJ_THRESH))
        if inl_ref >= best_inliers:
            best_r, best_t, best_inliers = r_ref, t_ref, inl_ref

    pose = Pose(best_t, matrix_to_quat(best_r))
    status = RelocStatus.SUCCESS if best_inliers >= params.min_inliers \
        else RelocStatus.RANSAC_FAILED
    return RelocResult(pose=pose, inliers=best_inliers, total=n, status=status,
                       iterations=iteration, hypotheses=hypotheses)


def node_observation(node: MapNode) -> Observation:
    """The reference-side observation a matcher sees for a map node."""
    return Observation(color=node.image, landmark_ids=node.landmark_ids,
                       landmark_uv=node.landmark_uv,
                       landmark_depth=node.landmark_depth)


def localize_against_node(node: MapNode, obs: Observation, K: CameraIntrinsics,
                          matcher, params: PnPParams = PnPParams()) -> RelocResult:
    """Full per-node chain: match -> lift -> PnP/RANSAC -> world pose.

    The returned pose is the query camera in the world frame (node pose
    composed with the relative solution)."""
    if node.image is None:
        raise ValueError(f"node {node.id} has no stored image")
    match_set = matcher(node_observation(node), obs)
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
    max_et: float
    max_er: float
    median_et: float
    median_er: float
    precision: tuple          # percent per bucket in PRECISION_BUCKETS
    pct_estimated: float
    mean_time_ms: float

    def as_csv(self) -> str:
        header = ("max_et_m,max_er_deg,median_et_m,median_er_deg,"
                  "prec_5cm_5deg,prec_25cm_5deg,prec_1m_10deg,"
                  "pct_estimated,mean_time_ms")
        vals = [self.max_et, self.max_er, self.median_et, self.median_er,
                *self.precision, self.pct_estimated, self.mean_time_ms]
        return header + "\n" + ",".join(format(v, ".9g") for v in vals) + "\n"


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


# ---------------------------------------------------------------------------
# benchmark dataset layout
# ---------------------------------------------------------------------------

_REF_POSES_HEADER = "id,x,y,z,qw,qx,qy,qz"
_QUERY_POSES_HEADER = "id,ref_id,x,y,z,qw,qx,qy,qz"


def save_reloc_dataset(dirpath, refs, queries, K: CameraIntrinsics) -> None:
    """refs: [(image, world pose)]; queries: [(image, depth, world gt pose,
    ref_id)]. Layout: refs/<i>.pgm + refs/poses.csv, queries/<j>.pgm +
    queries/depth/<j>.f32 + queries/gt_poses.csv, intrinsics.txt."""
    os.makedirs(os.path.join(dirpath, "refs"), exist_ok=True)
    os.makedirs(os.path.join(dirpath, "queries", "depth"), exist_ok=True)
    with open(os.path.join(dirpath, "intrinsics.txt"), "w") as f:
        f.write(K.to_line() + "\n")
    with open(os.path.join(dirpath, "refs", "poses.csv"), "w") as f:
        f.write(_REF_POSES_HEADER + "\n")
        for i, (img, pose) in enumerate(refs):
            write_pgm(os.path.join(dirpath, "refs", f"{i}.pgm"), img)
            f.write(",".join([str(i), *pose.fields()]) + "\n")
    with open(os.path.join(dirpath, "queries", "gt_poses.csv"), "w") as f:
        f.write(_QUERY_POSES_HEADER + "\n")
        for j, (img, depth, pose, ref_id) in enumerate(queries):
            write_pgm(os.path.join(dirpath, "queries", f"{j}.pgm"), img)
            write_f32(os.path.join(dirpath, "queries", "depth", f"{j}.f32"), depth)
            f.write(",".join([str(j), str(ref_id), *pose.fields()]) + "\n")


def load_reloc_dataset(dirpath):
    """Returns (K, refs [(img, pose)], queries [(img, depth, pose, ref_id)])."""
    path = os.path.join(dirpath, "intrinsics.txt")
    with open(path) as f, line_errors(path, 1):
        K = CameraIntrinsics.from_line(f.readline())
    refs = []
    path = os.path.join(dirpath, "refs", "poses.csv")
    for lineno, row in read_csv_rows(path, _REF_POSES_HEADER):
        with line_errors(path, lineno):
            i = int(row[0])
            pose = Pose.from_fields(row[1:])
        refs.append((read_pgm(os.path.join(dirpath, "refs", f"{i}.pgm")), pose))
    queries = []
    path = os.path.join(dirpath, "queries", "gt_poses.csv")
    for lineno, row in read_csv_rows(path, _QUERY_POSES_HEADER):
        with line_errors(path, lineno):
            j, ref_id = int(row[0]), int(row[1])
            pose = Pose.from_fields(row[2:])
        img = read_pgm(os.path.join(dirpath, "queries", f"{j}.pgm"))
        depth = read_f32(os.path.join(dirpath, "queries", "depth", f"{j}.f32"),
                         shape=img.shape)
        queries.append((img, depth, pose, ref_id))
    return K, refs, queries
