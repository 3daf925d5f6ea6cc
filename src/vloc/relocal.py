"""Map-free relative localization: lift query pixels to 3D through the
depth image, solve the camera pose with a minimal P3P solver inside a
RANSAC loop, refine on inliers by Gauss-Newton on reprojection error, and
judge success by inlier count. Also the relocalization evaluation metrics
(max/median errors, precision buckets, estimation rate).

Correspondences arrive as a ``vloc.matching.MatchSet``, whose columns
``uv_ref`` (N, 2), ``uv_query`` (N, 2) and ``confidence`` (N,) hold one
match per row; ``lift`` samples depth for the whole ``uv_query`` column in
one pass.

Frame convention: ``solve_pnp_ransac`` returns the transform that maps
point coordinates into the observing camera's frame. When the points are
lifted in the query camera frame and observed in the reference image, that
transform is exactly the query camera's pose expressed in the reference
frame; composing with the reference node's world pose gives the world
pose.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass

import numpy as np

from .dataio import read_csv_rows, read_f32, read_pgm, write_f32, write_pgm
from .errors import EmptyInput, FormatError
from .geometry import (
    DEPTH_MAX_DEFAULT,
    DEPTH_MIN_DEFAULT,
    CameraIntrinsics,
    Pose,
    fmt17,
    matrix_to_quat,
    rotation_angle,
    so3_hat,
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

    def __post_init__(self):
        if self.inliers > self.total:
            raise ValueError("inliers cannot exceed total")


@dataclass(frozen=True)
class PnPParams:
    reproj_thresh: float = 3.0
    min_inliers: int = 12
    max_iters: int = 1000
    confidence: float = 0.999
    seed: int = 0
    refine_iters: int = 20
    z_min: float = 1e-6
    # an (almost) coplanar inlier set has a two-fold pose ambiguity the
    # reprojection error cannot break; callers that must not emit mirror
    # poses (the localization pipeline) reject such solves
    reject_planar: bool = False
    planar_ratio: float = 0.05


# ---------------------------------------------------------------------------
# depth lifting
# ---------------------------------------------------------------------------

def lift(match_set, depth_query: np.ndarray, K: CameraIntrinsics,
         depth_min: float = DEPTH_MIN_DEFAULT,
         depth_max: float = DEPTH_MAX_DEFAULT):
    """Lift a MatchSet's query pixels (its ``uv_query`` column) to 3D
    query-camera points by bilinear depth, keeping their ``uv_ref`` pixels.

    A match is dropped, silently and with order preserved, when any of its
    four depth neighbours lies outside (depth_min, depth_max): mixing
    foreground and background depths across an occlusion edge is worse than
    dropping the sample. On the last row or column an integral pixel falls
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
    valid = ok & np.all((q > depth_min) & (q < depth_max), axis=1)

    q, u, v = q[valid], u[valid], v[valid]
    ax, ay = u - x0[valid], v - y0[valid]
    top = q[:, 0] * (1 - ax) + q[:, 1] * ax
    bot = q[:, 2] * (1 - ax) + q[:, 3] * ax
    d = top * (1 - ay) + bot * ay
    p3d = np.stack([(u - K.cx) / K.fx * d, (v - K.cy) / K.fy * d, d], axis=1)
    return p3d, match_set.uv_ref[valid], int(len(valid) - np.count_nonzero(valid))


# ---------------------------------------------------------------------------
# minimal P3P (Grunert) + absolute orientation
# ---------------------------------------------------------------------------

def _kabsch(src: np.ndarray, dst: np.ndarray):
    """Rigid transform with dst = R @ src + t (least squares, no scale)."""
    cs = src.mean(axis=0)
    cd = dst.mean(axis=0)
    h = (src - cs).T @ (dst - cd)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return r, cd - r @ cs


def _p3p_grunert(pts: np.ndarray, rays: np.ndarray):
    """Camera-frame candidate solutions for 3 world points and 3 unit rays.

    Returns a list of (R, t) with cam = R @ world + t; empty on degeneracy.
    """
    x1, x2, x3 = pts
    f1, f2, f3 = rays
    a = np.linalg.norm(x2 - x3)
    b = np.linalg.norm(x1 - x3)
    c = np.linalg.norm(x1 - x2)
    if min(a, b, c) < 1e-9:
        return []
    cos_al = float(np.dot(f2, f3))
    cos_be = float(np.dot(f1, f3))
    cos_ga = float(np.dot(f1, f2))
    a2, b2, c2 = a * a, b * b, c * c
    q1 = (a2 - c2) / b2
    q2 = (a2 + c2) / b2

    a4 = (q1 - 1.0) ** 2 - 4.0 * c2 / b2 * cos_al ** 2
    a3 = 4.0 * (q1 * (1.0 - q1) * cos_be
                - (1.0 - q2) * cos_al * cos_ga
                + 2.0 * c2 / b2 * cos_al ** 2 * cos_be)
    a2_ = 2.0 * (q1 ** 2 - 1.0
                 + 2.0 * q1 ** 2 * cos_be ** 2
                 + 2.0 * (b2 - c2) / b2 * cos_al ** 2
                 - 4.0 * q2 * cos_al * cos_be * cos_ga
                 + 2.0 * (b2 - a2) / b2 * cos_ga ** 2)
    a1 = 4.0 * (-q1 * (1.0 + q1) * cos_be
                + 2.0 * a2 / b2 * cos_ga ** 2 * cos_be
                - (1.0 - q2) * cos_al * cos_ga)
    a0 = (1.0 + q1) ** 2 - 4.0 * a2 / b2 * cos_ga ** 2

    coeffs = np.array([a4, a3, a2_, a1, a0])
    if not np.all(np.isfinite(coeffs)) or abs(a4) < 1e-14:
        coeffs = coeffs[1:] if abs(a4) < 1e-14 else coeffs
    if len(coeffs) < 2 or not np.all(np.isfinite(coeffs)):
        return []
    roots = np.roots(coeffs)

    out = []
    for root in roots:
        if abs(root.imag) > 1e-8:
            continue
        v = float(root.real)
        if v <= 0.0:
            continue
        denom = 2.0 * (cos_ga - v * cos_al)
        if abs(denom) < 1e-12:
            continue
        u = ((-1.0 + q1) * v * v - 2.0 * q1 * cos_be * v + 1.0 + q1) / denom
        if u <= 0.0:
            continue
        s1_sq = b2 / (1.0 + v * v - 2.0 * v * cos_be)
        if s1_sq <= 0.0:
            continue
        d1 = math.sqrt(s1_sq)
        d2, d3 = u * d1, v * d1
        cam_pts = np.stack([d1 * f1, d2 * f2, d3 * f3])
        r, t = _kabsch(pts, cam_pts)
        out.append((r, t))
    return out


def _pixel_rays(uv: np.ndarray, K: CameraIntrinsics) -> np.ndarray:
    rays = np.stack([(uv[:, 0] - K.cx) / K.fx,
                     (uv[:, 1] - K.cy) / K.fy,
                     np.ones(len(uv))], axis=1)
    return rays / np.linalg.norm(rays, axis=1, keepdims=True)


def _reprojection_errors(r, t, p3d, uv, K, z_min):
    cam = p3d @ r.T + t
    z = cam[:, 2]
    ok = z > z_min
    zs = np.where(ok, z, 1.0)
    du = K.fx * cam[:, 0] / zs + K.cx - uv[:, 0]
    dv = K.fy * cam[:, 1] / zs + K.cy - uv[:, 1]
    err = np.hypot(du, dv)
    return np.where(ok, err, np.inf)


def reprojection_residual_jacobian(r, t, p3d, uv, K, z_min=1e-6):
    """Stacked residuals (2n,) and Jacobian (2n, 6) of pixel reprojection
    error wrt a right-multiplicative SE(3) perturbation of the transform."""
    n = len(p3d)
    cam = p3d @ r.T + t
    x, y = cam[:, 0], cam[:, 1]
    z = np.maximum(cam[:, 2], z_min)
    res = np.empty(2 * n)
    res[0::2] = K.fx * x / z + K.cx - uv[:, 0]
    res[1::2] = K.fy * y / z + K.cy - uv[:, 1]

    # d(cam point)/d(delta) = [R | -R hat(p)] per point
    hats = np.zeros((n, 3, 3))
    px, py, pz = p3d[:, 0], p3d[:, 1], p3d[:, 2]
    hats[:, 0, 1], hats[:, 0, 2] = -pz, py
    hats[:, 1, 0], hats[:, 1, 2] = pz, -px
    hats[:, 2, 0], hats[:, 2, 1] = -py, px
    dcam = np.empty((n, 3, 6))
    dcam[:, :, :3] = r
    dcam[:, :, 3:] = -np.einsum("jk,nkl->njl", r, hats)

    dpi = np.zeros((n, 2, 3))
    dpi[:, 0, 0] = K.fx / z
    dpi[:, 0, 2] = -K.fx * x / (z * z)
    dpi[:, 1, 1] = K.fy / z
    dpi[:, 1, 2] = -K.fy * y / (z * z)
    jac = np.einsum("nij,njk->nik", dpi, dcam).reshape(2 * n, 6)
    return res, jac


def _refine_gauss_newton(r, t, p3d, uv, K, params: PnPParams):
    """Gauss-Newton with step halving; cost is monotone non-increasing.
    Returns (R, t, converged) or the inputs when no step helps."""
    from .geometry import quat_to_matrix, rotvec_to_quat, so3_left_jacobian

    def cost_of(rr, tt):
        e = _reprojection_errors(rr, tt, p3d, uv, K, params.z_min)
        if np.any(np.isinf(e)):
            return np.inf
        return float(np.sum(e * e))

    cost = cost_of(r, t)
    if not np.isfinite(cost):
        return r, t, False
    for _ in range(params.refine_iters):
        res, jac = reprojection_residual_jacobian(r, t, p3d, uv, K, params.z_min)
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


def solve_pnp_ransac(p3d: np.ndarray, uv: np.ndarray, K: CameraIntrinsics,
                     params: PnPParams = PnPParams()) -> RelocResult:
    """P3P hypotheses from minimal 4-point samples (4th point picks among
    the quartic's solutions), scored by reprojection error, with adaptive
    iteration count and Gauss-Newton refinement over the best inlier set.
    Deterministic given the seed."""
    p3d = np.asarray(p3d, dtype=float).reshape(-1, 3)
    uv = np.asarray(uv, dtype=float).reshape(-1, 2)
    n = len(p3d)
    if n < 4:
        return RelocResult(pose=None, inliers=0, total=n,
                           status=RelocStatus.TOO_FEW_MATCHES)

    rays = _pixel_rays(uv, K)
    rng = np.random.default_rng(params.seed)
    best_r, best_t = None, None
    best_inliers = 0
    iteration = 0
    needed = params.max_iters
    while iteration < min(needed, params.max_iters):
        iteration += 1
        sel = rng.choice(n, size=4, replace=False)
        candidates = _p3p_grunert(p3d[sel[:3]], rays[sel[:3]])
        if not candidates:
            continue
        # 4th sample point disambiguates the quartic's solutions
        probe = p3d[sel[3:4]]
        probe_uv = uv[sel[3:4]]
        errs4 = [float(_reprojection_errors(r, t, probe, probe_uv, K,
                                            params.z_min)[0])
                 for r, t in candidates]
        r, t = candidates[int(np.argmin(errs4))]
        inl = int(np.sum(_reprojection_errors(r, t, p3d, uv, K, params.z_min)
                         < params.reproj_thresh))
        if inl > best_inliers:
            best_inliers, best_r, best_t = inl, r, t
            w = best_inliers / n
            if w >= 1.0 - 1e-12:
                break
            denom = math.log(max(1e-12, 1.0 - w ** 4))
            needed = min(params.max_iters,
                         int(math.ceil(math.log(1.0 - params.confidence) / denom)))

    if best_r is None or best_inliers < 4:
        return RelocResult(pose=None, inliers=0, total=n,
                           status=RelocStatus.RANSAC_FAILED)

    mask = _reprojection_errors(best_r, best_t, p3d, uv, K, params.z_min) \
        < params.reproj_thresh
    r_ref, t_ref, ok = _refine_gauss_newton(best_r, best_t, p3d[mask], uv[mask],
                                            K, params)
    if ok:
        inl_ref = int(np.sum(
            _reprojection_errors(r_ref, t_ref, p3d, uv, K, params.z_min)
            < params.reproj_thresh))
        if inl_ref >= best_inliers:
            best_r, best_t, best_inliers = r_ref, t_ref, inl_ref

    pose = Pose(best_t, matrix_to_quat(best_r))
    status = RelocStatus.SUCCESS if best_inliers >= params.min_inliers \
        else RelocStatus.RANSAC_FAILED
    if status is RelocStatus.SUCCESS and params.reject_planar:
        mask = _reprojection_errors(best_r, best_t, p3d, uv, K, params.z_min) \
            < params.reproj_thresh
        eigvals = np.linalg.eigvalsh(np.cov(p3d[mask].T))
        if math.sqrt(max(eigvals[0], 0.0)) < \
                params.planar_ratio * math.sqrt(max(eigvals[2], 1e-12)):
            status = RelocStatus.RANSAC_FAILED
    return RelocResult(pose=pose, inliers=best_inliers, total=n, status=status)


def node_observation(node: MapNode) -> Observation:
    """The reference-side observation a matcher sees for a map node."""
    return Observation(color=node.image, depth=node.depth,
                       landmark_ids=node.landmark_ids,
                       landmark_uv=node.landmark_uv,
                       landmark_depth=node.landmark_depth)


def localize_against_node(node: MapNode, obs: Observation, K: CameraIntrinsics,
                          matcher, params: PnPParams = PnPParams(),
                          depth_min: float = DEPTH_MIN_DEFAULT,
                          depth_max: float = DEPTH_MAX_DEFAULT) -> RelocResult:
    """Full per-node chain: match -> lift -> PnP/RANSAC -> world pose.

    The returned pose is the query camera in the world frame (node pose
    composed with the relative solution)."""
    if node.image is None:
        raise ValueError(f"node {node.id} has no stored image")
    match_set = matcher(node_observation(node), obs)
    p3d, uv_ref, _ = lift(match_set, obs.depth, K, depth_min, depth_max)
    rel = solve_pnp_ransac(p3d, uv_ref, K, params)
    if rel.status is not RelocStatus.SUCCESS:
        return rel
    return RelocResult(pose=node.pose.compose(rel.pose), inliers=rel.inliers,
                       total=rel.total, status=rel.status)


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
            f.write(f"{i}," + ",".join(fmt17(v) for v in (*pose.t, *pose.q)) + "\n")
    with open(os.path.join(dirpath, "queries", "gt_poses.csv"), "w") as f:
        f.write(_QUERY_POSES_HEADER + "\n")
        for j, (img, depth, pose, ref_id) in enumerate(queries):
            write_pgm(os.path.join(dirpath, "queries", f"{j}.pgm"), img)
            write_f32(os.path.join(dirpath, "queries", "depth", f"{j}.f32"), depth)
            f.write(f"{j},{ref_id},"
                    + ",".join(fmt17(v) for v in (*pose.t, *pose.q)) + "\n")


def load_reloc_dataset(dirpath):
    """Returns (K, refs [(img, pose)], queries [(img, depth, pose, ref_id)])."""
    with open(os.path.join(dirpath, "intrinsics.txt")) as f:
        K = CameraIntrinsics.from_line(f.readline())
    refs = []
    path = os.path.join(dirpath, "refs", "poses.csv")
    for lineno, row in read_csv_rows(path, _REF_POSES_HEADER):
        if len(row) != 8:
            raise FormatError(f"{path}:{lineno}: expected 8 fields")
        i = int(row[0])
        pose = Pose(np.array([float(v) for v in row[1:4]]),
                    np.array([float(v) for v in row[4:8]]))
        refs.append((read_pgm(os.path.join(dirpath, "refs", f"{i}.pgm")), pose))
    queries = []
    path = os.path.join(dirpath, "queries", "gt_poses.csv")
    for lineno, row in read_csv_rows(path, _QUERY_POSES_HEADER):
        if len(row) != 9:
            raise FormatError(f"{path}:{lineno}: expected 9 fields")
        j, ref_id = int(row[0]), int(row[1])
        pose = Pose(np.array([float(v) for v in row[2:5]]),
                    np.array([float(v) for v in row[5:9]]))
        img = read_pgm(os.path.join(dirpath, "queries", f"{j}.pgm"))
        depth = read_f32(os.path.join(dirpath, "queries", "depth", f"{j}.f32"),
                         shape=img.shape)
        queries.append((img, depth, pose, ref_id))
    return K, refs, queries
