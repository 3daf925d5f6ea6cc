import math

import numpy as np
import pytest

from vloc.errors import EmptyInput, FormatError
from vloc.geometry import (
    DEPTH_MAX_DEFAULT,
    DEPTH_MIN_DEFAULT,
    CameraIntrinsics,
    Pose,
    matrix_to_quat,
    rotation_angle,
    se3_exp,
)
from vloc.mapgraph import MapNode
from vloc.matching import MatchSet, match_oracle
from vloc.relocal import (
    _BLOCK_SIZES,
    RANSAC_CONFIDENCE,
    REPROJ_THRESH,
    PnPParams,
    RelocResult,
    RelocStatus,
    _p3p_grunert,
    _pixel_rays,
    _refine_gauss_newton,
    _reprojection_errors,
    _score_block,
    compute_reloc_metrics,
    lift,
    load_reloc_dataset,
    localize_against_node,
    reprojection_residual_jacobian,
    save_reloc_dataset,
    solve_pnp_ransac,
)
from vloc.retrieval import extract_descriptor
from vloc.simworld import make_preset, planar_camera_pose, render

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=64.0, width=128, height=128)


def synth_scene(rng, n, noise=0.0):
    """Random camera-from-world transform with n in-image observations."""
    transform = Pose(rng.normal(0, 0.5, 3), rng.normal(0, 1, 4))
    rot = transform.rotation_matrix()
    z = rng.uniform(1.5, 6.0, n)
    u = rng.uniform(4.0, 124.0, n)
    v = rng.uniform(4.0, 124.0, n)
    p_cam = np.stack([(u - K.cx) / K.fx * z, (v - K.cy) / K.fy * z, z], axis=1)
    p_world = (p_cam - transform.t) @ rot
    uv = np.stack([u, v], axis=1)
    if noise:
        uv = uv + rng.normal(0.0, noise, uv.shape)
    return p_world, uv, transform, p_cam


def corrupt_field(path, lineno, field, value="x0"):
    """Replace one comma-separated field of a text file's line (1-based)."""
    lines = path.read_text().splitlines()
    row = lines[lineno - 1].split(",")
    row[field] = value
    lines[lineno - 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def match_set_from(uv_ref, uv_query, conf=1.0):
    return MatchSet(uv_ref=uv_ref, uv_query=uv_query,
                    confidence=np.full(len(uv_query), conf))


def per_pixel_depth(depth, u, v, depth_min=DEPTH_MIN_DEFAULT,
                   depth_max=DEPTH_MAX_DEFAULT):
    """Per-pixel reference for ``lift``: bilinear depth, None if any
    contributing pixel is invalid; on the last row/column an integral pixel
    falls back to that exact pixel."""
    h, w = depth.shape
    x0, y0 = int(math.floor(u)), int(math.floor(v))
    if not (0 <= x0 and x0 + 1 < w and 0 <= y0 and y0 + 1 < h):
        if 0 <= u <= w - 1 and 0 <= v <= h - 1 and u == int(u) and v == int(v):
            d = float(depth[int(v), int(u)])
            return d if depth_min < d < depth_max else None
        return None
    q = depth[y0:y0 + 2, x0:x0 + 2].astype(float)
    if not np.all((q > depth_min) & (q < depth_max) & np.isfinite(q)):
        return None
    ax, ay = u - x0, v - y0
    top = q[0, 0] * (1 - ax) + q[0, 1] * ax
    bot = q[1, 0] * (1 - ax) + q[1, 1] * ax
    return float(top * (1 - ay) + bot * ay)


def reference_lift(match_set, depth, K):
    """``lift`` one match at a time through ``per_pixel_depth``."""
    p3d, uv_ref = [], []
    for r, (u, v) in zip(match_set.uv_ref, match_set.uv_query):
        d = per_pixel_depth(depth, float(u), float(v))
        if d is not None:
            p3d.append(((u - K.cx) / K.fx * d, (v - K.cy) / K.fy * d, d))
            uv_ref.append(r)
    return (np.array(p3d, dtype=float).reshape(-1, 3),
            np.array(uv_ref, dtype=float).reshape(-1, 2),
            len(match_set) - len(p3d))


# ---------------------------------------------------------------------------
# sequential reference for solve_pnp_ransac's hypothesis loop: one sample at
# a time, a scalar Grunert P3P through np.roots and one Kabsch SVD per root
# ---------------------------------------------------------------------------

def reference_kabsch(src: np.ndarray, dst: np.ndarray):
    """Rigid transform with dst = R @ src + t (least squares, no scale)."""
    cs = src.mean(axis=0)
    cd = dst.mean(axis=0)
    h = (src - cs).T @ (dst - cd)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return r, cd - r @ cs


def reference_p3p_grunert(pts: np.ndarray, rays: np.ndarray):
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
        r, t = reference_kabsch(pts, cam_pts)
        out.append((r, t))
    return out


def reference_solve_pnp_ransac(p3d, uv, K, params=PnPParams()):
    """``solve_pnp_ransac`` with the sequential hypothesis loop; the
    refinement and the final checks are the library's."""
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
    iteration = hypotheses = 0
    needed = params.max_iters
    while iteration < min(needed, params.max_iters):
        iteration += 1
        sel = rng.choice(n, size=4, replace=False)
        candidates = reference_p3p_grunert(p3d[sel[:3]], rays[sel[:3]])
        hypotheses += len(candidates)
        if not candidates:
            continue
        # 4th sample point disambiguates the quartic's solutions
        probe = p3d[sel[3:4]]
        probe_uv = uv[sel[3:4]]
        errs4 = [float(_reprojection_errors(r, t, probe, probe_uv, K)[0])
                 for r, t in candidates]
        r, t = candidates[int(np.argmin(errs4))]
        inl = int(np.sum(_reprojection_errors(r, t, p3d, uv, K) < REPROJ_THRESH))
        if inl > best_inliers:
            best_inliers, best_r, best_t = inl, r, t
            w = best_inliers / n
            if w >= 1.0 - 1e-12:
                break
            denom = math.log(max(1e-12, 1.0 - w ** 4))
            needed = min(params.max_iters,
                         int(math.ceil(math.log(1.0 - RANSAC_CONFIDENCE) / denom)))

    if best_r is None or best_inliers < 4:
        return RelocResult(pose=None, inliers=0, total=n,
                           status=RelocStatus.RANSAC_FAILED,
                           iterations=iteration, hypotheses=hypotheses)

    mask = _reprojection_errors(best_r, best_t, p3d, uv, K) < REPROJ_THRESH
    r_ref, t_ref, ok = _refine_gauss_newton(best_r, best_t, p3d[mask], uv[mask], K)
    if ok:
        inl_ref = int(np.sum(_reprojection_errors(r_ref, t_ref, p3d, uv, K)
                             < REPROJ_THRESH))
        if inl_ref >= best_inliers:
            best_r, best_t, best_inliers = r_ref, t_ref, inl_ref

    pose = Pose(best_t, matrix_to_quat(best_r))
    status = RelocStatus.SUCCESS if best_inliers >= params.min_inliers \
        else RelocStatus.RANSAC_FAILED
    return RelocResult(pose=pose, inliers=best_inliers, total=n, status=status,
                       iterations=iteration, hypotheses=hypotheses)


class TestLift:
    def test_all_depths_invalid(self):
        depth = np.zeros((128, 128))
        ms = match_set_from([(10, 10)], [(50.5, 60.5)])
        p3d, uv_ref, dropped = lift(ms, depth, K)
        assert len(p3d) == 0 and dropped == 1

    def test_principal_point_depth_two(self):
        depth = np.full((128, 128), 2.0)
        ms = match_set_from([(30, 40)], [(64.0, 64.0)])
        p3d, uv_ref, dropped = lift(ms, depth, K)
        assert dropped == 0
        assert np.allclose(p3d[0], [0.0, 0.0, 2.0], atol=1e-12)
        assert np.allclose(uv_ref[0], [30.0, 40.0])

    def test_fractional_pixel_on_constant_plane_is_exact(self):
        depth = np.full((128, 128), 3.2)
        ms = match_set_from([(0, 0)], [(37.25, 81.75)])
        p3d, _, _ = lift(ms, depth, K)
        expected = np.array([(37.25 - 64) / 100 * 3.2, (81.75 - 64) / 100 * 3.2, 3.2])
        assert np.allclose(p3d[0], expected, atol=1e-12)

    def test_simworld_lift_against_landmark_truth(self):
        # bilinear depth is exact on fronto-parallel surfaces and
        # interpolation-limited on oblique ones; both bounds checked
        world, _ = make_preset("corridor", seed=3)
        pose = planar_camera_pose(32.0, 2.25, 0.0)   # squarely facing the end wall
        frame = render(world, pose, K)
        ms = match_oracle(frame, frame, seed=0)
        assert np.array_equal(ms.uv_ref, ms.uv_query)
        p3d, uv_ref, dropped = lift(ms, frame.depth, K)
        assert len(p3d) == len(uv_ref) == len(ms) - dropped
        ids, pos, nrm = world.landmarks()
        lookup = {int(i): (pos[k], nrm[k]) for k, i in enumerate(ids)}
        rot = pose.rotation_matrix()
        checked_flat = 0
        # in a self-match the returned uv_ref is the lifted query pixel, so
        # it names the landmark each point came from
        for p, uv in zip(p3d, uv_ref):
            (k,) = np.flatnonzero(np.all(frame.landmark_uv == uv, axis=1))
            lm_pos, lm_nrm = lookup[int(frame.landmark_ids[k])]
            truth = rot.T @ (lm_pos - pose.t)
            err = np.max(np.abs(p - truth))
            assert err < 5e-3
            if abs(lm_nrm[0] + 1.0) < 1e-12:   # end-wall face, fronto-parallel
                assert err < 1e-6
                checked_flat += 1
        assert checked_flat >= 10

    def test_matches_per_pixel_reference_bit_for_bit(self):
        rng = np.random.default_rng(31)
        h, w = 24, 32
        k_small = CameraIntrinsics(fx=30.0, fy=30.0, cx=16.0, cy=12.0,
                                   width=w, height=h)
        for trial in range(20):
            depth = rng.uniform(0.5, 8.0, (h, w))
            bad = rng.choice(h * w, 60, replace=False)
            depth.flat[bad[:20]] = 0.0
            depth.flat[bad[20:40]] = np.nan
            depth.flat[bad[40:50]] = DEPTH_MAX_DEFAULT
            depth.flat[bad[50:]] = DEPTH_MAX_DEFAULT + rng.uniform(0.0, 5.0, 10)
            if trial % 2:
                depth = depth.astype(np.float32)
            ints = rng.integers(0, [w, h], (30, 2)).astype(float)
            uv = np.concatenate([
                rng.uniform([-2.0, -2.0], [w + 1.0, h + 1.0], (200, 2)),
                ints,                                        # integral inside
                np.stack([np.full(h, w - 1.0), np.arange(h)], axis=1),
                np.stack([np.arange(w), np.full(w, h - 1.0)], axis=1),
                [[w - 1.0, h - 1.0], [w - 1.0, 0.0], [0.0, h - 1.0], [0.0, 0.0]],
                np.stack([np.full(h, w - 1.5), np.arange(h) + 0.25], axis=1),
                np.stack([np.arange(w) + 0.5, np.full(w, h - 1.25)], axis=1),
                [[w - 1.0, 3.5], [4.5, h - 1.0], [w - 0.5, 2.0], [2.0, h - 0.5]],
                [[w, 0.0], [0.0, h], [-1.0, 3.0], [3.0, -1.0], [-0.5, -0.5]],
                [[w - 1e-9, 5.0], [-1e-12, 5.0], [1e6, 1e6]],
            ])
            uv = np.unique(uv, axis=0)
            uv = uv[rng.permutation(len(uv))]
            ms = match_set_from(rng.uniform(0.0, 30.0, uv.shape), uv)
            got = lift(ms, depth, k_small)
            want = reference_lift(ms, depth, k_small)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[2] == want[2]
            assert 0 < got[2] < len(ms)

    def test_non_finite_query_pixels_drop(self):
        depth = np.full((128, 128), 2.0)
        ms = match_set_from([(1, 1), (2, 2), (3, 3), (4, 4)],
                            [(np.nan, 5.0), (5.0, np.inf), (-np.inf, 7.0), (8.0, 9.0)])
        p3d, uv_ref, dropped = lift(ms, depth, K)
        assert dropped == 3
        assert np.array_equal(uv_ref, [[4.0, 4.0]])


class TestSolvePnP:
    def test_too_few_matches(self):
        res = solve_pnp_ransac(np.zeros((3, 3)), np.zeros((3, 2)), K)
        assert res.status is RelocStatus.TOO_FEW_MATCHES
        assert res.iterations == 0 and res.hypotheses == 0

    def test_exact_recovery_seeded(self):
        worst_t = worst_r = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            p_world, uv, transform, _ = synth_scene(rng, 20)
            res = solve_pnp_ransac(p_world, uv, K, PnPParams(seed=seed))
            assert res.status is RelocStatus.SUCCESS
            worst_t = max(worst_t, float(np.linalg.norm(res.pose.t - transform.t)))
            worst_r = max(worst_r, rotation_angle(res.pose.q, transform.q))
        assert worst_t < 1e-6 and worst_r < 1e-6

    def test_robust_to_outliers(self):
        ok = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            p_world, uv, transform, p_cam = synth_scene(rng, 100, noise=1.0)
            idx = rng.choice(100, 30, replace=False)
            uv[idx] = np.stack([rng.uniform(0, 128, 30), rng.uniform(0, 128, 30)], axis=1)
            res = solve_pnp_ransac(p_world, uv, K, PnPParams(seed=seed))
            span = p_cam[:, 2].max() - p_cam[:, 2].min()
            if (res.status is RelocStatus.SUCCESS
                    and np.linalg.norm(res.pose.t - transform.t) < 0.01 * span):
                ok += 1
        assert ok == 20

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(77)
        p_world, uv, _, _ = synth_scene(rng, 60, noise=1.0)
        a = solve_pnp_ransac(p_world, uv, K, PnPParams(seed=4))
        b = solve_pnp_ransac(p_world, uv, K, PnPParams(seed=4))
        assert a.pose == b.pose and a.inliers == b.inliers

    def test_refinement_never_increases_inlier_residual(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            p_world, uv, transform, _ = synth_scene(rng, 40, noise=2.0)
            start = transform.compose(se3_exp(rng.normal(0, 0.02, 6)))
            r0, t0 = start.rotation_matrix(), start.t
            e0 = _reprojection_errors(r0, t0, p_world, uv, K)
            c0 = float(np.sum(e0 * e0))
            r1, t1, okflag = _refine_gauss_newton(r0, t0, p_world, uv, K)
            e1 = _reprojection_errors(r1, t1, p_world, uv, K)
            assert float(np.sum(e1 * e1)) <= c0 + 1e-12

    def test_jacobian_matches_central_differences(self):
        # 1e-5 relative agreement at 100 seeded linearization points
        rng = np.random.default_rng(123)
        for _ in range(100):
            p_world, uv, transform, _ = synth_scene(rng, 6, noise=1.0)
            base = transform.compose(se3_exp(rng.normal(0, 0.05, 6)))
            r, t = base.rotation_matrix(), base.t
            res, jac = reprojection_residual_jacobian(r, t, p_world, uv, K)
            h = 1e-6
            jac_fd = np.zeros_like(jac)
            for k in range(6):
                d = np.zeros(6)
                d[k] = h
                plus = base.compose(se3_exp(d))
                minus = base.compose(se3_exp(-d))
                rp, _ = reprojection_residual_jacobian(
                    plus.rotation_matrix(), plus.t, p_world, uv, K)
                rm, _ = reprojection_residual_jacobian(
                    minus.rotation_matrix(), minus.t, p_world, uv, K)
                jac_fd[:, k] = (rp - rm) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(jac))))
            assert np.max(np.abs(jac - jac_fd)) / scale < 1e-5


def outlier_scene(rng, n, share, noise=0.5):
    """synth_scene with round(share * n) pixels replaced by random ones."""
    p_world, uv, _, _ = synth_scene(rng, n, noise)
    k = int(round(share * n))
    uv[rng.choice(n, k, replace=False)] = rng.uniform(0.0, 128.0, (k, 2))
    return p_world, uv


def world_from_camera(rng, p_cam):
    """World points and pixels for camera-frame points under a random pose."""
    transform = Pose(rng.normal(0, 0.5, 3), rng.normal(0, 1, 4))
    uv = np.stack([K.fx * p_cam[:, 0] / p_cam[:, 2] + K.cx,
                   K.fy * p_cam[:, 1] / p_cam[:, 2] + K.cy], axis=1)
    return (p_cam - transform.t) @ transform.rotation_matrix(), uv


class TestBatchedMatchesSequential:
    """The block solver against ``reference_solve_pnp_ransac``: same samples,
    same picks, same stop rule, so the same result and telemetry."""

    @staticmethod
    def assert_same(p3d, uv, params):
        got = solve_pnp_ransac(p3d, uv, K, params)
        want = reference_solve_pnp_ransac(p3d, uv, K, params)
        assert (got.status, got.inliers, got.total, got.iterations, got.hypotheses) \
            == (want.status, want.inliers, want.total, want.iterations, want.hypotheses)
        assert (got.pose is None) == (want.pose is None)
        if want.pose is not None:
            assert np.linalg.norm(got.pose.t - want.pose.t) <= 1e-9
            assert rotation_angle(got.pose.q, want.pose.q) <= 1e-9
        return got

    def test_p3p_candidates_in_root_order(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(0.0, 1.0, (300, 3, 3)) + [0.0, 0.0, 4.0]
        rays = pts + rng.normal(0.0, 0.05, pts.shape) * (np.arange(300) % 2)[:, None, None]
        # a right triangle seen along perpendicular rays: the quartic's two
        # leading coefficients are exactly zero, leaving a quadratic
        pts[0] = [[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 4.0, 0.0]]
        rays[0] = [[0.6, 0.0, 0.8], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        pts[1, 2] = pts[1, 1]                           # a zero side
        rays /= np.linalg.norm(rays, axis=2, keepdims=True)
        valid, r, t = _p3p_grunert(pts, rays)
        counts = []
        for k in range(len(pts)):
            want = reference_p3p_grunert(pts[k], rays[k])
            slots = np.flatnonzero(valid[k])
            assert len(slots) == len(want)
            for slot, (r_want, t_want) in zip(slots, want):
                assert np.allclose(r[k, slot], r_want, rtol=0.0, atol=1e-12)
                assert np.allclose(t[k, slot], t_want, rtol=0.0, atol=1e-12)
            counts.append(len(want))
        assert counts[0] == 1 and counts[1] == 0 and max(counts) >= 3

    def test_pick_is_first_smallest_error(self):
        # a probe point behind every candidate ties them all at inf, and one
        # without a pixel at NaN: the first candidate in root order is
        # picked, as np.argmin does
        rng = np.random.default_rng(8)
        _, uv, transform, p_cam = synth_scene(rng, 30, noise=0.5)
        p_cam[20:25] *= -1.0           # the same pixels, behind the camera
        uv[25:] = np.nan
        p3d = (p_cam - transform.t) @ transform.rotation_matrix()
        sel = np.array([rng.choice(30, 4, replace=False) for _ in range(200)])
        sel[::2, 3] = rng.integers(20, 30, 100)
        sel[::2, :3] = np.array([rng.choice(20, 3, replace=False) for _ in range(100)])
        rays = _pixel_rays(uv, K)
        r, t, err, inliers, candidates = _score_block(sel, p3d, uv, rays, K)
        ties = 0
        for k, s in enumerate(sel):
            want = reference_p3p_grunert(p3d[s[:3]], rays[s[:3]])
            assert candidates[k] == len(want)
            if not want:
                assert inliers[k] == -1
                continue
            errs4 = [float(_reprojection_errors(rr, tt, p3d[s[3:]], uv[s[3:]], K)[0])
                     for rr, tt in want]
            ties += len(want) > 1 and not np.isfinite(errs4).any()
            r_want, t_want = want[int(np.argmin(errs4))]
            assert np.allclose(r[k], r_want, rtol=0.0, atol=1e-12)
            assert np.allclose(t[k], t_want, rtol=0.0, atol=1e-12)
            assert inliers[k] == int(np.sum(_reprojection_errors(
                r_want, t_want, p3d, uv, K) < REPROJ_THRESH))
        assert ties >= 20

    @pytest.mark.parametrize("n", [4, 5, 6, 8, 12, 20, 100])
    def test_outlier_shares(self, n):
        results = []
        for share in (0.0, 0.1, 0.3, 0.5, 0.7):
            for seed in range(2):
                rng = np.random.default_rng([n, round(100 * share), seed])
                p3d, uv = outlier_scene(rng, n, share)
                params = PnPParams(seed=seed, max_iters=1000 if seed else 150,
                                   min_inliers=min(12, n - 1))
                results.append(self.assert_same(p3d, uv, params))
        assert any(r.status is RelocStatus.SUCCESS for r in results)
        if n >= 8:      # runs end in the first blocks and after the third
            its = [r.iterations for r in results]
            assert min(its) <= sum(_BLOCK_SIZES[:2]) and max(its) > sum(_BLOCK_SIZES)

    def test_exact_scene_stops_after_one_sample(self):
        for seed in range(5):
            p3d, uv, _, _ = synth_scene(np.random.default_rng(seed), 20)
            res = self.assert_same(p3d, uv, PnPParams(seed=seed))
            assert res.iterations == 1 and res.inliers == 20

    def test_runs_to_max_iters(self):
        # random pixels: no sample explains enough points to cut the count,
        # and the third block is cut short at the cap
        for seed in range(3):
            rng = np.random.default_rng(50 + seed)
            p3d, uv = outlier_scene(rng, 40, 1.0)
            res = self.assert_same(p3d, uv, PnPParams(seed=seed, max_iters=37))
            assert res.iterations == 37 and res.hypotheses > 0

    def test_degenerate_samples(self):
        # two distinct points, each twice: every triple has a zero side, so no
        # sample gives a candidate, and every one counts as an iteration
        p3d, uv, _, _ = synth_scene(np.random.default_rng(7), 2)
        res = self.assert_same(np.repeat(p3d, 2, axis=0), np.repeat(uv, 2, axis=0),
                               PnPParams(max_iters=25))
        assert res.status is RelocStatus.RANSAC_FAILED
        assert res.iterations == 25 and res.hypotheses == 0
        for seed in range(4):
            rng = np.random.default_rng(70 + seed)
            p3d, uv, _, _ = synth_scene(rng, 16, noise=0.3)
            p3d[8:], uv[8:] = p3d[:8], uv[:8] + rng.normal(0.0, 0.3, (8, 2))
            self.assert_same(p3d, uv, PnPParams(seed=seed, max_iters=200))
            # points on one line in front of the camera
            s = rng.uniform(-1.0, 1.0, 12)
            line = np.array([0.1, -0.2, 3.5]) + s[:, None] * rng.normal(0, 0.4, 3)
            p3d, uv = world_from_camera(rng, line)
            self.assert_same(p3d, uv, PnPParams(seed=seed, max_iters=200))

    def test_points_behind_camera(self):
        for seed in range(4):
            rng = np.random.default_rng(90 + seed)
            _, _, _, p_cam = synth_scene(rng, 24, noise=0.0)
            # mirrored through the centre: the same pixel, but behind
            p_cam[rng.choice(24, 8, replace=False)] *= -1.0
            p3d, uv = world_from_camera(rng, p_cam)
            res = self.assert_same(p3d, uv, PnPParams(seed=seed))
            assert res.status is RelocStatus.SUCCESS and res.inliers == 16

    def test_non_finite_pixels(self):
        # a NaN pixel gives no candidates as a sample point, NaN errors as
        # a probe (the first candidate is picked) and is never an inlier
        for seed in range(4):
            rng = np.random.default_rng(130 + seed)
            p3d, uv, _, _ = synth_scene(rng, 16, noise=0.3)
            uv[rng.choice(16, 3, replace=False)] = np.nan
            res = self.assert_same(p3d, uv, PnPParams(seed=seed, max_iters=300))
            assert res.status is RelocStatus.SUCCESS and res.inliers == 13

    def test_planar_scene(self):
        # coplanar points: a two-fold pose ambiguity among the candidates
        for seed in range(4):
            rng = np.random.default_rng(110 + seed)
            xy = rng.uniform(-1.5, 1.5, (30, 2))
            plane = np.column_stack([xy, 4.0 + 0.3 * xy[:, 0] - 0.2 * xy[:, 1]])
            p3d, uv = world_from_camera(rng, plane)
            uv += rng.normal(0.0, 0.3, uv.shape)
            self.assert_same(p3d, uv, PnPParams(seed=seed))


@pytest.fixture(scope="module")
def corridor_node():
    world, _ = make_preset("corridor", seed=3)
    pose = planar_camera_pose(3.0, 2.25, 0.0)
    frame = render(world, pose, K)
    node = MapNode(id=0, pose=pose, descriptor=extract_descriptor(frame.color),
                   image=frame.color,
                   landmark_ids=frame.landmark_ids, landmark_uv=frame.landmark_uv,
                   landmark_depth=frame.landmark_depth)
    return world, node


class TestLocalizeAgainstNode:
    def test_identity_pose_recovery(self, corridor_node):
        world, node = corridor_node
        frame = render(world, node.pose, K)
        res = localize_against_node(
            node, frame.observation(), K,
            matcher=lambda ref, q: match_oracle(ref, q, seed=0))
        assert res.status is RelocStatus.SUCCESS
        assert res.iterations >= 1 and res.hypotheses >= 1
        assert np.linalg.norm(res.pose.t - node.pose.t) < 1e-6
        assert rotation_angle(res.pose.q, node.pose.q) < 1e-6

    def test_featureless_observation(self, corridor_node):
        _, node = corridor_node
        from vloc.mapgraph import Observation
        from vloc.matching import match_classical
        flat = Observation(color=np.full((128, 128), 90, dtype=np.uint8),
                           depth=np.full((128, 128), 2.0))
        res = localize_against_node(node, flat, K, matcher=match_classical)
        assert res.status is RelocStatus.TOO_FEW_MATCHES

    def test_offset_pose_with_oracle(self, corridor_node):
        # 0.5 m / ~15 deg offset: thresholds from the oracle run
        world, node = corridor_node
        q_pose = planar_camera_pose(3.5, 2.30, 0.25)
        frame = render(world, q_pose, K)
        res = localize_against_node(
            node, frame.observation(), K,
            matcher=lambda ref, q: match_oracle(ref, q, seed=1))
        assert res.status is RelocStatus.SUCCESS
        assert np.linalg.norm(res.pose.t - q_pose.t) < 0.05
        assert math.degrees(rotation_angle(res.pose.q, q_pose.q)) < 0.5


class TestMetrics:
    @staticmethod
    def result(et=0.0, er_deg=0.0, ok=True):
        gt = Pose.identity()
        if not ok:
            return (RelocResult(pose=None, inliers=0, total=10,
                                status=RelocStatus.TOO_FEW_MATCHES), gt)
        from vloc.geometry import rotvec_to_quat
        pose = Pose(np.array([et, 0.0, 0.0]),
                    rotvec_to_quat([math.radians(er_deg), 0.0, 0.0]))
        return (RelocResult(pose=pose, inliers=20, total=20,
                            status=RelocStatus.SUCCESS), gt)

    def test_all_exact(self):
        m = compute_reloc_metrics([self.result() for _ in range(4)])
        assert m.median_et == 0.0 and m.median_er == 0.0
        assert m.precision == (100.0, 100.0, 100.0)
        assert m.pct_estimated == 100.0

    def test_half_failed(self):
        rs = [self.result(), self.result(), self.result(ok=False), self.result(ok=False)]
        m = compute_reloc_metrics(rs)
        assert m.pct_estimated == 50.0
        assert m.precision == (50.0, 50.0, 50.0)

    def test_hand_computed_buckets(self):
        rs = [self.result(0.03, 2.0), self.result(0.20, 4.0),
              self.result(0.80, 8.0), self.result(ok=False)]
        m = compute_reloc_metrics(rs)
        assert m.precision == (25.0, 50.0, 75.0)
        assert m.pct_estimated == 75.0

    def test_buckets_monotone_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rs = []
            for _ in range(int(rng.integers(1, 40))):
                if rng.uniform() < 0.2:
                    rs.append(self.result(ok=False))
                else:
                    rs.append(self.result(float(rng.uniform(0, 2)),
                                          float(rng.uniform(0, 20))))
            m = compute_reloc_metrics(rs)
            assert m.precision[0] <= m.precision[1] <= m.precision[2]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            compute_reloc_metrics([])

    def test_mean_time(self):
        m = compute_reloc_metrics([self.result()], times_ms=[4.0, 6.0])
        assert m.mean_time_ms == 5.0


class TestDataset:
    def test_roundtrip(self, tmp_path, rng):
        imgs = [rng.integers(0, 255, (32, 32), dtype=np.uint8) for _ in range(3)]
        depths = [rng.uniform(0.5, 5.0, (32, 32)).astype(np.float32) for _ in range(2)]
        k_small = CameraIntrinsics(20.0, 20.0, 16.0, 16.0, 32, 32)
        refs = [(imgs[0], Pose.identity()), (imgs[1], Pose(np.ones(3), [1, 0, 0, 0]))]
        queries = [(imgs[2], depths[0], Pose(np.array([1, 2, 3.]), [1, 0, 0, 0]), 0)]
        save_reloc_dataset(tmp_path / "d", refs, queries, k_small)
        k2, refs2, queries2 = load_reloc_dataset(tmp_path / "d")
        assert k2 == k_small
        assert np.array_equal(refs2[0][0], imgs[0])
        assert refs2[1][1] == refs[1][1]
        img, depth, pose, ref_id = queries2[0]
        assert np.array_equal(img, imgs[2])
        assert np.array_equal(depth, depths[0])
        assert ref_id == 0 and pose == queries[0][2]

    @pytest.mark.parametrize("csv, lineno, field", [
        ("refs/poses.csv", 3, 1), ("refs/poses.csv", 2, 0),
        ("queries/gt_poses.csv", 2, 1), ("queries/gt_poses.csv", 2, 8),
        ("intrinsics.txt", 1, 0),
    ])
    def test_non_numeric_field_names_line(self, tmp_path, rng, csv, lineno, field):
        img = rng.integers(0, 255, (8, 8), dtype=np.uint8)
        depth = rng.uniform(0.5, 5.0, (8, 8)).astype(np.float32)
        k_small = CameraIntrinsics(5.0, 5.0, 4.0, 4.0, 8, 8)
        save_reloc_dataset(tmp_path / "d", [(img, Pose.identity())] * 2,
                           [(img, depth, Pose.identity(), 1)], k_small)
        path = tmp_path / "d" / csv
        if csv == "intrinsics.txt":
            path.write_text("5 5 4 4 eight 8\n")
        else:
            corrupt_field(path, lineno, field)
        with pytest.raises(FormatError, match=f"{csv.split('/')[-1]}:{lineno}: "):
            load_reloc_dataset(tmp_path / "d")
