import math
import warnings

import numpy as np
import pytest

from vloc import relocal
from vloc.dataio import read_csv_rows, write_csv
from vloc.errors import EmptyInput
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
from vloc.poseslam import LM_REL_DECREASE
from vloc.relocal import (
    _BLOCK_SIZES,
    RANSAC_CONFIDENCE,
    REPROJ_THRESH,
    PnPParams,
    RelocResult,
    RelocStatus,
    _p3p_grunert,
    _p3p_one,
    _pixel_rays,
    _poly_roots,
    _refine_gauss_newton,
    _reprojection_errors,
    _sample_rows,
    _score_block,
    compute_reloc_metrics,
    lift,
    localize_against_node,
    reprojection_residual_jacobian,
    solve_pnp_ransac,
)
from vloc.retrieval import extract_descriptor
from vloc.simworld import make_preset, planar_camera_pose, render
from conftest import rotvec_to_quat

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
    needed = relocal.RANSAC_MAX_ITERS
    while iteration < min(needed, relocal.RANSAC_MAX_ITERS):
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
            needed = min(relocal.RANSAC_MAX_ITERS,
                         int(math.ceil(math.log(1.0 - RANSAC_CONFIDENCE) / denom)))

    if best_r is None or best_inliers < 4:
        return RelocResult(pose=None, inliers=0, total=n,
                           status=RelocStatus.RANSAC_FAILED,
                           iterations=iteration, hypotheses=hypotheses)

    mask = _reprojection_errors(best_r, best_t, p3d, uv, K) < REPROJ_THRESH
    r_ref, t_ref, ok, steps, halvings = _refine_gauss_newton(
        best_r, best_t, p3d[mask], uv[mask], K)
    if ok:
        inl_ref = int(np.sum(_reprojection_errors(r_ref, t_ref, p3d, uv, K)
                             < REPROJ_THRESH))
        if inl_ref >= best_inliers:
            best_r, best_t, best_inliers = r_ref, t_ref, inl_ref

    pose = Pose(best_t, matrix_to_quat(best_r))
    status = RelocStatus.SUCCESS if best_inliers >= params.min_inliers \
        else RelocStatus.RANSAC_FAILED
    return RelocResult(pose=pose, inliers=best_inliers, total=n, status=status,
                       iterations=iteration, hypotheses=hypotheses,
                       refine_steps=steps, refine_halvings=halvings)


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

    def test_overflowing_scene_warns_nothing(self):
        # pair dot products overflow on every sample: no candidates, no
        # warning from either P3P path
        p3d, uv, _, _ = synth_scene(np.random.default_rng(0), 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_pnp_ransac(p3d * 1e160, uv, K)
        assert res.status is RelocStatus.RANSAC_FAILED
        assert (res.iterations, res.hypotheses) == (relocal.RANSAC_MAX_ITERS, 0)

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
            r1, t1, _, _, _ = _refine_gauss_newton(r0, t0, p_world, uv, K)
            e1 = _reprojection_errors(r1, t1, p_world, uv, K)
            assert float(np.sum(e1 * e1)) <= c0 + 1e-12

    def test_refinement_ends_by_relative_decrease(self, monkeypatch):
        # the fusion solver's stops: an accepted step that lowers the cost
        # by less than LM_REL_DECREASE of it ends the refinement, and so
        # does a rejected step whose model decrease is below that share, so
        # no sweep of 12 halvings is spent on a cost it can no longer lower
        rng = np.random.default_rng(0)
        p_world, uv, _, _ = synth_scene(rng, 20, noise=1.0)
        res = solve_pnp_ransac(p_world, uv, K, PnPParams(seed=0))
        assert res.status is RelocStatus.SUCCESS
        assert (res.refine_steps, res.refine_halvings) == (3, 0)

        rng = np.random.default_rng(14)
        p_world, uv, transform, _ = synth_scene(rng, 20, noise=1.0)
        start = transform.compose(se3_exp(rng.normal(0, 0.02, 6)))
        args = start.rotation_matrix(), start.t, p_world, uv, K
        r1, t1, ok, steps, halvings = _refine_gauss_newton(*args)
        assert ok and (steps, halvings) == (4, 0)
        r2, t2, ok, steps, halvings = _refine_gauss_newton(r1, t1, p_world, uv, K)
        assert ok and (steps, halvings) == (0, 1)
        assert r2 is r1 and t2 is t1
        costs = []
        for iters in (2, 3, 4):
            monkeypatch.setattr(relocal, "REFINE_ITERS", iters)
            r, t, _, _, _ = _refine_gauss_newton(*args)
            e = _reprojection_errors(r, t, p_world, uv, K)
            costs.append(float((e * e).sum()))
        third, fourth = ((a - b) / a for a, b in zip(costs, costs[1:]))
        assert third >= LM_REL_DECREASE > fourth
        assert costs[-1] > 1.0

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
        assert (got.status, got.inliers, got.total, got.iterations, got.hypotheses,
                got.refine_steps, got.refine_halvings) \
            == (want.status, want.inliers, want.total, want.iterations, want.hypotheses,
                want.refine_steps, want.refine_halvings)
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
    def test_outlier_shares(self, n, monkeypatch):
        results = []
        for share in (0.0, 0.1, 0.3, 0.5, 0.7):
            for seed in range(2):
                rng = np.random.default_rng([n, round(100 * share), seed])
                p3d, uv = outlier_scene(rng, n, share)
                monkeypatch.setattr(relocal, "RANSAC_MAX_ITERS", 1000 if seed else 150)
                params = PnPParams(seed=seed,
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

    def test_runs_to_max_iters(self, monkeypatch):
        # random pixels: no sample explains enough points to cut the count,
        # and the third block is cut short at the cap
        monkeypatch.setattr(relocal, "RANSAC_MAX_ITERS", 37)
        for seed in range(3):
            rng = np.random.default_rng(50 + seed)
            p3d, uv = outlier_scene(rng, 40, 1.0)
            res = self.assert_same(p3d, uv, PnPParams(seed=seed))
            assert res.iterations == 37 and res.hypotheses > 0

    def test_degenerate_samples(self, monkeypatch):
        # two distinct points, each twice: every triple has a zero side, so no
        # sample gives a candidate, and every one counts as an iteration
        monkeypatch.setattr(relocal, "RANSAC_MAX_ITERS", 25)
        p3d, uv, _, _ = synth_scene(np.random.default_rng(7), 2)
        res = self.assert_same(np.repeat(p3d, 2, axis=0), np.repeat(uv, 2, axis=0),
                               PnPParams())
        assert res.status is RelocStatus.RANSAC_FAILED
        assert res.iterations == 25 and res.hypotheses == 0
        monkeypatch.setattr(relocal, "RANSAC_MAX_ITERS", 200)
        for seed in range(4):
            rng = np.random.default_rng(70 + seed)
            p3d, uv, _, _ = synth_scene(rng, 16, noise=0.3)
            p3d[8:], uv[8:] = p3d[:8], uv[:8] + rng.normal(0.0, 0.3, (8, 2))
            self.assert_same(p3d, uv, PnPParams(seed=seed))
            # points on one line in front of the camera
            s = rng.uniform(-1.0, 1.0, 12)
            line = np.array([0.1, -0.2, 3.5]) + s[:, None] * rng.normal(0, 0.4, 3)
            p3d, uv = world_from_camera(rng, line)
            self.assert_same(p3d, uv, PnPParams(seed=seed))

    def test_points_behind_camera(self):
        for seed in range(4):
            rng = np.random.default_rng(90 + seed)
            _, _, _, p_cam = synth_scene(rng, 24, noise=0.0)
            # mirrored through the centre: the same pixel, but behind
            p_cam[rng.choice(24, 8, replace=False)] *= -1.0
            p3d, uv = world_from_camera(rng, p_cam)
            res = self.assert_same(p3d, uv, PnPParams(seed=seed))
            assert res.status is RelocStatus.SUCCESS and res.inliers == 16

    def test_non_finite_pixels(self, monkeypatch):
        # a NaN pixel gives no candidates as a sample point, NaN errors as
        # a probe (the first candidate is picked) and is never an inlier
        monkeypatch.setattr(relocal, "RANSAC_MAX_ITERS", 300)
        for seed in range(4):
            rng = np.random.default_rng(130 + seed)
            p3d, uv, _, _ = synth_scene(rng, 16, noise=0.3)
            uv[rng.choice(16, 3, replace=False)] = np.nan
            res = self.assert_same(p3d, uv, PnPParams(seed=seed))
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


def assert_same_bytes(got, want):
    for g, w in zip(got, want):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


class TestFirstSamplePath:
    """``_p3p_one``, the Python-float solver of the first one-sample block,
    against ``_p3p_grunert`` on one-row blocks, byte for byte."""

    @staticmethod
    def solve_one(pts, rays):
        """Whether ``_p3p_one`` solved the one-sample block (1, 3, 3) itself;
        when it did, its arrays are the block path's byte for byte."""
        got = _p3p_one(pts, rays)
        if got is not None:
            assert_same_bytes(got, _p3p_grunert(pts, rays))
        return got is not None

    def test_bit_equal_on_seeded_triples(self):
        rng = np.random.default_rng(24)
        n = 5000
        pts = rng.normal(0.0, 1.0, (n, 3, 3)) + [0.0, 0.0, 4.0]
        # exact rays on even rows, noisy ones on odd rows
        rays = pts + rng.normal(0.0, 0.05, pts.shape) * (np.arange(n) % 2)[:, None, None]
        rays /= np.linalg.norm(rays, axis=2, keepdims=True)
        solved = [self.solve_one(pts[k:k + 1], rays[k:k + 1]) for k in range(n)]
        assert all(solved)
        assert sum(_p3p_grunert(pts[k:k + 1], rays[k:k + 1])[0].any()
                   for k in range(0, n, 50)) >= 90

    def test_unusual_samples_fall_back(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(0.0, 1.0, (5, 3, 3)) + [0.0, 0.0, 4.0]
        rays = pts.copy()
        # the quadratic and the zero side of test_p3p_candidates_in_root_order
        pts[0] = [[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 4.0, 0.0]]
        rays[0] = [[0.6, 0.0, 0.8], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        pts[1, 2] = pts[1, 1]
        rays[2, 1] = np.nan
        rays /= np.linalg.norm(rays, axis=2, keepdims=True)
        pts[3] *= 1e150             # squared sides near 1e300: still solved
        pts[4] *= 1e160             # squared sides overflow, silently
        solved = [self.solve_one(pts[k:k + 1], rays[k:k + 1]) for k in range(5)]
        assert solved == [False, False, False, True, False]
        assert _p3p_grunert(pts[3:4], rays[3:4])[0].any()

    def test_first_block_uses_it(self, monkeypatch):
        calls = []

        def counted(pts, rays):
            calls.append(len(pts))
            return _p3p_one(pts, rays)

        monkeypatch.setattr(relocal, "_p3p_one", counted)
        p3d, uv, _, _ = synth_scene(np.random.default_rng(0), 20)
        rays = _pixel_rays(uv, K)
        _score_block(np.array([[0, 1, 2, 3]]), p3d, uv, rays, K)
        _score_block(np.array([[0, 1, 2, 3], [4, 5, 6, 7]]), p3d, uv, rays, K)
        assert calls == [1]

    def test_poly_roots_are_np_roots(self, monkeypatch):
        # blocks of quartics only, of quartics and zero trailing
        # coefficients, and of those mixed with lower degrees, an all-zero
        # row and rows np.roots raises on, each asked for in full and in part
        rng = np.random.default_rng(5)
        raising = np.array([
            [1e-300, 1e300, 1.0, 1.0, 1.0],     # the quartic's companion overflows
            [0.0, 1e-300, 1e300, 1.0, 1.0],     # so does the cubic's
            [1.0, np.nan, 1.0, 1.0, 1.0],
        ])
        raised = []
        np_roots = np.roots

        def spied_roots(coeffs):
            try:
                return np_roots(coeffs)
            except np.linalg.LinAlgError:
                raised.append(coeffs.tobytes())
                raise

        monkeypatch.setattr(np, "roots", spied_roots)
        for case in range(3):
            p = rng.normal(size=(64, 5))
            if case:
                p[2::7, 4] = 0.0
            if case == 2:
                p[1::3, 0] = 0.0
                p[5, :2] = 0.0
                p[6] = 0.0
                p[10:13] = raising
            for rows in (np.ones(64, bool), np.arange(64) % 2 == 0):
                want = np.zeros((64, 4), dtype=complex)
                with np.errstate(all="ignore"):
                    for k in np.flatnonzero(rows & p.any(axis=1)):
                        try:
                            found = np_roots(p[k])
                        except np.linalg.LinAlgError:
                            assert 10 <= k <= 12
                            continue
                        want[k, :len(found)] = found
                    assert _poly_roots(p, rows).tobytes() == want.tobytes()
        # each raising row went through np.roots, which raised: once asked
        # for in full, once more asked for in part for the even rows
        assert raised == [row.tobytes() for row in (*raising, raising[0], raising[2])]


class TestSampleStream:
    """``_sample_rows``: the RANSAC draws kept per (seed, n)."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        relocal._stream.cache_clear()
        yield
        relocal._stream.cache_clear()

    def test_rows_are_the_generator_draws(self, monkeypatch):
        keys = [(0, 4), (3, 5), (0, 10), (7, 287)]
        fresh = {key: np.random.default_rng(key[0]) for key in keys}
        drawn = {key: np.empty((0, 4), dtype=np.int64) for key in keys}
        # stops on both sides of each doubling, the keys interleaved
        for stop in (1, 2, 3, 8, 9, 16, 17, 73, 200):
            for key in keys:
                rows = _sample_rows(*key, stop)
                assert stop <= len(rows) <= 2 * stop
                while len(drawn[key]) < len(rows):
                    drawn[key] = np.vstack(
                        [drawn[key], fresh[key].choice(key[1], 4, replace=False)])
                assert (rows.dtype, rows.tobytes()) == (np.int64, drawn[key].tobytes())
                assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1
        # growth stops at the iteration cap, read at call time, or at stop
        monkeypatch.setattr(relocal, "RANSAC_MAX_ITERS", 5)
        assert len(_sample_rows(1, 9, 3)) == 3
        assert len(_sample_rows(1, 9, 4)) == 5
        assert len(_sample_rows(1, 9, 7)) == 7

    def test_solve_same_bytes_cold_and_warm(self):
        def fingerprint(res):
            return (res.status, res.inliers, res.iterations, res.hypotheses,
                    res.refine_steps, res.refine_halvings,
                    res.pose.t.tobytes(), res.pose.q.tobytes())

        rng = np.random.default_rng(41)
        clean = synth_scene(rng, 40, noise=0.3)[:2]
        noisy = outlier_scene(rng, 40, 0.5)
        cold = []
        for scene in (clean, noisy):
            relocal._stream.cache_clear()
            cold.append(fingerprint(solve_pnp_ransac(*scene, K)))
        # the noisy solve left a stream of hundreds of samples; the clean one
        # reads its first rows
        warm = [fingerprint(solve_pnp_ransac(*scene, K)) for scene in (clean, noisy)]
        assert warm == cold
        assert cold[0][2] == 1 and cold[1][2] > sum(_BLOCK_SIZES)

    def test_bound_after_criterion_1(self):
        p3d, uv, _, _ = synth_scene(np.random.default_rng(0), 20)
        for seed in range(1000):
            solve_pnp_ransac(p3d, uv, K, PnPParams(seed=seed))
        keys = relocal._STREAM_KEYS
        info = relocal._stream.cache_info()
        assert (info.maxsize, info.currsize) == (keys, keys)
        # the last keys are kept: reading each again, oldest first, is a hit
        # and keeps their order
        rows_bytes = sum(relocal._stream(seed, 20)[1].nbytes
                         for seed in range(1000 - keys, 1000))
        assert relocal._stream.cache_info()[:2] == (info.hits + keys, info.misses)
        assert rows_bytes <= keys * relocal.RANSAC_MAX_ITERS * 32
        # a key read again is kept over the least recently used one
        _sample_rows(1000 - keys, 20, 1)
        _sample_rows(5000, 20, 1)
        info = relocal._stream.cache_info()
        relocal._stream(1000 - keys, 20)
        assert relocal._stream.cache_info()[:2] == (info.hits + 1, info.misses)
        relocal._stream(1001 - keys, 20)
        assert relocal._stream.cache_info()[:2] == (info.hits + 1, info.misses + 1)


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

    def test_exact_text_reads_back(self, tmp_path):
        m = relocal.RelocMetrics(max_et=0.5, max_er=1 / 7, median_et=2e-7,
                                 median_er=0.0, precision=(50.0, 75.0, 100.0),
                                 pct_estimated=100 / 3, mean_time_ms=1234.5678912)
        path = tmp_path / "metrics.csv"
        write_csv(path, relocal.RelocMetrics.CSV_HEADER, [m.csv_fields()])
        assert path.read_text() == (
            "max_et_m,max_er_deg,median_et_m,median_er_deg,prec_5cm_5deg,"
            "prec_25cm_5deg,prec_1m_10deg,pct_estimated,mean_time_ms\n"
            "0.5,0.142857143,2e-07,0,50,75,100,33.3333333,1234.56789\n")
        _, rows = read_csv_rows(path, relocal.RelocMetrics.CSV_HEADER, list)
        assert rows == [m.csv_fields()]
