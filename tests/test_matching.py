import hashlib

import numpy as np
import pytest

from vloc.errors import FormatError, OutOfBounds
from vloc.geometry import CameraIntrinsics, project
from vloc.matching import (
    MatchSet,
    ingest_matches,
    match_classical,
    match_oracle,
    write_matches,
)
from vloc.simworld import make_preset, planar_camera_pose, render

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=64.0, width=128, height=128)


@pytest.fixture(scope="module")
def corridor():
    world, _ = make_preset("corridor", seed=7)
    return world


def gt_reprojection_errors(world, pose_r, pose_q, frame_r, match_set):
    """Flow each ref pixel through ref depth + relative pose to the query."""
    rot_r = pose_r.rotation_matrix()
    rot_q = pose_q.rotation_matrix()
    errs = []
    for uv_ref, uv_query in zip(match_set.uv_ref, match_set.uv_query):
        u, v = int(uv_ref[0]), int(uv_ref[1])
        d = frame_r.depth[v, u]
        if d <= 0:
            continue
        p_cam = np.array([(uv_ref[0] - K.cx) / K.fx * d,
                          (uv_ref[1] - K.cy) / K.fy * d, d])
        p_world = rot_r @ p_cam + pose_r.t
        uv = project(K, rot_q.T @ (p_world - pose_q.t))
        if uv is None:
            continue
        errs.append(float(np.linalg.norm(uv - uv_query)))
    return np.array(errs)


class TestMatchSet:
    def test_empty(self):
        ms = MatchSet()
        assert len(ms) == 0
        assert ms.uv_ref.shape == (0, 2) and ms.uv_query.shape == (0, 2)
        assert ms.confidence.shape == (0,)

    def test_columns_coerced_to_float(self):
        ms = MatchSet(uv_ref=[[1, 2], [3, 4]], uv_query=[[5, 6], [7, 8]],
                      confidence=[1, 0])
        assert len(ms) == 2
        for col in (ms.uv_ref, ms.uv_query, ms.confidence):
            assert col.dtype == np.float64
        assert np.array_equal(ms.uv_query, [[5.0, 6.0], [7.0, 8.0]])

    @pytest.mark.parametrize("uv_ref, uv_query, conf", [
        ([[1, 2]], [[5, 6], [7, 8]], [1, 1]),          # uv_ref too short
        ([[1, 2], [3, 4]], [[5, 6], [7, 8]], [1]),     # confidence too short
        ([[1, 2, 0], [3, 4, 0]], [[5, 6], [7, 8]], [1, 1]),
        ([[1, 2], [3, 4]], [[5, 6], [7, 8]], [[1], [1]]),
        ([[1, 2]], [[5, 6]], 1.0),                      # scalar confidence
    ])
    def test_mismatched_columns_rejected(self, uv_ref, uv_query, conf):
        with pytest.raises(ValueError):
            MatchSet(uv_ref=uv_ref, uv_query=uv_query, confidence=conf)

    def test_duplicate_query_pixel_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MatchSet(uv_ref=[[1, 2], [3, 4]], uv_query=[[5, 6], [5, 6]],
                     confidence=[1, 1])


class TestClassical:
    def test_self_match_is_exact(self, corridor):
        frame = render(corridor, planar_camera_pose(3.0, 2.25, 0.0), K)
        ms = match_classical(frame.color, frame.color)
        assert len(ms) > 20
        assert np.array_equal(ms.uv_ref, ms.uv_query)
        assert np.allclose(ms.confidence, 1.0, rtol=0, atol=1e-9)

    def test_featureless_images_empty(self):
        flat = np.full((128, 128), 130, dtype=np.uint8)
        assert len(match_classical(flat, flat)) == 0

    def test_cross_view_quality_regression(self, corridor):
        # fixture measured once: 41 matches total, 89.7% within 2 px;
        # gates frozen at >= 30 and >= 0.8
        pairs = ((3.0, 3.3, 0.0, 0.0), (8.0, 8.2, 0.15, 0.05),
                 (14.0, 14.3, -0.1, -0.04))
        total = 0
        pooled = []
        for rx, qx, dy, qyaw in pairs:
            pose_r = planar_camera_pose(rx, 2.25, 0.0)
            pose_q = planar_camera_pose(qx, 2.25 + dy, qyaw)
            fr = render(corridor, pose_r, K)
            fq = render(corridor, pose_q, K)
            ms = match_classical(fr.color, fq.color)
            total += len(ms)
            pooled.extend(gt_reprojection_errors(corridor, pose_r, pose_q, fr, ms))
        pooled = np.array(pooled)
        assert total >= 30
        assert (pooled < 2.0).mean() >= 0.8

    def test_matches_pinned(self, corridor):
        # digest of the integer (u_ref, v_ref, u_query, v_query) rows on the
        # three cross-view pairs: pins the exact matches, order included
        pairs = ((3.0, 3.3, 0.0, 0.0), (8.0, 8.2, 0.15, 0.05),
                 (14.0, 14.3, -0.1, -0.04))
        digest = hashlib.sha256()
        total = 0
        for rx, qx, dy, qyaw in pairs:
            fr = render(corridor, planar_camera_pose(rx, 2.25, 0.0), K)
            fq = render(corridor, planar_camera_pose(qx, 2.25 + dy, qyaw), K)
            ms = match_classical(fr.color, fq.color)
            rows = np.hstack([ms.uv_ref, ms.uv_query])
            assert np.array_equal(rows, np.round(rows))
            digest.update("".join(",".join(str(int(x)) for x in row) + "\n"
                                  for row in rows).encode())
            total += len(ms)
        assert total == 41
        assert digest.hexdigest() == \
            "21d24f666b94a783424eab6a164cf082d16253e335d02433d1b08721fd3df332"

    def test_deterministic_serialization(self, corridor, tmp_path):
        fr = render(corridor, planar_camera_pose(3.0, 2.25, 0.0), K)
        fq = render(corridor, planar_camera_pose(3.3, 2.25, 0.0), K)
        paths = []
        for i in range(2):
            ms = match_classical(fr.color, fq.color)
            p = tmp_path / f"m{i}.csv"
            write_matches(p, ms)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]


class TestOracle:
    def test_zero_noise_equals_ground_truth(self, corridor):
        fr = render(corridor, planar_camera_pose(3.0, 2.25, 0.0), K)
        fq = render(corridor, planar_camera_pose(3.4, 2.3, 0.1), K)
        ms = match_oracle(fr, fq, outlier_rate=0.0, noise_px=0.0, seed=1)
        assert len(ms) > 30
        by_id_q = {int(i): fq.landmark_uv[k] for k, i in enumerate(fq.landmark_ids)}
        by_id_r = {int(i): fr.landmark_uv[k] for k, i in enumerate(fr.landmark_ids)}
        uv_r, uv_q = ms.uv_ref, ms.uv_query
        common = sorted(set(by_id_q) & set(by_id_r))
        assert len(ms) == len(common)
        for k, lid in enumerate(common):
            assert np.allclose(uv_r[k], by_id_r[lid])
            assert np.allclose(uv_q[k], by_id_q[lid])

    def test_outlier_rate_one_rejected(self, corridor):
        fr = render(corridor, planar_camera_pose(3.0, 2.25, 0.0), K)
        with pytest.raises(ValueError):
            match_oracle(fr, fr, outlier_rate=1.0)

    def test_corruption_count_exact_and_reproducible(self, corridor):
        fr = render(corridor, planar_camera_pose(3.0, 2.25, 0.0), K)
        fq = render(corridor, planar_camera_pose(3.2, 2.25, 0.0), K)
        clean = match_oracle(fr, fq, outlier_rate=0.0, noise_px=0.0, seed=42)
        dirty1 = match_oracle(fr, fq, outlier_rate=0.3, noise_px=0.0, seed=42)
        dirty2 = match_oracle(fr, fq, outlier_rate=0.3, noise_px=0.0, seed=42)
        q1, q2, qc = dirty1.uv_query, dirty2.uv_query, clean.uv_query
        assert np.array_equal(q1, q2)
        n_corrupt = int(np.sum(np.any(q1 != qc, axis=1)))
        assert n_corrupt == int(np.floor(0.3 * len(clean)))

    def test_inlier_set_alone_recovers_relative_pose(self, corridor):
        # ties matching to relocalization: exact oracle pairs with exact
        # landmark depths must recover the true relative pose to 1e-6
        from vloc.geometry import rotation_angle
        from vloc.relocal import PnPParams, RelocStatus, solve_pnp_ransac

        pose_r = planar_camera_pose(3.0, 2.25, 0.0)
        pose_q = planar_camera_pose(3.4, 2.35, 0.12)
        fr = render(corridor, pose_r, K)
        fq = render(corridor, pose_q, K)
        ms = match_oracle(fr, fq, seed=3)
        k = np.argmin(np.linalg.norm(
            fq.landmark_uv[None, :, :] - ms.uv_query[:, None, :], axis=2), axis=1)
        d = fq.landmark_depth[k]
        u, v = ms.uv_query[:, 0], ms.uv_query[:, 1]
        p3d = np.stack([(u - K.cx) / K.fx * d, (v - K.cy) / K.fy * d, d], axis=1)
        res = solve_pnp_ransac(p3d, ms.uv_ref, K, PnPParams(seed=0))
        assert res.status is RelocStatus.SUCCESS
        rel_gt = pose_r.between(pose_q)
        assert np.linalg.norm(res.pose.t - rel_gt.t) < 1e-6
        assert rotation_angle(res.pose.q, rel_gt.q) < 1e-6

    def test_noise_is_seed_deterministic(self, corridor):
        fr = render(corridor, planar_camera_pose(3.0, 2.25, 0.0), K)
        fq = render(corridor, planar_camera_pose(3.2, 2.25, 0.0), K)
        a = match_oracle(fr, fq, noise_px=1.0, seed=5)
        b = match_oracle(fr, fq, noise_px=1.0, seed=5)
        c = match_oracle(fr, fq, noise_px=1.0, seed=6)
        assert np.array_equal(a.uv_query, b.uv_query)
        assert not np.array_equal(a.uv_query, c.uv_query)


class TestMatchCsv:
    def test_empty_file_roundtrip(self, tmp_path):
        p = tmp_path / "empty.csv"
        write_matches(p, MatchSet())
        ms = ingest_matches(p, 128, 128)
        assert len(ms) == 0

    def test_roundtrip(self, corridor, tmp_path):
        fr = render(corridor, planar_camera_pose(3.0, 2.25, 0.0), K)
        fq = render(corridor, planar_camera_pose(3.2, 2.25, 0.0), K)
        ms = match_oracle(fr, fq, noise_px=0.3, seed=9)
        p = tmp_path / "m.csv"
        write_matches(p, ms)
        back = ingest_matches(p, 128, 128)
        assert len(back) == len(ms)
        # identity up to the format's 9 significant digits
        assert np.allclose(ms.uv_ref, back.uv_ref, rtol=0, atol=1e-6)
        assert np.allclose(ms.uv_query, back.uv_query, rtol=0, atol=1e-6)
        assert np.array_equal(ms.confidence, back.confidence)
        # a second write/read cycle is exactly stable
        p2 = tmp_path / "m2.csv"
        write_matches(p2, back)
        assert p.read_bytes() == p2.read_bytes()

    def test_out_of_bounds_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("u_ref,v_ref,u_query,v_query,confidence\n"
                     "10,10,20,20,1\n"
                     "10,10,200,20,1\n")
        with pytest.raises(OutOfBounds, match=":3"):
            ingest_matches(p, 128, 128)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "hdr.csv"
        p.write_text("u,v\n")
        with pytest.raises(FormatError):
            ingest_matches(p, 128, 128)

    def test_non_numeric_field_names_row(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("u_ref,v_ref,u_query,v_query,confidence\n"
                     "10,10,20,20,1\n"
                     "1,1,2,x,1\n")
        with pytest.raises(FormatError, match=r"nan\.csv:3: .*'x'"):
            ingest_matches(p, 128, 128)

    def test_wrong_field_count_names_row(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("u_ref,v_ref,u_query,v_query,confidence\n"
                     "10,10,20,20,1\n"
                     "11,10,21,20\n")
        with pytest.raises(FormatError, match=r"short\.csv:3: expected 5 fields, got 4"):
            ingest_matches(p, 128, 128)

    @pytest.mark.parametrize("conf", ["nan", "inf", "-inf"])
    def test_non_finite_confidence_names_row(self, tmp_path, conf):
        p = tmp_path / "conf.csv"
        p.write_text("u_ref,v_ref,u_query,v_query,confidence\n"
                     "10,10,20,20,1\n"
                     "11,10,21,20,0.5\n"
                     f"12,10,22,20,{conf}\n")
        with pytest.raises(FormatError, match=r"conf\.csv:4: non-finite confidence"):
            ingest_matches(p, 128, 128)

    def test_repeated_query_pixel_names_later_row(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("u_ref,v_ref,u_query,v_query,confidence\n"
                     "10,10,20,20,1\n"
                     "11,10,30,20,1\n"
                     "12,10,20,20,0.5\n")
        with pytest.raises(FormatError, match=r"dup\.csv:4: .*repeats line 2"):
            ingest_matches(p, 128, 128)
