import itertools
import warnings

import numpy as np
import pytest

from vloc.errors import DisconnectedMapWarning, FormatError, NoDepth, VersionMismatch
from vloc.geometry import CameraIntrinsics, Pose, unproject
from vloc.mapgraph import (
    MapNode,
    Observation,
    Segment,
    SegmentFrame,
    TopoMetricMap,
    build_map,
    coverage,
    greedy_max_coverage,
    load_map,
    maps_equal,
    save_map,
    select_keyframes,
    select_keyframes_geomonly,
)
from vloc.matching import match_oracle
from vloc.simworld import OdomNoise, generate_segment, make_preset

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=64.0, width=128, height=128)


def obs_with_one_pixel(depth_value, uv=(64, 64)):
    depth = np.zeros((128, 128))
    depth[uv[1], uv[0]] = depth_value
    return Observation(color=np.zeros((128, 128), dtype=np.uint8), depth=depth)


def frame_at(x, obs=None, ts=0.0):
    if obs is None:
        obs = obs_with_one_pixel(1.0)
    return SegmentFrame(obs=obs, pose=Pose(np.array([x, 0.0, 0.0]), [1, 0, 0, 0]),
                        timestamp=ts)


class TestCoverage:
    def test_all_invalid_depth_is_empty(self):
        obs = Observation(color=np.zeros((64, 64), dtype=np.uint8),
                          depth=np.zeros((64, 64)))
        assert coverage(obs, Pose.identity(), K, 0.1) == set()

    def test_no_depth_raises(self):
        obs = Observation(color=np.zeros((64, 64), dtype=np.uint8))
        with pytest.raises(NoDepth):
            coverage(obs, Pose.identity(), K, 0.1)

    def test_single_pixel_floor_arithmetic(self):
        # principal-point pixel, depth 0.5, camera at (1.05, 2.33):
        # world point (1.05, 2.33, 0.5) -> cell (10, 23) at res 0.1
        obs = obs_with_one_pixel(0.5)
        pose = Pose(np.array([1.05, 2.33, 0.0]), [1, 0, 0, 0])
        assert coverage(obs, pose, K, 0.1) == {(10, 23)}

    def test_matches_per_pixel_oracle_on_simworld(self):
        world, _ = make_preset("corridor", seed=3)
        from vloc.simworld import planar_camera_pose, render
        frame = render(world, planar_camera_pose(3.0, 2.25, 0.2), K)
        got = coverage(frame.observation(), frame.gt_pose, K, 0.1)
        expected = set()
        rot = frame.gt_pose.rotation_matrix()
        for v in range(K.height):
            for u in range(K.width):
                d = frame.depth[v, u]
                if not (0.05 < d < 20.0):
                    continue
                p = rot @ unproject(K, (u, v), d) + frame.gt_pose.t
                expected.add((int(np.floor(p[0] / 0.1)), int(np.floor(p[1] / 0.1))))
        assert got == expected


class TestGreedy:
    def test_hand_evaluated_trace(self):
        sets = [{1, 2, 3}, {3, 4, 5}, {6}]
        assert greedy_max_coverage(sets, budget=2) == [0, 1]

    def test_budget_covers_everything(self):
        sets = [{1}, {2}, {3}]
        assert greedy_max_coverage(sets, budget=10) == [0, 1, 2]

    def test_identical_sets_stop_at_zero_gain(self):
        sets = [{1, 2}, {1, 2}, {1, 2}]
        assert greedy_max_coverage(sets, budget=3) == [0]

    def test_near_optimality_bound(self):
        # greedy >= (1 - 1/e) * OPT, OPT by exhaustive enumeration
        rng = np.random.default_rng(99)
        bound = 1.0 - 1.0 / np.e
        for _ in range(200):
            n = int(rng.integers(2, 13))
            universe = int(rng.integers(4, 24))
            sets = [set(rng.choice(universe, size=rng.integers(0, universe),
                                   replace=False).tolist()) for _ in range(n)]
            budget = int(rng.integers(1, n + 1))
            chosen = greedy_max_coverage(sets, budget)
            achieved = len(set().union(*[sets[i] for i in chosen]) if chosen else set())
            opt = 0
            for size in range(1, budget + 1):
                for combo in itertools.combinations(range(n), size):
                    opt = max(opt, len(set().union(*[sets[i] for i in combo])))
            assert achieved >= bound * opt - 1e-9

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(5)
        sets = [set(rng.integers(0, 40, size=12).tolist()) for _ in range(20)]
        assert greedy_max_coverage(sets, 6) == greedy_max_coverage(sets, 6)

    def test_select_keyframes_ties_break_low_index(self):
        frames = [frame_at(0.0, ts=0.0), frame_at(0.0, obs_with_one_pixel(1.0), ts=1.0)]
        seg = Segment(frames=frames, camera=K)
        assert select_keyframes(seg, budget=2) == [0]


class TestGeomOnly:
    def test_clustered_frames_keep_first(self):
        frames = [frame_at(0.0, ts=0.0), frame_at(0.01, ts=1.0), frame_at(0.02, ts=2.0)]
        assert select_keyframes_geomonly(Segment(frames=frames, camera=K), 1.0) == [0]

    def test_spread_frames_all_kept(self):
        frames = [frame_at(0.0, ts=0.0), frame_at(1.5, ts=1.0), frame_at(3.0, ts=2.0)]
        assert select_keyframes_geomonly(Segment(frames=frames, camera=K), 1.0) == [0, 1, 2]

    def test_voxel_uniqueness_property(self):
        rng = np.random.default_rng(7)
        res = 0.5
        frames = [SegmentFrame(obs=obs_with_one_pixel(1.0),
                               pose=Pose(rng.uniform(0, 4, 3), [1, 0, 0, 0]),
                               timestamp=float(i))
                  for i in range(100)]
        seg = Segment(frames=frames, camera=K)
        picked = select_keyframes_geomonly(seg, res)
        keys = [tuple(np.floor(frames[i].pose.t / res).astype(int)) for i in picked]
        assert len(set(keys)) == len(keys)
        # every unselected frame shares a voxel with an earlier frame
        seen = set()
        for i, f in enumerate(frames):
            key = tuple(np.floor(f.pose.t / res).astype(int))
            if i in picked:
                assert key not in seen
            else:
                assert key in seen
            seen.add(key)


@pytest.fixture(scope="module")
def corridor_segment():
    world, route = make_preset("corridor", seed=3)
    rec = generate_segment(world, [(1.5, 2.25), (30.0, 2.25)], K,
                           camera_rate=1.0, seed=3, noise=OdomNoise.zero())
    return world, rec


def oracle_matcher(obs_a, obs_b):
    return match_oracle(obs_a, obs_b, seed=0)


class TestBuildMap:
    def test_single_keyframe(self, corridor_segment):
        _, rec = corridor_segment
        m = build_map(rec.segment, [0], matcher=oracle_matcher)
        assert len(m.nodes) == 1
        assert m.cng_edges == [] and m.cvg_edges == []

    def test_colocated_keyframes_fully_connected(self):
        world, _ = make_preset("corridor", seed=3)
        from vloc.simworld import planar_camera_pose, render
        frame = render(world, planar_camera_pose(3.0, 2.25, 0.0), K)
        frames = [SegmentFrame(obs=frame.observation(), pose=frame.gt_pose, timestamp=0.0),
                  SegmentFrame(obs=frame.observation(), pose=frame.gt_pose, timestamp=1.0)]
        seg = Segment(frames=frames, camera=K)
        m = build_map(seg, [0, 1], matcher=oracle_matcher)
        assert [(a, b) for a, b, _ in m.cvg_edges] == [(0, 1)]
        assert m.cng_edges[0][:2] == (0, 1)
        assert m.cng_edges[0][2] == 0.0

    def test_corridor_run_connected(self, corridor_segment):
        world, rec = corridor_segment
        n = len(rec.segment)
        assert n >= 20
        idx = list(range(20))
        m = build_map(rec.segment, idx, matcher=oracle_matcher, world=world)
        assert len(m.nodes) == 20
        # inter-keyframe spacing ~1 m < nav radius: adjacent pairs connected
        pairs = {(a, b) for a, b, _ in m.cng_edges}
        for i in range(19):
            assert (i, i + 1) in pairs
        assert len(m.components()) == 1

    def test_disconnected_warning(self, corridor_segment):
        _, rec = corridor_segment
        far = [0, len(rec.segment) - 1]
        with pytest.warns(DisconnectedMapWarning):
            m = build_map(rec.segment, far, matcher=oracle_matcher, nav_radius=1.0)
        assert len(m.components()) == 2

    def test_cng_from_cvg(self, corridor_segment):
        _, rec = corridor_segment
        m = build_map(rec.segment, [0, 1, 2], matcher=oracle_matcher,
                      cng_from_cvg=True, covis_threshold=10)
        assert [(a, b) for a, b, _ in m.cng_edges] == [(a, b) for a, b, _ in m.cvg_edges]


def random_map(rng, n=8, with_images=False):
    nodes = []
    for i in range(n):
        d = rng.normal(0, 1, 256)
        d = (d / np.linalg.norm(d)).astype(np.float32)
        img = rng.integers(0, 255, (32, 32), dtype=np.uint8) if with_images else None
        depth = rng.uniform(0.1, 5.0, (32, 32)).astype(np.float32) if with_images else None
        nodes.append(MapNode(id=i, pose=Pose(rng.normal(0, 5, 3), rng.normal(0, 1, 4)),
                             descriptor=d, image=img, depth=depth))
    cng, cvg = [], []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.uniform() < 0.4:
                w = float(np.linalg.norm(nodes[a].pose.t - nodes[b].pose.t))
                cng.append((a, b, w))
            if rng.uniform() < 0.3:
                cvg.append((a, b, int(rng.integers(50, 500))))
    return TopoMetricMap(nodes=nodes, cng_edges=cng, cvg_edges=cvg, descriptor_dim=256)


class TestSerialization:
    def test_zero_node_map_roundtrip(self, tmp_path):
        m = TopoMetricMap(nodes=[], cng_edges=[], cvg_edges=[], descriptor_dim=256)
        manifest = save_map(m, tmp_path / "m")
        assert maps_equal(m, load_map(tmp_path / "m"))
        assert manifest["storage_bytes_images"] == 0
        assert manifest["storage_bytes_descriptors"] == 0

    def test_empty_images_map_roundtrip(self, tmp_path, rng):
        m = random_map(rng, with_images=False)
        manifest = save_map(m, tmp_path / "m")
        loaded = load_map(tmp_path / "m")
        assert maps_equal(m, loaded)
        assert manifest["storage_bytes_images"] == 0

    def test_roundtrip_with_images_bit_exact(self, tmp_path, rng):
        m = random_map(rng, with_images=True)
        save_map(m, tmp_path / "m")
        loaded = load_map(tmp_path / "m")
        assert maps_equal(m, loaded)
        d1 = (tmp_path / "m" / "descriptors.f32").read_bytes()
        save_map(loaded, tmp_path / "m2")
        assert d1 == (tmp_path / "m2" / "descriptors.f32").read_bytes()

    def test_manifest_sizes_match_files(self, tmp_path, rng):
        import os
        m = random_map(rng, with_images=True)
        manifest = save_map(m, tmp_path / "m")
        desc = os.path.getsize(tmp_path / "m" / "descriptors.f32")
        imgs = sum(os.path.getsize(tmp_path / "m" / "images" / f)
                   for f in os.listdir(tmp_path / "m" / "images"))
        imgs += sum(os.path.getsize(tmp_path / "m" / "depth" / f)
                    for f in os.listdir(tmp_path / "m" / "depth"))
        assert manifest["storage_bytes_descriptors"] == desc
        assert manifest["storage_bytes_images"] == imgs

    def test_truncated_descriptor_file(self, tmp_path, rng):
        m = random_map(rng)
        save_map(m, tmp_path / "m")
        path = tmp_path / "m" / "descriptors.f32"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="descriptors.f32"):
            load_map(tmp_path / "m")

    @pytest.mark.parametrize("key", ["node_count", "descriptor_dim", "grid_res"])
    def test_non_numeric_manifest_value_names_line(self, tmp_path, rng, key):
        m = random_map(rng)
        save_map(m, tmp_path / "m")
        manifest = tmp_path / "m" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        (lineno,) = [i for i, ln in enumerate(lines, 1) if ln.startswith(key + "=")]
        lines[lineno - 1] = key + "=1O"
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"manifest.txt:{lineno}: "):
            load_map(tmp_path / "m")

    def test_missing_manifest_key(self, tmp_path, rng):
        m = random_map(rng)
        save_map(m, tmp_path / "m")
        manifest = tmp_path / "m" / "manifest.txt"
        manifest.write_text("".join(ln for ln in manifest.read_text().splitlines(True)
                                    if not ln.startswith("grid_res=")))
        with pytest.raises(FormatError, match="manifest.txt: no grid_res"):
            load_map(tmp_path / "m")

    def test_non_numeric_node_field_names_line(self, tmp_path, rng):
        m = random_map(rng)
        save_map(m, tmp_path / "m")
        nodes = tmp_path / "m" / "nodes.csv"
        lines = nodes.read_text().splitlines()
        lines[2] = lines[2].replace(",", ",x", 1)
        nodes.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="nodes.csv:3: "):
            load_map(tmp_path / "m")

    @pytest.mark.parametrize("nid", ["8", "-1"])
    def test_node_id_out_of_range_names_line(self, tmp_path, rng, nid):
        m = random_map(rng)
        save_map(m, tmp_path / "m")
        nodes = tmp_path / "m" / "nodes.csv"
        lines = nodes.read_text().splitlines()
        lines[2] = nid + lines[2][lines[2].index(","):]
        nodes.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"nodes.csv:3: node id {nid} "):
            load_map(tmp_path / "m")

    def test_version_mismatch(self, tmp_path, rng):
        m = random_map(rng)
        save_map(m, tmp_path / "m")
        manifest = tmp_path / "m" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("version=1", "version=9"))
        with pytest.raises(VersionMismatch):
            load_map(tmp_path / "m")

    def test_cng_weight_validation(self, rng):
        nodes = [MapNode(id=i, pose=Pose(np.array([float(i), 0, 0]), [1, 0, 0, 0]),
                         descriptor=np.eye(256, dtype=np.float32)[0]) for i in range(2)]
        with pytest.raises(ValueError):
            TopoMetricMap(nodes=nodes, cng_edges=[(0, 1, 5.0)], cvg_edges=[],
                          descriptor_dim=256)
