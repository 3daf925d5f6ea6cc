import os
import warnings

import numpy as np
import pytest

from vloc.dataio import write_f32
from vloc.errors import DisconnectedMapWarning, FormatError, NoDepth, VersionMismatch
from vloc.geometry import CameraIntrinsics, Pose
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


def cell_key(ix, iy):
    return ix * 2**32 + iy


def reference_greedy_max_coverage(cell_sets, budget):
    """The set-based greedy ``greedy_max_coverage`` replaced: scan every
    unchosen set per round for the largest set difference, ties to the
    lowest index."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    chosen = []
    covered = set()
    while len(chosen) < budget:
        best_idx, best_gain = -1, 0
        for i, cells in enumerate(cell_sets):
            if i in chosen:
                continue
            gain = len(cells - covered)
            if gain > best_gain:
                best_idx, best_gain = i, gain
        if best_idx < 0:
            break
        chosen.append(best_idx)
        covered |= cell_sets[best_idx]
    return sorted(chosen)


class TestCoverage:
    def test_all_invalid_depth_is_empty(self):
        obs = Observation(color=np.zeros((64, 64), dtype=np.uint8),
                          depth=np.zeros((64, 64)))
        got = coverage(obs, Pose.identity(), K, 0.1)
        assert got.dtype == np.int64 and got.shape == (0,)

    def test_no_depth_raises(self):
        obs = Observation(color=np.zeros((64, 64), dtype=np.uint8))
        with pytest.raises(NoDepth):
            coverage(obs, Pose.identity(), K, 0.1)

    def test_single_pixel_floor_arithmetic(self):
        # principal-point pixel, depth 0.5, camera at (1.05, 2.33):
        # world point (1.05, 2.33, 0.5) -> cell (10, 23) at res 0.1
        obs = obs_with_one_pixel(0.5)
        pose = Pose(np.array([1.05, 2.33, 0.0]), [1, 0, 0, 0])
        assert coverage(obs, pose, K, 0.1).tolist() == [cell_key(10, 23)]

    def test_negative_cells_keep_pair_order(self):
        # keys sort as the (ix, iy) pairs they encode, negative iy included
        depth = np.zeros((128, 128))
        depth[64, 64] = depth[64, 14] = depth[14, 64] = depth[114, 64] = 0.5
        obs = Observation(color=np.zeros((128, 128), dtype=np.uint8), depth=depth)
        got = coverage(obs, Pose.identity(), K, 0.1).tolist()
        # pixel (u, v) = (14, 64) -> x = -0.25; (64, 14) -> y = -0.25;
        # (64, 114) -> y = 0.25; (64, 64) -> the origin
        pairs = [(-3, 0), (0, -3), (0, 0), (0, 2)]
        assert got == [cell_key(ix, iy) for ix, iy in pairs]

    @pytest.mark.parametrize("x, grid_res", [
        (2**31 + 0.5, 1.0),
        (-(2**31) + 0.5, 1.0),
        (0.1, 1e-300),      # 1e299 would wrap in an int64 cast, not fail
    ])
    def test_too_fine_grid_res_raises(self, x, grid_res):
        # a cell index of 2**31 or more in magnitude would collide with
        # another cell's key
        pose = Pose(np.array([x, 0.0, 0.0]), [1, 0, 0, 0])
        with pytest.raises(ValueError, match="2\\*\\*31"):
            coverage(obs_with_one_pixel(0.5), pose, K, grid_res)

    def test_largest_cell_index_is_kept(self):
        obs = obs_with_one_pixel(0.5)
        pose = Pose(np.array([2**31 - 0.5, -(2**31) + 1.5, 0.0]), [1, 0, 0, 0])
        got = coverage(obs, pose, K, 1.0).tolist()
        assert got == [cell_key(2**31 - 1, -(2**31) + 1)]

    def test_matches_per_pixel_oracle_on_simworld(self):
        world, _ = make_preset("corridor", seed=3)
        from vloc.simworld import planar_camera_pose, render
        frame = render(world, planar_camera_pose(3.0, 2.25, 0.2), K)
        got = coverage(frame.observation(), frame.gt_pose, K, 0.1)
        expected = set()
        rot = frame.gt_pose.rotation_matrix()
        for v in range(K.height):
            for u in range(K.width):
                d = float(frame.depth[v, u])
                if not (0.05 < d < 20.0):
                    continue
                p_cam = np.array([(u - K.cx) / K.fx * d, (v - K.cy) / K.fy * d, d])
                p = rot @ p_cam + frame.gt_pose.t
                expected.add(cell_key(int(np.floor(p[0] / 0.1)),
                                      int(np.floor(p[1] / 0.1))))
        assert got.tolist() == sorted(expected)


def int_keys(*values):
    return np.array(values, dtype=np.int64)


class TestGreedy:
    def test_hand_evaluated_trace(self):
        sets = [int_keys(1, 2, 3), int_keys(3, 4, 5), int_keys(6)]
        assert greedy_max_coverage(sets, budget=2) == [0, 1]

    def test_budget_covers_everything(self):
        sets = [int_keys(1), int_keys(2), int_keys(3)]
        assert greedy_max_coverage(sets, budget=10) == [0, 1, 2]

    def test_identical_sets_stop_at_zero_gain(self):
        sets = [int_keys(1, 2), int_keys(1, 2), int_keys(1, 2)]
        assert greedy_max_coverage(sets, budget=3) == [0]

    def test_no_sets_and_only_empty_sets(self):
        assert greedy_max_coverage([], budget=3) == []
        assert greedy_max_coverage([int_keys(), int_keys()], budget=3) == []

    def test_rejects_bad_budget_and_non_1d_keys(self):
        with pytest.raises(ValueError, match="budget"):
            greedy_max_coverage([int_keys(1)], budget=0)
        with pytest.raises(ValueError, match="1-D"):
            greedy_max_coverage([np.zeros((2, 2), dtype=np.int64)], budget=1)

    def test_matches_set_reference_on_random_instances(self):
        # small universes force ties and repeated sets; empty sets and
        # budgets past the set count occur throughout
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(0, 15))
            universe = int(rng.integers(1, 30))
            arrays = [rng.integers(-universe, universe, size=rng.integers(0, 12))
                      for _ in range(n)]
            if n > 1 and rng.uniform() < 0.3:
                arrays[int(rng.integers(n))] = arrays[0].copy()
            if n > 0 and rng.uniform() < 0.3:
                arrays[int(rng.integers(n))] = int_keys()
            budget = int(rng.integers(1, n + 4))
            sets = [set(a.tolist()) for a in arrays]
            assert greedy_max_coverage(arrays, budget) == \
                reference_greedy_max_coverage(sets, budget)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(5)
        sets = [rng.integers(0, 40, size=12) for _ in range(20)]
        assert greedy_max_coverage(sets, 6) == greedy_max_coverage(sets, 6)

    def test_select_keyframes_ties_break_low_index(self):
        frames = [frame_at(0.0, ts=0.0), frame_at(0.0, obs_with_one_pixel(1.0), ts=1.0)]
        seg = Segment(frames=frames, camera=K)
        assert select_keyframes(seg, budget=2) == [0]


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
        nodes.append(MapNode(id=i, pose=Pose(rng.normal(0, 5, 3), rng.normal(0, 1, 4)),
                             descriptor=d, image=img))
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
        assert manifest["storage_bytes_descriptors"] == desc
        assert manifest["storage_bytes_images"] == imgs

    def test_no_depth_directory_written(self, tmp_path, corridor_segment):
        _, rec = corridor_segment
        m = build_map(rec.segment, [0, 1, 2], matcher=oracle_matcher,
                      covis_threshold=10)
        manifest = save_map(m, tmp_path / "m")
        assert sorted(os.listdir(tmp_path / "m")) == [
            "cng_edges.csv", "cvg_edges.csv", "descriptors.f32", "images",
            "manifest.txt", "nodes.csv"]
        assert manifest["storage_bytes_images"] == sum(
            os.path.getsize(tmp_path / "m" / "images" / f)
            for f in os.listdir(tmp_path / "m" / "images"))

    def test_map_with_depth_directory_loads(self, tmp_path, rng):
        # earlier writers of format version 1 kept a float32 depth raster
        # per node (a wrong-sized one was kept as a flat array); loading
        # ignores them
        m = random_map(rng, with_images=True)
        manifest = save_map(m, tmp_path / "m")
        os.makedirs(tmp_path / "m" / "depth")
        extra = 0
        for node in m.nodes:
            path = tmp_path / "m" / "depth" / f"{node.id}.f32"
            size = 7 if node.id == 0 else node.image.size
            write_f32(path, rng.uniform(0.1, 5.0, size).astype(np.float32))
            extra += os.path.getsize(path)
        text = (tmp_path / "m" / "manifest.txt").read_text()
        images = manifest["storage_bytes_images"]
        (tmp_path / "m" / "manifest.txt").write_text(text.replace(
            f"storage_bytes_images={images}",
            f"storage_bytes_images={images + extra}"))
        assert maps_equal(m, load_map(tmp_path / "m"))

    @pytest.mark.parametrize("name", ["cng_edges.csv", "cvg_edges.csv"])
    def test_extra_edge_field_names_line(self, tmp_path, rng, name):
        m = random_map(rng)
        save_map(m, tmp_path / "m")
        path = tmp_path / "m" / name
        lines = path.read_text().splitlines()
        lines[1] += ",0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"{name}:2: expected 3 fields, got 4"):
            load_map(tmp_path / "m")

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
