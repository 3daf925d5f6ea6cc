import os
import warnings

import numpy as np
import pytest

from vloc.dataio import write_raw
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
from vloc import matching
from vloc.matching import match_classical, match_oracle
from vloc.planning import AteReport
from vloc.simworld import OdomNoise, SegmentRecording, generate_segment, make_preset

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


class TestSegment:
    @pytest.mark.parametrize("ts", [[0.0, 0.0], [1.0, 0.5], [0.0, np.nan, 2.0],
                                    [np.nan, 1.0], [0.0, 1.0, np.nan],
                                    [np.inf, np.inf], [0.0, -np.inf]])
    def test_timestamps_not_increasing_rejected(self, ts):
        with pytest.raises(ValueError, match="strictly increasing"):
            Segment(frames=[frame_at(0.0, ts=t) for t in ts], camera=K)

    @pytest.mark.parametrize("ts", [[np.nan], [0.0, np.inf], [-np.inf, 0.0]],
                             ids=["one-nan", "last-inf", "first-minus-inf"])
    def test_non_finite_timestamps_rejected(self, ts):
        # increasing, or a single frame, but not finite
        with pytest.raises(ValueError, match="finite"):
            Segment(frames=[frame_at(0.0, ts=t) for t in ts], camera=K)

    def test_increasing_timestamps_accepted(self):
        seg = Segment(frames=[frame_at(0.0, ts=t) for t in (0.0, 0.5, 2.0)], camera=K)
        assert len(seg) == 3


def one_frame():
    return SegmentFrame(obs=Observation(color=np.zeros((4, 4), dtype=np.uint8)),
                        pose=Pose.identity(), timestamp=0.0)


def one_node_map():
    return TopoMetricMap(nodes=[MapNode(id=0, pose=Pose.identity(),
                                        descriptor=np.eye(256, dtype=np.float32)[0])],
                         cng_edges=[], cvg_edges=[], descriptor_dim=256)


@pytest.mark.parametrize("make", [
    lambda: Observation(color=np.zeros((4, 4), dtype=np.uint8)),
    one_frame,
    lambda: Segment(frames=[one_frame()], camera=K),
    lambda: one_node_map().nodes[0],
    one_node_map,
    lambda: SegmentRecording(Segment(frames=[one_frame()], camera=K),
                             [(0.0, Pose.identity())], [(0.0, Pose.identity())]),
    lambda: AteReport(rmse=0.0, errors=np.zeros(2), matched=2),
], ids=["Observation", "SegmentFrame", "Segment", "MapNode", "TopoMetricMap",
        "SegmentRecording", "AteReport"])
def test_array_holding_types_compare_by_identity(make):
    # two equal objects that hold arrays: == is identity and hash works
    # (maps compare by value through maps_equal)
    a, b = make(), make()
    assert a == a and not a == b and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


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

    @pytest.mark.parametrize("grid_res", [0.0, -0.1, np.nan, np.inf])
    def test_grid_res_not_positive_raises(self, grid_res):
        with pytest.raises(ValueError,
                           match=f"grid_res {grid_res} must be finite and positive"):
            coverage(obs_with_one_pixel(0.5), Pose.identity(), K, grid_res)

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

    def test_kept_gains_match_a_recount_every_round(self):
        # a brute-force recount: every round counts each row's uncovered
        # members afresh; small universes force ties, identical sets and
        # the stop at zero gain
        rng = np.random.default_rng(29)
        ties = stops = 0
        for _ in range(400):
            n = int(rng.integers(1, 12))
            universe = int(rng.integers(1, 20))
            arrays = [rng.integers(0, universe, size=rng.integers(0, 10))
                      for _ in range(n)]
            budget = int(rng.integers(1, n + 3))
            keys, cols = np.unique(np.concatenate(arrays), return_inverse=True)
            member = np.zeros((n, len(keys)), dtype=bool)
            member[np.repeat(np.arange(n), [a.size for a in arrays]), cols] = True
            covered = np.zeros(len(keys), dtype=bool)
            expected = []
            while len(expected) < budget:
                gain = np.count_nonzero(member & ~covered, axis=1)
                best = int(np.argmax(gain))
                if gain[best] == 0:
                    stops += 1
                    break
                ties += int(np.count_nonzero(gain == gain[best]) > 1)
                expected.append(best)
                covered |= member[best]
            assert greedy_max_coverage(arrays, budget) == sorted(expected)
        assert ties > 100 and stops > 100

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

    @pytest.mark.parametrize("name", ["covis_threshold", "nav_radius"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan])
    def test_thresholds_not_positive_raise(self, corridor_segment, name, value):
        _, rec = corridor_segment
        with pytest.raises(ValueError, match=f"thresholds must be positive: .*{name} {value}"):
            build_map(rec.segment, [0, 1], matcher=oracle_matcher, **{name: value})

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


    def test_matcher_sees_close_pairs_in_order(self, corridor_segment):
        world, rec = corridor_segment
        idx = list(range(0, 24, 2))
        calls = []

        def recording(obs_a, obs_b):
            calls.append((obs_a, obs_b))
            return oracle_matcher(obs_a, obs_b)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DisconnectedMapWarning)
            m = build_map(rec.segment, idx, matcher=recording, world=world, nav_radius=2.0)
        pos = [rec.segment.frames[i].pose.t for i in idx]
        expected = [(a, b) for a in range(len(idx)) for b in range(a + 1, len(idx))
                    if np.linalg.norm(pos[a] - pos[b]) <= 4.0]
        assert 0 < len(expected) < len(idx) * (len(idx) - 1) // 2
        assert len(calls) == len(expected)
        for (got_a, got_b), (a, b) in zip(calls, expected):
            assert got_a is m.nodes[a] and got_b is m.nodes[b]


    def test_classical_features_once_per_keyframe(self, corridor_segment, monkeypatch):
        # the matcher sees the nodes, which keep their features, so each
        # keyframe's are extracted once; the edges are those of matching
        # the keyframe images pair by pair
        world, rec = corridor_segment
        idx = list(range(0, 24, 2))
        obs = [rec.segment.frames[i].obs for i in idx]
        pos = [rec.segment.frames[i].pose.t for i in idx]
        expected = []
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                n = len(match_classical(obs[a], obs[b]))
                if np.linalg.norm(pos[a] - pos[b]) <= 6.0 and n >= 10:
                    expected.append((a, b, n))
        assert len(expected) >= 3
        extract = matching.classical_features
        images = []
        monkeypatch.setattr(matching, "classical_features",
                            lambda image: images.append(image) or extract(image))
        m = build_map(rec.segment, idx, matcher=match_classical, world=world,
                      covis_threshold=10)
        assert m.cvg_edges == expected
        assert len(images) == len(idx)
        assert all(img is node.image for img, node in zip(images, m.nodes))


def line_map(n, cng=(), cvg=(), xs=None):
    """n nodes on the x axis (at ``xs``, default 0, 1, ...) joined by the
    given (a, b) CnG pairs and (a, b, n_corr) CvG edges."""
    xs = range(n) if xs is None else xs
    nodes = [MapNode(id=i, pose=Pose(np.array([float(x), 0, 0]), [1, 0, 0, 0]),
                     descriptor=np.eye(256, dtype=np.float32)[0])
             for i, x in enumerate(xs)]
    cng_edges = [(a, b, abs(float(xs[b]) - float(xs[a]))) for a, b in cng]
    return TopoMetricMap(nodes=nodes, cng_edges=cng_edges, cvg_edges=list(cvg),
                         descriptor_dim=256)


def reference_components(m):
    """Components by a plain graph search over the CnG edge list."""
    adj = {i: set() for i in range(len(m.nodes))}
    for a, b, _ in m.cng_edges:
        adj[a].add(b)
        adj[b].add(a)
    comps, seen = [], set()
    for start in range(len(m.nodes)):
        if start not in seen:
            comp, todo = set(), [start]
            while todo:
                cur = todo.pop()
                if cur not in comp:
                    comp.add(cur)
                    todo.extend(adj[cur] - comp)
            seen |= comp
            comps.append(sorted(comp))
    return comps


class TestGraphLevels:
    def test_zero_weight_edge_joins_colocated_nodes(self):
        m = line_map(3, cng=[(0, 1)], xs=[2.0, 2.0, 5.0])
        assert m.cng_edges == [(0, 1, 0.0)]
        assert m.components() == [[0, 1], [2]]

    def test_components_ordered_by_smallest_id(self):
        m = line_map(6, cng=[(1, 4), (0, 5), (2, 4)])
        assert m.components() == [[0, 5], [1, 2, 4], [3]]

    def test_components_match_reference_on_random_maps(self, rng):
        for _ in range(20):
            m = random_map(rng, n=int(rng.integers(1, 12)))
            assert m.components() == reference_components(m)

    def test_empty_map_has_no_components(self):
        m = TopoMetricMap(nodes=[], cng_edges=[], cvg_edges=[], descriptor_dim=256)
        assert m.components() == []

    def test_cvg_neighbors_are_ascending_python_ints(self):
        m = line_map(5, cvg=[(2, 4, 60), (0, 2, 70), (1, 2, 80)])
        assert m.cvg_neighbors(2) == [0, 1, 4]
        assert all(type(b) is int for b in m.cvg_neighbors(2))
        assert m.cvg_neighbors(3) == []
        assert m.cvg_neighbors(4) == [2]

    @pytest.mark.parametrize("edges", [{"cng": [(0, 1), (0, 1)]},
                                       {"cvg": [(0, 1, 60), (0, 1, 60)]}],
                             ids=["cng", "cvg"])
    def test_repeated_edge_rejected(self, edges):
        with pytest.raises(ValueError, match="twice"):
            line_map(3, **edges)

    @pytest.mark.parametrize("edge", [(1, 1), (2, 1), (-1, 1), (0, 3)])
    def test_bad_endpoints_rejected(self, edge):
        with pytest.raises(ValueError, match="endpoints"):
            line_map(3, cvg=[(*edge, 60)])

    def test_equality_ignores_adjacency(self):
        a = line_map(3, cng=[(0, 1)], cvg=[(1, 2, 60)])
        b = TopoMetricMap(nodes=a.nodes, cng_edges=list(a.cng_edges),
                          cvg_edges=list(a.cvg_edges), descriptor_dim=256)
        assert maps_equal(a, b)
        b.cng = b.cvg           # a field that differs but is derived
        assert maps_equal(a, b)
        assert "csr" not in repr(a).lower()
        c = TopoMetricMap(nodes=a.nodes, cng_edges=[], cvg_edges=list(a.cvg_edges),
                          descriptor_dim=256)
        assert not maps_equal(a, c)


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

    def test_zero_node_map_takes_the_descriptor_check(self, tmp_path):
        # an empty map reads its descriptors as a (0, dim) array like any
        # other map, so stray bytes and a negative dimension are errors
        m = TopoMetricMap(nodes=[], cng_edges=[], cvg_edges=[], descriptor_dim=256)
        assert m.descriptor_matrix().shape == (0, 256)
        save_map(m, tmp_path / "m")
        (tmp_path / "m" / "descriptors.f32").write_bytes(bytes(8))
        with pytest.raises(FormatError, match="expected 0 float32 values, found 2"):
            load_map(tmp_path / "m")
        (tmp_path / "m" / "descriptors.f32").write_bytes(b"")
        manifest = tmp_path / "m" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("descriptor_dim=256",
                                                         "descriptor_dim=-4"))
        with pytest.raises(FormatError, match=r"negative shape \(0, -4\)"):
            load_map(tmp_path / "m")

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
        # saved again over the first directory with node 0's image gone:
        # its old image file goes too
        loaded.nodes[0].image = None
        manifest = save_map(loaded, tmp_path / "m")
        assert maps_equal(loaded, load_map(tmp_path / "m"))
        images = tmp_path / "m" / "images"
        assert sorted(os.listdir(images)) == sorted(f"{i}.pgm" for i in range(1, 8))
        assert manifest["storage_bytes_images"] == sum(
            os.path.getsize(images / f) for f in os.listdir(images))

    def test_smaller_map_saved_over_larger_leaves_only_its_images(self, tmp_path, rng):
        # a 3-node map saved over an 8-node one: the 5 images of ids it
        # lacks go, and the manifest counts what is on disk
        save_map(random_map(rng, n=8, with_images=True), tmp_path / "m")
        small = random_map(rng, n=3, with_images=True)
        manifest = save_map(small, tmp_path / "m")
        images = tmp_path / "m" / "images"
        assert sorted(os.listdir(images)) == ["0.pgm", "1.pgm", "2.pgm"]
        assert manifest["storage_bytes_images"] == sum(
            os.path.getsize(images / f) for f in os.listdir(images))
        assert maps_equal(small, load_map(tmp_path / "m"))

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
            write_raw(path, rng.uniform(0.1, 5.0, size), "<f4")
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

    def test_non_finite_descriptor_file_names_node(self, tmp_path, rng):
        m = random_map(rng)
        save_map(m, tmp_path / "m")
        path = tmp_path / "m" / "descriptors.f32"
        descs = np.fromfile(path, dtype="<f4").reshape(len(m.nodes), 256)
        descs[5, 17] = np.nan
        write_raw(path, descs, "<f4")
        with pytest.raises(FormatError,
                           match=r"descriptors\.f32: node 5: descriptor not finite"):
            load_map(tmp_path / "m")

    def test_off_unit_norm_descriptor_file_names_node(self, tmp_path, rng):
        m = random_map(rng)
        save_map(m, tmp_path / "m")
        path = tmp_path / "m" / "descriptors.f32"
        descs = np.fromfile(path, dtype="<f4").reshape(len(m.nodes), 256)
        descs[3] *= np.float32(1.01)
        write_raw(path, descs, "<f4")
        with pytest.raises(FormatError,
                           match=r"descriptors\.f32: node 3: descriptor not unit norm"):
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

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_cng_weight_names_edge(self, weight):
        nodes = [MapNode(id=i, pose=Pose(np.array([float(i), 0, 0]), [1, 0, 0, 0]),
                         descriptor=np.eye(256, dtype=np.float32)[0]) for i in range(3)]
        with pytest.raises(ValueError, match=r"cng edge \(1,2\) weight"):
            TopoMetricMap(nodes=nodes, cng_edges=[(0, 1, 1.0), (1, 2, weight)],
                          cvg_edges=[], descriptor_dim=256)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_descriptor_names_node(self, value):
        descs = np.eye(256, dtype=np.float32)[:2].copy()
        descs[1, 3] = value
        nodes = [MapNode(id=i, pose=Pose(np.array([float(i), 0, 0]), [1, 0, 0, 0]),
                         descriptor=descs[i]) for i in range(2)]
        with pytest.raises(ValueError, match="node 1: descriptor not finite"):
            TopoMetricMap(nodes=nodes, cng_edges=[], cvg_edges=[], descriptor_dim=256)
