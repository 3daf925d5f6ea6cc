import warnings

import numpy as np
import pytest

import vloc.retrieval as rt
from vloc.dataio import float_image
from vloc.errors import DimensionMismatch, EmptyMap, NonUnitNorm, NonUnitNormWarning
from vloc.geometry import CameraIntrinsics, Pose
from vloc.mapgraph import MapNode, TopoMetricMap, save_map
from vloc.simworld import make_preset, planar_camera_pose, render

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=64.0, width=128, height=128)


def unit_vec(rng, dim=256):
    v = rng.normal(0.0, 1.0, dim)
    return (v / np.linalg.norm(v)).astype(np.float32)


def make_map(descriptors, positions=None):
    nodes = []
    for i, d in enumerate(descriptors):
        t = np.array([float(i), 0.0, 0.0]) if positions is None else positions[i]
        nodes.append(MapNode(id=i, pose=Pose(t, [1, 0, 0, 0]), descriptor=d))
    return TopoMetricMap(nodes=nodes, cng_edges=[], cvg_edges=[], descriptor_dim=256)


def nan_pixel():
    """A 128x128 float image with one NaN pixel."""
    img = np.random.default_rng(3).uniform(0.0, 1.0, (128, 128))
    img[40, 70] = np.nan
    return img


class TestExtractor:
    def test_constant_image_falls_back_to_e0(self):
        d = rt.extract_descriptor(np.full((64, 64), 77, dtype=np.uint8))
        expected = np.zeros(256, dtype=np.float32)
        expected[0] = 1.0
        assert np.array_equal(d, expected)

    def test_empty_image(self):
        # an empty 2-D image has a side under 16 px
        with pytest.raises(ValueError, match="side under 16"):
            rt.extract_descriptor(np.zeros((0, 0), dtype=np.uint8))

    @pytest.mark.parametrize("image, fault", [
        (np.zeros((16, 16, 3), dtype=np.uint8), "not 2-D"),
        (np.zeros(256, dtype=np.uint8), "not 2-D"),
        (np.zeros((15, 15), dtype=np.uint8), "side under 16"),
        (np.zeros((8, 64), dtype=np.uint8), "side under 16"),
        (np.zeros((64, 8), dtype=np.uint8), "side under 16"),
        (np.zeros((0, 64), dtype=np.uint8), "side under 16"),
        (np.zeros(0, dtype=np.uint8), "not 2-D"),
        (np.zeros((0, 16, 16)), "not 2-D"),
        (nan_pixel(), "not finite"),
        (np.full((32, 32), np.inf), "not finite"),
    ], ids=["rgb", "flat", "15x15", "8x64", "64x8", "0x64", "empty-1d", "empty-3d",
            "nan", "inf"])
    def test_indescribable_image_is_named(self, image, fault):
        with warnings.catch_warnings():
            warnings.simplefilter("error")          # before any work
            with pytest.raises(ValueError, match=fault):
                rt.extract_descriptor(image)

    def test_identical_images_similarity_one(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 255, (96, 96), dtype=np.uint8)
        d1, d2 = rt.extract_descriptor(img), rt.extract_descriptor(img.copy())
        assert np.array_equal(d1, d2)
        assert rt.similarity(d1, d2) == pytest.approx(1.0, abs=1e-6)

    def test_unit_norm_and_dim(self):
        rng = np.random.default_rng(1)
        images = [rng.integers(0, 255, (128, 128), dtype=np.uint8)
                  for _ in range(10)]
        smallest = rng.integers(0, 255, (16, 16), dtype=np.uint8)
        for img in images + [smallest, smallest / 255.0]:   # sides of 16 px
            d = rt.extract_descriptor(img)
            assert d.shape == (256,) and d.dtype == np.float32
            assert abs(np.linalg.norm(d.astype(np.float64)) - 1.0) < 1e-6

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 255, (128, 128), dtype=np.uint8)
        assert rt.extract_descriptor(img).tobytes() == rt.extract_descriptor(img).tobytes()

    def test_noise_robustness_on_simworld_renders(self):
        # threshold fixed from the oracle run (measured min 0.993)
        world, _ = make_preset("corridor", seed=7)
        base = render(world, planar_camera_pose(3.0, 2.25, 0.1), K).color
        d0 = rt.extract_descriptor(base)
        rng = np.random.default_rng(0)
        for _ in range(50):
            noisy = np.clip(base.astype(float) + rng.normal(0.0, 5.0, base.shape),
                            0, 255).astype(np.uint8)
            assert rt.similarity(d0, rt.extract_descriptor(noisy)) > 0.9


class TestFloatImage:
    def test_uint8_scaled_to_unit_range_bit_exact(self, rng):
        img = rng.integers(0, 256, (16, 24), dtype=np.uint8)
        got = float_image(img)
        assert got.dtype == np.float64
        assert got.tobytes() == (img.astype(np.float64) / 255.0).tobytes()
        assert float_image(np.array([[0, 255]], dtype=np.uint8)).tolist() == [[0.0, 1.0]]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint16])
    def test_other_dtypes_cast_unscaled(self, rng, dtype):
        img = rng.integers(0, 300, (8, 8)).astype(dtype)
        assert float_image(img).tobytes() == img.astype(np.float64).tobytes()


class TestTopK:
    def test_exact_query_ranks_first(self, rng):
        descs = [unit_vec(rng) for _ in range(10)]
        topo = make_map(descs)
        res = rt.top_k(descs[7], topo, k=3)
        node, score = res.top1()
        assert node == 7 and score == pytest.approx(1.0, abs=1e-6)

    def test_k_exceeding_map_returns_all_sorted(self, rng):
        descs = [unit_vec(rng) for _ in range(5)]
        topo = make_map(descs)
        res = rt.top_k(unit_vec(rng), topo, k=50)
        assert len(res.ranked) == 5
        scores = [s for _, s in res.ranked]
        assert scores == sorted(scores, reverse=True)
        assert sorted(i for i, _ in res.ranked) == list(range(5))

    def test_tie_break_by_lower_id(self, rng):
        d = unit_vec(rng)
        topo = make_map([d, d.copy(), unit_vec(rng)])
        res = rt.top_k(d, topo, k=2)
        assert [i for i, _ in res.ranked] == [0, 1]

    def test_empty_map(self):
        topo = TopoMetricMap(nodes=[], cng_edges=[], cvg_edges=[], descriptor_dim=256)
        with pytest.raises(EmptyMap):
            rt.top_k(np.ones(256) / 16.0, topo, k=1)

    def test_similarity_symmetric(self, rng):
        a, b = unit_vec(rng), unit_vec(rng)
        assert rt.similarity(a, b) == rt.similarity(b, a)

    def test_top1_is_nearest_keyframe_regression(self):
        # benchmark frozen from the oracle run: 76.9% measured, gate at 70%
        world, _ = make_preset("corridor", seed=7)
        kf_poses = [planar_camera_pose(x, 2.25, 0.0) for x in np.arange(1.5, 33.0, 1.5)]
        descs = [rt.extract_descriptor(render(world, p, K).color) for p in kf_poses]
        topo = make_map(descs, positions=[p.t for p in kf_poses])
        kf_pos = np.array([p.t for p in kf_poses])
        rng = np.random.default_rng(1)
        hits = total = 0
        for _ in range(150):
            x = rng.uniform(2.0, 32.0)
            dy = rng.uniform(-0.35, 0.35)
            yaw = rng.uniform(-0.10, 0.10)
            q = planar_camera_pose(x, 2.25 + dy, yaw)
            dists = np.linalg.norm(kf_pos - q.t, axis=1)
            if dists.min() > 0.5:
                continue
            total += 1
            qd = rt.extract_descriptor(render(world, q, K).color)
            if rt.top_k(qd, topo, k=1).top1()[0] == int(np.argmin(dists)):
                hits += 1
        assert total >= 50
        assert hits / total >= 0.70


class TestIngest:
    def _saved_map(self, tmp_path, rng, n=6):
        descs = [unit_vec(rng) for _ in range(n)]
        topo = make_map(descs)
        save_map(topo, tmp_path / "m")
        return topo, tmp_path / "m"

    def test_roundtrip_is_identity(self, tmp_path, rng):
        topo, mapdir = self._saved_map(tmp_path, rng)
        before = [n.descriptor.tobytes() for n in topo.nodes]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rt.ingest_descriptors(mapdir / "descriptors.f32", topo)
        assert [n.descriptor.tobytes() for n in topo.nodes] == before

    def test_wrong_dimension(self, tmp_path, rng):
        topo, mapdir = self._saved_map(tmp_path, rng)
        bad = np.zeros((6, 128), dtype=np.float32)
        bad[:, 0] = 1.0
        bad.tofile(mapdir / "bad.f32")
        with pytest.raises(DimensionMismatch):
            rt.ingest_descriptors(mapdir / "bad.f32", topo)

    def test_mild_norm_deviation_renormalized_with_warning(self, tmp_path, rng):
        topo, mapdir = self._saved_map(tmp_path, rng)
        scaled = topo.descriptor_matrix() * 1.05
        scaled.astype("<f4").tofile(mapdir / "scaled.f32")
        with pytest.warns(NonUnitNormWarning):
            rt.ingest_descriptors(mapdir / "scaled.f32", topo)
        norms = np.linalg.norm(topo.descriptor_matrix().astype(np.float64), axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-6

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_row_rejected_by_row(self, tmp_path, rng, value):
        topo, mapdir = self._saved_map(tmp_path, rng)
        before = [n.descriptor.tobytes() for n in topo.nodes]
        mat = topo.descriptor_matrix()
        mat[4, 9] = value
        mat.astype("<f4").tofile(mapdir / "bad.f32")
        with pytest.raises(NonUnitNorm, match="row 4 norm"):
            rt.ingest_descriptors(mapdir / "bad.f32", topo)
        assert [n.descriptor.tobytes() for n in topo.nodes] == before

    def test_large_norm_deviation_rejected(self, tmp_path, rng):
        topo, mapdir = self._saved_map(tmp_path, rng)
        scaled = topo.descriptor_matrix() * 1.25
        scaled.astype("<f4").tofile(mapdir / "big.f32")
        with pytest.raises(NonUnitNorm):
            rt.ingest_descriptors(mapdir / "big.f32", topo)
