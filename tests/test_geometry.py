import math

import numpy as np
import pytest

from vloc.errors import NearSingularRotation
from vloc.geometry import (
    CameraIntrinsics,
    Pose,
    pose_compose_array,
    pose_inverse_array,
    pose_inverse_row,
    project,
    project_array,
    rotation_angle,
    rotvec_to_quat,
    se3_adjoint,
    se3_adjoint_array,
    se3_exp,
    se3_exp_array,
    se3_left_jacobian,
    se3_log,
    se3_log_array,
    se3_right_jacobian_inv,
    se3_right_jacobian_inv_array,
)
from conftest import random_pose

K64 = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=64.0, width=128, height=128)


def tz(d):
    return Pose(np.array([0.0, 0.0, d]), np.array([1.0, 0.0, 0.0, 0.0]))


class TestCompose:
    def test_identity_neutral(self, rng):
        p = random_pose(rng)
        assert Pose.identity().compose(p).almost_equal(p, 1e-15)
        assert p.compose(Pose.identity()).almost_equal(p, 1e-15)

    def test_inverse_cancels(self, rng):
        for _ in range(20):
            p = random_pose(rng)
            assert p.compose(p.inverse()).almost_equal(Pose.identity(), 1e-12)

    def test_commuting_translations(self):
        assert tz(1.0).compose(tz(2.0)).almost_equal(tz(3.0), 1e-15)

    def test_associative(self, rng):
        a, b, c = (random_pose(rng) for _ in range(3))
        assert a.compose(b).compose(c).almost_equal(a.compose(b.compose(c)), 1e-12)


class TestBetween:
    def test_self_is_identity(self, rng):
        p = random_pose(rng)
        assert p.between(p).almost_equal(Pose.identity(), 1e-12)

    def test_from_identity(self, rng):
        p = random_pose(rng)
        assert Pose.identity().between(p).almost_equal(p, 1e-15)

    def test_compose_between_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            p, q = random_pose(rng), random_pose(rng)
            assert p.compose(p.between(q)).almost_equal(q, 1e-12)


class TestQuaternionInvariants:
    def test_canonical_sign(self, rng):
        for _ in range(200):
            p = random_pose(rng)
            assert p.q[0] >= 0.0

    def test_norm_stays_unit_over_chained_composition(self):
        # 1e6 chained compositions keep |q| within 1e-9 of unit
        rng = np.random.default_rng(3)
        step = random_pose(rng)
        acc = Pose.identity()
        worst = 0.0
        for _ in range(1_000_000):
            acc = acc.compose(step)
            worst = max(worst, abs(float(np.dot(acc.q, acc.q)) - 1.0))
        assert worst < 1e-9


class TestProjection:
    def test_principal_axis(self):
        uv = project(K64, [0.0, 0.0, 2.0])
        assert np.allclose(uv, [64.0, 64.0])

    def test_offset_point(self):
        uv = project(K64, [1.0, 0.0, 2.0])
        assert np.allclose(uv, [114.0, 64.0])

    def test_behind_camera(self):
        assert project(K64, [0.0, 0.0, -1.0]) is None

    def test_outside_image(self):
        assert project(K64, [10.0, 0.0, 2.0]) is None

    def test_array_matches_scalar(self, rng):
        pts = rng.normal(0.0, 2.0, (500, 3))
        uv, ok = project_array(K64, pts)
        for i in range(len(pts)):
            single = project(K64, pts[i])
            if single is None:
                assert not ok[i]
            else:
                assert ok[i] and np.allclose(uv[i], single)


class TestExpLog:
    def test_exp_zero_is_identity(self):
        assert se3_exp(np.zeros(6)).almost_equal(Pose.identity(), 1e-15)

    def test_log_identity_is_zero(self):
        assert np.allclose(se3_log(Pose.identity()), np.zeros(6))

    def test_roundtrip_seeded(self):
        rng = np.random.default_rng(11)
        count = 0
        while count < 1000:
            xi = rng.normal(0.0, 1.2, 6)
            if np.linalg.norm(xi[3:]) >= 3.0:
                continue
            count += 1
            assert np.max(np.abs(se3_log(se3_exp(xi)) - xi)) < 1e-9

    def test_exp_log_pose_roundtrip(self, rng):
        for _ in range(200):
            p = random_pose(rng)
            try:
                xi = se3_log(p)
            except NearSingularRotation:
                continue
            assert se3_exp(xi).almost_equal(p, 1e-9)

    def test_near_pi_rejected(self):
        q = rotvec_to_quat([math.pi - 1e-9, 0.0, 0.0])
        with pytest.raises(NearSingularRotation):
            se3_log(Pose(np.zeros(3), q))


def tangents(rng, angles):
    """One random tangent per rotation angle; translations of order 1."""
    axes = rng.normal(0.0, 1.0, (len(angles), 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return np.concatenate([rng.normal(0.0, 1.0, (len(angles), 3)),
                           axes * np.asarray(angles)[:, None]], axis=1)


# every branch: exp/log/J_l^-1 series below 1e-6 rad, the Q series below 1e-3
BRANCH_ANGLES = [0.0, 1e-9, 5e-7, 2e-6, 5e-4, 2e-3, 0.3, 1.5, 3.0]


def as_arrays(poses):
    return np.array([p.t for p in poses]), np.array([p.q for p in poses])


def numeric_right_jacobian_inv(xi, h=1e-6):
    """d log(exp(xi) exp(d)) / dd at d = 0 by central differences."""
    x = se3_exp(xi)
    jac = np.zeros((6, 6))
    for k in range(6):
        d = np.zeros(6)
        d[k] = h
        jac[:, k] = (se3_log(x.compose(se3_exp(d)))
                     - se3_log(x.compose(se3_exp(-d)))) / (2 * h)
    return jac


class TestBatched:
    def test_inverse_row_bit_equal_to_array(self):
        rng = np.random.default_rng(31)
        poses = [random_pose(rng, t_scale=50.0) for _ in range(20000)]
        t, q = as_arrays(poses)
        expected = np.hstack(pose_inverse_array(t, q))
        got = np.array([pose_inverse_row(p.t, p.q) for p in poses])
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_exp_matches_scalar(self):
        xi = tangents(np.random.default_rng(21), BRANCH_ANGLES * 4)
        t, q = se3_exp_array(xi)
        for k, x in enumerate(xi):
            ref = se3_exp(x)
            assert np.max(np.abs(t[k] - ref.t)) < 1e-14
            assert rotation_angle(q[k], ref.q) < 1e-14
            assert abs(np.linalg.norm(q[k]) - 1.0) < 1e-12

    def test_log_inverts_exp_in_every_branch(self):
        xi = tangents(np.random.default_rng(22), BRANCH_ANGLES * 4)
        poses = [se3_exp(x) for x in xi]
        out = se3_log_array(*as_arrays(poses))
        assert np.max(np.abs(out - xi)) < 1e-9
        for k, p in enumerate(poses):
            # se3_log is the n = 1 case; rows do not interact
            assert np.max(np.abs(se3_log(p) - out[k])) < 1e-14
        # either quaternion sign gives the same tangent
        t, q = as_arrays(poses)
        assert np.max(np.abs(se3_log_array(t, -q) - out)) < 1e-14

    def test_log_near_pi_rejected(self):
        t = np.zeros((3, 3))
        q = np.array([[1.0, 0.0, 0.0, 0.0],
                      rotvec_to_quat([0.0, math.pi - 1e-9, 0.0]),
                      rotvec_to_quat([0.3, 0.0, 0.0])])
        with pytest.raises(NearSingularRotation):
            se3_log_array(t, q)
        se3_log_array(t[[0, 2]], q[[0, 2]])

    def test_compose_and_inverse_match_pose(self, rng):
        a = [random_pose(rng) for _ in range(20)]
        b = [random_pose(rng) for _ in range(20)]
        t, q = pose_compose_array(*as_arrays(a), *as_arrays(b))
        ti, qi = pose_inverse_array(*as_arrays(a))
        for k in range(20):
            assert Pose(t[k], q[k]).almost_equal(a[k].compose(b[k]), 1e-12)
            assert Pose(ti[k], qi[k]).almost_equal(a[k].inverse(), 1e-12)

    def test_right_jacobian_inv_closed_form(self):
        xi = tangents(np.random.default_rng(23), BRANCH_ANGLES * 3)
        jac = se3_right_jacobian_inv_array(xi)
        for k, x in enumerate(xi):
            # the scalar function is the n = 1 case
            assert np.max(np.abs(se3_right_jacobian_inv(x) - jac[k])) < 1e-12
            inv = np.linalg.inv(se3_left_jacobian(-x))
            assert np.max(np.abs(jac[k] - inv)) < 1e-9 * max(1.0, np.max(np.abs(inv)))
            fd = numeric_right_jacobian_inv(x)
            assert np.max(np.abs(jac[k] - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))

    def test_adjoint_moves_tangents_across(self, rng):
        poses = [random_pose(rng) for _ in range(20)]
        adj = se3_adjoint_array(*as_arrays(poses))
        h = 1e-6
        for k, p in enumerate(poses):
            assert np.max(np.abs(se3_adjoint(p) - adj[k])) < 1e-14
            # T exp(d) T^-1 = exp(Ad(T) d)
            fd = np.zeros((6, 6))
            for j in range(6):
                d = np.zeros(6)
                d[j] = h
                fd[:, j] = (se3_log(p.compose(se3_exp(d)).compose(p.inverse()))
                            - se3_log(p.compose(se3_exp(-d)).compose(p.inverse()))) / (2 * h)
            assert np.max(np.abs(adj[k] - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))


class TestRotationAngle:
    def test_zero_iff_equal_up_to_sign(self, rng):
        p = random_pose(rng)
        assert rotation_angle(p.q, p.q) == 0.0
        assert rotation_angle(p.q, -p.q) < 1e-12

    def test_symmetric(self, rng):
        a, b = random_pose(rng), random_pose(rng)
        assert rotation_angle(a.q, b.q) == pytest.approx(rotation_angle(b.q, a.q), abs=1e-15)

    def test_known_angle(self):
        q = rotvec_to_quat([0.0, 0.3, 0.0])
        assert rotation_angle([1, 0, 0, 0], q) == pytest.approx(0.3, abs=1e-12)


class TestSerialization:
    def test_roundtrip_exact(self, rng):
        for _ in range(50):
            p = random_pose(rng)
            q = Pose.from_line(p.to_line())
            assert np.array_equal(p.t, q.t) and np.array_equal(p.q, q.q)

    def test_line_has_seven_fields(self, rng):
        assert len(random_pose(rng).to_line().split()) == 7

    def test_fields_roundtrip_exact(self, rng):
        for _ in range(50):
            p = random_pose(rng)
            fields = p.fields()
            assert p.to_line() == " ".join(fields)
            assert Pose.from_fields(fields) == p
            assert Pose.from_fields([float(v) for v in fields]) == p

    @pytest.mark.parametrize("n", [6, 8])
    def test_from_fields_needs_seven(self, n):
        with pytest.raises(ValueError, match=f"expected 7 fields, got {n}"):
            Pose.from_fields(["1"] * n)


class TestCameraIntrinsics:
    def test_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=-1.0, fy=100.0, cx=64.0, cy=64.0, width=128, height=128)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=100.0, fy=100.0, cx=200.0, cy=64.0, width=128, height=128)

    def test_line_roundtrip(self):
        k = CameraIntrinsics.from_line(K64.to_line())
        assert k == K64
