import math

import numpy as np
import pytest
from scipy.linalg import expm

from vloc.errors import NearSingularRotation
from vloc.geometry import (
    CameraIntrinsics,
    Pose,
    matrix_to_quat_array,
    pose_inverse_row,
    poses_from_rows,
    project_array,
    quat_normalize,
    quat_to_matrix_array,
    rotation_angle,
    se3_adjoint_array,
    se3_exp,
    se3_exp_array,
    se3_log,
    se3_log_array,
    se3_right_jacobian_inv_array,
)
from conftest import random_pose, rotvec_to_quat, se3_left_jacobian, so3_hat

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


def project(K, p_cam, z_min=1e-6):
    """Reference: one camera-frame point to pixel (u, v), None if out of view
    (z <= z_min or outside [0, width) x [0, height))."""
    x, y, z = float(p_cam[0]), float(p_cam[1]), float(p_cam[2])
    if z <= z_min:
        return None
    u = K.fx * x / z + K.cx
    v = K.fy * y / z + K.cy
    if not (0.0 <= u < K.width and 0.0 <= v < K.height):
        return None
    return np.array([u, v])


def project_one(p_cam):
    uv, ok = project_array(K64, [p_cam])
    return uv[0] if ok[0] else None


class TestProjection:
    def test_principal_axis(self):
        uv = project_one([0.0, 0.0, 2.0])
        assert np.allclose(uv, [64.0, 64.0])

    def test_offset_point(self):
        uv = project_one([1.0, 0.0, 2.0])
        assert np.allclose(uv, [114.0, 64.0])

    def test_behind_camera(self):
        assert project_one([0.0, 0.0, -1.0]) is None

    def test_outside_image(self):
        assert project_one([10.0, 0.0, 2.0]) is None

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


# every branch: the scalar references' series below 1e-6 rad, the batched
# forms' series below 1e-3
BRANCH_ANGLES = [0.0, 1e-9, 5e-7, 2e-6, 5e-4, 2e-3, 0.3, 1.5, 3.0]


def as_arrays(poses):
    """Translations (n, 3) and rotation matrices (n, 3, 3) of poses."""
    return (np.array([p.t for p in poses]),
            quat_to_matrix_array(np.array([p.q for p in poses])))


def pose_inverse_array(t, q):
    """Reference: the batched quaternion inverse (t, q) -> (-R(q)^T t, q*)."""
    qc = q * np.array([1.0, -1.0, -1.0, -1.0])
    qv = qc[:, 1:]
    w = 2.0 * np.cross(qv, t)
    return -(t + qc[:, :1] * w + np.cross(qv, w)), qc


def exact_exp(x):
    """Reference: the matrix exponential of the 4x4 twist of x, (t, R)."""
    twist = np.zeros((4, 4))
    twist[:3, :3] = so3_hat(x[3:])
    twist[:3, 3] = x[:3]
    exact = expm(twist)
    return exact[:3, 3], exact[:3, :3]


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


def rotation_about(axis, angle):
    axis = np.asarray(axis, dtype=float)
    return rotvec_to_quat(axis / np.linalg.norm(axis) * angle)


class TestBatched:
    def test_inverse_row_bit_equal_to_array(self):
        rng = np.random.default_rng(31)
        poses = [random_pose(rng, t_scale=50.0) for _ in range(20000)]
        t, q = np.array([p.t for p in poses]), np.array([p.q for p in poses])
        expected = np.hstack(pose_inverse_array(t, q))
        got = np.array([pose_inverse_row(p.t, p.q) for p in poses])
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_exp_matches_scalar(self):
        # the matrix exponential of the 4x4 twist is the reference for both
        xi = tangents(np.random.default_rng(21), BRANCH_ANGLES * 4)
        t, r = se3_exp_array(xi)
        for k, x in enumerate(xi):
            ref = se3_exp(x)
            exact_t, exact_r = exact_exp(x)
            assert np.max(np.abs(t[k] - exact_t)) < 1e-13
            assert np.max(np.abs(r[k] - exact_r)) < 1e-14
            assert np.max(np.abs(t[k] - ref.t)) < 1e-13
            assert np.max(np.abs(r[k] - ref.rotation_matrix())) < 1e-14
            assert np.max(np.abs(r[k] @ r[k].T - np.eye(3))) < 1e-14

    def test_scalar_exp_takes_the_series_at_small_angles(self):
        # closed forms of (1 - cos t)/t^2 and (t - sin t)/t^3 lose digits
        # below 1e-3 rad (5.7e-11 m of translation at 2e-6 rad); se3_exp is
        # the n = 1 case of se3_exp_array, which takes their series there
        angles = np.repeat(np.geomspace(1e-7, 1e-2, 16), 4)
        for x in tangents(np.random.default_rng(24), angles):
            assert np.max(np.abs(se3_exp(x).t - exact_exp(x)[0])) < 1e-13

    def test_log_inverts_exp_in_every_branch(self):
        xi = tangents(np.random.default_rng(22), BRANCH_ANGLES * 4)
        poses = [se3_exp(x) for x in xi]
        out = se3_log_array(*as_arrays(poses))
        assert np.max(np.abs(out - xi)) < 1e-9
        for k, p in enumerate(poses):
            # se3_log is the n = 1 case; rows do not interact
            assert np.max(np.abs(se3_log(p) - out[k])) < 1e-14
        # the matrix form of exp round-trips as well
        assert np.max(np.abs(se3_log_array(*se3_exp_array(xi)) - xi)) < 1e-9

    def test_log_near_pi_rejected(self):
        t = np.zeros((3, 3))
        r = quat_to_matrix_array(np.array([[1.0, 0.0, 0.0, 0.0],
                                           rotvec_to_quat([0.0, math.pi - 1e-9, 0.0]),
                                           rotvec_to_quat([0.3, 0.0, 0.0])]))
        with pytest.raises(NearSingularRotation):
            se3_log_array(t, r)
        se3_log_array(t[[0, 2]], r[[0, 2]])

    @pytest.mark.parametrize("axis", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                      [0.0, 0.0, 1.0], [1.0, -2.0, 0.5]])
    def test_log_raises_within_1e_6_of_pi(self, axis):
        for off in (0.0, 1e-12, 1e-7, 1e-6 - 1e-9):
            q = rotation_about(axis, math.pi - off)
            with pytest.raises(NearSingularRotation):
                se3_log_array(np.zeros((1, 3)), quat_to_matrix_array(q[None]))
        for off in (1e-6 + 1e-8, 1e-3):
            q = rotation_about(axis, math.pi - off)
            phi = se3_log_array(np.zeros((1, 3)), quat_to_matrix_array(q[None]))[0, 3:]
            assert abs(np.linalg.norm(phi) - (math.pi - off)) < 1e-12

    def test_compose_and_inverse_match_pose(self, rng):
        # on matrices a compose and an inverse are one matmul each; the
        # quaternions come back unit and with the canonical sign
        a = [random_pose(rng) for _ in range(20)]
        b = [random_pose(rng) for _ in range(20)]
        (ta, ra), (tb, rb) = as_arrays(a), as_arrays(b)
        q = matrix_to_quat_array(ra @ rb)
        t = ta + (ra @ tb[:, :, None])[:, :, 0]
        ti = -(ra.transpose(0, 2, 1) @ ta[:, :, None])[:, :, 0]
        qi = matrix_to_quat_array(ra.transpose(0, 2, 1))
        for k in range(20):
            assert Pose(t[k], q[k]).almost_equal(a[k].compose(b[k]), 1e-12)
            assert Pose(ti[k], qi[k]).almost_equal(a[k].inverse(), 1e-12)
        for quat in (q, qi):
            assert np.all(quat[:, 0] >= 0.0)
            assert np.max(np.abs(np.linalg.norm(quat, axis=1) - 1.0)) < 1e-15

    def test_matrix_to_quat_every_branch(self):
        # Shepperd's four branches: near identity and near pi about x, y, z
        qs = np.array([rotation_about(axis, angle)
                       for axis in ([1.0, 2.0, 3.0], [1.0, 0.1, 0.0],
                                    [0.1, 1.0, 0.0], [0.0, 0.1, 1.0])
                       for angle in (1e-9, 0.5, math.pi - 1e-3, math.pi)])
        back = matrix_to_quat_array(quat_to_matrix_array(qs))
        for got, want in zip(back, qs):
            assert rotation_angle(got, want) < 1e-12
            assert got[0] >= 0.0 and abs(np.linalg.norm(got) - 1.0) < 1e-15
        # at exactly pi qw is 0 and the first nonzero component is positive
        half = matrix_to_quat_array(quat_to_matrix_array(np.array([[0.0, 0.0, -1.0, 0.0]])))
        assert np.array_equal(half, [[0.0, 0.0, 1.0, 0.0]])

    def test_right_jacobian_inv_closed_form(self):
        xi = tangents(np.random.default_rng(23), BRANCH_ANGLES * 3)
        jac = se3_right_jacobian_inv_array(xi)
        for k, x in enumerate(xi):
            inv = np.linalg.inv(se3_left_jacobian(-x))
            assert np.max(np.abs(jac[k] - inv)) < 1e-9 * max(1.0, np.max(np.abs(inv)))
            fd = numeric_right_jacobian_inv(x)
            assert np.max(np.abs(jac[k] - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))

    def test_adjoint_moves_tangents_across(self, rng):
        poses = [random_pose(rng) for _ in range(20)]
        adj = se3_adjoint_array(*as_arrays(poses))
        h = 1e-6
        for k, p in enumerate(poses):
            # T exp(d) T^-1 = exp(Ad(T) d)
            fd = np.zeros((6, 6))
            for j in range(6):
                d = np.zeros(6)
                d[j] = h
                fd[:, j] = (se3_log(p.compose(se3_exp(d)).compose(p.inverse()))
                            - se3_log(p.compose(se3_exp(-d)).compose(p.inverse()))) / (2 * h)
            assert np.max(np.abs(adj[k] - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))


class TestPosesFromRows:
    def test_bit_equal_to_constructor(self, rng):
        rows = np.array([np.concatenate([p.t, p.q])
                         for p in (random_pose(rng) for _ in range(50))])
        rows[1, 3:] = [0.0, 0.0, -1.0, 0.0]          # qw = 0: sign by x, y, z
        rows[2, 3:] = [-0.0, 0.6, 0.0, 0.8]
        rows[3, 3:] *= -1.0                          # qw < 0
        rows[4, 3:] *= 1.0 + 1e-9                    # off unit: normalized
        rows[5, :3] = [-0.0, 0.0, -0.0]
        got = poses_from_rows(rows)
        want = [Pose(r[:3], r[3:]) for r in rows]
        assert got == want
        for a, b in zip(got, want):
            assert np.array_equal(np.signbit(a.t), np.signbit(b.t))
            assert np.array_equal(np.signbit(a.q), np.signbit(b.q))
            assert not (a.t.flags.writeable or a.q.flags.writeable)
        rows[0, 3:] = 5.0
        assert np.array_equal(got[0].q, want[0].q)   # the poses hold a copy

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_raises(self, bad):
        row = np.array([[0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]])
        row[0, 1] = bad
        with pytest.raises(ValueError):
            poses_from_rows(row)


def reference_pose(t, q):
    """What the ``Pose`` constructor stored, (t, q), before its fast path,
    or the error it raised."""
    t = np.asarray(t, dtype=float).reshape(3).copy()
    q = quat_normalize(np.asarray(q, dtype=float).reshape(4))
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(q))):
        raise ValueError("non-finite pose")
    return t, q


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_constructs_as_reference(t, q):
    try:
        want = reference_pose(t, q)
    except ValueError:
        with pytest.raises(ValueError):
            Pose(t, q)
        return
    got = Pose(t, q)
    assert same_bits(got.t, want[0]) and same_bits(got.q, want[1]), (t, q)
    assert not (got.t.flags.writeable or got.q.flags.writeable)


class TestPoseConstructor:
    def test_bit_equal_to_reference_on_seeded_rows(self):
        rng = np.random.default_rng(20)
        n = 20_000
        rows = np.empty((n, 7))
        rows[:, :3] = rng.normal(0.0, 10.0, (n, 3))
        q = rng.normal(0.0, 1.0, (n, 4))
        rows[:, 3:] = q / np.linalg.norm(q, axis=1)[:, None]   # either sign
        rows[::7, 3:] *= 1.0 + 1e-10                           # off unit
        rows[::11, :3] = np.round(rows[::11, :3])             # round values
        rows[::13, 4:] = 0.0
        rows[::13, 3] = 1.0
        for r in rows:
            assert_constructs_as_reference(r[:3], r[3:])

    @pytest.mark.parametrize("q", [
        [0.0, 0.0, -1.0, 0.0], [0.0, 0.6, 0.0, -0.8], [-0.0, 0.6, 0.0, 0.8],
        [-0.0, -0.0, 1.0, 0.0], [-0.5, 0.5, 0.5, 0.5], [-1.0, 0.0, 0.0, 0.0],
        [1.0, -0.0, 0.0, -0.0], [0.5, 0.5, 0.5, 0.5 + 1e-12], [2.0, 0.0, 0.0, 0.0],
        [1.0, 1e-7, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0],
        [1.0, np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0], [1.0, 0.0, -np.inf, 0.0],
        [1e200, 0.0, 0.0, 0.0], [5e-324, 0.0, 0.0, 0.0],
    ])
    @pytest.mark.parametrize("t", [
        [0.5, -2.0, 3.0], [-0.0, 0.0, -0.0], [np.nan, 0.0, 0.0],
        [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf], [1e308, 1e308, 1e308],
    ])
    def test_bit_equal_to_reference_on_edge_values(self, t, q):
        assert_constructs_as_reference(np.array(t), np.array(q))

    @pytest.mark.parametrize("make", [
        lambda v: np.asarray(v, dtype=np.float32),
        lambda v: np.round(v).astype(np.int64),
        lambda v: list(v),
        lambda v: tuple(float(x) for x in v),
        lambda v: np.asarray(v)[None],
        lambda v: np.asarray(v, dtype=np.float64).astype(">f8"),
        lambda v: np.asfortranarray(np.tile(np.asarray(v), (2, 1)))[0],
    ])
    def test_bit_equal_to_reference_on_other_inputs(self, make):
        t = np.array([0.25, -1.5, 2.0])
        for q in ([1.0, 0.0, 0.0, 0.0], [0.5, 0.5, -0.5, 0.5], [-1.0, 0.0, 0.0, 0.0]):
            q = np.array(q)
            assert_constructs_as_reference(make(t), make(q))
            assert_constructs_as_reference(t, make(q))
            assert_constructs_as_reference(make(t), q)

    def test_wrong_sizes_raise(self):
        with pytest.raises(ValueError):
            Pose(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            Pose(np.zeros(3), np.array([1.0, 0.0, 0.0]))

    def test_a_caller_overwriting_its_arrays_changes_no_pose(self, rng):
        for _ in range(5):
            t, q = random_pose(rng).t.copy(), random_pose(rng).q.copy()
            pose = Pose(t, q)
            t_bits, q_bits = pose.t.tobytes(), pose.q.tobytes()
            t[:] = np.nan
            q[:] = [0.0, 1.0, 0.0, 0.0]
            assert pose.t.tobytes() == t_bits and pose.q.tobytes() == q_bits
            assert pose.t is not t and pose.q is not q
            with pytest.raises(ValueError):
                pose.t[0] = 1.0


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


class TestValueSemantics:
    def test_signed_zeros_equal_and_hash_equal(self):
        a = Pose([0.0, 1.0, 2.0], [1.0, 0.0, 0.0, 0.0])
        b = Pose([-0.0, 1.0, 2.0], [1.0, -0.0, 0.0, 0.0])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        # the stored bits stay as given
        assert np.signbit(b.t[0]) and np.signbit(b.q[1])

    def test_apply_maps_one_point_as_a_row(self, rng):
        p = random_pose(rng)
        x = rng.normal(0, 1, 3)
        assert np.array_equal(p.apply(x), p.apply(x[None])[0])
        assert np.allclose(p.apply(x), p.compose(Pose(x, [1, 0, 0, 0])).t, atol=1e-12)


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
        for name in ("fx", "fy"):
            for value in (np.inf, np.nan, 0.0):
                focal = {"fx": 100.0, "fy": 100.0, name: value}
                with pytest.raises(ValueError, match=f"focal lengths .*{name} {value}"):
                    CameraIntrinsics(cx=64.0, cy=64.0, width=128, height=128, **focal)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=100.0, fy=100.0, cx=200.0, cy=64.0, width=128, height=128)

    def test_line_roundtrip(self):
        k = CameraIntrinsics.from_line(K64.to_line())
        assert k == K64
