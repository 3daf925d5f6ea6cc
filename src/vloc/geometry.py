"""SE(3) poses, quaternion algebra, and the pinhole camera model.

Conventions used throughout the library:

- Quaternions are Hamilton, stored as [qw, qx, qy, qz], unit norm, with the
  canonical sign qw >= 0 so every rotation has one representation.
- ``Pose(t, q)`` places a child frame in a parent frame: a point expressed in
  the child maps to the parent as ``p_parent = R(q) @ p_child + t``.
- Tangent vectors are 6-vectors ``[rho, phi]`` (meters, radians) and the
  retraction is right-multiplicative: ``x <- x.compose(se3_exp(delta))``.
- Camera frame: x right, y down, z forward (pixel u grows with x, v with y).

All values are immutable; every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NearSingularRotation

QUAT_NORM_TOL = 1e-9
DEPTH_MIN_DEFAULT = 0.05
DEPTH_MAX_DEFAULT = 20.0
Z_MIN_DEFAULT = 1e-6
_LOG_ANGLE_MAX = math.pi - 1e-6
_SMALL = 1e-6


def fmt17(x: float) -> str:
    """Decimal with 17 significant digits; round-trips any float64."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# quaternion primitives (Hamilton, [w, x, y, z])
# ---------------------------------------------------------------------------

def quat_normalize(q) -> np.ndarray:
    """Unit-normalize and apply the canonical sign (qw >= 0).

    Normalization is skipped when the squared norm is already within 1e-12
    of one, so serialization round-trips bit-exactly; the residual drift is
    orders of magnitude inside the 1e-9 unit-norm invariant.
    """
    qw, qx, qy, qz = float(q[0]), float(q[1]), float(q[2]), float(q[3])
    norm_sq = qw * qw + qx * qx + qy * qy + qz * qz
    if norm_sq == 0.0:
        raise ValueError("zero quaternion")
    if abs(norm_sq - 1.0) > 1e-12:
        n = math.sqrt(norm_sq)
        qw, qx, qy, qz = qw / n, qx / n, qy / n, qz / n
    if qw < 0.0 or (qw == 0.0 and _first_nonzero_negative(qx, qy, qz)):
        qw, qx, qy, qz = -qw, -qx, -qy, -qz
    return np.array([qw, qx, qy, qz])


def _first_nonzero_negative(qx: float, qy: float, qz: float) -> bool:
    for v in (qx, qy, qz):
        if v != 0.0:
            return v < 0.0
    return False


def quat_multiply(a, b) -> np.ndarray:
    aw, ax, ay, az = float(a[0]), float(a[1]), float(a[2]), float(a[3])
    bw, bx, by, bz = float(b[0]), float(b[1]), float(b[2]), float(b[3])
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conjugate(q) -> np.ndarray:
    return np.array([float(q[0]), -float(q[1]), -float(q[2]), -float(q[3])])


def quat_rotate(q, v) -> np.ndarray:
    """Rotate a 3-vector by a unit quaternion (v' = q v q*)."""
    qw, qx, qy, qz = float(q[0]), float(q[1]), float(q[2]), float(q[3])
    vx, vy, vz = float(v[0]), float(v[1]), float(v[2])
    # t = 2 q_vec x v ; v' = v + qw t + q_vec x t
    tx = 2.0 * (qy * vz - qz * vy)
    ty = 2.0 * (qz * vx - qx * vz)
    tz = 2.0 * (qx * vy - qy * vx)
    return np.array([
        vx + qw * tx + qy * tz - qz * ty,
        vy + qw * ty + qz * tx - qx * tz,
        vz + qw * tz + qx * ty - qy * tx,
    ])


def quat_to_matrix(q) -> np.ndarray:
    qw, qx, qy, qz = float(q[0]), float(q[1]), float(q[2]), float(q[3])
    xx, yy, zz = qx * qx, qy * qy, qz * qz
    xy, xz, yz = qx * qy, qx * qz, qy * qz
    wx, wy, wz = qw * qx, qw * qy, qw * qz
    return np.array([
        [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
        [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
        [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
    ])


def matrix_to_quat(m) -> np.ndarray:
    """Rotation matrix to unit quaternion (Shepperd's branch selection)."""
    m = np.asarray(m, dtype=float)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (m[2, 1] - m[1, 2]) / s,
                      (m[0, 2] - m[2, 0]) / s,
                      (m[1, 0] - m[0, 1]) / s])
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array([(m[2, 1] - m[1, 2]) / s,
                      0.25 * s,
                      (m[0, 1] + m[1, 0]) / s,
                      (m[0, 2] + m[2, 0]) / s])
    elif m[1, 1] >= m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array([(m[0, 2] - m[2, 0]) / s,
                      (m[0, 1] + m[1, 0]) / s,
                      0.25 * s,
                      (m[1, 2] + m[2, 1]) / s])
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array([(m[1, 0] - m[0, 1]) / s,
                      (m[0, 2] + m[2, 0]) / s,
                      (m[1, 2] + m[2, 1]) / s,
                      0.25 * s])
    return quat_normalize(q)


def rotvec_to_quat(phi) -> np.ndarray:
    px, py, pz = float(phi[0]), float(phi[1]), float(phi[2])
    angle = math.sqrt(px * px + py * py + pz * pz)
    if angle < _SMALL:
        # sin(a/2)/a ~ 1/2 - a^2/48
        s = 0.5 - angle * angle / 48.0
        return quat_normalize([1.0 - angle * angle / 8.0, px * s, py * s, pz * s])
    s = math.sin(0.5 * angle) / angle
    return quat_normalize([math.cos(0.5 * angle), px * s, py * s, pz * s])


def rotation_angle(qa, qb) -> float:
    """Geodesic angle in radians between two unit quaternions.

    Exactly 0.0 when the quaternions are equal up to sign.
    """
    a = np.asarray(qa, dtype=float)
    b = np.asarray(qb, dtype=float)
    if np.array_equal(a, b) or np.array_equal(a, -b):
        return 0.0
    qr = quat_multiply(a, quat_conjugate(b))
    return 2.0 * math.atan2(
        math.sqrt(qr[1] * qr[1] + qr[2] * qr[2] + qr[3] * qr[3]), abs(qr[0])
    )


# ---------------------------------------------------------------------------
# so(3)/se(3) maps and Jacobians
# ---------------------------------------------------------------------------

def so3_hat(v) -> np.ndarray:
    x, y, z = float(v[0]), float(v[1]), float(v[2])
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def so3_left_jacobian(phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    theta = float(np.linalg.norm(phi))
    px = so3_hat(phi)
    if theta < _SMALL:
        a = 0.5 - theta * theta / 24.0
        b = 1.0 / 6.0 - theta * theta / 120.0
    else:
        a = (1.0 - math.cos(theta)) / (theta * theta)
        b = (theta - math.sin(theta)) / (theta ** 3)
    return np.eye(3) + a * px + b * (px @ px)


def se3_left_jacobian(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    rho, phi = xi[:3], xi[3:]
    jl = so3_left_jacobian(phi)
    out = np.zeros((6, 6))
    out[:3, :3] = jl
    out[3:, 3:] = jl
    out[:3, 3:] = _se3_q_matrix_array(rho[None], phi[None])[0]
    return out


def se3_right_jacobian_inv(xi) -> np.ndarray:
    """Inverse right Jacobian: d log(T exp(d))/dd at d=0 where xi = log(T)."""
    return se3_right_jacobian_inv_array(np.asarray(xi, dtype=float).reshape(1, 6))[0]


# ---------------------------------------------------------------------------
# Pose
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pose:
    """Rigid-body transform: translation ``t`` (m) + unit quaternion ``q``."""

    t: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float).reshape(3).copy()
        q = quat_normalize(np.asarray(self.q, dtype=float).reshape(4))
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(q))):
            raise ValueError("non-finite pose")
        t.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "q", q)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))

    @staticmethod
    def from_rt(rotation: np.ndarray, translation) -> "Pose":
        return Pose(np.asarray(translation, dtype=float), matrix_to_quat(rotation))

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.q)

    def compose(self, other: "Pose") -> "Pose":
        """self * other: other expressed in self, mapped to self's parent."""
        return Pose(quat_rotate(self.q, other.t) + self.t,
                    quat_multiply(self.q, other.q))

    def inverse(self) -> "Pose":
        qc = quat_conjugate(self.q)
        return Pose(-quat_rotate(qc, self.t), qc)

    def between(self, other: "Pose") -> "Pose":
        """Relative pose self^-1 * other (other seen from self)."""
        return self.inverse().compose(other)

    def apply(self, points) -> np.ndarray:
        """Map child-frame point(s) (3,) or (N, 3) into the parent frame."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            return quat_rotate(self.q, pts) + self.t
        return pts @ self.rotation_matrix().T + self.t

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pose):
            return NotImplemented
        return bool(np.array_equal(self.t, other.t) and np.array_equal(self.q, other.q))

    def __hash__(self):
        return hash((self.t.tobytes(), self.q.tobytes()))

    def almost_equal(self, other: "Pose", tol: float = 1e-9) -> bool:
        return (float(np.max(np.abs(self.t - other.t))) <= tol
                and rotation_angle(self.q, other.q) <= tol)

    def fields(self) -> list[str]:
        """The pose row ``x y z qw qx qy qz`` as 7 ``fmt17`` strings; every
        text format of the package writes poses this way."""
        return [fmt17(v) for v in (*self.t, *self.q)]

    @staticmethod
    def from_fields(fields) -> "Pose":
        """Inverse of ``fields``: 7 numbers or numeric strings."""
        if len(fields) != 7:
            raise ValueError(f"expected 7 fields, got {len(fields)}")
        vals = [float(v) for v in fields]
        return Pose(np.array(vals[:3]), np.array(vals[3:]))

    def to_line(self) -> str:
        return " ".join(self.fields())

    @staticmethod
    def from_line(line: str) -> "Pose":
        return Pose.from_fields(line.split())


def se3_exp(xi) -> Pose:
    """Tangent [rho, phi] to Pose; se3_exp(0) is the identity."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    rho, phi = xi[:3], xi[3:]
    return Pose(so3_left_jacobian(phi) @ rho, rotvec_to_quat(phi))


def se3_log(pose: Pose) -> np.ndarray:
    """Pose to tangent [rho, phi]; raises NearSingularRotation at ~pi."""
    return se3_log_array(pose.t[None], pose.q[None])[0]


def se3_adjoint(pose: Pose) -> np.ndarray:
    return se3_adjoint_array(pose.t[None], pose.q[None])[0]


# ---------------------------------------------------------------------------
# batched SE(3): n poses as translations t (n, 3) and quaternions q (n, 4)
# ---------------------------------------------------------------------------
#
# These follow the scalar functions above branch for branch; se3_log, the
# inverse right Jacobian and the adjoint are their n = 1 case. Compose,
# inverse and exp neither renormalize nor canonicalize the sign; log accepts
# either sign.

_CONJ = np.array([1.0, -1.0, -1.0, -1.0])
_YZX = np.array([1, 2, 0])
_ZXY = np.array([2, 0, 1])
# hat(v) flattened row-major: -z, y, z, -x, -y, x at 1, 2, 3, 5, 6, 7
_HAT_AT = np.array([1, 2, 3, 5, 6, 7])
_HAT_FROM = np.array([2, 1, 2, 0, 1, 0])
_HAT_SIGN = np.array([-1.0, 1.0, 1.0, -1.0, -1.0, 1.0])


def _norm_rows(v) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def _cross(a, b) -> np.ndarray:
    return a[:, _YZX] * b[:, _ZXY] - a[:, _ZXY] * b[:, _YZX]


def so3_hat_array(v) -> np.ndarray:
    out = np.zeros((len(v), 9))
    out[:, _HAT_AT] = v[:, _HAT_FROM] * _HAT_SIGN
    return out.reshape(-1, 3, 3)


def quat_multiply_array(a, b) -> np.ndarray:
    aw, av = a[:, :1], a[:, 1:]
    bw, bv = b[:, :1], b[:, 1:]
    w = aw * bw - np.einsum("ij,ij->i", av, bv)[:, None]
    return np.concatenate([w, aw * bv + bw * av + _cross(av, bv)], axis=1)


def quat_rotate_array(q, v) -> np.ndarray:
    qv = q[:, 1:]
    t = 2.0 * _cross(qv, v)
    return v + q[:, :1] * t + _cross(qv, t)


def quat_to_matrix_array(q) -> np.ndarray:
    qw, qx, qy, qz = q.T
    xx, yy, zz = qx * qx, qy * qy, qz * qz
    xy, xz, yz = qx * qy, qx * qz, qy * qz
    wx, wy, wz = qw * qx, qw * qy, qw * qz
    return np.stack([
        1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy),
        2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx),
        2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy),
    ], axis=1).reshape(-1, 3, 3)


def pose_compose_array(ta, qa, tb, qb):
    """Row-wise a * b of two pose arrays; returns (t, q)."""
    return quat_rotate_array(qa, tb) + ta, quat_multiply_array(qa, qb)


def pose_inverse_array(t, q):
    qc = q * _CONJ
    return -quat_rotate_array(qc, t), qc


def pose_inverse_row(t, q) -> np.ndarray:
    """One pose's ``pose_inverse_array`` as a row ``x y z qw qx qy qz``, in
    plain floats: the same operations in the same order, so the bits agree,
    without numpy's per-call cost on a single row."""
    vx, vy, vz = float(t[0]), float(t[1]), float(t[2])
    w, x, y, z = float(q[0]), -float(q[1]), -float(q[2]), -float(q[3])
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return np.array([-(vx + w * tx + (y * tz - z * ty)),
                     -(vy + w * ty + (z * tx - x * tz)),
                     -(vz + w * tz + (x * ty - y * tx)),
                     w, x, y, z])


def _so3_jl_inv_coeff(theta) -> np.ndarray:
    """c in J_l^-1(phi) = I - phi^/2 + c phi^2, with its series below 1e-6 rad."""
    t2 = theta * theta
    small = theta < _SMALL
    ts = np.where(small, 1.0, theta)
    return np.where(small, 1.0 / 12.0 + t2 / 720.0,
                    1.0 / (ts * ts) - (1.0 + np.cos(ts)) / (2.0 * ts * np.sin(ts)))


def se3_exp_array(xi):
    """Tangents (n, 6) to poses (t, q), as se3_exp."""
    rho, phi = xi[:, :3], xi[:, 3:]
    theta = _norm_rows(phi)
    t2 = theta * theta
    small = theta < _SMALL
    ts = np.where(small, 1.0, theta)
    w = np.where(small, 1.0 - t2 / 8.0, np.cos(0.5 * ts))
    s = np.where(small, 0.5 - t2 / 48.0, np.sin(0.5 * ts) / ts)
    a = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(ts)) / (ts * ts))
    b = np.where(small, 1.0 / 6.0 - t2 / 120.0, (ts - np.sin(ts)) / (ts * ts * ts))
    pr = _cross(phi, rho)
    t = rho + a[:, None] * pr + b[:, None] * _cross(phi, pr)
    return t, np.concatenate([w[:, None], phi * s[:, None]], axis=1)


def se3_log_array(t, q) -> np.ndarray:
    """Poses (t, q) to tangents (n, 6); raises NearSingularRotation when any
    rotation is within 1e-6 rad of pi."""
    q = q * np.where(q[:, :1] < 0.0, -1.0, 1.0)
    qv = q[:, 1:]
    nv = _norm_rows(qv)
    angle = 2.0 * np.arctan2(nv, q[:, 0])
    if np.any(angle >= _LOG_ANGLE_MAX):
        raise NearSingularRotation(
            f"rotation angle {float(np.max(angle)):.9f} rad too close to pi")
    tiny = nv < 1e-12
    phi = qv * np.where(tiny, 2.0, angle / np.where(tiny, 1.0, nv))[:, None]
    c = _so3_jl_inv_coeff(_norm_rows(phi))
    pt = _cross(phi, t)
    rho = t - 0.5 * pt + c[:, None] * _cross(phi, pt)
    return np.concatenate([rho, phi], axis=1)


def _se3_q_matrix_array(rho, phi) -> np.ndarray:
    """Translation-rotation coupling blocks (n, 3, 3) of the SE(3) left
    Jacobian."""
    rx = so3_hat_array(rho)
    px = so3_hat_array(phi)
    theta = _norm_rows(phi)
    t2 = theta * theta
    small = theta < 1e-3
    ts = np.where(small, 1.0, theta)
    t3 = ts ** 3
    sin, cos = np.sin(ts), np.cos(ts)
    s1 = np.where(small, 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0,
                  (ts - sin) / t3)
    s2 = np.where(small, -1.0 / 24.0 + t2 / 720.0 - t2 * t2 / 40320.0,
                  (1.0 - 0.5 * ts * ts - cos) / (t3 * ts))
    s3 = np.where(small, -1.0 / 120.0 + t2 / 5040.0 - t2 * t2 / 362880.0,
                  (ts - sin - t3 / 6.0) / (t3 * ts * ts))
    s1, s2, s3 = s1[:, None, None], s2[:, None, None], s3[:, None, None]
    pr = px @ rx
    rp = rx @ px
    prp = pr @ px
    return (
        0.5 * rx
        + s1 * (pr + rp + prp)
        - s2 * (px @ pr + rp @ px - 3.0 * prp)
        - 0.5 * (s2 - 3.0 * s3) * (prp @ px + px @ prp)
    )


def se3_right_jacobian_inv_array(xi) -> np.ndarray:
    """Inverse right Jacobians (n, 6, 6) in closed form: with A = J_l(-phi)
    and Q = Q(-rho, -phi), J_r^-1(xi) = [[A^-1, -A^-1 Q A^-1], [0, A^-1]]."""
    rho, phi = xi[:, :3], xi[:, 3:]
    px = so3_hat_array(phi)
    c = _so3_jl_inv_coeff(_norm_rows(phi))[:, None, None]
    a_inv = np.eye(3) + 0.5 * px + c * (px @ px)
    q = _se3_q_matrix_array(-rho, -phi)
    out = np.zeros((len(xi), 6, 6))
    out[:, :3, :3] = a_inv
    out[:, 3:, 3:] = a_inv
    out[:, :3, 3:] = -(a_inv @ q @ a_inv)
    return out


def se3_adjoint_array(t, q) -> np.ndarray:
    r = quat_to_matrix_array(q)
    out = np.zeros((len(t), 6, 6))
    out[:, :3, :3] = r
    out[:, 3:, 3:] = r
    out[:, :3, 3:] = so3_hat_array(t) @ r
    return out


# ---------------------------------------------------------------------------
# pinhole camera
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels; image size in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    def to_line(self) -> str:
        return " ".join(fmt17(v) for v in (self.fx, self.fy, self.cx, self.cy)) + \
            f" {self.width} {self.height}"

    @staticmethod
    def from_line(line: str) -> "CameraIntrinsics":
        tok = line.split()
        if len(tok) != 6:
            raise ValueError(f"expected 6 fields, got {len(tok)}")
        return CameraIntrinsics(float(tok[0]), float(tok[1]), float(tok[2]),
                                float(tok[3]), int(tok[4]), int(tok[5]))


def unproject(K: CameraIntrinsics, u, v, d) -> np.ndarray:
    """Pixels (u, v) at depths d to camera-frame points (N, 3). Keyframe
    coverage bins wall points by the last bit: keep the arithmetic."""
    return np.stack([(u - K.cx) / K.fx * d, (v - K.cy) / K.fy * d, d], axis=1)


def project(K: CameraIntrinsics, p_cam, z_min: float = Z_MIN_DEFAULT):
    """Camera-frame point to pixel (u, v); None if out of view.

    Out of view means z <= z_min or the pixel falls outside
    [0, width) x [0, height). Being a value, not an error, callers can
    filter without try/except.
    """
    x, y, z = float(p_cam[0]), float(p_cam[1]), float(p_cam[2])
    if z <= z_min:
        return None
    u = K.fx * x / z + K.cx
    v = K.fy * y / z + K.cy
    if not (0.0 <= u < K.width and 0.0 <= v < K.height):
        return None
    return np.array([u, v])


def project_array(K: CameraIntrinsics, pts_cam: np.ndarray,
                  z_min: float = Z_MIN_DEFAULT):
    """Vectorized projection: (N, 3) -> ((N, 2) pixels, (N,) validity mask)."""
    pts = np.asarray(pts_cam, dtype=float).reshape(-1, 3)
    z = pts[:, 2]
    ok = z > z_min
    zs = np.where(ok, z, 1.0)
    u = K.fx * pts[:, 0] / zs + K.cx
    v = K.fy * pts[:, 1] / zs + K.cy
    ok = ok & (u >= 0.0) & (u < K.width) & (v >= 0.0) & (v < K.height)
    return np.stack([u, v], axis=1), ok

