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

DEPTH_MIN_DEFAULT = 0.05
DEPTH_MAX_DEFAULT = 20.0
Z_MIN_DEFAULT = 1e-6
_LOG_ANGLE_MAX = math.pi - 1e-6


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
# Pose
# ---------------------------------------------------------------------------

_F64 = np.dtype(np.float64)


def _kept_as_is(t, q) -> bool:
    """True for float64 arrays t (3,) and q (4,) that the ``Pose``
    constructor keeps as they are: all seven values finite, qw > 0 and
    the squared norm within 1e-12 of one (``quat_normalize``'s test, in its
    order). Checked on plain floats, without numpy's per-call cost."""
    if not (type(t) is np.ndarray and type(q) is np.ndarray
            and t.dtype == _F64 and q.dtype == _F64
            and t.shape == (3,) and q.shape == (4,)):
        return False
    x, y, z = t.tolist()
    qw, qx, qy, qz = q.tolist()
    # a non-finite quaternion value fails the norm test
    return (qw > 0.0 and abs(qw * qw + qx * qx + qy * qy + qz * qz - 1.0) <= 1e-12
            and math.isfinite(x) and math.isfinite(y) and math.isfinite(z))


@dataclass(frozen=True)
class Pose:
    """Rigid-body transform: translation ``t`` (m) + unit quaternion ``q``."""

    t: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        t, q = self.t, self.q
        if _kept_as_is(t, q):
            # what the general path below makes of them, bit for bit
            t, q = t.copy(), q.copy()
        else:
            t = np.asarray(t, dtype=float).reshape(3).copy()
            q = quat_normalize(np.asarray(q, dtype=float).reshape(4))
            if not (np.all(np.isfinite(t)) and np.all(np.isfinite(q))):
                raise ValueError("non-finite pose")
        t.setflags(write=False)
        q.setflags(write=False)
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
        return np.asarray(points, dtype=float) @ self.rotation_matrix().T + self.t

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pose):
            return NotImplemented
        return bool(np.array_equal(self.t, other.t) and np.array_equal(self.q, other.q))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, so poses that == holds equal hash equal
        return hash(((self.t + 0.0).tobytes(), (self.q + 0.0).tobytes()))

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


def poses_from_rows(rows) -> list:
    """One ``Pose`` per (n, 7) row ``x y z qw qx qy qz``, each equal bit for
    bit to ``Pose(r[:3], r[3:])``. The rows that constructor would keep as
    they are (finite, qw > 0, squared norm within 1e-12 of one) are checked
    array-wide and become views of one read-only copy; any other row goes
    through the constructor, which normalizes it or raises."""
    rows = np.array(rows, dtype=float).reshape(-1, 7)
    qw, qx, qy, qz = rows[:, 3:].T
    norm_sq = qw * qw + qx * qx + qy * qy + qz * qz
    kept = np.isfinite(rows).all(axis=1) & (qw > 0.0) & (np.abs(norm_sq - 1.0) <= 1e-12)
    rows.flags.writeable = False
    out = []
    for r, as_is in zip(rows, kept.tolist()):
        if as_is:
            pose = object.__new__(Pose)
            object.__setattr__(pose, "t", r[:3])
            object.__setattr__(pose, "q", r[3:])
        else:
            pose = Pose(r[:3], r[3:])
        out.append(pose)
    return out


def se3_exp(xi) -> Pose:
    """Tangent [rho, phi] to Pose; se3_exp(0) is the identity."""
    t, r = se3_exp_array(np.asarray(xi, dtype=float).reshape(1, 6))
    return Pose.from_rt(r[0], t[0])


def se3_log(pose: Pose) -> np.ndarray:
    """Pose to tangent [rho, phi]; raises NearSingularRotation at ~pi."""
    return se3_log_array(pose.t[None], pose.rotation_matrix()[None])[0]


# ---------------------------------------------------------------------------
# batched SE(3): n poses as translations t (n, 3) and rotation matrices
# r (n, 3, 3)
# ---------------------------------------------------------------------------
#
# On matrices a compose (r_a r_b, t_a + r_a t_b) and an inverse (r^T, -r^T t)
# are one batched matmul each. se3_exp and se3_log are the n = 1 cases of
# se3_exp_array and se3_log_array.

# hat(v) flattened row-major is v @ _HAT: -z, y, z, -x, -y, x at 1, 2, 3, 5,
# 6, 7
_HAT = np.zeros((3, 9))
_HAT[[2, 1, 2, 0, 1, 0], [1, 2, 3, 5, 6, 7]] = [-1.0, 1.0, 1.0, -1.0, -1.0, 1.0]
# vee(r - r^T) = (r21 - r12, r02 - r20, r10 - r01) on r flattened row-major
_VEE_PLUS = np.array([7, 2, 3])
_VEE_MINUS = np.array([5, 6, 1])


def rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, each one BLAS ``ddot`` as ``np.dot``
    and ``np.linalg.norm`` of a single contiguous vector compute it, so a
    block rounds exactly as one vector at a time does."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _norm_rows(v) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def _diagonal(m) -> np.ndarray:
    """A view (n, 3) of the diagonals of contiguous matrices m (n, 3, 3)."""
    return m.reshape(-1, 9)[:, ::4]


def so3_hat_array(v) -> np.ndarray:
    return (v @ _HAT).reshape(-1, 3, 3)


def quat_to_matrix_array(q) -> np.ndarray:
    qw, qx, qy, qz = q.T
    xx, yy, zz = qx * qx, qy * qy, qz * qz
    xy, xz, yz = qx * qy, qx * qz, qy * qz
    wx, wy, wz = qw * qx, qw * qy, qw * qz
    return np.array([
        1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy),
        2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx),
        2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy),
    ]).T.reshape(-1, 3, 3)


def matrix_to_quat_array(r) -> np.ndarray:
    """Rotation matrices (n, 3, 3) to unit quaternions (n, 4) with the
    canonical sign. Row b of the symmetric k below is 4 q_b q; the row with
    the largest q_b^2 (Shepperd's branch) is normalized."""
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = r.reshape(-1, 9).T
    a, b, c = m21 - m12, m02 - m20, m10 - m01
    d, e, f = m01 + m10, m02 + m20, m12 + m21
    k = np.array([1.0 + m00 + m11 + m22, a, b, c,
                  a, 1.0 + m00 - m11 - m22, d, e,
                  b, d, 1.0 - m00 + m11 - m22, f,
                  c, e, f, 1.0 - m00 - m11 + m22]).T.reshape(-1, 4, 4)
    n = np.arange(len(k))
    q = k[n, np.argmax(k.diagonal(axis1=1, axis2=2), axis=1)]
    first = q[n, np.argmax(q != 0.0, axis=1)]
    return q / (_norm_rows(q) * np.sign(first))[:, None]


def pose_inverse_row(t, q) -> np.ndarray:
    """One pose's inverse as a row ``x y z qw qx qy qz``: the conjugate
    quaternion and the translation rotated back by it, in plain floats,
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


# Below this angle every so(3) coefficient is its series to theta^4, as
# c0 + c1 theta^2 + c2 theta^4; above it, its closed form.
_SERIES_BELOW = 1e-3
_EXP_SERIES = np.array([
    [1.0, -1.0 / 6.0, 1.0 / 120.0],          # sin t / t
    [0.5, -1.0 / 24.0, 1.0 / 720.0],         # (1 - cos t) / t^2
    [1.0 / 6.0, -1.0 / 120.0, 1.0 / 5040.0],  # (t - sin t) / t^3
])
_LOG_SERIES = np.array([
    [0.5, 1.0 / 12.0, 7.0 / 720.0],          # t / (2 sin t)
    [1.0 / 12.0, 1.0 / 720.0, 1.0 / 30240.0],  # 1/t^2 - (1 + cos t) / (2 t sin t)
])
_JAC_SERIES = np.array([
    _LOG_SERIES[1],
    _EXP_SERIES[2],
    [-1.0 / 24.0, 1.0 / 720.0, -1.0 / 40320.0],    # (1 - t^2/2 - cos t) / t^4
    [-1.0 / 120.0, 1.0 / 5040.0, -1.0 / 362880.0],  # (t - sin t - t^3/6) / t^5
])


def _coefficients(t2, closed, series) -> np.ndarray:
    """The k closed forms (each (n,)) as rows (k, n), each replaced by its
    ``series`` (k, 3) row where the angle (t2 its square) is below
    _SERIES_BELOW."""
    out = np.array(closed)
    small = t2 < _SERIES_BELOW ** 2
    if small.any():
        out = np.where(small, series[:, :1] + t2 * (series[:, 1:2] + t2 * series[:, 2:]), out)
    return out


def _unit_if_small(t2) -> np.ndarray:
    """The angle, or 1 where its series is used, so closed forms stay finite."""
    return np.sqrt(np.where(t2 < _SERIES_BELOW ** 2, 1.0, t2))


def se3_exp_array(xi):
    """Tangents (n, 6) to poses (t, r), as se3_exp: by Rodrigues' formula
    r = I + a phi^ + b phi^2, and t = (I + b phi^ + c phi^2) rho."""
    rho, phi = xi[:, :3], xi[:, 3:]
    t2 = np.einsum("ij,ij->i", phi, phi)
    ts = _unit_if_small(t2)
    a = np.sin(ts) / ts
    b = (1.0 - np.cos(ts)) / (ts * ts)
    a, b, c = _coefficients(t2, [a, b, (1.0 - a) / (ts * ts)],
                            _EXP_SERIES)[:, :, None, None]
    px = so3_hat_array(phi)
    px2 = px @ px
    r = a * px + b * px2
    _diagonal(r)[:] += 1.0
    v = b * px + c * px2
    _diagonal(v)[:] += 1.0
    return (v @ rho[:, :, None])[:, :, 0], r


def se3_log_array(t, r) -> np.ndarray:
    """Poses (t, r) to tangents (n, 6); raises NearSingularRotation when any
    rotation is within 1e-6 rad of pi. With v = vee(r - r^T) = 2 sin(angle)
    axis, the angle is atan2(|v| / 2, (tr r - 1) / 2) and phi = angle v / |v|;
    rho = J_l^-1(phi) t = (I - phi^/2 + c phi^2) t."""
    m = r.reshape(-1, 9)
    v = m[:, _VEE_PLUS] - m[:, _VEE_MINUS]
    nv = _norm_rows(v)
    tr = m[:, 0] + m[:, 4] + m[:, 8]
    angle = np.arctan2(nv, tr - 1.0)
    if np.any(angle >= _LOG_ANGLE_MAX):
        raise NearSingularRotation(
            f"rotation angle {float(np.max(angle)):.9f} rad too close to pi")
    t2 = angle * angle
    small = t2 < _SERIES_BELOW ** 2
    ts = np.where(small, 1.0, angle)
    ns = np.where(small, 1.0, nv)
    # c by the sine and cosine of the angle itself: its two terms cancel to
    # about 1/12, so both must see the same rounding of the angle
    c = 1.0 / (ts * ts) - (1.0 + np.cos(ts)) / (2.0 * ts * np.sin(ts))
    k, c = _coefficients(t2, [ts / ns, c], _LOG_SERIES)
    phi = v * k[:, None]
    px = so3_hat_array(phi)
    pt = px @ t[:, :, None]
    rho = t - (0.5 * pt - c[:, None, None] * (px @ pt))[:, :, 0]
    return np.concatenate([rho, phi], axis=1)


def se3_right_jacobian_inv_array(xi) -> np.ndarray:
    """Inverse right Jacobians (n, 6, 6) in closed form: with A = J_l(-phi)
    and Q = Q(-rho, -phi), J_r^-1(xi) = [[A^-1, -A^-1 Q A^-1], [0, A^-1]].
    A^-1 = I + phi^/2 + c phi^2, and with d = phi . rho the products of hats
    in Q reduce to outer products: Q(-rho, -phi) = (s1 rho + e d phi) phi^T
    + s1 phi rho^T - g^ - d (2 s1 + e theta^2) I, where e = s2 - 3 s3 and
    g = (1/2 + s2 theta^2) rho - (s1 + 2 s2) d phi."""
    rho, phi = xi[:, :3], xi[:, 3:]
    t2 = np.einsum("ij,ij->i", phi, phi)
    ts = _unit_if_small(t2)
    sin, cos = np.sin(ts), np.cos(ts)
    i2 = 1.0 / (ts * ts)
    s1 = (1.0 - sin / ts) * i2
    closed = [i2 - (1.0 + cos) / (2.0 * ts * sin), s1,
              ((1.0 - cos) * i2 - 0.5) * i2, (s1 - 1.0 / 6.0) * i2]
    c, s1, s2, s3 = _coefficients(t2, closed, _JAC_SERIES)
    e = s2 - 3.0 * s3
    d = np.einsum("ij,ij->i", phi, rho)
    px = so3_hat_array(phi)
    px2 = px @ px
    a_inv = 0.5 * px + c[:, None, None] * px2
    _diagonal(a_inv)[:] += 1.0
    s1rho = s1[:, None] * rho
    g = (0.5 + s2 * t2)[:, None] * rho - ((s1 + 2.0 * s2) * d)[:, None] * phi
    q = (s1rho + (e * d)[:, None] * phi)[:, :, None] * phi[:, None, :] \
        + phi[:, :, None] * s1rho[:, None, :] - so3_hat_array(g)
    _diagonal(q)[:] -= (d * (2.0 * s1 + e * t2))[:, None]
    out = np.zeros((len(xi), 6, 6))
    out[:, :3, :3] = a_inv
    out[:, 3:, 3:] = a_inv
    out[:, :3, 3:] = -(a_inv @ q @ a_inv)
    return out


def se3_adjoint_array(t, r) -> np.ndarray:
    """Adjoints (n, 6, 6) [[r, t^ r], [0, r]]: T exp(d) T^-1 = exp(Ad(T) d)."""
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
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError(f"focal lengths fx {self.fx}, fy {self.fy} must be "
                             f"finite and positive")
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


def project_array(K: CameraIntrinsics, pts_cam: np.ndarray):
    """Vectorized projection: (N, 3) -> ((N, 2) pixels, (N,) validity mask)."""
    pts = np.asarray(pts_cam, dtype=float).reshape(-1, 3)
    z = pts[:, 2]
    ok = z > Z_MIN_DEFAULT
    zs = np.where(ok, z, 1.0)
    u = K.fx * pts[:, 0] / zs + K.cx
    v = K.fy * pts[:, 1] / zs + K.cy
    ok = ok & (u >= 0.0) & (u < K.width) & (v >= 0.0) & (v < K.height)
    return np.stack([u, v], axis=1), ok

