import math

import numpy as np
import pytest

from vloc.geometry import Pose, quat_normalize
from vloc.matching import MATCH_CSV_HEADER


def so3_hat(v):
    x, y, z = float(v[0]), float(v[1]), float(v[2])
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def so3_left_jacobian(phi):
    """Reference: the SO(3) left Jacobian I + a phi^ + b phi^2, with its
    closed forms from 1e-6 rad up (they lose digits there; the library's
    batched maps take the series below 1e-3 rad)."""
    phi = np.asarray(phi, dtype=float)
    theta = float(np.linalg.norm(phi))
    px = so3_hat(phi)
    if theta < 1e-6:
        a = 0.5 - theta * theta / 24.0
        b = 1.0 / 6.0 - theta * theta / 120.0
    else:
        a = (1.0 - math.cos(theta)) / (theta * theta)
        b = (theta - math.sin(theta)) / (theta ** 3)
    return np.eye(3) + a * px + b * (px @ px)


def rotvec_to_quat(phi):
    """The unit quaternion of the rotation vector phi, in closed form, so a
    test can build a rotation exactly 1e-9 rad short of pi."""
    px, py, pz = float(phi[0]), float(phi[1]), float(phi[2])
    angle = math.sqrt(px * px + py * py + pz * pz)
    if angle < 1e-6:
        # sin(a/2)/a ~ 1/2 - a^2/48
        s = 0.5 - angle * angle / 48.0
        return quat_normalize([1.0 - angle * angle / 8.0, px * s, py * s, pz * s])
    s = math.sin(0.5 * angle) / angle
    return quat_normalize([math.cos(0.5 * angle), px * s, py * s, pz * s])


def random_pose(rng, t_scale=2.0):
    q = rng.normal(0.0, 1.0, 4)
    while np.linalg.norm(q) < 1e-6:
        q = rng.normal(0.0, 1.0, 4)
    return Pose(rng.normal(0.0, t_scale, 3), q)


def se3_q_matrix(rho, phi):
    """Reference: the translation-rotation block Q(rho, phi) of the SE(3)
    left Jacobian as the series of hat products (Barfoot, eq. 7.86)."""
    rx, px = so3_hat(rho), so3_hat(phi)
    theta = float(np.linalg.norm(phi))
    if theta < 1e-3:
        t2 = theta * theta
        s1 = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
        s2 = -1.0 / 24.0 + t2 / 720.0 - t2 * t2 / 40320.0
        s3 = -1.0 / 120.0 + t2 / 5040.0 - t2 * t2 / 362880.0
    else:
        s1 = (theta - math.sin(theta)) / theta ** 3
        s2 = (1.0 - 0.5 * theta ** 2 - math.cos(theta)) / theta ** 4
        s3 = (theta - math.sin(theta) - theta ** 3 / 6.0) / theta ** 5
    pr, rp = px @ rx, rx @ px
    prp = pr @ px
    return (0.5 * rx + s1 * (pr + rp + prp)
            - s2 * (px @ pr + rp @ px - 3.0 * prp)
            - 0.5 * (s2 - 3.0 * s3) * (prp @ px + px @ prp))


def se3_left_jacobian(xi):
    """Reference: the SE(3) left Jacobian [[J_l, Q], [0, J_l]]."""
    jl = so3_left_jacobian(xi[3:])
    out = np.zeros((6, 6))
    out[:3, :3] = out[3:, 3:] = jl
    out[:3, 3:] = se3_q_matrix(xi[:3], xi[3:])
    return out


def match_csv_text(match_set):
    """A match set as the text of a match CSV file, 9 significant digits a
    value; the library only reads the format."""
    rows = np.column_stack([match_set.uv_ref, match_set.uv_query, match_set.confidence])
    return "".join([MATCH_CSV_HEADER + "\n"] + [
        ",".join(format(v, ".9g") for v in row) + "\n" for row in rows])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
