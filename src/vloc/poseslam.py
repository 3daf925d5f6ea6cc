"""Pose-graph fusion of low-rate absolute visual fixes with high-rate
relative odometry.

States are camera poses on SE(3). Prior factors pin states to visual
localization results; between factors chain consecutive states through
odometry deltas. The stacked whitened residual ``log(measured^-1 *
predicted)`` is minimized by damped Gauss-Newton (Levenberg-Marquardt);
prior factors carry a Huber loss so a bad fix cannot drag the trajectory.
A graph starts at its first state, ``FusionGraph(pose, timestamp)``, and
only grows: ``propagate`` appends a state and its between factor,
``add_vloc_fix`` a prior, and nothing is removed.

The graph is held once, in arrays with amortised growth: ``states`` are
(n, 7) pose rows ``x y z qw qx qy qz`` (as ``Pose.fields``), and each factor
is a record, filled when it is added, of its state index (between k links
states k and k + 1), its measured pose's inverse as a pose row and its
sigmas. ``optimize`` reads the window's rows, turns their quaternions into
rotation matrices once and solves on matrices, where a compose, an inverse
and an adjoint are one batched matmul each; it writes canonical quaternions
back in place once and returns one ``Pose`` per solved state. Because
between factors only link states k-1 and k, the normal equations are block
tridiagonal and one banded solver (bandwidth 11) serves every window.

A solve ends when an accepted step lowers the cost by less than
LM_REL_DECREASE of it or below COST_FLOOR, and when a rejected step's model
decrease ``lam |delta|^2 - g . delta`` is below LM_REL_DECREASE of the cost:
a larger damping only shortens the step and lowers that decrease, so no
later trial could pass the first test but by rounding.
"""

from __future__ import annotations

import bisect
import math

import numpy as np
from scipy.linalg.lapack import dpbsv

from .errors import (
    NoGaugePrior,
    NonMonotonicTimestamp,
    SingularNormalEquations,
    UnknownState,
)
from .geometry import (
    Pose,
    matrix_to_quat_array,
    pose_inverse_row,
    poses_from_rows,
    quat_multiply,
    quat_rotate,
    quat_to_matrix_array,
    se3_adjoint_array,
    se3_exp_array,
    se3_log_array,
    se3_right_jacobian_inv_array,
)

HUBER_K = 3.0               # prior robust threshold, in whitened sigma units
LM_LAMBDA_INIT = 1e-4
LM_MAX_ITERS = 50
COST_FLOOR = 1e-18          # a solve stops once its cost is below this
LM_REL_DECREASE = 1e-9
PRIOR_SIGMA_T = 0.1         # m
PRIOR_SIGMA_R = math.radians(2.0)
ODOM_SIGMA_T_BASE = 0.02    # m per step
ODOM_SIGMA_T_SCALE = 0.01   # fraction of step length
ODOM_SIGMA_R = math.radians(0.5)


def vloc_fix_sigmas(inliers: int, min_inliers: int) -> np.ndarray:
    """More inliers tighten the prior; at the acceptance floor it is 1x."""
    scale = min(1.0, min_inliers / max(1, inliers))
    return np.array([PRIOR_SIGMA_T] * 3 + [PRIOR_SIGMA_R] * 3) * scale


def odom_sigmas(step_length: float) -> np.ndarray:
    st = ODOM_SIGMA_T_BASE + ODOM_SIGMA_T_SCALE * abs(step_length)
    return np.array([st, st, st, ODOM_SIGMA_R, ODOM_SIGMA_R, ODOM_SIGMA_R])


_FACTOR = np.dtype([("index", np.int64), ("meas_inv", float, 7), ("sigmas", float, 6)])


def _factor(index: int, pose: Pose, sigmas) -> tuple:
    """The record of a factor on state ``index`` measuring ``pose``."""
    s = np.asarray(sigmas, dtype=float)
    if s.shape != (6,) or not ((s > 0.0) & (s < np.inf)).all():
        raise ValueError(f"sigmas must be six finite positive values, got {s}")
    return index, pose_inverse_row(pose.t, pose.q), s


def _append(buf, n: int, record):
    """``buf`` with ``record`` written at row n, doubled first when full."""
    if n == len(buf):
        buf = np.concatenate([buf, np.empty_like(buf)])
    buf[n] = record
    return buf


class FusionGraph:
    """A chain of states from its first, at ``pose`` and a finite ``timestamp``."""

    def __init__(self, pose: Pose, timestamp: float):
        if not math.isfinite(timestamp):
            raise ValueError(f"timestamp {timestamp} is not finite")
        self._states = np.empty((16, 7))
        self._states[0] = np.concatenate([pose.t, pose.q])
        self._betweens = np.empty(16, _FACTOR)
        self._priors = np.empty(16, _FACTOR)
        self._n_priors = 0
        self.timestamps = [float(timestamp)]    # one per state; their count is n
        self.last_cost_trace: list = []
        self.last_rejected_trials = 0

    # views of the filled rows, valid until the next append
    states = property(lambda self: self._states[:len(self.timestamps)])
    betweens = property(lambda self: self._betweens[:len(self.timestamps) - 1])
    priors = property(lambda self: self._priors[:self._n_priors])

    # -- construction --------------------------------------------------------

    def propagate(self, odom_delta: Pose, sigmas, timestamp: float) -> Pose:
        """Append x_k = x_{k-1} * delta plus its between factor at a finite
        timestamp after the last one (``nearest_state`` bisects them), and
        return x_k. No optimization happens here; a rejected call, a
        non-finite x_k included, appends nothing.

        x_k is ``current_pose()[0].compose(odom_delta)`` bit for bit, formed
        on the last state row without a ``Pose`` for it: every stored row
        is one the ``Pose`` constructor keeps as it is, so ``compose``'s
        ``quat_rotate``/``quat_multiply`` on the row and that constructor's
        normalize-and-sign rule give the same values."""
        if not (math.isfinite(timestamp) and timestamp > self.timestamps[-1]):
            raise NonMonotonicTimestamp(
                f"timestamp {timestamp} not after {self.timestamps[-1]}")
        k = len(self.timestamps)
        factor = _factor(k - 1, odom_delta, sigmas)
        last = self._states[k - 1]
        new_pose = Pose(quat_rotate(last[3:], odom_delta.t) + last[:3],
                        quat_multiply(last[3:], odom_delta.q))
        self._betweens = _append(self._betweens, k - 1, factor)
        self._states = _append(self._states, k, np.concatenate([new_pose.t, new_pose.q]))
        self.timestamps.append(float(timestamp))
        return new_pose

    def add_vloc_fix(self, state_index: int, pose: Pose, sigmas) -> None:
        if not 0 <= state_index < len(self.timestamps):
            raise UnknownState(f"state {state_index} not in graph of "
                               f"{len(self.timestamps)} states")
        factor = _factor(state_index, pose, sigmas)
        self._priors = _append(self._priors, self._n_priors, factor)
        self._n_priors += 1

    def current_pose(self):
        row = self.states[-1]
        return Pose(row[:3], row[3:]), self.timestamps[-1]

    def nearest_state(self, timestamp: float) -> int:
        """Index of the state nearest in time; the earlier one on a tie."""
        ts = self.timestamps
        k = min(bisect.bisect_left(ts, timestamp), len(ts) - 1)
        return k - 1 if k and timestamp - ts[k - 1] <= ts[k] - timestamp else k

    # -- optimization --------------------------------------------------------

    def optimize(self, window: int | None = None):
        """Levenberg-Marquardt over the last ``window`` states (earlier
        states held fixed) or all states, written back in place. Returns
        (poses, final_cost), one ``Pose`` per solved state; the accepted
        costs are kept in ``last_cost_trace`` and the count of rejected
        trials in ``last_rejected_trials``. A solve that raises changes
        nothing."""
        n = len(self.timestamps)
        if not self._n_priors:
            raise NoGaugePrior("graph has no prior factor; gauge is free")
        first_free = 0 if window is None else min(n, max(0, n - int(window)))
        # factors not touching a free state are constant in the window
        # objective and are excluded from it
        priors = self.priors[self.priors["index"] >= first_free]

        # the chain from the fixed state before the window (if any) on
        lo = max(first_free - 1, 0)
        chain = _Chain(first_free - lo, priors, self.betweens[lo:], lo)
        rows = self.states[lo:]
        t, r = rows[:, :3], quat_to_matrix_array(rows[:, 3:])
        cost, lin = chain.linearize(t, r)
        trace = [cost]
        rejected = 0
        if cost >= COST_FLOOR:
            band, grad = chain.normal_equations(lin)
            lam = LM_LAMBDA_INIT
            for _ in range(LM_MAX_ITERS):
                delta = _solve_damped(band, grad, lam)
                ct, cr = chain.retract(t, r, delta)
                new_cost, new_lin = chain.linearize(ct, cr)
                if new_cost < cost:
                    rel = (cost - new_cost) / cost
                    t, r, cost = ct, cr, new_cost
                    trace.append(cost)
                    lam = max(lam / 10.0, 1e-12)
                    if rel < LM_REL_DECREASE or cost < COST_FLOOR:
                        break
                    band, grad = chain.normal_equations(new_lin)
                else:
                    # a rejected step leaves the linearization as it was. The
                    # model's decrease shrinks as lam grows, so once it is
                    # below the relative-decrease stop no later trial can
                    # pass it but by rounding
                    rejected += 1
                    if lam * (delta @ delta) - grad @ delta < LM_REL_DECREASE * cost:
                        break
                    lam *= 10.0
                    if lam > 1e10:
                        break
        free = rows[chain.n_fixed:]
        if len(trace) > 1:
            free[:, :3] = t[chain.n_fixed:]
            free[:, 3:] = matrix_to_quat_array(r[chain.n_fixed:])
        self.last_cost_trace = trace
        self.last_rejected_trials = rejected
        return poses_from_rows(free), cost


class _Chain:
    """The factors of one window over states ``t (k, 3)`` and rotation
    matrices ``r (k, 3, 3)``, the first ``n_fixed`` held fixed. Residuals
    are whitened ``log(measured^-1 * predicted) / sigmas``; both factor
    kinds share one batched compose and log. The Gauss-Newton system is
    kept in the upper banded storage of LAPACK's banded Cholesky solve."""

    def __init__(self, n_fixed, priors, betweens, offset):
        self.n_fixed = n_fixed
        self.prior_index = priors["index"] - offset
        meas_inv = np.concatenate([priors["meas_inv"], betweens["meas_inv"]])
        self.meas_t = meas_inv[:, :3]
        self.meas_r = quat_to_matrix_array(meas_inv[:, 3:])
        self.sigmas = np.concatenate([priors["sigmas"], betweens["sigmas"]])

    def retract(self, t, r, delta):
        """x <- x * exp(delta) on the free states."""
        dt, dr = se3_exp_array(delta.reshape(-1, 6))
        f = self.n_fixed
        rf = r[f:]
        return (np.concatenate([t[:f], t[f:] + (rf @ dt[:, :, None])[:, :, 0]]),
                np.concatenate([r[:f], rf @ dr]))

    def linearize(self, t, r):
        """Cost at (t, r), plus what the Jacobians there need."""
        # between k predicts x_k^-1 x_{k+1}
        rt = r[:-1].transpose(0, 2, 1)
        pred_r = rt @ r[1:]
        pred_t = (rt @ (t[1:] - t[:-1])[:, :, None])[:, :, 0]
        idx = self.prior_index
        xt = np.concatenate([t[idx], pred_t])
        mr = self.meas_r
        xi = se3_log_array((mr @ xt[:, :, None])[:, :, 0] + self.meas_t,
                           mr @ np.concatenate([r[idx], pred_r]))
        res = xi / self.sigmas
        npri = len(idx)
        s = np.sqrt(np.einsum("ij,ij->i", res[:npri], res[:npri]))
        rb = res[npri:]
        cost = float(np.sum(np.where(s <= HUBER_K, s * s,
                                     HUBER_K * (2.0 * s - HUBER_K)))
                     + np.einsum("ij,ij->", rb, rb))
        return cost, (xi, res, s, pred_t, pred_r)

    def normal_equations(self, lin):
        """Banded H (12, 6m) and gradient g (6m,) over the m free states."""
        xi, r, s, pred_t, pred_r = lin
        npri = len(self.prior_index)
        jac = se3_right_jacobian_inv_array(xi) / self.sigmas[:, :, None]
        # Huber: scale the prior rows by sqrt(w), w = min(1, K / s)
        sw = np.sqrt(HUBER_K / np.maximum(s, HUBER_K))
        jac[:npri] *= sw[:, None, None]
        r = r.copy()
        r[:npri] *= sw[:, None]
        jb = jac[npri:]
        # d pred / d x_k = -Ad(pred^-1), pred^-1 = (pred_r^T, -pred_r^T pred_t)
        inv_r = pred_r.transpose(0, 2, 1)
        ja = -(jb @ se3_adjoint_array(-(inv_r @ pred_t[:, :, None])[:, :, 0], inv_r))
        # J^T J and J^T r of every block: the priors', then each between's
        # on its first state, then on its second
        blocks = np.concatenate([jac[:npri], ja, jb])
        bt = blocks.transpose(0, 2, 1)
        jtj = (bt @ blocks).reshape(-1, 36)
        jtr = (bt @ np.concatenate([r, r[npri:]])[:, :, None]).reshape(-1, 6)
        nb = len(jb)
        diag = np.zeros((nb + 1, 36))
        grad = np.zeros((nb + 1, 6))
        for total, part in ((diag, jtj), (grad, jtr)):
            np.add.at(total, self.prior_index, part[:npri])
            total[:-1] += part[npri:npri + nb]
            total[1:] += part[npri + nb:]
        f = self.n_fixed
        diag, grad = diag[f:], grad[f:]
        # H block (a, b) of each between factor linking two free states
        upper = (ja.transpose(0, 2, 1) @ jb)[f:]

        m = len(diag)
        band = np.zeros((_BAND_U + 1, m, 6))
        band[_DIAG_ROW, :, _DIAG_COL] = diag[:, _DIAG_AT].T
        band[_UPPER_ROW, 1:, _UPPER_COL] = upper.reshape(-1, 36).T
        return band.reshape(_BAND_U + 1, 6 * m), grad.reshape(-1)


# Upper banded storage: H[i, j] (i <= j) sits at band[_BAND_U + i - j, j].
# With 6x6 blocks on a chain the farthest coupling is 11 columns off the
# diagonal. Index lists for a diagonal block (a <= b) and for the block right
# of it (all a, b, in row-major order), by row a and column b within the
# block; _DIAG_AT is a diagonal entry's place in its flattened block.
_BAND_U = 11
_DIAG_A, _DIAG_COL = np.triu_indices(6)
_DIAG_ROW = _BAND_U + _DIAG_A - _DIAG_COL
_DIAG_AT = 6 * _DIAG_A + _DIAG_COL
_UPPER_A, _UPPER_COL = (ix.ravel() for ix in np.indices((6, 6)))
_UPPER_ROW = _BAND_U - 6 + _UPPER_A - _UPPER_COL


def _solve_damped(band, grad, lam):
    """delta from (H + lam I) delta = -g, by LAPACK's banded Cholesky solve
    (what ``scipy.linalg.solveh_banded`` calls, without its checks)."""
    damped = band.copy()
    damped[_BAND_U] += lam
    _, delta, info = dpbsv(damped, -grad, overwrite_ab=1, overwrite_b=1)
    if info != 0:
        raise SingularNormalEquations(f"banded Cholesky failed (info {info})")
    if not np.all(np.isfinite(delta)):
        raise SingularNormalEquations("non-finite LM step")
    return delta
