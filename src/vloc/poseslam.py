"""Pose-graph fusion of low-rate absolute visual fixes with high-rate
relative odometry.

States are camera poses on SE(3). Prior factors pin states to visual
localization results; between factors chain consecutive states through
odometry deltas. The stacked whitened residual ``log(measured^-1 *
predicted)`` is minimized by damped Gauss-Newton (Levenberg-Marquardt);
prior factors carry a Huber loss so a bad fix cannot drag the trajectory.

One solver serves every case, from a single state to the full batch: the
window's states and factors are held as arrays, every residual and its
closed-form manifold Jacobians come from batched SE(3) maps, and because
between factors only link states k-1 and k the normal equations are block
tridiagonal and are solved as one banded system (bandwidth 11).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solveh_banded

from .errors import (
    EmptyGraph,
    NoGaugePrior,
    NonMonotonicTimestamp,
    SingularNormalEquations,
    UnknownState,
)
from .geometry import (
    Pose,
    pose_compose_array,
    pose_inverse_array,
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


@dataclass(frozen=True)
class PriorFactor:
    state_index: int
    measured: Pose
    sigmas: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.sigmas) <= 0):
            raise ValueError("sigmas must be positive")


@dataclass(frozen=True)
class BetweenFactor:
    index_a: int
    index_b: int
    measured: Pose
    sigmas: np.ndarray

    def __post_init__(self):
        if self.index_b != self.index_a + 1:
            raise ValueError("between factors link consecutive states")
        if np.any(np.asarray(self.sigmas) <= 0):
            raise ValueError("sigmas must be positive")


@dataclass
class FusionGraph:
    states: list = field(default_factory=list)
    timestamps: list = field(default_factory=list)
    priors: list = field(default_factory=list)
    betweens: list = field(default_factory=list)
    last_cost_trace: list = field(default_factory=list, repr=False)

    # -- construction --------------------------------------------------------

    def initialize(self, pose: Pose, timestamp: float) -> None:
        if self.states:
            raise ValueError("graph already initialized")
        self.states.append(pose)
        self.timestamps.append(float(timestamp))

    def propagate(self, odom_delta: Pose, sigmas, timestamp: float) -> Pose:
        """Append x_k = x_{k-1} * delta plus its between factor. No
        optimization happens here."""
        if not self.states:
            raise EmptyGraph("propagate on an empty graph; initialize first")
        if timestamp <= self.timestamps[-1]:
            raise NonMonotonicTimestamp(
                f"timestamp {timestamp} not after {self.timestamps[-1]}")
        k = len(self.states)
        new_pose = self.states[-1].compose(odom_delta)
        self.states.append(new_pose)
        self.timestamps.append(float(timestamp))
        self.betweens.append(BetweenFactor(index_a=k - 1, index_b=k,
                                           measured=odom_delta,
                                           sigmas=np.asarray(sigmas, dtype=float)))
        return new_pose

    def add_vloc_fix(self, state_index: int, pose: Pose, sigmas) -> None:
        if not 0 <= state_index < len(self.states):
            raise UnknownState(f"state {state_index} not in graph of "
                               f"{len(self.states)} states")
        self.priors.append(PriorFactor(state_index=state_index, measured=pose,
                                       sigmas=np.asarray(sigmas, dtype=float)))

    def current_pose(self):
        if not self.states:
            raise EmptyGraph("no states")
        return self.states[-1], self.timestamps[-1]

    def nearest_state(self, timestamp: float) -> int:
        """Index of the state nearest in time; the earlier one on a tie."""
        if not self.states:
            raise EmptyGraph("no states")
        ts = self.timestamps
        k = bisect.bisect_left(ts, timestamp)
        if k == 0:
            return 0
        if k == len(ts):
            return k - 1
        return k if ts[k] - timestamp < timestamp - ts[k - 1] else k - 1

    # -- optimization --------------------------------------------------------

    def optimize(self, window: int | None = None):
        """Levenberg-Marquardt over the last ``window`` states (earlier
        states held fixed) or all states. Returns (poses, final_cost);
        accepted-cost trace is kept in ``last_cost_trace``."""
        n = len(self.states)
        if n == 0:
            raise EmptyGraph("nothing to optimize")
        first_free = 0 if window is None else min(n, max(0, n - int(window)))
        if not self.priors:
            raise NoGaugePrior("graph has no prior factor; gauge is free")
        # factors not touching a free state are constant in the window
        # objective and are excluded from it
        priors = [p for p in self.priors if p.state_index >= first_free]
        if first_free == 0 and not priors:
            raise NoGaugePrior("no prior inside a full-graph optimization")

        # the chain from the fixed state before the window (if any) on;
        # betweens[k] links states k and k + 1
        lo = max(first_free - 1, 0)
        chain = _Chain(self.states[lo:], first_free - lo, lo, priors,
                       self.betweens[lo:])
        t, q = chain.t, chain.q
        cost, lin = chain.linearize(t, q)
        self.last_cost_trace = [cost]
        if cost < COST_FLOOR:
            return list(self.states), cost

        band, grad = chain.normal_equations(lin)
        lam = LM_LAMBDA_INIT
        accepted = False
        for _ in range(LM_MAX_ITERS):
            delta = _solve_damped(band, grad, lam)
            ct, cq = chain.retract(t, q, delta)
            new_cost, new_lin = chain.linearize(ct, cq)
            if new_cost < cost:
                rel = (cost - new_cost) / max(cost, 1e-300)
                t, q, cost = ct, cq, new_cost
                accepted = True
                self.last_cost_trace.append(cost)
                lam = max(lam / 10.0, 1e-12)
                if rel < LM_REL_DECREASE or cost < COST_FLOOR:
                    break
                band, grad = chain.normal_equations(new_lin)
            else:
                # a rejected step leaves the linearization as it was
                lam *= 10.0
                if lam > 1e10:
                    break
        states = list(self.states)
        if accepted:
            states[first_free:] = [Pose(t[i], q[i])
                                   for i in range(chain.n_fixed, len(t))]
        self.states = states
        return list(states), cost


class _Chain:
    """One optimization window as arrays: states ``t (k, 3)``, ``q (k, 4)``
    (the first ``n_fixed`` held fixed), the active priors and the between
    factors linking consecutive states.

    Residuals are whitened ``log(measured^-1 * predicted) / sigmas``; both
    factor kinds share one batched compose and log, with the measured poses
    inverted once. The Gauss-Newton system is block tridiagonal and is kept
    in the upper banded storage of ``scipy.linalg.solveh_banded``."""

    def __init__(self, states, n_fixed, offset, priors, betweens):
        self.t = np.array([s.t for s in states])
        self.q = np.array([s.q for s in states])
        self.n_fixed = n_fixed
        self.n_priors = len(priors)
        self.prior_index = np.array([p.state_index - offset for p in priors],
                                    dtype=int)
        factors = list(priors) + list(betweens)
        self.meas_inv = pose_inverse_array(
            np.array([f.measured.t for f in factors]).reshape(-1, 3),
            np.array([f.measured.q for f in factors]).reshape(-1, 4))
        self.sigmas = np.array([f.sigmas for f in factors]).reshape(-1, 6)

    def retract(self, t, q, delta):
        """x <- x * exp(delta) on the free states; the result is normalized."""
        dt, dq = se3_exp_array(delta.reshape(-1, 6))
        f = self.n_fixed
        ft, fq = pose_compose_array(t[f:], q[f:], dt, dq)
        fq /= np.sqrt(np.einsum("ij,ij->i", fq, fq))[:, None]
        return np.concatenate([t[:f], ft]), np.concatenate([q[:f], fq])

    def linearize(self, t, q):
        """Cost at (t, q), plus what the Jacobians there need."""
        pred_t, pred_q = pose_compose_array(*pose_inverse_array(t[:-1], q[:-1]),
                                            t[1:], q[1:])
        idx = self.prior_index
        rel = pose_compose_array(*self.meas_inv,
                                 np.concatenate([t[idx], pred_t]),
                                 np.concatenate([q[idx], pred_q]))
        xi = se3_log_array(*rel)
        r = xi / self.sigmas
        npri = self.n_priors
        s = np.sqrt(np.einsum("ij,ij->i", r[:npri], r[:npri]))
        rb = r[npri:]
        cost = float(np.sum(np.where(s <= HUBER_K, s * s,
                                     HUBER_K * (2.0 * s - HUBER_K)))
                     + np.einsum("ij,ij->", rb, rb))
        return cost, (xi, r, s, pred_t, pred_q)

    def normal_equations(self, lin):
        """Banded H (12, 6m) and gradient g (6m,) over the m free states."""
        xi, r, s, pred_t, pred_q = lin
        npri = self.n_priors
        jac = se3_right_jacobian_inv_array(xi) / self.sigmas[:, :, None]
        # Huber: scale the prior rows by sqrt(w), w = min(1, K / s)
        sw = np.sqrt(HUBER_K / np.maximum(s, HUBER_K))
        jac[:npri] *= sw[:, None, None]
        r = r.copy()
        r[:npri] *= sw[:, None]
        jb = jac[npri:]
        ja = -(jb @ se3_adjoint_array(*pose_inverse_array(pred_t, pred_q)))

        k = len(pred_t) + 1
        diag = np.zeros((k, 6, 6))
        grad = np.zeros((k, 6))
        jp = jac[:npri]
        jpt = jp.transpose(0, 2, 1)
        np.add.at(diag, self.prior_index, jpt @ jp)
        np.add.at(grad, self.prior_index, (jpt @ r[:npri, :, None])[:, :, 0])
        jat = ja.transpose(0, 2, 1)
        jbt = jb.transpose(0, 2, 1)
        rb = r[npri:, :, None]
        diag[:-1] += jat @ ja
        diag[1:] += jbt @ jb
        grad[:-1] += (jat @ rb)[:, :, 0]
        grad[1:] += (jbt @ rb)[:, :, 0]
        upper = jat @ jb          # H block (a, b) of each between factor

        f = self.n_fixed
        diag, upper, grad = diag[f:], upper[f:], grad[f:]
        m = len(diag)
        band = np.zeros((_BAND_U + 1, m, 6))
        band[_DIAG_ROW, :, _DIAG_COL] = diag[:, _DIAG_A, _DIAG_COL].T
        band[_UPPER_ROW, 1:, _UPPER_COL] = upper[:, _UPPER_A, _UPPER_COL].T
        return band.reshape(_BAND_U + 1, 6 * m), grad.reshape(-1)


# Upper banded storage: H[i, j] (i <= j) sits at band[_BAND_U + i - j, j].
# With 6x6 blocks on a chain the farthest coupling is 11 columns off the
# diagonal. Index lists for a diagonal block (a <= b) and for the block right
# of it (all a, b), by row a and column b within the block.
_BAND_U = 11
_DIAG_A, _DIAG_COL = np.triu_indices(6)
_DIAG_ROW = _BAND_U + _DIAG_A - _DIAG_COL
_UPPER_A, _UPPER_COL = (ix.ravel() for ix in np.indices((6, 6)))
_UPPER_ROW = _BAND_U - 6 + _UPPER_A - _UPPER_COL


def _solve_damped(band, grad, lam):
    """delta from (H + lam I) delta = -g."""
    damped = band.copy()
    damped[_BAND_U] += lam
    try:
        delta = solveh_banded(damped, -grad, overwrite_ab=True,
                              check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularNormalEquations(str(exc)) from exc
    if not np.all(np.isfinite(delta)):
        raise SingularNormalEquations("non-finite LM step")
    return delta
