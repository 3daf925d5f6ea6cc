import math
import time

import numpy as np
import pytest

from vloc.errors import (
    NearSingularRotation,
    NoGaugePrior,
    NonMonotonicTimestamp,
    UnknownState,
)
from vloc import poseslam
from vloc.geometry import Pose, pose_inverse_row, rotation_angle, se3_exp, se3_log
from vloc.poseslam import (
    COST_FLOOR,
    HUBER_K,
    LM_LAMBDA_INIT,
    LM_MAX_ITERS,
    LM_REL_DECREASE,
    FusionGraph,
    odom_sigmas,
    vloc_fix_sigmas,
)
from conftest import random_pose, rotvec_to_quat, se3_left_jacobian, so3_hat

SIG6 = [0.1] * 3 + [math.radians(0.5)] * 3
TIGHT = [0.01] * 3 + [math.radians(0.2)] * 3


def tx(d):
    return Pose(np.array([d, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))


def pose_of(row):
    return Pose(row[:3], row[3:])


def row_of(pose):
    return np.concatenate([pose.t, pose.q])


def chain_graph(deltas, prior_pairs, sigmas=SIG6):
    g = FusionGraph(Pose.identity(), 0.0)
    for k, d in enumerate(deltas):
        g.propagate(d, sigmas, float(k + 1))
    for idx, pose, sig in prior_pairs:
        g.add_vloc_fix(idx, pose, sig)
    return g


class TestPropagate:
    def test_a_graph_starts_at_its_first_state(self):
        g = FusionGraph(tx(2.0), 0.5)
        assert np.array_equal(g.states, [row_of(tx(2.0))]) and g.timestamps == [0.5]
        assert len(g.betweens) == 0 and len(g.priors) == 0
        assert g.current_pose() == (tx(2.0), 0.5) and g.nearest_state(-1.0) == 0

    def test_identity_delta(self):
        g = FusionGraph(tx(2.0), 0.0)
        out = g.propagate(Pose.identity(), SIG6, 1.0)
        assert out.almost_equal(tx(2.0), 1e-15)

    def test_three_unit_steps(self):
        g = FusionGraph(Pose.identity(), 0.0)
        for k in range(3):
            out = g.propagate(tx(1.0), SIG6, float(k + 1))
        assert np.allclose(out.t, [3.0, 0.0, 0.0], atol=1e-12)
        assert list(g.betweens["index"]) == [0, 1, 2]   # between k: k -> k + 1

    def test_fold_property_random_deltas(self):
        rng = np.random.default_rng(8)
        start = random_pose(rng)
        g = FusionGraph(start, 0.0)
        acc = start
        for k in range(1000):
            d = random_pose(rng, t_scale=0.1)
            g.propagate(d, SIG6, float(k + 1))
            acc = acc.compose(d)
        assert g.current_pose()[0].almost_equal(acc, 1e-9)

    def test_non_monotonic_timestamp(self):
        g = FusionGraph(Pose.identity(), 5.0)
        with pytest.raises(NonMonotonicTimestamp):
            g.propagate(tx(1.0), SIG6, 5.0)


class TestPropagateIsTheComposeOfTheLastState:
    """``propagate`` forms its state on the last state row; the reference
    is the ``Pose`` path it replaced, ``current_pose()[0].compose(delta)``."""

    @staticmethod
    def check_step(g, delta, ts):
        want = g.current_pose()[0].compose(delta)
        got = g.propagate(delta, SIG6, ts)
        assert got.t.tobytes() + got.q.tobytes() == want.t.tobytes() + want.q.tobytes()
        assert g.states[-1].tobytes() == row_of(want).tobytes()
        assert g.current_pose() == (want, ts)

    def test_random_deltas_half_turns_and_solved_rows(self):
        rng = np.random.default_rng(21)
        g = FusionGraph(random_pose(rng), 0.0)
        g.add_vloc_fix(0, g.current_pose()[0], TIGHT)
        # half turns (qw = 0) whose product flips sign or keeps a -0.0
        half_turns = [np.array(q) for q in ([0.0, 1.0, 0.0, 0.0], [0.0, 0.0, -0.6, 0.8],
                                            [0.0, 0.0, 0.0, -1.0], [-0.0, 0.6, 0.0, -0.8])]
        for k in range(1, 600):
            if k % 7 == 0:
                delta = Pose(rng.normal(0.0, 0.1, 3), half_turns[k % 4])
            else:
                delta = random_pose(rng, t_scale=0.1)
            self.check_step(g, delta, float(k))
            if k % 40 == 0:
                # the solver writes the window's rows back
                fix = g.current_pose()[0].compose(se3_exp(rng.normal(0.0, 0.05, 6)))
                g.add_vloc_fix(k, fix, SIG6)
                g.optimize(window=15)

    def test_non_finite_state_appends_nothing(self):
        g = FusionGraph(Pose(np.array([1.5e308, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0])), 0.0)
        far = Pose(np.array([1.5e308, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))
        # the sum overflows to inf (numpy warns of it), and no pose is made
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite pose"):
            g.current_pose()[0].compose(far)
        before = (g.states.copy(), list(g.timestamps), len(g.betweens))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite pose"):
            g.propagate(far, SIG6, 1.0)
        assert np.array_equal(g.states, before[0])
        assert (g.timestamps, len(g.betweens)) == before[1:]
        self.check_step(g, tx(-1e308), 1.0)
        assert len(g.betweens) == 1


BAD_SIGMAS = {"zero": [0.0] * 6, "negative": [0.1] * 5 + [-0.1],
              "nan": [0.1] * 5 + [np.nan], "five": [0.1] * 5}


class TestRejectedCallChangesNothing:
    @pytest.mark.parametrize("sigmas", BAD_SIGMAS.values(), ids=BAD_SIGMAS)
    def test_bad_sigmas(self, sigmas):
        g = chain_graph([tx(1.0)], [(0, Pose.identity(), TIGHT)])
        before = (g.states.copy(), list(g.timestamps), len(g.priors),
                  len(g.betweens))
        with pytest.raises(ValueError):
            g.propagate(tx(1.0), sigmas, 2.0)
        with pytest.raises(ValueError):
            g.add_vloc_fix(1, tx(1.0), sigmas)
        after = (g.states, g.timestamps, len(g.priors), len(g.betweens))
        assert np.array_equal(after[0], before[0]) and after[1:] == before[1:]
        g.propagate(tx(1.0), SIG6, 2.0)
        poses, _ = g.optimize()
        assert len(poses) == 3 and len(g.betweens) == 2

    @pytest.mark.parametrize("ts", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_timestamp(self, ts):
        g = chain_graph([tx(1.0)], [(0, Pose.identity(), TIGHT)])
        before = (g.states.copy(), list(g.timestamps), len(g.betweens))
        with pytest.raises(NonMonotonicTimestamp):
            g.propagate(tx(1.0), SIG6, ts)
        assert np.array_equal(g.states, before[0])
        assert (g.timestamps, len(g.betweens)) == before[1:]
        g.propagate(tx(1.0), SIG6, 2.0)
        assert g.nearest_state(1.9) == 2
        with pytest.raises(ValueError):
            FusionGraph(Pose.identity(), ts)


def reference_factor(index, pose, sigmas):
    """``_factor`` with its sigma check on numpy arrays, as it was before
    the check read plain floats."""
    s = np.asarray(sigmas, dtype=float)
    if s.shape != (6,) or not ((s > 0.0) & (s < np.inf)).all():
        raise ValueError(f"sigmas must be six finite positive values, got {s}")
    return index, pose_inverse_row(pose.t, pose.q), s


# sigmas a caller may pass: good ones of several types and sizes, and each
# way of being bad
FACTOR_SIGMAS = [SIG6, tuple(TIGHT), np.array(SIG6, dtype=np.float32), [1] * 6,
                 [5e-324] * 6, [1e308] * 6, odom_sigmas(0.3), vloc_fix_sigmas(7, 12),
                 [0.1] * 5 + [0.0], [0.1] * 5 + [-0.0], [0.1] * 5 + [-1e-300],
                 [0.1] * 5 + [math.inf], [-math.inf] + [0.1] * 5,
                 [math.nan] + [0.1] * 5, [0.1] * 5, [0.1] * 7, [[0.1]] * 6,
                 np.full((2, 3), 0.1), 0.1, []]


class TestFactorRecordIsTheParents:
    @pytest.mark.parametrize("sigmas", FACTOR_SIGMAS)
    def test_record_or_error(self, sigmas):
        pose = random_pose(np.random.default_rng(2))

        def call(factor):
            try:
                index, row, s = factor(3, pose, sigmas)
            except ValueError as exc:
                return "ValueError", str(exc)
            return index, row.tobytes(), s.dtype, s.tobytes()

        assert call(poseslam._factor) == call(reference_factor)

    def test_propagate_and_fix_rows(self, monkeypatch):
        # a drive's graph, built once as it is and once on the reference
        # factor: every state, between and prior row is the same
        def drive():
            rng = np.random.default_rng(13)
            g = FusionGraph(random_pose(rng), 0.0)
            for k in range(1, 300):
                delta = random_pose(rng, t_scale=0.1)
                g.propagate(delta, odom_sigmas(float(np.linalg.norm(delta.t))), float(k))
                if k % 25 == 0:
                    g.add_vloc_fix(k, random_pose(rng), vloc_fix_sigmas(k % 40 + 6, 12))
                    g.optimize(window=12)
                if k % 50 == 0:
                    with pytest.raises(ValueError, match="sigmas must be six"):
                        g.propagate(delta, [0.1] * 5 + [math.nan], k + 0.5)
            return [a.tobytes() for a in (g.states, g.betweens, g.priors)]

        got = drive()
        monkeypatch.setattr(poseslam, "_factor", reference_factor)
        assert got == drive()


class TestAddFix:
    def test_single_prior(self):
        g = FusionGraph(Pose.identity(), 0.0)
        g.add_vloc_fix(0, tx(1.0), TIGHT)
        assert len(g.priors) == 1

    def test_unknown_state(self):
        g = FusionGraph(Pose.identity(), 0.0)
        with pytest.raises(UnknownState):
            g.add_vloc_fix(3, tx(1.0), TIGHT)

    def test_nearest_state_lookup(self):
        g = FusionGraph(Pose.identity(), 0.0)
        for k in range(5):
            g.propagate(tx(0.1), SIG6, (k + 1) * 0.5)
        assert g.nearest_state(1.1) == 2
        assert g.nearest_state(10.0) == 5
        assert g.nearest_state(0.75) == 1     # tie: the earlier state
        assert g.nearest_state(-1.0) == 0


class TestLongSession:
    """One hour at 15 Hz: 54k states, a fix every sixth."""

    @staticmethod
    def session(n):
        g = FusionGraph(Pose.identity(), 0.0)
        step = tx(0.1).compose(se3_exp([0.0, 0.0, 0.0, 0.0, 0.0, 0.01]))
        fix_sig = vloc_fix_sigmas(12, 12)
        for k in range(1, n):
            g.propagate(step, SIG6, k / 15.0)
            if k % 6 == 0:
                g.add_vloc_fix(k, g.current_pose()[0].compose(tx(0.05)), fix_sig)
        return g

    def test_nearest_state_and_window_cost_do_not_grow(self):
        long = self.session(54_000)
        ts = np.asarray(long.timestamps)
        rng = np.random.default_rng(5)
        queries = list(rng.uniform(-1.0, ts[-1] + 1.0, 500))
        mids = rng.integers(0, len(ts) - 1, 500)
        queries += [0.5 * (ts[k] + ts[k + 1]) for k in mids]
        ties = 0
        for t in queries:
            d = np.abs(ts - t)
            ties += int(np.count_nonzero(d == d.min()) > 1)
            assert long.nearest_state(t) == int(np.argmin(d))
        assert ties > 0

        short = self.session(500)
        # both solves start from the propagated states, before any solve
        # has written an optimum back
        starts = {"long": long.states.copy(), "short": short.states.copy()}

        def median_ms(g, start):
            times = []
            for _ in range(7):
                g.states[:] = start
                t0 = time.perf_counter()
                g.optimize(window=20)
                times.append(time.perf_counter() - t0)
            return 1e3 * float(np.median(times))

        median_ms(short, starts["short"])          # warm-up
        assert median_ms(long, starts["long"]) <= 2.0 * median_ms(short, starts["short"])


def factors(graph):
    """Every factor as (the states it links, its inverse measured pose, its
    sigmas), priors first."""
    out = [((int(f["index"]),), pose_of(f["meas_inv"]), f["sigmas"])
           for f in graph.priors]
    out += [((k, k + 1), pose_of(f["meas_inv"]), f["sigmas"])
            for k, f in enumerate(graph.betweens)]
    return out


def stacked_residuals(graph, xs):
    """Every whitened residual, priors first, as one vector."""
    return np.concatenate([factor_residual(f, xs) for f in factors(graph)])


def factor_residual(f, xs):
    links, meas_inv, sigmas = f
    pred = xs[links[0]] if len(links) == 1 else xs[links[0]].between(xs[links[1]])
    return se3_log(meas_inv.compose(pred)) / sigmas


def numeric_jacobian(graph, states, columns, h=1e-6):
    """Central differences of the stacked residuals under right
    perturbations of each state in ``columns``. Only the factors touching a
    state are re-evaluated for its columns: the others do not change."""
    touching = {i: [] for i in columns}
    for k, f in enumerate(factors(graph)):
        for s in f[0]:
            if s in touching:
                touching[s].append((f, slice(6 * k, 6 * k + 6)))
    jac = np.zeros((6 * (len(graph.priors) + len(graph.betweens)),
                    6 * len(columns)))
    for c, i in enumerate(columns):
        for k in range(6):
            d = np.zeros(6)
            d[k] = h
            xp = list(states)
            xm = list(states)
            xp[i] = states[i].compose(se3_exp(d))
            xm[i] = states[i].compose(se3_exp(-d))
            for f, rs in touching[i]:
                jac[rs, 6 * c + k] = (factor_residual(f, xp)
                                      - factor_residual(f, xm)) / (2 * h)
    return jac


def dense_linearized_oracle(graph):
    """Independent check: stack all whitened residuals, differentiate them
    NUMERICALLY, solve one dense least-squares step from the current
    states. For translation-only discrepancy chains (identity rotations)
    the problem is linear, so this lands at the optimum."""
    states = [pose_of(r) for r in graph.states]
    n = len(states)
    r0 = stacked_residuals(graph, states)
    jac = numeric_jacobian(graph, states, range(n))
    delta, *_ = np.linalg.lstsq(jac, -r0, rcond=None)
    return [states[i].compose(se3_exp(delta[6 * i:6 * i + 6])) for i in range(n)]


def random_nonlinear_chain(rng, n):
    """A chain over truth poses with rotating steps, noisy odometry and noisy
    fixes on the first, the last and about every fifth state."""
    truth = [random_pose(rng, t_scale=1.0)]
    g = FusionGraph(truth[0].compose(se3_exp(rng.normal(0, 0.05, 6))), 0.0)
    for k in range(1, n):
        step = se3_exp(np.concatenate([rng.normal(0, 0.5, 3), rng.normal(0, 0.4, 3)]))
        truth.append(truth[-1].compose(step))
        noise = np.concatenate([rng.normal(0, 0.02, 3), rng.normal(0, 0.003, 3)])
        g.propagate(step.compose(se3_exp(noise)), SIG6, float(k))
    for i in [0, *rng.integers(0, n, size=max(1, n // 5)).tolist(), n - 1]:
        noise = np.concatenate([rng.normal(0, 0.03, 3), rng.normal(0, 0.005, 3)])
        g.add_vloc_fix(i, truth[i].compose(se3_exp(noise)), vloc_fix_sigmas(12, 12))
    return g


class TestOptimize:
    def test_single_state_prior_converges(self):
        g = FusionGraph(Pose.identity(), 0.0)
        target = tx(1.5)
        g.add_vloc_fix(0, target, TIGHT)
        poses, cost = g.optimize()
        assert poses[0].almost_equal(target, 1e-9)
        assert cost < 1e-18

    def test_exact_chain_zero_iterations(self):
        deltas = [tx(1.0)] * 5
        g = chain_graph(deltas, [(0, Pose.identity(), TIGHT), (5, tx(5.0), TIGHT)])
        poses, cost = g.optimize()
        assert g.last_cost_trace[0] < 1e-18
        assert len(g.last_cost_trace) == 1 and g.last_rejected_trials == 0

    def test_biased_chain_corrected(self):
        # 10 steps of +0.1 m bias: 1.0 m raw end error, priors at both ends
        deltas = [tx(1.1)] * 10
        gt_end = tx(10.0)
        g = chain_graph(deltas, [(0, Pose.identity(), TIGHT), (10, gt_end, TIGHT)])
        raw_err = np.linalg.norm(g.states[-1, :3] - gt_end.t)
        assert raw_err == pytest.approx(1.0, abs=1e-9)
        poses, _ = g.optimize()
        assert np.linalg.norm(poses[-1].t - gt_end.t) < 0.02

    def test_matches_dense_linearized_oracle(self):
        deltas = [tx(1.1)] * 10
        gt_end = tx(10.0)
        g = chain_graph(deltas, [(0, Pose.identity(), TIGHT), (10, gt_end, TIGHT)])
        oracle_states = dense_linearized_oracle(g)
        poses, _ = g.optimize()
        for a, b in zip(poses, oracle_states):
            assert np.max(np.abs(a.t - b.t)) < 1e-6

    def test_delayed_fix_shifts_chain(self):
        deltas = [tx(1.05)] * 6
        g = chain_graph(deltas, [(0, Pose.identity(), TIGHT)])
        g.add_vloc_fix(3, tx(3.0), TIGHT)   # delayed fix on a past state
        poses, _ = g.optimize()
        oracle_states = dense_linearized_oracle(
            chain_graph(deltas, [(0, Pose.identity(), TIGHT), (3, tx(3.0), TIGHT)]))
        for a, b in zip(poses, oracle_states):
            assert np.max(np.abs(a.t - b.t)) < 1e-6

    def test_monotone_cost_trace(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            deltas = [random_pose(rng, t_scale=0.3) for _ in range(8)]
            g = FusionGraph(Pose.identity(), 0.0)
            acc = Pose.identity()
            noisy_states = []
            for k, d in enumerate(deltas):
                g.propagate(d, SIG6, float(k + 1))
                acc = acc.compose(d)
                noisy_states.append(acc)
            g.add_vloc_fix(0, Pose.identity(), TIGHT)
            g.add_vloc_fix(4, noisy_states[3].compose(se3_exp(rng.normal(0, 0.05, 6))),
                           TIGHT)
            g.optimize()
            trace = g.last_cost_trace
            assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))

    def test_sigma_scaling_leaves_argmin(self):
        def build(scale):
            sig = [0.1 * scale] * 3 + [math.radians(0.5) * scale] * 3
            tight = [0.01 * scale] * 3 + [math.radians(0.2) * scale] * 3
            return chain_graph([tx(1.1)] * 6,
                               [(0, Pose.identity(), tight), (6, tx(6.0), tight)],
                               sigmas=sig)

        ref, _ = build(1.0).optimize()
        for scale in (0.1, 10.0):
            poses, _ = build(scale).optimize()
            for a, b in zip(ref, poses):
                assert np.max(np.abs(a.t - b.t)) < 1e-9

    def test_exact_measurements_converge_from_perturbed_inits(self):
        rng = np.random.default_rng(4)
        deltas = [random_pose(rng, t_scale=0.4) for _ in range(5)]
        g = FusionGraph(Pose.identity(), 0.0)
        truth = [Pose.identity()]
        for k, d in enumerate(deltas):
            g.propagate(d, SIG6, float(k + 1))
            truth.append(truth[-1].compose(d))
        g.add_vloc_fix(0, truth[0], TIGHT)
        g.add_vloc_fix(5, truth[5], TIGHT)
        for trial in range(5):
            noise = [se3_exp(np.concatenate([rng.uniform(-0.1, 0.1, 3),
                                             rng.uniform(-0.1, 0.1, 3)]))
                     for _ in range(6)]
            g.states[:] = [row_of(t.compose(n)) for t, n in zip(truth, noise)]
            poses, cost = g.optimize()
            for a, b in zip(poses, truth):
                assert a.almost_equal(b, 1e-9)

    def test_no_gauge_prior(self):
        g = FusionGraph(Pose.identity(), 0.0)
        g.propagate(tx(1.0), SIG6, 1.0)
        with pytest.raises(NoGaugePrior):
            g.optimize()

    def test_stops_at_cost_floor(self):
        # a 1-state, 1-prior solve ends with the first accepted step whose
        # cost is below the 1e-18 floor
        g = FusionGraph(Pose.identity(), 0.0)
        g.add_vloc_fix(0, se3_exp([0.5, -0.2, 0.3, 0.2, -0.1, 0.3]), TIGHT)
        _, cost = g.optimize()
        trace = g.last_cost_trace
        below = [k for k, c in enumerate(trace) if c < 1e-18]
        assert below and below[0] == len(trace) - 1
        assert cost == trace[-1]

    @pytest.mark.parametrize("n", [1, 2, 20, 61, 150])
    def test_stationary_on_random_nonlinear_chains(self, n):
        # both sides of the old 60-state dense/sparse switch, full and
        # windowed: the numeric gradient J^T r of the stacked residuals
        # over the free states vanishes at the returned states
        rng = np.random.default_rng(100 + n)
        windows = [None] if n == 1 else [None, (2 * n) // 3]
        for window in windows:
            g = random_nonlinear_chain(rng, n)
            first_free = 0 if window is None else n - window
            if window is not None:
                # as in streaming use, the states before the window have
                # been optimized already; the window starts off its optimum
                g.optimize()
                g.states[first_free:] = [
                    row_of(pose_of(r).compose(se3_exp(rng.normal(0, 0.05, 6))))
                    for r in g.states[first_free:]]
            before = g.states.copy()
            free = range(first_free, n)
            r0 = stacked_residuals(g, [pose_of(r) for r in before])
            grad0 = numeric_jacobian(g, [pose_of(r) for r in before], free).T @ r0
            window_poses, _ = g.optimize(window=window)
            assert np.array_equal(g.states[:first_free], before[:first_free])
            poses = [pose_of(r) for r in g.states]
            assert window_poses == poses[first_free:]
            r = stacked_residuals(g, poses)
            # no fix is down-weighted, so the objective is plain least squares
            assert np.max(np.linalg.norm(r[:6 * len(g.priors)].reshape(-1, 6),
                                         axis=1)) <= HUBER_K
            grad = numeric_jacobian(g, poses, free).T @ r
            assert np.max(np.abs(grad)) < 1e-6 * max(1.0, np.max(np.abs(grad0)))

    def test_window_holds_early_states_fixed(self):
        deltas = [tx(1.1)] * 10
        g = chain_graph(deltas, [(0, Pose.identity(), TIGHT), (10, tx(10.0), TIGHT)])
        before = g.states.copy()
        poses, _ = g.optimize(window=4)
        assert len(poses) == 4
        # states 0..6 fixed under window=4
        assert np.array_equal(g.states[:7], before[:7])
        assert not np.array_equal(g.states[-1], before[-1])


def adjoint(pose):
    r = pose.rotation_matrix()
    out = np.zeros((6, 6))
    out[:3, :3] = out[3:, 3:] = r
    out[:3, 3:] = so3_hat(pose.t) @ r
    return out


def reference_optimize(graph, window=None):
    """``FusionGraph.optimize`` as the quaternion solver it replaced: one
    ``Pose`` per state, per-factor residuals and Jacobians (J_r^-1 as the
    inverse of the SE(3) left Jacobian at -xi), a dense solve, and the same
    objective, LM constants and stop rules but the rejected-trial stop.
    Returns the window's poses and the final cost; the graph is left as it
    was."""
    n = len(graph.timestamps)
    first_free = 0 if window is None else min(n, max(0, n - int(window)))
    facs = [f for f in factors(graph) if max(f[0]) >= first_free]
    m = n - first_free

    def cost_of(xs):
        cost = 0.0
        for f in facs:
            r = factor_residual(f, xs)
            s = float(np.linalg.norm(r))
            prior = len(f[0]) == 1
            cost += HUBER_K * (2.0 * s - HUBER_K) if prior and s > HUBER_K else s * s
        return cost

    def normal_equations(xs):
        h = np.zeros((6 * m, 6 * m))
        g = np.zeros(6 * m)
        for f in facs:
            links, meas_inv, sigmas = f
            pred = xs[links[0]] if len(links) == 1 else xs[links[0]].between(xs[links[1]])
            xi = se3_log(meas_inv.compose(pred))
            r = xi / sigmas
            jac = np.linalg.inv(se3_left_jacobian(-xi)) / sigmas[:, None]
            if len(links) == 1:
                w = np.sqrt(HUBER_K / max(float(np.linalg.norm(r)), HUBER_K))
                blocks = [(links[0], w * jac)]
                r = w * r
            else:
                blocks = [(links[0], -jac @ adjoint(pred.inverse())), (links[1], jac)]
            blocks = [(6 * (i - first_free), j) for i, j in blocks if i >= first_free]
            for a, ja in blocks:
                g[a:a + 6] += ja.T @ r
                for b, jb in blocks:
                    h[a:a + 6, b:b + 6] += ja.T @ jb
        return h, g

    xs = [pose_of(r) for r in graph.states]
    cost = cost_of(xs)
    if cost >= COST_FLOOR:
        h, g = normal_equations(xs)
        lam = LM_LAMBDA_INIT
        for _ in range(LM_MAX_ITERS):
            delta = np.linalg.solve(h + lam * np.eye(6 * m), -g)
            trial = xs[:first_free] + [x.compose(se3_exp(delta[6 * k:6 * k + 6]))
                                       for k, x in enumerate(xs[first_free:])]
            new_cost = cost_of(trial)
            if new_cost < cost:
                rel = (cost - new_cost) / max(cost, 1e-300)
                xs, cost = trial, new_cost
                lam = max(lam / 10.0, 1e-12)
                if rel < LM_REL_DECREASE or cost < COST_FLOOR:
                    break
                h, g = normal_equations(xs)
            else:
                lam *= 10.0
                if lam > 1e10:
                    break
    return xs[first_free:], cost


def streamed_windows(seed, n=40, window=12, fix_every=5):
    """A chain grown state by state as the pipeline grows it, with a noisy
    fix every ``fix_every`` states; yields (graph, window) after each fix
    for a windowed solve, so every solve but the first starts near the
    optimum of the one before."""
    rng = np.random.default_rng(seed)
    truth = Pose.identity()
    g = FusionGraph(truth, 0.0)
    g.add_vloc_fix(0, truth, vloc_fix_sigmas(12, 12))
    for k in range(1, n):
        step = se3_exp(np.concatenate([[0.1], rng.normal(0, 0.01, 2),
                                       rng.normal(0, 0.02, 3)]))
        truth = truth.compose(step)
        noise = np.concatenate([rng.normal(0, 0.01, 3), rng.normal(0, 0.005, 3)])
        g.propagate(step.compose(se3_exp(noise)), odom_sigmas(0.1), k / 15.0)
        if k % fix_every == 0:
            fix = truth.compose(se3_exp(np.concatenate([rng.normal(0, 0.05, 3),
                                                        rng.normal(0, 0.01, 3)])))
            g.add_vloc_fix(k, fix, vloc_fix_sigmas(20, 12))
            yield g, window


class TestSolverAgainstReference:
    """The matrix solver against ``reference_optimize``, the quaternion
    solver it replaced: the rejected-trial stop and the rounding of the
    matrix form move a solve by far less than 1e-7."""

    @staticmethod
    def assert_close(g, window):
        want, want_cost = reference_optimize(g, window)
        got, got_cost = g.optimize(window)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.max(np.abs(a.t - b.t)) <= 1e-7
            assert rotation_angle(a.q, b.q) <= 1e-7
        assert abs(got_cost - want_cost) <= 1e-7 * max(1.0, want_cost)

    @pytest.mark.parametrize("n", [1, 2, 20, 61])
    def test_random_nonlinear_chains(self, n):
        rng = np.random.default_rng(200 + n)
        for window in ([None] if n == 1 else [None, (2 * n) // 3]):
            g = random_nonlinear_chain(rng, n)
            self.assert_close(g, window)
            # and again from the optimum the solve just wrote back
            self.assert_close(g, window)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_streamed_windows(self, seed):
        for g, window in streamed_windows(seed):
            self.assert_close(g, window)

    def test_disagreeing_fixes_down_weighted(self):
        # a fix 1 m and 0.2 rad off the other: the Huber weight is active
        g = FusionGraph(Pose.identity(), 0.0)
        g.add_vloc_fix(0, Pose.identity(), vloc_fix_sigmas(12, 12))
        g.add_vloc_fix(0, se3_exp([1.0, 0.0, 0.0, 0.0, 0.0, 0.2]), vloc_fix_sigmas(12, 12))
        self.assert_close(g, None)


class TestSolverTelemetry:
    @staticmethod
    def assert_one_trial_at_optimum(g, window):
        for _ in range(10):              # until a solve accepts no step
            g.optimize(window)
            if len(g.last_cost_trace) == 1:
                break
        before = g.states.copy()
        _, cost = g.optimize(window)
        assert g.last_cost_trace == [cost] and g.last_rejected_trials == 1
        assert np.array_equal(g.states, before)

    def test_solve_at_its_optimum_ends_after_one_trial(self):
        # at the optimum the step's model decrease is below the
        # relative-decrease stop, so no larger damping can pass it: one
        # trial, rejected, where the solver it replaced took 15
        for seed in range(5):
            g = random_nonlinear_chain(np.random.default_rng(300 + seed), 20)
            self.assert_one_trial_at_optimum(g, None)
        for g, window in streamed_windows(1):
            self.assert_one_trial_at_optimum(g, window)

    def test_symmetric_optimum_one_rejected_trial(self):
        # two fixes equally far either side of the state: the gradient is
        # exactly zero, so the one trial is the state itself, rejected
        g = FusionGraph(Pose.identity(), 0.0)
        g.add_vloc_fix(0, tx(0.3), TIGHT)
        g.add_vloc_fix(0, tx(-0.3), TIGHT)
        before = g.states.copy()
        _, cost = g.optimize()
        assert g.last_cost_trace == [cost] and g.last_rejected_trials == 1
        assert np.array_equal(g.states, before)

    def test_rejected_trial_raises_damping(self, monkeypatch):
        # three fixes on one state, far apart in rotation: the first, least
        # damped trials overshoot and are rejected with a model decrease
        # above the stop, so lam grows until a trial is accepted
        g = FusionGraph(Pose.identity(), 0.0)
        for xi in ([-0.98, -2.05, 0.11, -0.25, -0.97, 0.38],
                   [0.27, -2.22, 1.25, -0.37, 3.08, -0.99],
                   [0.34, 1.95, 3.76, 3.68, -1.49, -1.77]):
            g.add_vloc_fix(0, se3_exp(xi), [0.1] * 3 + [1.0] * 3)
        want, want_cost = reference_optimize(g)
        lams = []
        solve = poseslam._solve_damped
        monkeypatch.setattr(poseslam, "_solve_damped",
                            lambda band, grad, lam: lams.append(lam) or solve(band, grad, lam))
        got, cost = g.optimize()
        assert g.last_rejected_trials >= 1
        assert lams[0] == LM_LAMBDA_INIT and lams[1] == 10.0 * lams[0]
        trace = g.last_cost_trace
        assert len(trace) > 1 and all(b < a for a, b in zip(trace, trace[1:]))
        assert np.max(np.abs(got[0].t - want[0].t)) <= 1e-7
        assert rotation_angle(got[0].q, want[0].q) <= 1e-7
        assert abs(cost - want_cost) <= 1e-7 * want_cost

    @pytest.mark.parametrize("off", [0.0, 1e-9, 1e-7, 1e-6 - 1e-9])
    def test_residual_within_1e_6_of_pi_raises(self, off):
        # the fix is a rotation of pi - off away from the state
        g = FusionGraph(Pose.identity(), 0.0)
        g.add_vloc_fix(0, Pose(np.zeros(3), rotvec_to_quat([0.0, 0.0, math.pi - off])),
                       TIGHT)
        before = g.states.copy()
        with pytest.raises(NearSingularRotation):
            g.optimize()
        assert np.array_equal(g.states, before)

    def test_residual_just_outside_1e_6_of_pi_solves(self):
        g = FusionGraph(Pose.identity(), 0.0)
        target = Pose(np.zeros(3), rotvec_to_quat([0.0, 0.0, math.pi - 1e-6 - 1e-8]))
        g.add_vloc_fix(0, target, TIGHT)
        poses, _ = g.optimize()
        assert poses[0].almost_equal(target, 1e-9)


class TestCurrentPose:
    def test_after_propagate(self):
        g = FusionGraph(Pose.identity(), 0.0)
        g.propagate(tx(1.0), SIG6, 1.0)
        pose, ts = g.current_pose()
        assert np.allclose(pose.t, [1.0, 0.0, 0.0]) and ts == 1.0

    def test_streaming_matches_batch_at_each_fix(self):
        # replay: windowed optimize at every fix; oracle: fresh full batch
        rng = np.random.default_rng(9)
        deltas = [tx(1.0).compose(se3_exp(rng.normal(0, 0.01, 6))) for _ in range(12)]
        fixes = {0: Pose.identity(), 4: tx(4.0), 8: tx(8.0), 12: tx(12.0)}

        stream = FusionGraph(Pose.identity(), 0.0)
        stream.add_vloc_fix(0, fixes[0], TIGHT)
        stream_poses = []
        for k, d in enumerate(deltas):
            stream.propagate(d, SIG6, float(k + 1))
            idx = k + 1
            if idx in fixes:
                stream.add_vloc_fix(idx, fixes[idx], TIGHT)
                stream.optimize()          # full batch at each fix arrival
                stream_poses.append((idx, stream.current_pose()[0]))

        for idx, streamed in stream_poses:
            batch = FusionGraph(Pose.identity(), 0.0)
            for k in range(idx):
                batch.propagate(deltas[k], SIG6, float(k + 1))
            for fi, fp in fixes.items():
                if fi <= idx:
                    batch.add_vloc_fix(fi, fp, TIGHT)
            poses, _ = batch.optimize()
            assert np.max(np.abs(poses[-1].t - streamed.t)) < 1e-6


class TestSigmaHelpers:
    def test_more_inliers_tighter_prior(self):
        loose = vloc_fix_sigmas(12, 12)
        tight = vloc_fix_sigmas(48, 12)
        assert np.all(tight < loose)
        assert np.allclose(loose, [0.1] * 3 + [math.radians(2.0)] * 3)

    def test_odom_sigma_grows_with_step(self):
        assert odom_sigmas(1.0)[0] > odom_sigmas(0.1)[0]
