"""Self-tests of the benchmark's metric arithmetic and span bookkeeping.

    python3 -m pytest perfbench
"""

import math
import statistics
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench.metrics import (
    TAIL_MIN,
    FixScore,
    highest_reportable_percentile,
    mean_or_zero,
    percentile,
    quartile_spread,
    rate,
    rms,
    samples_beyond,
    self_time,
    spl,
    tail_percentile,
)
from perfbench.timing import CallTimer, call_seconds
from perfbench.tracing import Patches, Tracer


# -- percentiles with a tail of at least ten samples -----------------------

def test_p90_needs_100_samples_for_ten_beyond():
    assert samples_beyond(100, 90) == TAIL_MIN
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(137, 90) == 13
    assert samples_beyond(120, 50) == 60


def test_tail_percentile_refuses_a_thin_tail():
    tail_percentile(list(range(100)), 90)
    with pytest.raises(ValueError, match="only 9 beyond"):
        tail_percentile(list(range(99)), 90)


def test_highest_reportable_percentile():
    assert highest_reportable_percentile(1000) == 99
    assert highest_reportable_percentile(471) == 95
    assert highest_reportable_percentile(137) == 90
    assert highest_reportable_percentile(20) == 50
    assert highest_reportable_percentile(19) is None


def test_percentile_matches_numpy_linear_rule():
    rng = np.random.default_rng(3)
    xs = list(rng.exponential(10.0, 137))
    for q in (0, 10, 50, 90, 100):
        assert percentile(xs, q) == pytest.approx(np.percentile(xs, q), rel=1e-12)


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 50)


# -- SPL --------------------------------------------------------------------

def test_spl_weights_success_by_path_efficiency():
    # one detour (8 m needed, 10 m driven), one failure, one shortcut: the
    # planner's node path can be longer than the path driven
    episodes = [(True, 8.0, 10.0), (False, 5.0, 3.0), (True, 6.0, 4.0)]
    assert spl(episodes) == pytest.approx((0.8 + 0.0 + 1.0) / 3)


def test_spl_edge_cases():
    assert spl([(True, 0.0, 0.0)]) == 1.0
    assert spl([(False, 0.0, 0.0)]) == 0.0
    with pytest.raises(ValueError):
        spl([])
    with pytest.raises(ValueError):
        spl([(True, -1.0, 2.0)])


# -- self time --------------------------------------------------------------

def test_self_time_subtracts_children():
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)
    assert self_time(0.0, 10.0, []) == 10.0


def test_self_time_counts_overlap_once_and_clips_to_parent():
    assert self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0)]) == pytest.approx(6.0)
    assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == pytest.approx(2.0)
    assert self_time(0.0, 1.0, [(2.0, 3.0)]) == pytest.approx(1.0)


def test_tracer_links_parents_and_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def leaf():
        return "leaf"

    traced_leaf = tracer.wrap("layer.leaf", leaf)

    def root():
        traced_leaf()
        return traced_leaf()

    tracer.op = "query7"
    assert tracer.wrap("layer.root", root)() == "leaf"
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root_span,) = by_name["layer.root"]
    assert [s.parent for s in by_name["layer.leaf"]] == [root_span.id] * 2
    assert all(s.op == "query7" for s in tracer.spans)
    selfs = tracer.self_times()
    assert selfs[root_span.id] == pytest.approx(10.0 - 2.0 - 0.5)


def test_tracer_records_a_raising_call():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("layer.boom", boom)()
    assert tracer.spans[0].attrs == {"error": "KeyError"}
    assert tracer._stack == []


def test_patches_restore_originals():
    class Owner:
        def f(self):
            return 1

    original = Owner.f
    with Patches([(Owner, "f", lambda fn: lambda self: fn(self) + 1)]):
        assert Owner().f() == 2
    assert Owner.f is original


# -- rate denominators ------------------------------------------------------

def test_rates_refuse_an_empty_base():
    assert rate(3, 4) == 0.75
    with pytest.raises(ValueError):
        rate(0, 0)
    assert mean_or_zero([]) == 0.0


def test_fix_score_rates_are_over_all_attempts():
    score = FixScore()
    score.add(None)                  # no fix: counts against every rate
    score.add((0.10, 2.0))           # accurate
    score.add((0.50, 2.0))           # committed, neither accurate nor false
    score.add((3.00, 1.0))           # false by distance
    score.add((0.10, 20.0))          # false by angle
    assert score.fix_rate() == pytest.approx(4 / 5)
    assert score.recall() == pytest.approx(1 / 5)
    assert score.false_fix_rate() == pytest.approx(2 / 5)
    assert rms(score.errors_m) == pytest.approx(
        math.sqrt((0.01 + 0.25 + 9.0 + 0.01) / 4))


def test_fix_score_bucket_edges_are_inclusive_for_recall():
    score = FixScore()
    score.add((0.25, 5.0))
    score.add((1.0, 10.0))
    assert score.recall() == 0.5
    assert score.false_fix_rate() == 0.0


def test_fix_score_without_attempts_is_an_error():
    with pytest.raises(ValueError):
        FixScore().fix_rate()
    with pytest.raises(ValueError):
        rms([])


def test_quartile_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / q2)


# -- host-speed correction --------------------------------------------------

def _pass(**series):
    return SimpleNamespace(timings=series)


def test_calls_at_the_reference_host_speed_best_of_a_group_pooled_over_groups():
    # at the reference the probe reads 1.0; a call measured while the probe
    # read 1.5 did its work at 2/3 of that speed
    a = _pass(query=[(0.030, 1.5), (0.010, 1.0)])
    b = _pass(query=[(0.024, 1.0), (0.018, 1.5)])
    c = _pass(query=[(0.003, 1.5)])
    assert call_seconds([[a, b], [c]], ref=1.0)["query"] == pytest.approx(
        [0.020, 0.010, 0.002])
    # a run that never saw the reference speed is scaled to it all the same
    assert call_seconds([[c]], ref=0.75)["query"] == pytest.approx([0.0015])
    raw = call_seconds([[a, b], [c]], corrected=False)["query"]
    assert raw == pytest.approx([0.024, 0.010, 0.003])


def test_call_timer_probes_at_most_every_interval_and_after_long_calls():
    now = [0.0]
    probes = iter([2.0, 3.0, 4.0])
    timer = CallTimer(probe=lambda: next(probes), clock=lambda: now[0])
    t0 = timer.start()              # probes: 2.0
    now[0] += 0.01
    timer.stop("op", t0)
    t0 = timer.start()              # 10 ms later: reuses it
    now[0] += 0.1
    timer.stop("op", t0)            # ran 100 ms: probes again (3.0), mean
    t0 = timer.start()              # just probed: reuses 3.0
    now[0] += 0.01
    timer.stop("op", t0)
    now[0] += 0.1
    t0 = timer.start()              # 110 ms after the last probe: 4.0
    timer.stop("op", t0)
    assert [p for _, p in timer.series["op"]] == [2.0, 2.5, 3.0, 4.0]
    assert timer.series["op"][1][0] == pytest.approx(0.1)
