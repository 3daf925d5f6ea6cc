"""Metric arithmetic shared by the workloads and the traced run.

Pure functions over plain numbers, so the self-tests in ``test_metrics.py``
pin down every rule the reported figures rest on.
"""

from __future__ import annotations

import math
import statistics

# a percentile is reported only with at least this many samples beyond it
TAIL_MIN = 10


def samples_beyond(n: int, q: int) -> int:
    """Samples ranked above the q-th percentile of n samples (integer q)."""
    if n < 0 or not 0 <= q <= 100:
        raise ValueError(f"bad sample count {n} or percentile {q}")
    return n - (-(-n * q // 100))


def percentile(samples, q: int) -> float:
    """Linear interpolation between closest ranks (numpy's default rule)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples, q: int) -> float:
    """The q-th percentile, refused unless TAIL_MIN samples lie beyond it."""
    beyond = samples_beyond(len(samples), q)
    if beyond < TAIL_MIN:
        raise ValueError(f"p{q} of {len(samples)} samples has only {beyond} "
                         f"beyond it; need {TAIL_MIN}")
    return percentile(samples, q)


def highest_reportable_percentile(n: int):
    """Largest of p99, p95, p90, p75, p50 with TAIL_MIN samples beyond it,
    or None."""
    for q in (99, 95, 90, 75, 50):
        if samples_beyond(n, q) >= TAIL_MIN:
            return q
    return None


def rate(numerator: float, denominator: float) -> float:
    """A share; its base must be positive, never silently zero."""
    if denominator <= 0:
        raise ValueError(f"rate over a base of {denominator}")
    return numerator / denominator


class FixScore:
    """Localization attempts scored against ground truth. Every rate is
    over all attempts, with or without a fix, so a method that rarely
    commits cannot score high by committing only when sure."""

    RECALL_M, RECALL_DEG = 0.25, 5.0          # an accurate fix is within both
    FALSE_FIX_M, FALSE_FIX_DEG = 1.0, 10.0    # a false fix is beyond either

    def __init__(self):
        self.attempts = self.fixes = self.accurate = self.false = 0
        self.errors_m: list[float] = []       # position error of each fix

    def add(self, error) -> None:
        """One attempt: None without a fix, else (metres, degrees) off."""
        self.attempts += 1
        if error is None:
            return
        et, er = error
        self.fixes += 1
        self.accurate += et <= self.RECALL_M and er <= self.RECALL_DEG
        self.false += et > self.FALSE_FIX_M or er > self.FALSE_FIX_DEG
        self.errors_m.append(et)

    def fix_rate(self) -> float:
        return rate(self.fixes, self.attempts)

    def recall(self) -> float:
        return rate(self.accurate, self.attempts)

    def false_fix_rate(self) -> float:
        return rate(self.false, self.attempts)

    def key(self) -> tuple:
        return (self.attempts, self.fixes, self.accurate, self.false,
                tuple(self.errors_m))

    @classmethod
    def merged(cls, scores) -> "FixScore":
        out = cls()
        for s in scores:
            out.attempts += s.attempts
            out.fixes += s.fixes
            out.accurate += s.accurate
            out.false += s.false
            out.errors_m += s.errors_m
        return out


def rms(values) -> float:
    """Root mean square, as ATE reports position errors."""
    values = list(values)
    return math.sqrt(rate(sum(v * v for v in values), len(values)))


def mean_or_zero(values) -> float:
    """Mean per call; a layer with no calls contributes 0."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def spl(episodes) -> float:
    """Success weighted by path length (Anderson et al. 2018): the mean over
    episodes of S * l / max(p, l), with S success (0/1), l the shortest path
    length and p the path the agent drove. A successful episode whose start
    already is the goal (l = p = 0) scores 1."""
    episodes = list(episodes)
    if not episodes:
        raise ValueError("SPL of no episodes")
    total = 0.0
    for success, shortest, driven in episodes:
        if shortest < 0 or driven < 0:
            raise ValueError("path lengths must be non-negative")
        if not success:
            continue
        longest = max(shortest, driven)
        total += 1.0 if longest == 0.0 else shortest / longest
    return total / len(episodes)


def self_time(start: float, end: float, children) -> float:
    """Span duration minus the part of [start, end] its children cover.

    Children are (start, end) pairs; overlaps between them and parts outside
    the parent are counted once / not at all."""
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(s, start), min(e, end)) for s, e in children):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
