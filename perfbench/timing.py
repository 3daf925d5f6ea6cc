"""Call timing that separates the program's time from the host's speed.

On a host shared with other tenants the same Python and numpy code runs at
speeds up to 1.7x apart, switching within a second and staying switched
for seconds to minutes, so a whole run can fall in a slow stretch. Before
a timed call (at most every PROBE_EVERY_S) the timer runs a fixed probe
kernel, and again after a call that ran that long, whose probe is then
the mean of the two. A call's time is reported at one fixed host speed,
the one at which the probe takes REFERENCE_PROBE_S:
``seconds * REFERENCE_PROBE_S / probe``. The probe is benchmark code, so
two commits measured on one host are scaled alike.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_EVERY_S = 0.1
# the probe's time in the fast state of a 2-vCPU Xeon VM shared with other
# tenants (0.38-0.40 ms; 0.6-0.7 ms in its slow state), so the figures read
# close to plain milliseconds there
REFERENCE_PROBE_S = 0.4e-3
_RNG = np.random.default_rng(0)
_M6, _V6 = _RNG.random((6, 6)), _RNG.random(6)
_SORT = _RNG.random(20000)


def probe_kernel() -> float:
    """Seconds of a fixed kernel shaped like the workloads' own work (dict
    updates, many tiny numpy solves, one cache-sized sort), best of three
    tries of under a millisecond each."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        counts = {}
        for i in range(300):
            counts[i % 17] = counts.get(i % 17, 0) + i
        for i in range(30):
            np.linalg.solve(_M6 + np.eye(6) * (i + 1), _M6 @ _V6 + i)
        np.sort(_SORT)
        best = min(best, time.perf_counter() - t0)
    return best


class CallTimer:
    """Records, per named series, (seconds, probe seconds) of each call."""

    def __init__(self, probe=probe_kernel, clock=time.perf_counter):
        self.probe = probe
        self.clock = clock
        self.series: dict[str, list] = {}
        self._probe_s = None
        self._probed_at = float("-inf")

    def start(self) -> float:
        """Probe the host if due, then return the call's start time."""
        if self.clock() - self._probed_at >= PROBE_EVERY_S:
            self._probe_s = self.probe()
            self._probed_at = self.clock()
        return self.clock()

    def stop(self, name: str, started: float) -> None:
        """Record a call. One that ran for PROBE_EVERY_S or longer may have
        seen the host change speed: probe again and take the mean."""
        elapsed = self.clock() - started
        probe_s = self._probe_s
        if elapsed >= PROBE_EVERY_S:
            self._probe_s = self.probe()
            self._probed_at = self.clock()
            probe_s = (probe_s + self._probe_s) / 2.0
        self.series.setdefault(name, []).append((elapsed, probe_s))


def call_seconds(groups, corrected: bool = True,
                 ref: float = REFERENCE_PROBE_S) -> dict:
    """Series -> seconds of each distinct call, at the host speed where the
    probe reads ``ref`` when ``corrected``. ``groups`` are lists of passes
    over the same inputs: those make the same calls in the same order, so
    call i of a group is taken at its best over the group's passes. Groups
    pool."""

    def seconds(call):
        dt, probe = call
        return dt * ref / probe if corrected else dt

    out: dict[str, list] = {}
    for group in groups:
        for name, calls in group[0].timings.items():
            out.setdefault(name, []).extend(
                min(seconds(r.timings[name][i]) for r in group)
                for i in range(len(calls)))
    return out
