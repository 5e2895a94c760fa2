"""Host-speed calibration of the timing metrics.

The benchmark runs on a few cores of a shared host whose speed swings in
phases of a few seconds to a minute (README, "Host speed"): a fixed loop
runs up to 1.9x slower in a slow phase, in CPU time as well as in wall
time.  A run of 20 seconds cannot average such phases out, so the
timing metrics are reported at a fixed reference speed instead.

``probe()`` times a fixed calibration kernel that does not use the program:
interpreted Python arithmetic and a small complex numpy solve, the two
kinds of work that the program's tasks spend their time in.  Probes are taken
between the measured intervals.  Each interval is scaled by ``REF_PROBE_S``
over the median of the probes next to it, so it reads as the wall time the
interval would have taken on a host where the kernel takes ``REF_PROBE_S``
seconds.  A change to the program moves the scaled time exactly as it moves
the wall time; a change in the host's speed moves the probes with it and
cancels to first order.  The raw wall times are kept in the run's info line.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The kernel's time on the measuring machine in its usual phase (README).
REF_PROBE_S = 0.002
# Probes on each side of an interval that enter its speed estimate.
WINDOW = 3

_A = np.random.default_rng(0).standard_normal((8, 8)) + 1j * np.random.default_rng(1).standard_normal((8, 8))
_V = np.ones(8, dtype=complex)


def probe() -> float:
    """Wall time of one pass of the calibration kernel."""
    t0 = perf_counter()
    for _ in range(64):
        acc = 0
        for i in range(300):
            acc += i * i
        np.linalg.solve(_A, _A @ _V)
    return perf_counter() - t0


def warm(n: int = 20) -> None:
    """First passes pay one-time costs; run a few before timing."""
    for _ in range(n):
        probe()


def scaled(durations, probes) -> list[float]:
    """Scale interval i, which ran between probes[i] and probes[i + 1], to the reference speed.

    Its speed estimate is the median of the WINDOW probes on each side of it.
    """
    if len(probes) != len(durations) + 1:
        raise ValueError(f"{len(durations)} intervals need {len(durations) + 1} probes, got {len(probes)}")
    out = []
    for i, dt in enumerate(durations):
        near = probes[max(0, i + 1 - WINDOW): i + 1 + WINDOW]
        out.append(dt * REF_PROBE_S / statistics.median(near))
    return out
