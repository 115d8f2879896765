"""How fast the host runs while a case runs, from probes that call no levyfv.

The benchmark's VM shares its host, and host load changes the speed of the
same code by up to about 40 %, in spells from a fraction of a second to
minutes.  CPU time moves with wall time, so this is slower execution, not
time taken from the process, and a median over one run cannot remove a
spell longer than the run.  So the benchmark measures the host's speed
during each case and scales the case time by it.

`Sampler` does that: while a case runs, a timer signal every `INTERVAL_S`
runs three probes, fixed pieces of the kind of work the workloads do, about
2 ms in all, and records how long each took: a pure Python loop followed by
numpy on 1024-element arrays (per-call overhead), numpy on 4096-element
arrays (a time step on a fine grid), and two passes over a 1 MB array
(memory traffic).  A probe's slowdown is its mean time over its time in
`REFERENCE_S`, measured on the VM the bounds were set on when that was quiet.
The workloads slow down more than the probes do: over 30 runs there, the log
of a case's wall time rose 1.22 to 1.54 times as fast as the log of the
probes' geometric mean slowdown, depending on the workload.  So the host's
slowdown is that geometric mean raised to `ELASTICITY`.  A case's scaled
time is its wall time, less the time spent in probes, divided by the host's
slowdown.  A change to levyfv moves the wall time and not the probes, so it
moves the scaled time by the same share.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.1
ELASTICITY = 1.3
REFERENCE_S = {"small": 0.00075, "grid": 0.00033, "stream": 0.00072}

_X1 = (np.arange(1024) + 0.5) / 1024
_X4 = (np.arange(4096) + 0.5) / 4096
_MB = np.random.default_rng(0).random(1 << 17)


def _small():
    total = 0
    for i in range(6000):
        total += i * i
    for _ in range(40):
        b = np.maximum(_X1[1:] - _X1[:-1], 0.0) * 0.5 + _X1[1:]
    return total, b


def _grid():
    for _ in range(25):
        b = np.maximum(_X4[1:] - _X4[:-1], 0.0) * 0.5 + _X4[1:]
    return b


def _stream():
    for _ in range(2):
        total = (_MB * 0.5 + 1.0).sum()
    return total


PROBES = {"small": _small, "grid": _grid, "stream": _stream}


def _timed(probe):
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


def _geometric_slowdown(means):
    logs = [math.log(means[name] / REFERENCE_S[name]) for name in PROBES]
    return math.exp(ELASTICITY * sum(logs) / len(logs))


def slowdown(n=40):
    """The host's slowdown from `n` rounds of the probes run now."""
    times = {name: [_timed(fn) for _ in range(n)]
             for name, fn in PROBES.items()}
    return _geometric_slowdown({k: sum(v) / n for k, v in times.items()})


class Sampler:
    """Probe the host every `INTERVAL_S` while the `with` block runs.

    The probes run in a SIGALRM handler, between two bytecodes of whatever
    the block is doing (a long numpy call delays them, so they sample less
    often, not wrongly).  `spent` is the time the probes took inside the
    block; `slowdown()` is the host's slowdown from their mean times, or a
    fresh measurement when the block was too short to be sampled.
    """

    def __enter__(self):
        self.times = {name: [] for name in PROBES}
        self.spent = 0.0
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _sample(self, signum, frame):
        for name, fn in PROBES.items():
            took = _timed(fn)
            self.times[name].append(took)
            self.spent += took

    def slowdown(self):
        if not self.times["small"]:
            return slowdown()
        return _geometric_slowdown(
            {k: sum(v) / len(v) for k, v in self.times.items()})
