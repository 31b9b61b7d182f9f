"""Host-speed reference for the end-to-end timings.

The benchmark runs on a shared virtual machine whose speed drifts: a fixed
piece of Python takes up to about 60% longer for minutes at a time, and the
guest sees no steal time. No statistic over one run removes a slowdown that
lasts the whole run. So each workload process also times a fixed reference
kernel, owned by the benchmark and never changed, every `PERIOD_S` seconds
from a timer signal. The kernel's mean time over the process measures how
fast the host ran while the process did, and the process's timings are
reported in *reference seconds*:

    adjusted = (measured - time spent in the kernel) * NOMINAL_S / mean kernel time

that is, the time the process would have taken on a host that runs the kernel
in `NOMINAL_S`, about the kernel's time on an idle 2-vCPU Xeon VM. Taken over
a whole process, the adjustment followed the host's drift to within a few
percent for both the per-agent Python of `sweep` and the simplex of `lp`.
"""

from __future__ import annotations

import signal
import time

import numpy as np

NOMINAL_S = 0.003
PERIOD_S = 0.25

_rng = np.random.default_rng(20260101)
_A = _rng.standard_normal((6, 6))
_VS = [_rng.standard_normal(6) for _ in range(32)]


def reference_kernel() -> float:
    """A fixed Python loop over small vectors, like the engine's per-agent
    step. It tracked the host's drift better than rank-one updates of a
    mid-sized array did, on the simplex-bound `lp` workload too."""
    acc = 0.0
    for _ in range(20):
        for v in _VS:
            w = _A @ v - 0.5 * v
            acc += float(w @ w) if np.all(np.isfinite(w)) else 0.0
            box = {"acc": acc}
            acc = box["acc"] * 0.999
    return acc


class HostSpeed:
    """Times `reference_kernel` now and then, from SIGALRM, while a process works.

    `spent` is the total time taken by the kernel, to be subtracted from any
    interval that contains it; `scale()` converts measured seconds into
    reference seconds.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self, keep: bool = True) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        dt = time.perf_counter() - t0
        self.spent += dt
        if keep:
            self.samples.append(dt)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.sample()
        finally:
            self._busy = False

    def start(self) -> None:
        self.sample(keep=False)  # warm-up: first-call costs are not host speed
        self.sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self) -> float:
        return NOMINAL_S / (sum(self.samples) / len(self.samples))
