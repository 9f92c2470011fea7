"""Machine-speed reference: fixed work timed all through the timed pass.

The benchmark shares a two-core machine with other tenants, and the speed
it gets drifts by up to 2x within seconds, for this fixed work as for the
program. The timed pass therefore samples the time of reference_work()
every 20 ms of wall time (from a SIGALRM timer, so no program code has to
call it) and before and after each execution. Every execution and every
filter step is reported at nominal machine speed: its time, without the
samples taken inside it, divided by the slowdown the samples around it
saw. The work below is the benchmark's own and does not depend on
attbench, so a change to the program cannot move it.
"""

import contextlib
import signal
import time

import numpy as np

# seconds one reference_work() call takes when the machine is not slowed
# down (the fast end of its range on a 2-core x86_64 VM, Python 3.11,
# numpy 2.4); it only sets the scale of the normalised figures
NOMINAL_S = 0.0015

_RNG = np.random.default_rng(12345)
_F = np.eye(7) + 0.01 * _RNG.standard_normal((7, 7))
_H = np.zeros((11, 7))
_H[0:4, 0:4] = np.eye(4)
_H[4:8, 0:4] = np.eye(4)
_H[8:11, 4:7] = np.eye(3)
_R = np.diag(np.full(11, 1e-3))
_Q = 1e-6 * np.eye(7)
_Y = _RNG.standard_normal((25, 11))
_CLOUD = _RNG.standard_normal((1000, 7))
_NOISE = _RNG.standard_normal((1000, 7))


def reference_work():
    """Fixed work in the two shapes the program's time goes to: 25 steps of
    a Kalman filter on small matrices (a predict, an 11-row update with a
    dense solve, formatting the estimate) and 5 weighting steps over a
    1000-row particle cloud. Returns a checksum so the work is not skipped."""
    x = np.zeros(7)
    p = np.eye(7)
    eye = np.eye(7)
    total = 0.0
    for y in _Y:
        x = _F @ x
        p = _F @ p @ _F.T + _Q
        s = _H @ p @ _H.T + _R
        gain = np.linalg.solve(s, _H @ p).T
        x = x + gain @ (y - _H @ x)
        p = (eye - gain @ _H) @ p
        p = 0.5 * (p + p.T)
        total += len(",".join("%.9g" % v for v in x))
    cloud = _CLOUD
    for y in _Y[:5]:
        cloud = cloud @ _F.T + 1e-3 * _NOISE
        resid = y - cloud @ _H.T
        loglik = -0.5 * np.sum(resid * resid, axis=1)
        w = np.exp(loglik - loglik.max())
        w /= w.sum()
        cloud = cloud[np.searchsorted(np.cumsum(w), (np.arange(1000) + 0.5) / 1000).clip(0, 999)]
        total += float(w @ cloud[:, 0])
    return total


class SpeedProbe:
    """Durations of reference_work(), one per sample, in order.

    ``sample`` takes one on demand; inside ``periodic(interval)`` a
    SIGALRM timer also takes one every ``interval`` seconds of wall time,
    between two bytecodes of whatever the main thread is running. ``spent``
    is the time all samples took, so a caller timing an interval can take
    the samples inside it back out.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def sample(self):
        if self._busy:  # a timer signal arrived while a sample was running
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            reference_work()
            took = time.perf_counter() - t0
            self.samples.append(took)
            self.spent += took
        finally:
            self._busy = False

    @contextlib.contextmanager
    def periodic(self, interval):
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self, first, last):
        """Mean slowdown over samples first..last (inclusive)."""
        window = self.samples[first:last + 1]
        return sum(window) / len(window) / NOMINAL_S
