"""Machine-speed normalisation of the untraced benchmark samples.

The host this benchmark was tuned on slows down by up to 2x for tens of
seconds at a time (load from outside the benchmark), and the slowdown reaches CPU time as
well as wall time, so neither a median over a 30-s run nor process CPU
time holds still.  Instead, a timer signal interrupts the sample every
`INTERVAL_S` and runs a fixed probe.  Each workload has its own probe that
does its kind of work (tiny FFTs, elementwise image work, complex FFTs),
because the slowdown is not the same for every kind: in measurement each
workload's time tracked its own probe best.  The probes are the
benchmark's own code, so a change to bcpnp cannot speed them up.

Each stretch of program time between two probes is scaled by
`reference_s / (median probe time around it)`: the result is the time the
program would have taken had the probe run in `reference_s`, i.e. at the
machine's unloaded speed.  Probe time itself is left out.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.02
NEIGHBOURS = 3  # probes each side whose median estimates the speed of a stretch

_rfft2, _irfft2, _fft2, _ifft2 = np.fft.rfft2, np.fft.irfft2, np.fft.fft2, np.fft.ifft2
_roll, _sqrt, _maximum = np.roll, np.sqrt, np.maximum
_rng = np.random.default_rng(0)
_small = _rng.random((8, 8))
_image = _rng.random((64, 64))
_coils = _rng.random((2, 64, 64)) + 1j * _rng.random((2, 64, 64))


def _fft8():
    """Many tiny FFTs: per-call overhead, like the 8x8 Gaussian problem."""
    x = _small
    for _ in range(5):
        x = _irfft2(_rfft2(x) * 0.5, s=(8, 8)) + _small


def _tv64():
    """Elementwise gradient work on a 64x64 image, like TV-prox iterations."""
    x = _image
    for _ in range(7):
        gx = _roll(x, -1, 0) - x
        gy = _roll(x, -1, 1) - x
        norm = _sqrt(gx * gx + gy * gy)
        x = x - 0.1 * _maximum(norm - 0.5, 0.0) / (norm + 1e-3)


def _coil64():
    """Per-coil complex 64x64 FFTs with coil-map products, like multi-coil MRI."""
    z = _coils * _image
    z = _ifft2(_fft2(z) * 0.5) * _coils.conj()
    z.sum(axis=0).real


# name -> (probe, its reference duration): about the 5th percentile of the
# probe's time on a 2-core Xeon VM, so reference-speed seconds are close to
# the wall seconds of that machine's fast spells.
PROBES = {
    "fft8": (_fft8, 0.2e-3),
    "tv64": (_tv64, 0.4e-3),
    "coil64": (_coil64, 0.25e-3),
}


class SpeedProbe:
    """Runs probe `kind` on SIGALRM every INTERVAL_S and keeps (start, end)
    of each run."""

    def __init__(self, kind):
        self.probe, self.reference_s = PROBES[kind]
        self.start = []
        self.end = []

    def _tick(self, signum, frame):
        if len(self.start) > len(self.end):
            return  # a tick that lands inside a slow probe is skipped
        self.start.append(time.perf_counter())
        self.probe()
        self.end.append(time.perf_counter())

    def install(self):
        for _ in range(3):  # warm the probe's code paths and FFT plans
            self.probe()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normaliser(self, t0, t1):
        """A function (a, b) -> reference-speed seconds of program time in
        [a, b], for t0 <= a <= b <= t1 (the span the probe was installed)."""
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        if start.size < 2 * NEIGHBOURS:
            raise RuntimeError(f"only {start.size} speed probes ran")
        took = end - start
        # stretch j runs from the end of probe j-1 to the start of probe j
        lo = np.concatenate([[t0], end])
        hi = np.concatenate([start, [t1]])
        scale = np.empty(lo.size)
        for j in range(lo.size):
            near = took[max(0, j - NEIGHBOURS) : j + NEIGHBOURS]
            scale[j] = self.reference_s / np.median(near)

        def seconds(a, b):
            overlap = np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None)
            return float(overlap @ scale)

        return seconds
