"""Host speed, read from a fixed reference kernel, to scale CPU times.

On a shared host the CPU itself changes speed: the same code on the same
input takes up to a third longer for minutes at a time, and for a few
tenths of a second it can swing further.  No run length averages that
out, and it moves CPU time as much as wall time.  So a fixed kernel is
timed around and during every timed call, and the call's CPU time is
multiplied by ``REF_S`` over the median of those kernel runs: it then
reads as seconds on a host where the kernel takes ``REF_S``.

* Around: the child runs the kernel before its first call and after each
  call, for ``SAMPLE_SHARE`` of that call's CPU time (at least once).
  This tracks the speed of short calls closely.
* During: a ``Sampler`` thread in the parent, which only waits for the
  child, runs the kernel every ``SAMPLER_PERIOD_S`` on the other CPU.  A
  call of many seconds changes speed many times inside, which samples at
  its two ends cannot see.

The kernel has the package's operation mix (kron of 2x2 and 3x3
factors, 6x6 complex products, ``eigvalsh``, an einsum partial trace) in
plain numpy and calls nothing in the package, so no change to the
package can move it.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

REF_S = 0.016          # the kernel's median CPU time on a 2-vCPU Xeon host
FIRST_SAMPLE_S = 0.1   # CPU time of a sample with no call before it
SAMPLE_SHARE = 0.02    # CPU time of any other sample, as a share of that call
SAMPLER_PERIOD_S = 0.2  # wall time between the Sampler's kernel runs

# Bound now, before a traced pass rebinds numpy.linalg.eigvalsh, so the
# kernel adds no spans.
_eigvalsh = np.linalg.eigvalsh

_RNG = np.random.default_rng(20111104)
_QUBIT = [_RNG.standard_normal((2, 2)) + 0j for _ in range(4)]
_QUTRIT = [_RNG.standard_normal((3, 3)) + 0j for _ in range(4)]
_RHO = [m @ m.conj().T for m in (_RNG.standard_normal((6, 6))
                                  + 1j * _RNG.standard_normal((6, 6))
                                  for _ in range(4))]


def reference_kernel() -> float:
    total = 0.0
    for i in range(400):
        k = np.kron(_QUBIT[i % 4], _QUTRIT[(i + 1) % 4])
        rho = k @ _RHO[i % 4] @ k.conj().T
        total += float(_eigvalsh(rho)[0])
        total += float(np.einsum("iaja->ij", rho.reshape(2, 3, 2, 3)).real.sum())
    return total


def sample(min_s: float) -> list[float]:
    """CPU times of kernel runs, repeated until they took ``min_s``."""
    times = []
    while not times or sum(times) < min_s:
        t = time.process_time()
        reference_kernel()
        times.append(time.process_time() - t)
    return times


def scale(*samples: list[float]) -> float:
    """Factor that turns CPU time measured between samples into seconds
    at the reference speed."""
    return REF_S / statistics.median(t for s in samples for t in s)


class Sampler:
    """Runs the kernel every ``SAMPLER_PERIOD_S`` in a thread while the
    ``with`` block lasts, keeping (monotonic time at mid-run, CPU time)."""

    def __init__(self):
        self.runs: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        reference_kernel()  # the first run is slow: numpy's lazy set-up
        while not self._stop.is_set():
            start, cpu = time.monotonic(), time.thread_time()
            reference_kernel()
            cpu = time.thread_time() - cpu
            self.runs.append((0.5 * (start + time.monotonic()), cpu))
            self._stop.wait(SAMPLER_PERIOD_S)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def during(self, start: float, end: float) -> list[float]:
        """CPU times of the runs whose midpoint fell in [start, end]."""
        return [cpu for t, cpu in self.runs if start <= t <= end]
