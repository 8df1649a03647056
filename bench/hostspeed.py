"""Host-speed normalisation of measured times.

The reference machine, a shared 2-vCPU Intel Xeon virtual machine, has a
speed that drifts by +-25% over tens of seconds (CPU time tracks wall time, so
it is not descheduling). Timing the same auth session in 10 s windows gave
medians from 9.6 to 16.1 ms, while its ratio to a fixed reference kernel,
run right after each session, stayed within 23.2 to 24.0.

So every timed section is followed, outside the timed region, by a
reference kernel, and a time is reported as ``measured / slowdown`` with
``slowdown = kernel time / kernel nominal time``: the time it would take on
a host where the kernel takes its nominal time (about the reference machine's fast
state). A single operation is divided by the slowdown around it, which
follows the host's fast swings; a total over the run (throughput) by the
slowdown over the whole run.

The contention does not slow every kind of work alike, so each workload
names the kernel closest to its own work:

* ``compute``: a chain of 48 tiny numpy operations (like batch-1
  propagation), a Python loop, SHA-256 over 64 KiB and a 128 x 128 matrix
  product. Over 10 s windows the auth session's ratio to it moved +-3%,
  its ratio to ``memory`` +-9%.
* ``memory``: big-endian serialisation of a 1.5 MB float64 array, the
  streaming work of sealing and loading a network. The key-service op's
  ratio to it moved +-3.5%, to ``compute`` +-8%.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

REF_SHARE = 0.10            # reference time spent per second of timed work

_rng = np.random.default_rng(0)
_STEP = _rng.random((64, 64)) / 64
_SQUARE = _rng.random((128, 128))
_ROW = _rng.random((1, 64))
_BLOCK = bytes(65536)
_WEIGHTS = _rng.random(3 * 256 * 256)


def compute_kernel() -> None:
    x = _ROW
    for _ in range(48):
        x = np.floor((x + 1.0) @ _STEP * 1024.0) * (1 / 1024)
    total = 0
    for i in range(2000):
        total += i
    hashlib.sha256(_BLOCK).digest()
    np.floor(_SQUARE @ _SQUARE)


def memory_kernel() -> None:
    _WEIGHTS.astype(">f8").tobytes()


# kernel -> (function, nominal seconds)
KERNELS = {"compute": (compute_kernel, 0.0005), "memory": (memory_kernel, 0.00025)}


class HostSpeed:
    """Slowdown of the host, from reference-kernel samples taken after each
    timed section.

    ``sample(duration)`` runs the kernel for about REF_SHARE of ``duration``
    (at least once) and returns the slowdown around that section: the mean
    of this sample and the one before it, so the section is judged at both
    of its ends. ``slowdown()`` is the slowdown over all samples so far,
    total kernel time over total nominal time.
    """

    def __init__(self, kernel: str):
        self._kernel, self._nominal = KERNELS[kernel]
        self._measured = 0.0
        self._reps = 0
        self._last = self._run(1)

    def _run(self, reps: int) -> float:
        start = time.perf_counter()
        for _ in range(reps):
            self._kernel()
        elapsed = time.perf_counter() - start
        self._measured += elapsed
        self._reps += reps
        return elapsed / reps / self._nominal

    def sample(self, duration: float) -> float:
        previous = self._last
        self._last = self._run(max(1, round(REF_SHARE * duration / self._nominal)))
        return (previous + self._last) / 2

    def slowdown(self) -> float:
        return self._measured / (self._reps * self._nominal)
