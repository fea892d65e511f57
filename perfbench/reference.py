"""Host-speed sampling with a reference kernel, for nominal seconds.

A host shared with other workloads changes speed by up to 1.7x within
seconds (measured on a shared 2-core x86-64 VM, where CPU time moved with
wall time: the CPU ran slower, no time slices were lost). That moves every
timing of a run. ``SpeedSampler`` runs a small fixed kernel from a SIGALRM
handler every PERIOD_S of wall time, so the host's speed is sampled inside
long ops as well as between short ones. Each op's wall time, less the time
spent in the handler, is rescaled by the nominal kernel time over the mean
kernel time around the op. A set-up runs in a child process, so it is
rescaled by kernel runs made just before and just after it instead.
Rescaled times are "nominal seconds": seconds on a host that runs the
kernel in its nominal time.

The kernel does the kinds of work locclab does: small complex Hermitian
eigensolves, small array arithmetic, Python objects and JSON. For
workloads whose time is in dense LAPACK eigensolves it adds one 64x64
eigensolve; on the small-matrix workloads that addition made the spread
worse (10 % against 2 % over ten depth-8 runs), so it is not used there.
The kernel never calls the program, so no change to the program can
change it.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time

import numpy as np

# Fixed scales near the kernel's time, without and with the dense
# eigensolve, on a 2-core x86-64 host with numpy 2.4 and OpenBLAS on one
# thread. Never re-measure them: changing one rescales every result.
NOMINAL_S = {False: 0.0003, True: 0.0008}
PERIOD_S = 0.05


class SpeedSampler:
    """Kernel times sampled every PERIOD_S while the sampler is entered."""

    def __init__(self, dense: bool):
        self.dense = dense
        self.nominal_s = NOMINAL_S[dense]
        rng = np.random.default_rng(20040518)
        matrices = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
        self._matrices = [m + m.conj().T for m in matrices]
        dense = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._dense = dense + dense.conj().T
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._previous = None
        for _ in range(20):
            self._kernel()

    def _kernel(self) -> float:
        acc = 0.0
        for i, m in enumerate(self._matrices):
            values, vectors = np.linalg.eigh(m)
            rebuilt = (vectors * values) @ vectors.conj().T
            acc += float(np.linalg.eigvalsh((rebuilt + rebuilt.conj().T) / 2)[0])
            acc += len(json.dumps({"i": i, "values": values.tolist()}))
        if self.dense:
            acc += float(np.linalg.eigvalsh(self._dense)[0])
        return acc

    def measure(self, runs: int) -> float:
        """Mean kernel time over ``runs`` runs made now."""
        start = time.perf_counter()
        for _ in range(runs):
            self._kernel()
        return (time.perf_counter() - start) / runs

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._kernel()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _range(self, start: float, end: float) -> slice:
        return slice(bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end))

    def busy(self, start: float, end: float) -> float:
        """Seconds the sampler itself took between ``start`` and ``end``."""
        return sum(self.seconds[self._range(start, end)])

    def scale(self, start: float, end: float) -> float:
        """Nominal over the mean kernel time within one period of [start, end]."""
        near = self.seconds[self._range(start - PERIOD_S, end + PERIOD_S)]
        return self.nominal_s / statistics.mean(near or self.seconds)
