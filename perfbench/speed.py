"""Machine-speed calibration for the benchmark's timings.

On a shared host the CPU a process gets runs slower or faster for seconds
to minutes at a time, as other tenants load the same cores, caches and
memory. Neither wall time nor process CPU time leaves that out: the
slowdown is not steal time, so it is charged to the process. Identical
field tests took from 2.5 s to 4.8 s of CPU time on the 2-vCPU VM the
README's figures come from.

So every timed block runs a fixed calibration kernel from a SIGALRM
handler every PROBE_INTERVAL_S of wall time, plus once just before and
once just after the block, and records how long each kernel run took.
The block's own CPU time (the handler's time taken out) is then divided
by the machine's speed, the mean kernel time over the kernel's nominal
time: the result is the time the block would have taken on a machine
where the kernel takes its nominal time. The mean rather than the median
of the samples, because a block that runs partly fast and partly slow
takes the time-weighted mean of the two speeds.

A kernel is benchmark code only, so a change to the program moves the
block's time and not the kernel's. Each kernel run starts by streaming
an 8 MB buffer, four times the L2 cache, so that the kernel finds the
same cache state whatever the program left there; a program whose
working set grows or shrinks therefore does not move the kernel's time.
There are two kernels, one per kind of work, because the two kinds slow
down by different amounts under the same load:

- INTERPRETER, for the plant- and PID-bound workloads (bootstrap, field
  test) and for every setup and import: scalar float arithmetic through
  nested function calls, as in the unrolled RK4 of ``plant.advance``,
  small numpy array operations, and a few 64 x 64 matrix products.
- BLAS, for the SAC-update-bound learn workloads: products of a batch of
  rows with a 256 x 256 matrix (512 KB).

Measured per call on that VM while its load varied, the interpreter
kernel cut the coefficient of variation of identical field tests from
0.13-0.14 to 0.02-0.03, and the BLAS kernel that of width-256 SAC updates
from 0.06-0.08 to 0.05-0.06.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

PROBE_INTERVAL_S = 0.1

_RNG = np.random.default_rng(0)
_M64 = _RNG.standard_normal((64, 64)) * 0.125
_M256 = _RNG.standard_normal((256, 256)) * 0.0625
_X256 = _RNG.standard_normal((8, 256))
_EVICT = np.ones(1 << 20)    # 8 MB


def _deriv(b1, b2, u1, u2, temps):
    tau1 = -0.3 * u1 - 2.0 * b1
    tau2 = -0.3 * u2 - 2.0 * b2
    d_temps = [0.0] * 4
    for i in range(4):
        f = -1.5 * (0.7 * b1 + 0.2 * b2) + 0.01 * (temps[i] - 20.0)
        tau1 += 0.7 * f
        tau2 += 0.2 * f
        d_temps[i] = 0.1 - 0.02 * temps[i]
    return u1, u2, tau1, tau2, d_temps


def interpreter_kernel() -> float:
    """Scalar float steps through calls, small array ops, 64 x 64 products."""
    a1 = a2 = w1 = w2 = 0.1
    temps = [21.0, 22.0, 23.0, 24.0]
    for _ in range(150):
        k = _deriv(a1, a2, w1, w2, temps)
        a1 += 1e-3 * k[0]
        a2 += 1e-3 * k[1]
        w1 += 1e-3 * k[2]
        w2 += 1e-3 * k[3]
        temps = [temps[i] + 1e-3 * k[4][i] for i in range(4)]
    x = np.zeros(4)
    for _ in range(150):
        x = np.clip(x + 0.01, -1.0, 1.0)
        a1 += float(np.sum(x * x))
    m = _M64
    for _ in range(4):
        m = np.tanh(m @ _M64)
    return a1 + float(m[0, 0])


def blas_kernel() -> float:
    """Products of an 8-row batch with a 256 x 256 matrix."""
    x = _X256
    for _ in range(12):
        x = np.tanh(x @ _M256)
    return float(x[0, 0])


@dataclass(frozen=True)
class Kernel:
    name: str
    run: Callable[[], float]
    nominal_s: float    # about its time on an unloaded 2.0 GHz Xeon


INTERPRETER = Kernel("interpreter", interpreter_kernel, 1.4e-3)
BLAS = Kernel("blas", blas_kernel, 0.4e-3)
KERNELS = {k.name: k for k in (INTERPRETER, BLAS)}


class Probe:
    """Kernel samples and the CPU time of one block; see probed()."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.samples: list[float] = []
        self.in_block = 0.0    # handler time inside the block
        self.pauses: list[tuple[float, float]] = []   # its wall-clock intervals
        self.seconds = 0.0     # the block's own CPU time

    def sample(self) -> None:
        _EVICT.sum()
        t0 = time.process_time()
        self.kernel.run()
        self.samples.append(time.process_time() - t0)

    def on_alarm(self, signum, frame) -> None:
        w0, t0 = time.perf_counter(), time.process_time()
        self.sample()
        self.in_block += time.process_time() - t0
        self.pauses.append((w0, time.perf_counter()))

    @property
    def speed(self) -> float:
        """Mean kernel time over its nominal time: above 1 on a slow machine."""
        return statistics.fmean(self.samples) / self.kernel.nominal_s

    @property
    def calibrated_s(self) -> float:
        return self.seconds / self.speed


@contextlib.contextmanager
def probed(kernel: Kernel, interval: float = PROBE_INTERVAL_S):
    """Time the block in process CPU seconds while sampling the machine's speed.

    The yielded Probe holds, after the block, ``seconds`` (the block's CPU
    time without the handler's), ``calibrated_s``, and ``pauses``, the
    wall-clock intervals of the handler's runs. The alarm is off and the old
    SIGALRM handler back on every path out.
    """
    probe = Probe(kernel)
    probe.sample()
    old = signal.signal(signal.SIGALRM, probe.on_alarm)
    signal.setitimer(signal.ITIMER_REAL, interval, interval)
    t0 = time.process_time()
    try:
        yield probe
    finally:
        t1 = time.process_time()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        probe.seconds = t1 - t0 - probe.in_block
        probe.sample()
