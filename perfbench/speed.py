"""Host-speed probe: a fixed slice of interpreter and numpy work.

On a shared host the speed of this process's vCPU drifts by up to ±25%, in
phases that last from seconds to several minutes; steal time stays near 0,
so the slowdown happens inside the core.  No run length averages out a phase
that outlasts the run: ten 45 s runs of `sequences` read 1.8-2.3 s per pass
for five runs and 2.8-3.0 s for the next five.  So the benchmark times this
probe next to every op and rescales the op's time to the probe's nominal
speed: `scaled(op, probe) = op * NOMINAL_S / probe`, with the mean of the
probes just before and just after the op.
The probe is part of the benchmark, never of the program, so a change to
the program moves the scaled time as much as the raw one.

The probe mixes bytecode-bound work (integer arithmetic, f-strings, a join)
with numpy work (small FFTs), because `sequences` spends most of its time in
the first and `kernels` in the second.
"""

from __future__ import annotations

import time

import numpy as np

# A fixed constant near the probe's median duration on the host the bounds
# were set on (2 vCPUs of an "Intel(R) Xeon(R) Processor" at 2.0 GHz, Python
# 3.11, numpy 2.4), where it ranged from about 7 to 10 ms with the host's
# speed.  It only sets the scale of the reported seconds.
NOMINAL_S = 0.0085

_ARRAY = np.random.default_rng(0).standard_normal(1 << 14)


def probe() -> float:
    """Seconds this process takes for the fixed probe work, 7-10 ms."""
    t0 = time.perf_counter()
    acc, parts = 0, []
    for i in range(20000):
        acc += (i * 2654435761) % 1000003
        if i % 16 == 0:
            parts.append(f"{i},{acc % 97}")
    ",".join(parts)
    for _ in range(20):
        acc += int(np.abs(np.fft.rfft(_ARRAY)).sum())
    return time.perf_counter() - t0


def scaled(seconds: float, probe_s: float) -> float:
    """`seconds` at the probe's nominal speed, given a probe time near it."""
    return seconds * NOMINAL_S / probe_s
