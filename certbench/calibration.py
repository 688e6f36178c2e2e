"""Speed calibration: a fixed kernel timed between certify jobs.

On a shared host the CPU time of the same job drifts with what other
tenants do (cache, memory bandwidth and core siblings), by up to 2x over
minutes. The calibration kernel does a fixed mix of the operations the
pursuit kernels and the play loop spend their time in: n^3 broadcast
``where`` with a min/max reduction, an int16 matmul, and a pure-Python
loop over dicts and frozensets. It does not call ``pursuit``, so a change
to the program never changes it. Job times are scaled by
``REFERENCE_S / measured kernel time`` and so read as CPU seconds at the
reference speed, at which the kernel takes ``REFERENCE_S``.

Jobs that run the command line spend most of their time starting
interpreters and importing numpy, which the in-process kernel does not
track; they are scaled by a fresh interpreter that only imports numpy
(``measure_process``, reference ``PROCESS_REFERENCE_S``). Its peak RSS
stays below that of any pursuit command, so it never sets the CLI
workload's peak RSS.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time

import numpy as np

# Times that define the reference speed (about their times on an Intel
# Xeon 2-vCPU virtual machine with Python 3.11 and numpy 2.4).
REFERENCE_S = 0.015
PROCESS_REFERENCE_S = 0.2

_rng = np.random.default_rng(12345)
_ADJ = _rng.random((96, 96)) < 0.05
_VAL = _rng.integers(0, 1000, (96, 96)).astype(np.int64)
_M16 = (_rng.random((160, 160)) < 0.5).astype(np.int16)


def _kernel() -> int:
    low = np.where(_ADJ[:, :, None], _VAL[None, :, :], 10**6).min(axis=1)
    high = np.where(_ADJ[None, :, :], _VAL[:, None, :], -1).max(axis=2)
    reach = (_M16 @ _M16) > 0
    seen: dict = {}
    total = 0
    for i in range(12000):
        seen[i & 255] = seen.get(i & 255, 0) + i
        total += len(frozenset((i & 7, i & 3)))
    return int(low.sum() + high.sum() + reach.sum()) + total


def measure() -> float:
    """CPU seconds of one kernel run."""
    t0 = time.process_time()
    _kernel()
    return time.process_time() - t0


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_process() -> float:
    """CPU seconds of a fresh interpreter importing numpy."""
    before = _children_cpu()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return _children_cpu() - before
