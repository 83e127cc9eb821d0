"""A fixed reference computation timed next to the program, to take the
machine's changing speed out of the benchmark's times.

On a shared machine the CPU time of the same work changes by up to half
within seconds, as other tenants load the physical cores.  The benchmark runs
:func:`kernel` between control steps and next to each set-up, and reports a
time ``t`` measured alongside reference time ``r`` for ``n`` kernels as
``t * REF_S * n / r``: the time the work would take on a machine where one
kernel takes ``REF_S``.  The kernel is the kind of work a control step does
(small dense linear algebra through numpy, and interpreter work), and it does
not depend on the package under test, so a change to the package moves the
scaled times and leaves the reference alone.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# CPU seconds of one kernel on a 2-vCPU Xeon VM when it is not contended.
REF_S = 1e-4

_rng = np.random.default_rng(0)
_M = _rng.normal(size=(44, 44))
_A = _M @ _M.T + 44 * np.eye(44)
_B = _rng.normal(size=44)


def kernel() -> float:
    x = np.linalg.solve(_A, _B)
    w = np.linalg.eigvalsh(_A[:12, :12])
    s = float(np.maximum(_A @ x - _B, 0.0).sum() + np.abs(w).sum())
    for i in range(100):
        s += i * 0.5
    return s


def timed(clock: Callable[[], float], n: int = 1) -> float:
    """Seconds that ``n`` kernels take by ``clock``."""
    t0 = clock()
    for _ in range(n):
        kernel()
    return clock() - t0
