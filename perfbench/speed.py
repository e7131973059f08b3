"""Host-speed probe: a fixed reference computation sampled during the run.

The machines this benchmark runs on share their cores with other tenants.
On a 2-vCPU VM, a fixed Fraction loop ran at 256 to 454 iterations per 2 s
within one minute, and per-degree cycle times varied with a standard
deviation of 17 % (of their logarithm) over four minutes.  Query times
alone therefore say as much about the neighbours as about gmexp.

The probe runs reference() every INTERVAL_S seconds from a SIGALRM
handler, also in the middle of a long query.  reference() is the
benchmark's own code, so no change to gmexp can move it, and it does the
two kinds of work on gmexp's query path: sparse row elimination and
polynomial products over Fraction.  In that four-minute run (with a
slightly larger version of each part), dividing the cycle times by the
elimination part alone left 6.4 %, by the product part alone 5.0 %, and
by both 4.6 %.  A query's time at reference speed is its
wall time, less the probe's own time, times NOMINAL_REF_S over the mean
reference time within WINDOW_S seconds of the query.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
WINDOW_S = 0.1  # reference samples this close to a query describe its speed
# The reference time that defines a "reference second" (ref_s): about what
# reference() takes on an uncontended 2-vCPU VM with CPython 3.11.
NOMINAL_REF_S = 0.002


def _reference_data():
    rng = random.Random(20261017)
    n = 18
    rows = [
        {c: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5)) for c in range(n) if rng.random() < 0.3}
        for _ in range(n)
    ]
    p = {(0, (i, j)): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}
    q = {(1, (i, j)): Fraction(j - 3, i + 1) for i in range(4) for j in range(4)}
    return rows, n, p, q


_ROWS, _N, _P, _Q = _reference_data()


def reference() -> tuple[int, int]:
    """Rank of a fixed sparse rational matrix by row elimination, and the
    number of terms of a fixed product of two polynomials stored as
    {(t, x): Fraction}: the two kinds of work on gmexp's query path."""
    rows = [dict(r) for r in _ROWS]
    rank = 0
    for c in range(_N):
        piv = next((r for r in rows if c in r), None)
        if piv is None:
            continue
        rows.remove(piv)
        rank += 1
        pv = piv[c]
        for r in rows:
            v = r.get(c)
            if v is None:
                continue
            f = v / pv
            for k, x in piv.items():
                s = r.get(k, 0) - f * x
                if s:
                    r[k] = s
                else:
                    r.pop(k, None)
    prod: dict = {}
    for (ta, xa), ca in _P.items():
        for (tb, xb), cb in _Q.items():
            key = (ta + tb, (xa[0] + xb[0], xa[1] + xb[1]))
            v = prod.get(key, 0) + ca * cb
            if v:
                prod[key] = v
            else:
                prod.pop(key, None)
    return rank, len(prod)


class SpeedProbe:
    """Samples reference() every INTERVAL_S seconds while active."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy_prefix = [0.0]
        self._old = None

    def _sample(self, _signum, _frame):
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        if was_enabled:
            gc.enable()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self._busy_prefix.append(self._busy_prefix[-1] + t1 - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def busy_between(self, t0: float, t1: float) -> float:
        """Probe time spent inside [t0, t1]; samples never straddle a caller's clock reading."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return self._busy_prefix[j] - self._busy_prefix[i]

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_REF_S over the mean reference time within WINDOW_S of [t0, t1]."""
        i = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        j = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        near = self.durations[i:j] or self.durations
        return NOMINAL_REF_S * len(near) / sum(near)
