"""Machine pace: a fixed probe timed before, during and after every measured call.

The benchmark shares a few cores of a host with other tenants, and the
host's speed changes by up to 1.7x within seconds: the same ``capacity``
call on one m = 10 model took from 1.4 to 2.9 s, and the probe below
runs in either about 1.8 or about 3.1 ms.  The change slows CPU time as
much as wall time, so it is not preemption but the core itself running
slower, and no median within one run can remove it.

So every timed call runs with the probe below, a fixed piece of
pure-Python work of the kinds the program spends its time on (``Fraction``
arithmetic, float sums, dict lookups keyed by tuples, sorting).  The
probe never calls the program, so a change to the program cannot change
it.  It runs a few times just before and just after the call, and once
every ``INTERVAL_S`` during it, from a ``SIGALRM`` handler in the same
thread; the time those in-call probes take is left out of the call's
wall time.  A call's *paced* time is that wall time times
``REFERENCE_S`` over the mean probe time: the seconds the call would
have taken on a host where the probe takes ``REFERENCE_S``.  End-to-end
times are reported paced; the raw wall times go into the ``detail`` line
next to them.

Measured on a 2-core 2.1 GHz Xeon VM over 36 s windows of one process
calling ``capacity`` and ``omnivocality`` on the m = 10 pool models in
turn, the spread (q3 - q1) / median of the windows' geometric-mean times
was 0.09 / 0.12 raw, 0.03 / 0.09 paced by the probes around each call
only, and 0.03 / 0.02 paced with the in-call probes as well.  Short
calls (m = 8 PIN ``capacity``, about 50 ms) get no in-call probe and
rest on the probes around them, which brought their spread from 0.15-0.28
to about 0.05.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from fractions import Fraction

#: The probe's median time on a 2-core 2.1 GHz Xeon VM under Python 3.11,
#: so that paced times read as seconds on that host.
REFERENCE_S = 0.0033

PROBES_PER_PACE = 3

#: One in-call probe of about 3 ms every 0.2 s adds about 1.5 % to a call,
#: which is left out of its wall time but not out of traced self times.
INTERVAL_S = 0.2


def probe() -> float:
    """Run the fixed probe once, without garbage collection; return its wall time."""
    rng = random.Random(7)
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        table: dict = {}
        for _ in range(200):
            a = Fraction(rng.randint(1, 50), rng.randint(1, 50))
            acc = (acc + a) / 2
            key = tuple(sorted(rng.sample(range(16), 5)))
            table[key] = table.get(key, 0.0) + float(a)
        sorted(table.values())
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def pace() -> float:
    """Median of a few probes: the host's current seconds per probe."""
    return statistics.median(probe() for _ in range(PROBES_PER_PACE))


def timed(fn, *args) -> tuple:
    """Call ``fn(*args)`` between paces and with in-call probes.

    Returns (its result, wall seconds without the in-call probes, paced seconds).
    """
    paces = [pace()]
    in_call = 0.0

    def sample(signum, frame):
        nonlocal in_call
        start = time.perf_counter()
        paces.append(probe())
        in_call += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, sample)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start - in_call
        signal.signal(signal.SIGALRM, previous)
    paces.append(pace())
    return result, seconds, seconds * REFERENCE_S / statistics.fmean(paces)
