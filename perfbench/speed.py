"""A gauge of the host's speed, to put times measured at different moments
on one scale.

The benchmark runs on shared hosts whose speed drifts by a quarter within
minutes (other tenants, frequency), nearly in step for all CPU-bound code: on
a 2-vCPU Xeon VM, a fixed pure-Python loop and a necessity family slow down
together with correlation 0.97 over 8-second blocks, and a search-d2 pool
with 0.94 against the loop and 0.93 against small numpy products over
2.4-second blocks.  So after each family the loop runs whole chunks of a
fixed reference kernel for about ``SHARE`` of the family's time, and a time
is reported at the reference speed:

    reported = measured * REFERENCE_CHUNK_S / (CPU time per chunk nearby)

``REFERENCE_CHUNK_S`` is a constant, so a change that makes the program
faster or slower moves the reported times by the same ratio as the
measured ones; only the host's drift cancels.  The factor of every run is
printed beside the measured times.
"""

from __future__ import annotations

from functools import cache

CHUNK_ITERS = 10_000
CHUNK_PRODUCTS = 200
# CPU seconds one chunk takes at the reference speed: a round figure in the
# middle of what a 2.1 GHz Xeon vCPU with CPython 3.11 and numpy 2 shows
# (about 1.2 to 2.0 ms as its speed drifts).
REFERENCE_CHUNK_S = 1.5e-3
SHARE = 0.1


@cache
def _operands():
    # numpy is imported on first use, after run.py has limited BLAS threads
    import numpy as np

    return np.linspace(-1.0, 1.0, 7 * 30).reshape(7, 30), np.linspace(0.0, 1.0, 30), np.max


def chunk() -> float:
    """One chunk of the reference kernel: interpreter work, then products of
    the size of the program's LPs (7 x 30)."""
    a, x, amax = _operands()
    s = 0
    for i in range(CHUNK_ITERS):
        s += i * i % 7
    t = 0.0
    for _ in range(CHUNK_PRODUCTS):
        t += float(amax(a @ x))
    return s + t


def sample(clock, busy: float) -> tuple:
    """Run whole chunks, at least one, until they have taken ``SHARE`` of
    ``busy`` seconds of ``clock``; returns (chunks, seconds they took)."""
    target = SHARE * busy
    t0 = clock()
    n = 0
    while True:
        chunk()
        n += 1
        took = clock() - t0
        if took >= target:
            return n, took


def factor(samples) -> float:
    """Reference seconds per measured second over (chunks, seconds) samples."""
    chunks = sum(c for c, _ in samples)
    seconds = sum(s for _, s in samples)
    return REFERENCE_CHUNK_S * chunks / seconds
