"""The machine's current speed, from a fixed reference computation.

The shared 2-vCPU VM the benchmark was tuned on changes speed by up to a
third within a fraction of a second, each CPU on its own, and a process's
CPU time changes with it, so neither wall time nor CPU time compares two
runs made minutes apart.  Each request is therefore bracketed by two short
samples of one fixed computation: a power of a sparse polynomial held in a
dict, the kind of pure-Python work sympy's polynomials do for towerdecomp.
A request's time is rescaled to a fixed machine speed:

    scaled = wall * REFERENCE_S / (mean of the samples before and after)

so a time reads as the seconds it would take on a machine where the
reference computation takes REFERENCE_S.  The computation uses neither
towerdecomp nor sympy, and the cyclic garbage collector is off while it
runs, so no change to the program can change a sample.
"""

from __future__ import annotations

import gc
import time

REFERENCE_S = 1e-3  # about the reference computation's time on that VM

_P = {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3, (0, 0, 0): 7}


def _mul(p, q):
    out = {}
    for (a1, b1, c1), u in p.items():
        for (a2, b2, c2), v in q.items():
            m = (a1 + a2, b1 + b2, c1 + c2)
            out[m] = out.get(m, 0) + u * v
    return out


def _sample():
    t0 = time.perf_counter()
    q = _P
    for _ in range(8):
        q = _mul(q, _P)
    return time.perf_counter() - t0


def sample():
    """Seconds of the reference computation now: the faster of two tries."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_sample(), _sample())
    finally:
        if enabled:
            gc.enable()


def scaled(wall, before):
    """wall seconds, measured just after the sample `before`, rescaled to the
    reference speed with a fresh sample taken now."""
    return wall * REFERENCE_S / ((before + sample()) / 2)
