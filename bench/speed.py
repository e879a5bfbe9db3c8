"""Host-speed normalisation of op times.

The benchmark runs on shared hosts whose speed changes as neighbouring load
comes and goes: on the 2-vCPU machine it was built on, the same fixed
workload ran up to 1.7x slower in one run than in another a few minutes
later.  So every op is timed together with a fixed probe, and its reported
time is scaled to a host on which one probe round takes ``REF_ROUND_S``.

A probe round does what wlab's ops do -- Python arithmetic on complex
coefficient tuples, numpy root finding and evaluation on small arrays, JSON
encoding -- and uses nothing from wlab, so a change to wlab cannot move it.
The host speed during an op is read from the probes run just before and
just after it.  (Probes taken inside an op, on a profiling timer, read up
to 2x slower per round than the same probe run on its own, depending on
what the op had just done, so they are not used.)
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

BRACKET_ROUNDS = 30
# about one probe round's time on the machine the benchmark was built on,
# so normalised times read close to wall times there
REF_ROUND_S = 0.004 / BRACKET_ROUNDS

_COEFFS = tuple(complex(k, -k) for k in range(1, 9))
_POINTS = np.linspace(0.0, 1.0, 8) + 0.5j


def probe(rounds: int) -> float:
    """Seconds per round of the reference job."""
    start = time.perf_counter()
    found = []
    for _ in range(rounds):
        q = [0j] * (2 * len(_COEFFS) - 1)
        for i, a in enumerate(_COEFFS):
            for j, b in enumerate(_COEFFS):
                q[i + j] += a * b
        found.append(np.roots(np.asarray(q[:9]))[0])
        np.polyval(np.asarray(_COEFFS), _POINTS)
    json.dumps([{"re": x.real, "im": x.imag} for x in found])
    return (time.perf_counter() - start) / rounds


class Speed:
    """Probes between pieces of timed work; converts wall time to reference time."""

    def __init__(self):
        self.brackets: list[float] = []

    def bracket(self) -> float:
        value = probe(BRACKET_ROUNDS)
        self.brackets.append(value)
        return value

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Reference seconds per wall second for work between two probes."""
        return REF_ROUND_S / (0.5 * (before + after))

    def summary(self) -> dict:
        quartiles = statistics.quantiles(self.brackets, n=4) if len(self.brackets) > 1 else self.brackets
        return {
            "reference_us_per_round": REF_ROUND_S * 1e6,
            "probe_us_per_round_quartiles": [q * 1e6 for q in quartiles],
            "probes": len(self.brackets),
        }
