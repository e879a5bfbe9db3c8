"""Shared test fixtures, and the generators and assertion helpers that more
than one test module reads.  The reference computations they check
against live in ``oracle``."""

from __future__ import annotations

import contextlib
import json
import math
import random
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
from wlab.cli import _load_data
from wlab.exprparse import parse_sphere_point
from wlab.poly import Exact, Polynomial, exact_coeffs
from wlab.ramification import ramification_report
from wlab.rational import RationalFunction
from wlab.weierstrass import WeierstrassData

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
# every fixture the commands read, and the regular ones, whose reports are snapshots
LOADABLE = sorted(p.stem for p in FIXTURES.glob("*.json") if p.stem != "malformed")
REGULAR = ["example21", "example22", "example23", "unicity_six_a", "unicity_six_b", "unicity_five_a", "unicity_five_b"]
Z = RationalFunction.variable()
PUNCTURE_POOL = ("inf", "0", "1", "-1", "i", "2", "-2")

# numpy picks its kernels at import from the CPU's features; this list leaves
# an x86-64 CPU with numpy's baseline (X86_V2) kernels only
NO_SIMD_DISPATCH = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"


def from_roots(roots, leading: complex = 1.0) -> Polynomial:
    """The polynomial leading * prod (z - r) over the given roots."""
    return Polynomial((leading * np.atleast_1d(np.poly(np.asarray(roots, dtype=complex))))[::-1])


def exact(p: Polynomial) -> Exact:
    """The float polynomial p read at its binary values: a positive integer
    multiple of p over Z[i], with the same roots."""
    return exact_coeffs(p.coeffs)[0]


class TimeLimitExceeded(BaseException):
    """Raised by the alarm; not an Exception, so no handler in wlab swallows it."""


@contextlib.contextmanager
def _time_limit(seconds: float):
    def alarm(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def time_limit():
    """``with time_limit(s): ...`` fails the test instead of hanging past s seconds."""
    return _time_limit


@pytest.fixture
def record_calls(monkeypatch):
    """``record_calls(module, name)``: the positional arguments of every later
    call to ``module.name``.

    The counting wrapper is bound into every ``wlab`` module that holds the
    function, so a call is seen whichever module's binding makes it.  Given a
    class, it replaces the method on the class (``Polynomial, "__call__"``).
    """

    def record(module, name: str) -> list[tuple]:
        original = getattr(module, name)
        calls: list[tuple] = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        if isinstance(module, type):
            monkeypatch.setattr(module, name, counted)
        for modname, mod in list(sys.modules.items()):
            if modname == "wlab" or modname.startswith("wlab."):
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
        return calls

    return record


# -- generators --------------------------------------------------------------------------


def _integer_poly(rng: random.Random, degree: int) -> str:
    coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([-9, -4, -1, 1, 3, 9])]
    terms = [f"{c}*z^{k}" for k, c in enumerate(coeffs) if c]
    return "+".join(terms).replace("+-", "-")


def _ladder_maps() -> list[str]:
    """Seeded integer maps A/B and A^m/B at degrees 4..64."""
    rng = random.Random(20060313)
    out = []
    for degree in (4, 8, 12, 16, 20, 24, 32, 48, 64):
        for _ in range(2):
            out.append(f"({_integer_poly(rng, degree)})/({_integer_poly(rng, degree)})")
            m = rng.choice([m for m in (2, 3, 4) if degree % m == 0])
            out.append(f"({_integer_poly(rng, degree // m)})^{m}/({_integer_poly(rng, degree)})")
    return out


def _bench_random_poly(rng: random.Random, degree: int) -> list[int]:
    """The bench ladders' generator: integer coefficients in [-9, 9], lowest
    degree first, nonzero leading term."""
    coeffs = [rng.randint(-9, 9) for _ in range(degree + 1)]
    while coeffs[-1] == 0:
        coeffs[-1] = rng.randint(-9, 9)
    return coeffs


def _gaussian_poly(rng: random.Random, degree: int) -> tuple[tuple[int, int], ...]:
    coeffs = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(degree)]
    return tuple(coeffs) + ((rng.choice([-3, -1, 1, 2]), rng.randint(-2, 2)),)


def write_data(tmp_path, name: str, punctures, h: str, g1: str, g2: str) -> str:
    """A genus-0 document written to tmp_path / name.json, and its path."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"genus": 0, "punctures": punctures, "h": h, "g1": g1, "g2": g2}))
    return str(path)


def fixture(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def load_fixture(name: str) -> WeierstrassData:
    return _load_data(fixture(name))


def loadable_fixtures() -> list[WeierstrassData]:
    return [load_fixture(name) for name in LOADABLE]


def random_regular_data(rng) -> WeierstrassData:
    """Random Gauss maps, with h vanishing exactly where they have poles.

    h = den(g1) den(g2) / prod (z - p)^m over the finite punctures, and inf
    is always a puncture, so the metric is regular off the punctures.
    """

    def rand_rat(deg):
        num = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        den = Polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
        return RationalFunction(Polynomial(num), den), RationalFunction(den)

    pool = ["0", "1", "-1", "2", "i", "1/2"]
    finite = [pool[i] for i in rng.choice(len(pool), size=int(rng.integers(0, 4)), replace=False)]
    g1, den1 = rand_rat(int(rng.integers(1, 4)))
    g2, den2 = rand_rat(int(rng.integers(0, 3)))
    h = den1 * den2
    for p in finite:
        h = h / (Z - parse_sphere_point(p).value) ** int(rng.integers(1, 4))
    return WeierstrassData(h=h, g1=g1, g2=g2, punctures=(*finite, "inf"))


def normal_map(rng, deg: int) -> RationalFunction:
    """N / D, both of degree deg, with standard normal complex coefficients."""
    num = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
    den = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
    return RationalFunction(Polynomial(num), Polynomial(den))


def integer_coeffs(rng, degree: int) -> list[int]:
    return [int(c) for c in rng.integers(-9, 10, size=degree)] + [int(rng.choice([-3, -2, -1, 1, 2, 3]))]


def integer_poly(rng, degree: int) -> RationalFunction:
    return RationalFunction(Polynomial([complex(c) for c in integer_coeffs(rng, degree)]))


def random_map(rng, shape: int) -> RationalFunction:
    """Generic N/D, A^m/B, a polynomial, or z^a/((z-1)^b (z+2))."""

    def degree(lo: int, hi: int) -> int:
        return int(rng.integers(lo, hi + 1))

    if shape == 0:
        return integer_poly(rng, degree(1, 6)) / integer_poly(rng, degree(0, 6))
    if shape == 1:
        m, a = degree(2, 4), integer_poly(rng, degree(1, 2))
        return a**m / integer_poly(rng, degree(0, m * a.degree))
    if shape == 2:
        return integer_poly(rng, degree(1, 8))
    return Z ** degree(1, 5) / ((Z - 1) ** degree(0, 4) * (Z + 2))


# -- fibres against the oracle's table -----------------------------------------------------

NEAR = 1e-6  # a reported point is the oracle's within this, a value within this relative


def assert_fibers_match_counting(f, punctures):
    """Every reported fiber is the oracle's; every other value of the
    oracle's table has a simple preimage off the punctures."""
    table, matched = oracle.Fibres(f, punctures), set()
    for rv in ramification_report(f, punctures).values:
        k = table.class_of(rv.value, NEAR)
        assert k is not None, (f, rv, table.classes)
        matched.add(k)
        _value, counted, simple = table.classes[k]
        free = [e for _z, e, is_puncture in counted if not is_puncture] + [1] * simple
        if free:
            assert (rv.kind, rv.nu) == ("totally-ramified", min(free)) and rv.nu >= 2, (f, rv, counted)
        else:
            assert (rv.kind, rv.nu) == ("exceptional", math.inf), (f, rv, counted)
        assert len(rv.preimages) == len(counted) + simple, (f, rv)
        # any order: conjugate pairs can swap on ulp-different real parts
        pool = list(counted)
        for pre in rv.preimages:
            key = (pre.multiplicity, pre.is_puncture)
            hit = [j for j, (z, *e) in enumerate(pool) if tuple(e) == key and oracle.close(pre.point.value, z, NEAR)]
            assert hit, (f, rv, counted)
            pool.pop(hit[0])
    for k, (value, counted, simple) in enumerate(table.classes):
        assert k in matched or simple or any(e == 1 and not p for _z, e, p in counted), (f, value, counted)
