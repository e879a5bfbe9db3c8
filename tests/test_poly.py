from __future__ import annotations

import cmath
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact, from_roots
from wlab import poly
from wlab.poly import (
    P0,
    Polynomial,
    exact_add,
    exact_coeffs,
    exact_cofactors,
    exact_derivative,
    exact_exponent,
    exact_gcd,
    exact_mul,
    exact_primitive,
    exact_quotient,
    pseudo_divmod,
    rounded,
)
from wlab.rational import RationalFunction, SpherePoint


def close(p: Polynomial, q: Polynomial, rel_eps: float) -> bool:
    """Coefficient-wise comparison relative to the joint scale."""
    scale = max(p.max_abs_coeff, q.max_abs_coeff, 1e-300)
    n = max(len(p.coeffs), len(q.coeffs))
    a, b = (list(x.coeffs) + [0j] * (n - len(x.coeffs)) for x in (p, q))
    return all(abs(x - y) <= rel_eps * scale for x, y in zip(a, b))


def test_trailing_zeros_stripped():
    p = Polynomial([1, 2, 0, 0])
    assert p.coeffs == (1 + 0j, 2 + 0j)
    assert p.degree == 1


def test_zero_polynomial_marker():
    z = Polynomial([0, 0])
    assert z.is_zero
    assert z.degree == -1
    assert z.coeffs == ()


def test_eval_horner_matches_numpy():
    p = Polynomial([1, -3, 0, 2])  # 2z^3 - 3z + 1
    for z in (0, 1.5, 2 - 1j, -0.25j):
        assert p(z) == pytest.approx(2 * z**3 - 3 * z + 1)


def test_eval_vectorized():
    p = Polynomial([0, 1])
    zs = np.array([1 + 1j, 2.0, -3j])
    assert np.allclose(p(zs), zs)


def test_derivative():
    assert exact_derivative(((5, 0), (0, 0), (1, 0))) == ((0, 0), (2, 0))  # z^2 + 5
    assert exact_derivative(((7, 0),)) == ()


def test_divmod_roundtrip():
    # lc(d)^(deg p - deg d + 1) p = q d + r
    p = ((2, 0), (0, 0), (-3, 1), (1, 0))
    d = ((-1, 0), (3, 2))
    q, r = pseudo_divmod(p, d)
    lc3 = exact_mul(exact_mul(d[-1:], d[-1:]), d[-1:])
    assert len(r) < len(d)
    assert exact_add(exact_mul(q, d), r) == exact_mul(p, lc3)


def test_multiplicity_at():
    # (z-1)^2 (z+2): the order at a point is the exponent of its exact linear factor
    p = RationalFunction(from_roots([1, 1, -2])).pair[0]
    assert exact_exponent(p, SpherePoint.literal(1.0).factor) == 2
    assert exact_exponent(p, SpherePoint.literal(-2.0).factor) == 1
    assert exact_exponent(p, SpherePoint.literal(3.0).factor) == 0


def test_from_roots_expansion():
    p = from_roots([1, 1, -2])
    # (z-1)^2 (z+2) = z^3 - 3z + 2
    assert close(p, Polynomial([2, -3, 0, 1]), 1e-12)


def test_gcd_exact_common_factor():
    common = from_roots([2, -1])
    a = from_roots([2, -1, 5])
    b = from_roots([2, -1, -7, 3])
    g = exact_gcd(exact(a), exact(b))
    assert len(g) == 3
    assert exact_mul(g, exact(common)[-1:]) == exact_mul(exact(common), g[-1:])


def test_gcd_coprime():
    assert len(exact_gcd(exact(from_roots([1])), exact(from_roots([2])))) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)])
def test_gcd_rejects_non_finite_coefficients(time_limit, bad):
    # a NaN remainder once made the float remainder degrees ping-pong
    # forever; a gcd now takes exact operands, and a non-finite
    # coefficient has no exact value
    with time_limit(5.0), pytest.raises(OverflowError, match="beyond the range of a double"):
        exact(Polynomial([1, 2, bad, 1]))


@pytest.mark.parametrize(
    "a, b",
    [
        # a divisor with a tiny leading coefficient: the float sequence
        # returned a bogus quadratic "gcd", then broke down typed
        (
            [0.1257302210933933, -0.1321048632913019, 0.6404226504432821, 0.10490011715303971,
             -0.535669373161111, 0.36159505490948474, 1.3040000451301372],
            [0.9470809631292422, -0.7037352358069926, -1.2654214710460525, 1e-08],
        ),
        # the float sequence broke down on this pair (Hypothesis found it)
        ([1, 1e-8j], [1, 1.5, 1, 0.25]),
    ],
)
def test_gcd_of_a_pair_the_float_sequence_broke_on_is_exact(time_limit, a, b):
    with time_limit(5.0):
        assert len(exact_gcd(exact(Polynomial(a)), exact(Polynomial(b)))) == 1


def _polydiv(p: Polynomial, d: Polynomial) -> Polynomial:
    """The quotient of p by d as np.polydiv computes it in floats."""
    if p.degree < d.degree:
        return Polynomial()
    q, _r = np.polydiv(np.asarray(p.coeffs[::-1], dtype=complex), np.asarray(d.coeffs[::-1], dtype=complex))
    return Polynomial(q[::-1])


def _assert_divides_as_polydiv(p: Polynomial, d: Polynomial) -> None:
    """The polynomial part read off the exact pair, which the mesh
    integrates, is np.polydiv's float quotient to rounding; a non-finite
    coefficient has no exact pair."""
    if not all(cmath.isfinite(c) for c in p.coeffs + d.coeffs):
        with pytest.raises(OverflowError, match="beyond the range of a double"):
            RationalFunction(p, d)
        return
    got, want = RationalFunction(p, d).polynomial_part().coeffs, _polydiv(p, d).coeffs
    assert len(got) == len(want)
    scale = max((abs(c) for c in want), default=0.0)
    assert all(abs(x - y) <= 1e-9 * scale for x, y in zip(got, want)), (got, want)


def _random_pair(rng: random.Random) -> tuple[Polynomial, Polynomial]:
    def poly(degree):
        return Polynomial([complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10 ** rng.randint(-9, 3)
                           for _ in range(degree + 1)])

    return poly(rng.randint(0, 12)), poly(rng.randint(0, 8))


def test_divmod_matches_polydiv_on_random_pairs():
    rng = random.Random(3)
    for _ in range(500):
        _assert_divides_as_polydiv(*_random_pair(rng))


NZ = -0.0


@pytest.mark.parametrize(
    "p, d",
    [
        # parts equal to -0.0
        ([complex(NZ, NZ), complex(1, NZ), complex(NZ, 2), complex(3, NZ)], [complex(NZ, 1), complex(1, NZ)]),
        ([complex(2, NZ), 0j, complex(NZ, NZ), complex(NZ, 1)], [complex(NZ, NZ), complex(1, NZ)]),
        # a remainder entry at the float division's old cut-off, and one ulp above
        ([3, 1e-8, 1], [0, 0, 1]),
        ([3, np.nextafter(1e-8, 1), 1], [0, 0, 1]),
        ([3, 1e-8j, 1], [0, 0, 1]),
        ([3, 1e-8, 0, 0, 1], [0, 0, 1]),
        # non-finite entries
        ([1, math.nan, 2, 1], [1, 1]),
        ([1, 2, 3, math.nan], [1, 1]),
        ([math.inf, 2, 1], [1, 1]),
        ([1, 2, complex(0, math.inf)], [1, 1]),
        ([1, 2, 1], [math.nan, 1]),
        # the coprime pair whose float gcd chain broke down
        ([1, 1.5, 1, 0.25], [1, 1e-8j]),
    ],
)
def test_divmod_matches_polydiv_on_edge_cases(p, d):
    _assert_divides_as_polydiv(Polynomial(p), Polynomial(d))


def test_exact_divide():
    p = exact(from_roots([1, 2, 3]))
    assert exact_quotient(p, exact(from_roots([2]))) == exact(from_roots([1, 3]))
    # 2 (1+i) z (z - 1) / (z - 1), no content removed
    assert exact_quotient(((0, 0), (-2, -2), (2, 2)), ((-1, 0), (1, 0))) == ((0, 0), (2, 2))
    with pytest.raises(ArithmeticError, match="does not divide"):
        exact_quotient(((1, 0), (0, 0), (1, 0)), ((-1, 0), (1, 0)))


def test_exact_divide_failure_is_arithmetic_not_usage():
    # a ValueError would be reported as a usage error by the CLI's input
    # handlers; a remainder is a broken invariant of the Yun chain (exit 2)
    with pytest.raises(ArithmeticError, match="does not divide") as err:
        exact_quotient(exact(from_roots([1, 2])), exact(from_roots([3])))
    assert not isinstance(err.value, ValueError)


UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def test_primitive_part_divides_out_the_gaussian_content():
    # content 6 (2 + i) of 6 (2 + i) (z^2 + (1 - i))
    c = (12, 6)
    p = exact_mul(((1, -1), (0, 0), (1, 0)), (c,))
    q = exact_primitive(p)
    assert any(q == exact_mul(((1, -1), (0, 0), (1, 0)), (u,)) for u in UNITS)
    assert exact_primitive(((3, 0), (0, 3))) in {((u, v), (-v, u)) for u, v in UNITS}


# -- exact polynomials over Z[i] --------------------------------------------------


def _gaussian_poly(rng: random.Random, degree: int) -> tuple[tuple[int, int], ...]:
    coeffs = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(degree)]
    return tuple(coeffs) + ((rng.choice([-3, -1, 1, 2]), rng.randint(-2, 2)),)


def test_subresultant_gcd_recovers_a_gaussian_common_factor():
    rng = random.Random(16)
    for _ in range(5):
        a, b, c = (_gaussian_poly(rng, 16) for _ in range(3))
        ab, ac = exact_mul(a, b), exact_mul(a, c)
        g = exact_gcd(ab, ac)
        assert len(g) == len(a)  # b and c are coprime for these seeds
        # g is a up to a scalar: g lc(a) = a lc(g)
        assert exact_mul(g, a[-1:]) == exact_mul(a, g[-1:])
        qb, qc = exact_cofactors(ab, ac)
        assert exact_mul(qb, c) == exact_mul(qc, b) and len(qb) == len(b)


def _subresultant_gcd(monkeypatch, a, b):
    """exact_gcd with the modular certificate never succeeding."""
    with monkeypatch.context() as m:
        m.setattr(poly, "mod_p_gcd_degree", lambda a, b: 1)
        return exact_gcd(a, b)


def test_the_modular_certificate_returns_what_the_subresultant_sequence_does(monkeypatch, record_calls):
    rng = random.Random("coprime")
    pairs = [
        # z and z + 1 against their shifts by P0: equal mod P0, coprime over Q(i)
        (((0, 0), (1, 0)), ((P0, 0), (1, 0))),
        (((1, 0), (1, 0)), ((1 + P0, 0), (1, 0))),
        # a leading coefficient divisible by P0, on one side and on both
        (((3, 1), (2, 0), (P0, 0)), _gaussian_poly(rng, 3)),
        (((3, 1), (2, 0), (P0, 0)), ((1, 0), (5, 2), (2 * P0, 0))),
        # P0 z - 1 times z - 2 and z - 3: coprime mod P0, where the factor drops to -1
        (exact_mul(((-1, 0), (P0, 0)), ((-2, 0), (1, 0))), exact_mul(((-1, 0), (P0, 0)), ((-3, 0), (1, 0)))),
    ]
    for _ in range(40):
        a, b, c = (_gaussian_poly(rng, rng.randint(1, 8)) for _ in range(3))
        pairs += [(a, b), (exact_mul(a, c), exact_mul(b, c))]
    for a, b in pairs:
        assert exact_gcd(a, b) == _subresultant_gcd(monkeypatch, a, b), (a, b)
    # a random coprime pair is certified without a remainder sequence
    remainders = record_calls(poly, "pseudo_divmod")
    for a, b in pairs[5::2]:
        assert exact_gcd(a, b) == ((1, 0),)
    assert not remainders


_GAUSSIAN = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@st.composite
def _drawn_poly(draw):
    """A nonzero polynomial over Z[i] of degree at most 6, often with a zero
    constant term, sometimes constant."""
    zeros = draw(st.integers(0, 2))
    coeffs = draw(st.lists(_GAUSSIAN, max_size=4))
    return ((0, 0),) * zeros + tuple(coeffs) + (draw(_GAUSSIAN.filter(lambda c: c != (0, 0))),)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_drawn_poly(), _drawn_poly(), _drawn_poly(), st.booleans())
def test_exact_gcd_is_primitive_and_leaves_coprime_exact_quotients(a, b, c, shared):
    if shared:
        a, b = exact_mul(a, c), exact_mul(b, c)
    g = exact_gcd(a, b)
    assert g == exact_primitive(g)
    qa, qb = exact_quotient(a, g), exact_quotient(b, g)  # ArithmeticError where g does not divide
    assert exact_gcd(qa, qb) == ((1, 0),)
    assert exact_cofactors(a, b) == (qa, qb)
    if shared:
        assert len(g) >= len(c)


def test_every_corpus_pair_has_its_recorded_gcd():
    # the gcd corpus (tests/gcd_corpus.py): seeded pairs, the bench ladder
    # maps and the fixtures' pairs, each with the primitive gcd, unit included
    import gcd_corpus  # it draws with this module's _gaussian_poly

    corpus = json.loads(gcd_corpus.CORPUS.read_text(encoding="ascii"))
    records = corpus["records"]
    assert corpus["seed"] == gcd_corpus.SEED and len(records) >= 500
    drawn = gcd_corpus.drawn_pairs()
    replayed = [gcd_corpus.record(name, a, b, exact_gcd) for name, a, b in drawn]
    for name, a, b, _g in records[len(drawn) :]:
        a, b = gcd_corpus.from_sparse(a), gcd_corpus.from_sparse(b)
        replayed.append(gcd_corpus.record(name, a, b, exact_gcd, keep_inputs=True))
    assert len(replayed) == len(records)
    changed = [new[0] for new, old in zip(replayed, records) if new != old]
    assert not changed, changed[:20]
    # the fixtures' pairs are there, and the gcds are not all 1
    assert sum(name.startswith("fixture:") for name, *_ in records) >= 20
    assert sum(g != "0:1:0" for *_, g in records) >= 150


def test_exact_coefficients_and_their_correctly_rounded_view():
    p, q = exact_coeffs([0.1, 2.5j, 3])
    assert q == 2**55 and p[0] == (int(0.1 * 2**55), 0) and p[2] == (3 * 2**55, 0)
    assert rounded(((1, 0), (0, 1)), 3).coeffs == (1 / 3 + 0j, 1j / 3)
    with pytest.raises(OverflowError, match="beyond the range of a double"):
        rounded(((10**400, 0),), 1)
    with pytest.raises(OverflowError, match="beyond the range of a double"):
        exact_coeffs([float("nan")])


def test_exact_exponent_counts_each_power_of_a_primitive_factor():
    line = exact_primitive(((-1, 0), (3, 0)))  # 3z - 1
    near = ((-1 * 10**12 - 3, 0), (3 * 10**12, 0))  # 3z - 1 - 3e-12, over 10^12
    p = exact_mul(exact_mul(line, line), near)
    assert exact_exponent(p, line) == 2
    assert exact_exponent(p, exact_primitive(near)) == 1
    assert exact_exponent(p, ((0, 0), (1, 0))) == 0
    with pytest.raises(ValueError):
        exact_exponent((), line)
    # 3z - 1 is a double root of p and its sibling a simple one: no one order
    with pytest.raises(ArithmeticError, match="different orders"):
        exact_exponent(p, exact_mul(line, exact_primitive(near)))
