"""The φ-forms and their pole orders, against the longer routes of ``oracle``.

``phi_from_data`` reduces each form once over the shared denominator
2 q b1 b2, and ``Analysis.exponents`` reads the forms' pole orders off a
basis of h, g1 and g2 and what each form cancelled.  On every fixture and
on 400 seeded data sets (shared and squared denominator factors, g1 = g2,
zero and constant components, Gaussian coefficients, 0 to 4 punctures)
they give the pairs of ``oracle.phi_forms``, the pieces and exponents of
``oracle.phi_denominator_table`` up to a unit, and the residues and
principal parts that ``principal_part_at`` gives where it finds each order
itself.  No consumer of the table depends on its key order or on a piece's
unit, which the last tests check.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import cached_property

import pytest

import oracle
from conftest import LOADABLE, load_fixture
from wlab import mesh
from wlab.analysis import Analysis, PoleTableError
from wlab.cli import main
from wlab.exprparse import parse_expression
from wlab.poly import exact_exponent, exact_mul, exact_pow
from wlab.rational import INF, RationalFunction, SpherePoint
from wlab.weierstrass import WeierstrassData, phi_from_data

UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))
# Gaussian rationals (a + bi) / c, each once
POOL = sorted({(Fraction(a, c), Fraction(b, c)) for a in range(-2, 3) for b in range(-2, 3) for c in (1, 2)})


def canonical(piece):
    """The piece times the one unit that puts its leading entry in the
    quadrant re > 0, im >= 0."""
    for unit in UNITS:
        out = exact_mul(piece, (unit,))
        if out[-1][0] > 0 and out[-1][1] >= 0:
            return out
    raise AssertionError(piece)


def _gaussian(rng, k=3):
    return (rng.randint(-k, k), rng.randint(-k, k) if rng.random() < 0.5 else 0)


def _polynomial(rng, degree):
    coeffs = [_gaussian(rng) for _ in range(degree)]
    lead = (0, 0)
    while lead == (0, 0):
        lead = _gaussian(rng)
    return tuple(coeffs) + (lead,)


def _denominator(rng, lines):
    """A product of some of the data set's linear factors, some squared,
    and now and then a quadratic of its own."""
    out = ((rng.randint(1, 3), 0),)
    for line in rng.sample(lines, rng.randint(0, min(3, len(lines)))):
        out = exact_mul(out, exact_pow(line, rng.choice((1, 1, 2))))
    if rng.random() < 0.2:
        out = exact_mul(out, _polynomial(rng, 2))
    return out


def _function(rng, lines):
    return RationalFunction.of_exact(_polynomial(rng, rng.randint(0, 3)), _denominator(rng, lines))


def _component(rng, lines):
    kind = rng.random()
    if kind < 0.15:
        return RationalFunction.constant(0)
    if kind < 0.3:
        x, y = _gaussian(rng)
        return RationalFunction.constant(complex(x or 1, y))
    return _function(rng, lines)


def random_data(seed: int) -> WeierstrassData:
    rng = random.Random(seed)
    points = [SpherePoint.literal(x, y) for x, y in rng.sample(POOL, 6)]
    lines = [p.factor for p in points]
    h = RationalFunction.constant(0)
    while h.is_zero:
        h = _function(rng, lines)
    g1 = _component(rng, lines)
    g2 = g1 if rng.random() < 0.2 else _component(rng, lines)
    punctures = points[: rng.randint(0, 4)] + ([INF] if rng.random() < 0.5 else [])
    return WeierstrassData(h=h, g1=g1, g2=g2, punctures=tuple(punctures))


DATA = [load_fixture(name) for name in LOADABLE] + [random_data(s) for s in range(400)]


def test_the_forms_are_the_products_and_sums_of_the_rational_route():
    for d in DATA:
        assert [f.pair for f in phi_from_data(d).forms] == [f.pair for f in oracle.phi_forms(d)], d


def test_the_table_is_the_basis_over_the_phi_denominators_up_to_a_unit():
    for d in DATA:
        an = Analysis(d)
        table = {canonical(piece): e for piece, e in an.exponents.items()}
        assert len(table) == len(an.exponents)
        assert table == {canonical(piece): e for piece, e in oracle.phi_denominator_table(d).items()}, d
        for piece, e in an.exponents.items():
            assert e[4:] == [exact_exponent(f.pair[1], piece) for f in an.phi.forms]


def _exact(parts):
    return [c.exact for c in parts]


def test_residues_and_principal_parts_are_those_that_find_each_order_again():
    tables = refused = 0
    for d in DATA:
        an = Analysis(d)
        forms = an.phi.forms
        for p, entry in zip(d.punctures, an.periods.entries):
            assert _exact(entry.residues) == _exact(f.residue_at(p) for f in forms), (d, p)
        try:
            parts = an.principal_parts
        except PoleTableError:
            # only a form's pole on a piece of higher degree off the punctures is refused
            punctures = {p.factor for p in d.punctures}
            assert any(len(piece) > 2 and any(e[4:]) for piece, e in an.exponents.items() if piece not in punctures)
            refused += 1
            continue
        tables += bool(parts)
        points = {p.value: p for p in an._singular}
        for z, laurent in parts.items():
            want = tuple(f.principal_part_at(points[z]) for f in forms)
            assert [_exact(a) for a in laurent] == [_exact(a) for a in want], (d, z)
    # the comparison is not vacuous: most data sets have a table with a pole, some are refused
    assert tables > 150 and refused > 10, (tables, refused)


# -- order and unit safety -------------------------------------------------------------------


def _shuffled_table(monkeypatch):
    """Make every ``Analysis`` read its table in reversed key order, each
    piece off the punctures times -1."""
    original = Analysis.exponents.func

    def shuffled(self):
        punctures = {p.factor for p in self.data.punctures}
        items = reversed(list(original(self).items()))
        return {piece if piece in punctures else exact_mul(piece, ((-1, 0),)): e for piece, e in items}

    prop = cached_property(shuffled)
    prop.__set_name__(Analysis, "exponents")
    monkeypatch.setattr(Analysis, "exponents", prop)


# poles off the punctures at 1, -1 and i, each on a linear piece of its own
# (orders 1, 2 and 3), so the basis holds them in another order than the
# points sort in
OFF_PUNCTURE_POLES = {
    "genus": 0, "punctures": ["inf"], "h": "1/((z-1)*(z+1)^2*(z-i)^3)", "g1": "z", "g2": "0",
}


def test_principal_parts_do_not_follow_the_key_order_or_the_units(monkeypatch):
    d = WeierstrassData(
        h=parse_expression(OFF_PUNCTURE_POLES["h"]), g1=parse_expression("z"), g2=parse_expression("0"),
        punctures=("inf",),
    )
    plain = Analysis(d)
    assert [len(piece) for piece in plain.exponents] == [2, 2, 2]
    want = [(z, [_exact(a) for a in laurent]) for z, laurent in plain.principal_parts.items()]
    assert [z for z, _ in want] == [-1, 1j, 1]
    _shuffled_table(monkeypatch)
    shuffled = Analysis(d)
    assert list(shuffled.exponents) != list(plain.exponents)
    assert [(z, [_exact(a) for a in laurent]) for z, laurent in shuffled.principal_parts.items()] == want
    assert shuffled.regularity == plain.regularity and shuffled.singular_points == plain.singular_points


def _mesh_bytes(tmp_path, capsys, fmt: str) -> tuple[int, str, bytes]:
    path = tmp_path / "data.json"
    path.write_text(json.dumps(OFF_PUNCTURE_POLES))
    out = tmp_path / f"mesh.{fmt}"
    code = main([
        "mesh", str(path), "--region", "rect:-2,2,-2,2", "--res", "17", "--base", "0.5,-0.5",
        "--format", fmt, "--mesh-out", str(out),
    ])
    return code, capsys.readouterr().out, out.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "obj-3d"])
def test_the_mesh_does_not_follow_the_key_order_or_the_units(monkeypatch, record_calls, tmp_path, capsys, fmt):
    # the pole sequence runs from principal_parts to _Primitive.poles, and
    # difference sums over it in order, so the bytes may show another order
    primitives = record_calls(mesh, "_primitive")
    plain = _mesh_bytes(tmp_path, capsys, fmt)
    assert plain[0] == 0
    _shuffled_table(monkeypatch)
    assert _mesh_bytes(tmp_path, capsys, fmt) == plain
    assert [list(parts) for _forms, parts in primitives] == [[-1, 1j, 1]] * 2
