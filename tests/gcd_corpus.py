"""The gcd corpus: pairs of polynomials over Z[i], each with the primitive gcd
recorded for it.

The pairs are seeded Gaussian products with shared factors, shared powers of
z, leading coefficients divisible by the certificate's prime P0, Gaussian
contents, constant inputs, the (N, D), (N, N'), (D, D') and (W, W') pairs
of every ladder map of the bench generator at d = 4..64 (W the Wronskian
N'D - ND'), and every pair the roots and bounds layers take a gcd of while
every fixture runs through every command.  A polynomial is written sparse,
one ``k:x:y`` entry per nonzero coefficient x + y i of z^k, in hexadecimal;
one longer than ``MAX_INLINE`` characters is kept as the SHA-256 of that
text, except a fixture pair's inputs, which cannot be drawn again.
``tests/test_poly.py`` replays the corpus against ``poly.exact_gcd``.

The corpus was recorded where ``roots.common_part`` made the subresultant
gcd primitive, before ``exact_gcd`` returned the primitive gcd itself; a
gcd by another algorithm must give the same tuples, unit included.  Record
it again (only when a change of outcome is intended, and say so) with

    PYTHONPATH=src python tests/gcd_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from wlab import bounds, cli, poly, roots
from wlab.poly import P0, exact_derivative, exact_mul, exact_pow, exact_primitive
from wlab.rational import RationalFunction

from conftest import _bench_random_poly, _gaussian_poly

SEED = 20060313
CORPUS = Path(__file__).resolve().parent / "data" / "gcd_corpus.json"
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
MAX_INLINE = 120
LADDER_DEGREES = (4, 8, 12, 16, 20, 24, 32, 48, 64)


def sparse(p) -> str:
    return " ".join(f"{k}:{x:x}:{y:x}" for k, (x, y) in enumerate(p) if x or y)


def from_sparse(text: str):
    entries = [tuple(int(v, 16) for v in e.split(":")) for e in text.split()]
    out = [(0, 0)] * (entries[-1][0] + 1 if entries else 0)
    for k, x, y in entries:
        out[k] = (x, y)
    return tuple(out)


def stored(p) -> str:
    text = sparse(p)
    return text if len(text) <= MAX_INLINE else "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def reference_gcd():
    """The gcd the corpus holds: ``roots.common_part`` in a tree that has it,
    else ``poly.exact_gcd``."""
    return getattr(roots, "common_part", None) or poly.exact_gcd


# -- the drawn pairs ----------------------------------------------------------------

_Z = ((0, 0), (1, 0))


def _ladder_map(rng: random.Random, kind: str, degree: int):
    """(N, D) of the bench generator's map base^power / den, as it draws them."""
    if kind == "ladder_generic":
        base, den, power = _bench_random_poly(rng, degree), _bench_random_poly(rng, degree), 1
    else:
        power = rng.choice([m for m in (2, 3, 4) if degree % m == 0])
        base, den = _bench_random_poly(rng, degree // power), _bench_random_poly(rng, degree)
    return exact_pow(tuple((c, 0) for c in base), power), tuple((c, 0) for c in den)


def drawn_pairs() -> list[tuple[str, tuple, tuple]]:
    """(name, a, b) for every pair the corpus draws from its seed."""
    rng = random.Random(SEED)
    out = []
    for n in range(60):
        a, b, c = (_gaussian_poly(rng, rng.randint(1, 8)) for _ in range(3))
        c = exact_pow(c, rng.choice([1, 1, 2, 3]))
        out += [(f"gaussian:{n}", exact_mul(a, c), exact_mul(b, c)), (f"gaussian-coprime:{n}", a, b)]
    for n in range(20):
        a, b = (_gaussian_poly(rng, rng.randint(0, 6)) for _ in range(2))
        j, k = rng.randint(0, 5), rng.randint(0, 5)
        out.append((f"z-power:{n}", exact_mul(exact_pow(_Z, j), a), exact_mul(exact_pow(_Z, k), b)))
    out += [("z-power:monomials", exact_pow(_Z, 7), exact_pow(_Z, 3)), ("z-power:unit", _Z, exact_pow(_Z, 2))]
    line = ((-1, 0), (P0, 0))  # P0 z - 1
    for n in range(20):
        a, b, c = (_gaussian_poly(rng, rng.randint(1, 5)) for _ in range(3))
        out += [
            (f"p0-lc:{n}", exact_mul(a, ((P0, 0),)), exact_mul(b, c)),
            (f"p0-line:{n}", exact_mul(line, a), exact_mul(line, b)),
            (f"p0-shift:{n}", a, a[:-1] + ((a[-1][0] + P0, a[-1][1]),)),
        ]
    for u in ((2, 1), (1, 1), (3, 0), (0, 2)):
        for n in range(5):
            a, b, c = (_gaussian_poly(rng, rng.randint(1, 5)) for _ in range(3))
            out += [
                (f"content:{u}:{n}", exact_mul((u,), exact_mul(a, c)), exact_mul(((2, 1),), exact_mul(b, c))),
                (f"content-same:{u}:{n}", exact_mul((u,), c), exact_mul((u,), exact_mul(c, a))),
            ]
    for n in range(5):
        a = _gaussian_poly(rng, rng.randint(1, 5))
        out += [(f"constant:{n}", ((rng.randint(1, 9), rng.randint(-3, 3)),), a), (f"constant-right:{n}", a, ((7, 0),))]
    for kind in ("ladder_generic", "ladder_ramified"):
        draw = random.Random(f"{kind}:{SEED}")
        for degree in LADDER_DEGREES:
            for i in range(4):  # two documents of two maps each
                n, d = _ladder_map(draw, kind, degree)
                w = exact_primitive(RationalFunction.of_exact(n, d).derivative_numerator())
                name = f"{kind}:d{degree}:{i}"
                out += [
                    (f"{name}:N,D", n, d),
                    (f"{name}:N,N'", n, exact_derivative(n)),
                    (f"{name}:D,D'", d, exact_derivative(d)),
                    (f"{name}:W,W'", w, exact_derivative(w)),
                ]
    return out


# -- the fixture pairs --------------------------------------------------------------


def fixture_pairs() -> list[tuple[str, tuple, tuple]]:
    """(name, a, b) for each distinct pair the roots and bounds layers take a
    gcd of while every fixture runs through every command, and for the
    primitive p and p' of each polynomial whose multiple part is taken."""
    seen: dict[tuple, str] = {}
    op = ""
    gcd = reference_gcd()

    def note(a, b):
        if len(a) >= 2 and len(b) >= 2:
            seen.setdefault((a, b), op)

    def counted(a, b):
        note(a, b)
        return gcd(a, b)

    multiple_part = roots.multiple_part

    def counted_multiple_part(p):
        q = exact_primitive(p)
        note(q, exact_derivative(q))
        return multiple_part(p)

    commands = []
    for path in sorted(FIXTURES.glob("*.json")):
        if path.stem != "malformed":
            commands += [
                ["check", str(path)],
                ["ramify", str(path), "--component", "1"],
                ["ramify", str(path), "--component", "2"],
                ["bounds", str(path)],
                ["report", str(path)],
            ]
    for pair in ("six", "five"):
        commands.append(["unicity", str(FIXTURES / f"unicity_{pair}_a.json"), str(FIXTURES / f"unicity_{pair}_b.json")])
    patched = [(m, gcd.__name__) for m in (roots, bounds) if getattr(m, gcd.__name__, None) is gcd]
    try:
        for m, name in patched:
            setattr(m, name, counted)
        roots.multiple_part = counted_multiple_part
        for argv in commands:
            op = " ".join([argv[0], *(Path(a).stem if a.endswith(".json") else a for a in argv[1:])])
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
    finally:
        for m, name in patched:
            setattr(m, name, gcd)
        roots.multiple_part = multiple_part
    return [(f"fixture:{name}:{n}", a, b) for n, ((a, b), name) in enumerate(seen.items())]


def record(name: str, a, b, gcd, keep_inputs: bool = False) -> list:
    """The corpus entry of the pair (a, b): its inputs, kept in full where
    ``keep_inputs``, and the gcd ``gcd`` gives."""
    keep = sparse if keep_inputs else stored
    return [name, keep(a), keep(b), stored(gcd(a, b))]


def main() -> None:
    gcd = reference_gcd()
    records = [record(name, a, b, gcd) for name, a, b in drawn_pairs()]
    records += [record(name, a, b, gcd, keep_inputs=True) for name, a, b in fixture_pairs()]
    CORPUS.parent.mkdir(exist_ok=True)
    with CORPUS.open("w", encoding="ascii") as f:
        f.write(f'{{"seed": {SEED}, "records": [\n')
        f.write(",\n".join(json.dumps(r) for r in records))
        f.write("\n]}\n")


if __name__ == "__main__":
    main()
