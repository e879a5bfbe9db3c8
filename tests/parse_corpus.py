"""The parse-identity corpus: expressions drawn from one seed, each with the
outcome ``parse_expression`` gave when the corpus was recorded.

An outcome is the exact reduced pair of the result, or the error: its class,
message and, for an ``ExpressionError``, its position.  A pair is written
sparse, one ``k:x:y`` entry per nonzero coefficient x + y i of z^k, in
hexadecimal; a pair longer than ``MAX_INLINE`` characters is kept as the
SHA-256 of that text.  ``tests/test_exprparse.py`` replays the corpus against
the current parser.

Record it again (only when a change of outcome is intended, and say so) with

    PYTHONPATH=src python tests/parse_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from wlab.exprparse import ExpressionError, parse_expression

SEED = 20060313
CORPUS = Path(__file__).resolve().parent / "data" / "parse_corpus.json"
MAX_INLINE = 120


def _sparse(p) -> str:
    return " ".join(f"{k}:{x:x}:{y:x}" for k, (x, y) in enumerate(p) if x or y)


def outcome(text: str) -> list:
    """The recorded form of what parsing ``text`` gives."""
    try:
        a, b = parse_expression(text).pair
    except ExpressionError as err:
        return ["ExpressionError", str(err), err.position]
    except ArithmeticError as err:
        return [type(err).__name__, str(err)]
    pair = f"{_sparse(a)} / {_sparse(b)}"
    if len(pair) > MAX_INLINE:
        return ["pair-sha256", hashlib.sha256(pair.encode()).hexdigest()]
    return ["pair", pair]


# -- the draw -------------------------------------------------------------------------

_MANTISSAS = (
    "0", "1", "7", "10", "0.5", ".5", "5.", "1.25", "000.0100", "0.0",
    "123456789012345678901234567890", "3.14159265358979323846",
    "1.7976931348623157", "1.7976931348623159", "4.9406564584124654", "2.4703282292062328",
    "2.4703282292062327",
)
_EXPONENTS = ("", "e0", "e308", "e-308", "e-320", "e-324", "e-330", "E+10", "e400", "e-400", "e-999", "e5000", "e-5000")
_SUFFIXES = ("", "i", "*z", "i*z")

_MALFORMED = (
    "", " ", ".", "..", "1.2.3", "1e", "1e+", "e5", ".e5", "1..2", "+1", "--1", "1--1", "*1", "1*", "()", "(", ")",
    "z^", "^2", "z^^2", "z^+", "z^-", "z^--1", "z^+3", "z^ 3", "z ^ -3", "z^(3)", "z^i", "z^0i", "z^2i", "z^1.5",
    "z^1.0", "z^1e1", "z^1e400", "z^1e-400", "z^.5", "z^10.", "(z)(z)", "2z", "z2", "zz", "z z", "2 i", "2i", "2ii",
    "i2", "ii", "2iz", "zi", "2 * i", "i^2", "-i^2", "(-i)^2", "z^-0", "z^+0", "-(", "-", "- -z", "z--z", "z+-z",
    "z-+z", "z*-z", "z/-z", "z^-(1)", "((z)", "(z))", "z)", ")z(", "1/0", "1/(z-z)", "0/0", "z/0", "0^-1", "0^0",
    "0^-65", "0^65", "(z-z)^-2", "1e5i", "1e5ii", ".5i", "5.i", "0i", "0i*z", "-0", "-0i", "z^0000003", "z^003.0",
    "inf", "nan", "Z", "x", "e", "E", "1_000", "1,5", "z**2", "z^^", "z^2^3", "(z^2)^3", "-z^-2", "2^-2^2",
)

# stray characters: Unicode digits, blanks str.isspace accepts, the near
# misses it refuses, and ASCII that is no token
_STRAYS = (
    "\u0663", "\uff11", "\u00b2", "\u2075", "\u0966", "\u00bd", "\u2212", "\u00d7", "\u2044", "\uff0b",
    "\u00a0", "\u2028", "\u3000", "\u0085", "\u001c", "\u001f", "\t", "\n", "\r", "\x0b", "\x0c", "\u2009", "\u202f",
    "\u200b", "\ufeff", "\u180e", "\u2060", "\x00", "\x7f",
    "#", "$", "%", "&", "!", "?", ",", ";", ":", "=", "<", "[", "]", "{", "_", "'", '"', "\\", "`", "~", "|", "@",
    "a", "Z", "I", "j",
)
_STRAY_TEMPLATES = ("{c}", "z{c}", "{c}z", "1{c}2", "z +{c}1", "({c}z)", "z^{c}2", "2{c}i", "3{c}*z", "z*{c}(1+z)")

_BASES = (
    "z", "2*z", "(2*z)", "(3*z^2)", "(i*z)", "(-i*z^3)", "(0.5*z)", "(1e300*z)", "(1e-300*z)", "(1e200*z)", "(z+1)",
    "(z/3)", "(1/z)", "(2)", "(0)", "(z-z)", "(1+i)", "((z^2+1)/(z-1))", "(0.5*2*z)", "(1e300*1e-300*z)",
    "(6*z/4)", "(z^64)", "(2i*z^2)", "(z^2/(2*z))",
)
_POWERS = (
    0, 1, 2, 3, -1, -2, 15, 63, 64, 65, -64, -65, 66, 100, -100, 300, 1000, 2048, 4096, 4097, 4100, 65536, 10**10,
)


def _literal(rng: random.Random) -> str:
    kind = rng.random()
    if kind < 0.4:
        out = str(rng.randint(0, 20))
    elif kind < 0.6:
        out = f"{rng.randint(0, 999)}.{rng.randint(0, 99):02d}"
    elif kind < 0.8:
        out = f"{rng.randint(1, 9)}e{rng.choice([-320, -300, -200, -13, -1, 1, 15, 200, 300, 308])}"
    else:
        out = rng.choice(["1e308", "1.7976931348623157e308", "1e-320", "5e-324", "0.5", "i", "2i", "0"])
    if out != "i" and not out.endswith("i") and rng.random() < 0.2:
        out += "i"
    return out


def _leaf(rng: random.Random) -> str:
    kind = rng.random()
    if kind < 0.35:
        return _literal(rng)
    if kind < 0.55:
        return "z"
    if kind < 0.8:
        return f"z^{rng.choice([0, 1, 2, 3, 5, 7, 20, 63, 64, 65, 100, -1, -2, -3, -65])}"
    return f"{_literal(rng)}*z^{rng.randint(0, 12)}"


def _random_expression(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.2:
        return _leaf(rng)
    kind = rng.random()
    if kind < 0.05:  # above the exponent cap, on a base of low degree
        return f"({rng.choice(['z', '2*z', '0.5*z^-1', 'i*z^2', 'z+1', '3'])})^{rng.choice([65, -65, 100, -100])}"
    a = _random_expression(rng, depth - 1)
    if kind < 0.15:
        return f"-{a}" if rng.random() < 0.5 else f"-({a})"
    if kind < 0.27:
        return f"({a})^{rng.choice([0, 1, 2, 3, -1, -2])}"
    b = _random_expression(rng, depth - 1)
    op = rng.choice("++--**/")
    pad = rng.choice(["", "", " ", "\t", "  "])
    if rng.random() < 0.5:
        return f"({a}){pad}{op}{pad}({b})"
    return f"{a}{pad}{op}{pad}{b}"


def _malformed(rng: random.Random, text: str) -> str:
    """A cut, a stray character, or a deleted or doubled character."""
    n = rng.randint(0, len(text))
    kind = rng.random()
    if kind < 0.3:
        return text[:n]
    if kind < 0.6:
        return text[:n] + rng.choice(_STRAYS + ("^", "(", ")", "*", "/", ".", "e", "i")) + text[n:]
    if kind < 0.8:
        return text[:n] + text[n + 1 :]
    return text[:n] + text[n : n + 1] * 2 + text[n + 1 :]


def _sum(rng: random.Random, n: int) -> str:
    terms = []
    for k in rng.sample(range(1, 4 * n + 1), n):
        c = rng.choice([str(rng.randint(1, 99)), _literal(rng), "i", "1"])
        terms.append(f"{c}*z^{k}" if rng.random() < 0.8 else f"z^{k}")
    out = terms[0]
    for t in terms[1:]:
        out += rng.choice([" + ", "+", " - ", "-"]) + t
    return out


def _ladder(rng: random.Random, degree: int) -> str:
    def poly(d: int) -> str:
        out = str(rng.randint(-9, 9))
        for k in range(1, d + 1):
            c = rng.randint(-9, 9)
            if c:
                out += f" {'-' if c < 0 else '+'} {abs(c)}*z^{k}"
        return out + f" + z^{d + 1}"

    m = rng.choice([1, 1, 2, 3])
    num = f"({poly(degree // m)})" + (f"^{m}" if m > 1 else "")
    return f"{num}/({poly(degree)})"


def expressions(seed: int = SEED) -> list[str]:
    """8,600 distinct expressions: fixed grids of literals, malformed input,
    stray characters and powers, then draws from ``seed``."""
    rng = random.Random(seed)
    out = [m + e + s for m in _MANTISSAS for e in _EXPONENTS for s in _SUFFIXES]
    out += _MALFORMED
    out += [t.format(c=c) for c in _STRAYS for t in _STRAY_TEMPLATES]
    out += [f"{b}^{e}" for b in _BASES for e in _POWERS]
    out += [f"z^{k}" for k in sorted(rng.sample(range(4101), 300))] + ["z^4096", "z^4097", "z^4100"]
    out += [f"{_literal(rng)}*z^{rng.randint(0, 4100)}" for _ in range(300)]
    out += [f"({_literal(rng)}*z^{rng.randint(1, 40)})^{rng.randint(-130, 130)}" for _ in range(300)]
    out += [_sum(rng, rng.choice([1, 2, 3, 5, 8, 13, 21, 34])) for _ in range(300)]
    out += [_sum(rng, n) for n in (64, 128, 256)]
    out += [_ladder(rng, rng.randint(1, 24)) for _ in range(150)]
    out = list(dict.fromkeys(out))
    seen = set(out)
    while len(out) < 8600:
        text = _random_expression(rng, rng.randint(1, 5))
        text = _malformed(rng, text) if rng.random() < 0.15 else text
        if text not in seen:
            seen.add(text)
            out.append(text)
    return out


def main() -> None:
    records = [[text, outcome(text)] for text in expressions()]
    CORPUS.parent.mkdir(exist_ok=True)
    with CORPUS.open("w", encoding="ascii") as f:
        f.write(f'{{"seed": {SEED}, "records": [\n')
        f.write(",\n".join(json.dumps(r) for r in records))
        f.write("\n]}\n")


if __name__ == "__main__":
    main()
