"""The numeric tolerances a command passes around, and the document float rule.

``Tolerances`` holds the cutoffs the analysis steps read from the record a
command gives them; ``--tolerance-scale`` scales them through
:meth:`Tolerances.scaled`, and the default is ``Tolerances()``.  Nothing
reads the environment, so a result depends only on its inputs and the
tolerances passed in.  Root multiplicities are read off exact square-free
factors over Q(i), every pole and zero order is the exponent of an exact
factor, residues at punctures are exact over Q(i), and the canonical form
of ``rational`` is exact: no tolerance decides any of them, nor the integer
and rational quantities downstream of them, the period verdict among them.
Conformality is an identity of the φ-forms, so no tolerance decides it
either, and a located root is certified by its inclusion disc, not by a
residual bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

# Fields of Tolerances that are genuine tolerances (scaled by ``scaled``).
# mesh_exclusion_factor is a geometric default, not a tolerance, and the
# quadrature target is a requested accuracy; both stay fixed under scaling.
# eps_period_rel decides a period only at a puncture placed at a located root
# of higher degree (library data); it stays scaled so that the eps_period a
# document prints keeps its bytes at every scale.
_SCALED = ("eps_pt", "eps_period_rel")


@dataclass(frozen=True)
class Tolerances:
    """Numeric cutoffs passed from a command to its analysis steps.

    Attributes:
        eps_pt: point identity on the sphere; two finite points closer than
            this are the same point (infinity only equals infinity).
        eps_period_rel: relative to the coefficient scale of the 1-forms,
            the ``eps_period`` a period report prints (until schema 3).
            The verdict reads the exact residues at every literal puncture
            and at infinity; ``eps_period`` bounds the real part of a
            period only at a puncture placed at a located root whose exact
            factor has higher degree, where the residues are floats.
        quad_rtol: requested relative accuracy of adaptive quadrature.
        mesh_exclusion_factor: exclusion radius around singular points when
            meshing, as a fraction of the region diameter.
    """

    eps_pt: float = 1e-8
    eps_period_rel: float = 1e-10
    quad_rtol: float = 1e-3
    mesh_exclusion_factor: float = 1e-3

    def scaled(self, factor: float) -> "Tolerances":
        """Return a copy with every tolerance multiplied by ``factor``."""
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError(f"tolerance scale must be positive and finite, got {factor!r}")
        kwargs = {}
        for f in fields(self):
            v = getattr(self, f.name)
            kwargs[f.name] = v * factor if f.name in _SCALED else v
        return Tolerances(**kwargs)


# The document float rule, declared in docs/format.md; fixed, with no flag or
# environment override.  ``report`` writes every float by it, and
# ``rational.SpherePoint`` orders points by the values it prints.
FLOAT_DECIMALS = 12  # nothing below 1e-12 absolute
FLOAT_DIGITS = 12  # significant digits


def _float_text(x: float) -> str:
    # round() is correctly rounded on every platform; + 0.0 turns -0.0 into 0.0
    return f"{round(x, FLOAT_DECIMALS) + 0.0:.{FLOAT_DIGITS}g}"


def format_float(x: float) -> float:
    """The value a document, CSV or OBJ file carries for a numeric-route float.

    Rounds to ``FLOAT_DECIMALS`` decimal places, then to ``FLOAT_DIGITS``
    significant digits; -0.0 becomes 0.0.  nan and +-inf pass through (the
    JSON encoder turns them into strings).
    """
    return float(_float_text(float(x)))
