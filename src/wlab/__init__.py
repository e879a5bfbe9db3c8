"""Weierstrass-data laboratory.

Tools for minimal surfaces in R^4 described by rational Weierstrass data
(h dz, g1, g2) on the punctured Riemann sphere: condition checks, curvature,
ramification counts, sharp value-distribution bounds, unicity comparisons,
and numeric surface construction.
"""

from wlab.tolerances import Tolerances

__all__ = ["Tolerances"]

__version__ = "0.1.0"
