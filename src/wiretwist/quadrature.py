"""The fixed 32-point Gauss-Legendre rule of every boundary walk.

Nodes and weights are hard-coded, rounded from 40-digit values (Newton's
method on the Legendre polynomial P_32), so the rule needs no numpy and
carries no bias from a double-precision construction.  The positive half
was printed by

    python -c "import mpmath as mp; mp.mp.dps = 40; n = 32; P = lambda x: mp.legendre(n, x); dP = lambda x: n * (x * P(x) - mp.legendre(n - 1, x)) / (x * x - 1); xs = [mp.findroot(P, mp.cos(mp.pi * (i - 0.25) / (n + 0.5)), solver='newton', df=dP) for i in range(n // 2, 0, -1)]; [print(repr(float(x)) + ',', repr(float(2 / ((1 - x * x) * dP(x) ** 2))) + ',') for x in xs]"
"""

from __future__ import annotations

from dataclasses import dataclass

# (node, weight) for the nodes in (0, 1); the rule is symmetric about 0.
_POSITIVE_HALF = (
    (0.04830766568773832, 0.0965400885147278),
    (0.1444719615827965, 0.09563872007927486),
    (0.23928736225213706, 0.09384439908080457),
    (0.33186860228212767, 0.09117387869576389),
    (0.42135127613063533, 0.08765209300440381),
    (0.5068999089322294, 0.08331192422694675),
    (0.5877157572407623, 0.07819389578707031),
    (0.6630442669302152, 0.0723457941088485),
    (0.7321821187402897, 0.06582222277636185),
    (0.7944837959679424, 0.058684093478535544),
    (0.84936761373257, 0.050998059262376175),
    (0.8963211557660521, 0.04283589802222668),
    (0.9349060759377397, 0.03427386291302143),
    (0.9647622555875064, 0.02539206530926206),
    (0.9856115115452684, 0.01627439473090567),
    (0.9972638618494816, 0.007018610009470096),
)
# (node, weight) pairs on [-1, 1], nodes ascending.
GAUSS_32 = tuple((-x, w) for x, w in reversed(_POSITIVE_HALF)) + _POSITIVE_HALF


@dataclass(frozen=True)
class QuadratureSpec:
    """Accepted and ignored (every integral is exact on a fixed rule) until the benchmark stops passing it."""
