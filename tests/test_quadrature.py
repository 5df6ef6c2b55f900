"""The hard-coded 32-point Gauss-Legendre rule, and the quadrature policy kept importable."""

from __future__ import annotations

import math

from wiretwist import QuadratureSpec, SectionGeometry, WireRing, section_integral, torque_full
from wiretwist.quadrature import GAUSS_32

# (node, weight) of the rule's positive half to 30 digits: Newton's method on
# P_32 in 40-digit mpmath, the command in ``wiretwist/quadrature.py``.
POSITIVE_HALF_30_DIGITS = (
    ("0.0483076656877383162348125704405", "0.0965400885147278005667648300636"),
    ("0.144471961582796493485186373599", "0.0956387200792748594190820022041"),
    ("0.239287362252137074544603209166", "0.0938443990808045656391802376681"),
    ("0.33186860228212764977991680573", "0.0911738786957638847128685771116"),
    ("0.421351276130635345364119436172", "0.0876520930044038111427714627518"),
    ("0.506899908932229390023747474378", "0.0833119242269467552221990746043"),
    ("0.587715757240762329040745476402", "0.0781938957870703064717409188283"),
    ("0.663044266930215200975115168663", "0.0723457941088485062253993564785"),
    ("0.732182118740289680387426665091", "0.0658222227763618468376500637069"),
    ("0.79448379596794240696309729897", "0.0586840934785355471452836373002"),
    ("0.849367613732569970133693004968", "0.0509980592623761761961632446895"),
    ("0.896321155766052123965307243719", "0.0428358980222266806568786466061"),
    ("0.934906075937739689170919134835", "0.0342738629130214331026877322524"),
    ("0.964762255587506430773811928118", "0.0253920653092620594557525897892"),
    ("0.985611511545268335400175044631", "0.0162743947309056706051705622064"),
    ("0.997263861849481563544981128665", "0.00701861000947009660040706373885"),
)


class TestPlainFloatNodes:
    """The rule is a table of plain floats, built without numpy."""

    def test_gauss_table_matches_30_digit_values(self):
        """Each node and weight within 2 ulp of its 30-digit value, on both halves."""
        assert len(GAUSS_32) == 32
        for i, (x, w) in enumerate(POSITIVE_HALF_30_DIGITS):
            for node, weight in (GAUSS_32[16 + i], GAUSS_32[15 - i]):
                assert abs(abs(node) - float(x)) <= 2 * math.ulp(float(x)), (i, node, x)
                assert abs(weight - float(w)) <= 2 * math.ulp(float(w)), (i, weight, w)
            assert GAUSS_32[15 - i][0] == -GAUSS_32[16 + i][0]
        assert all(type(v) is float for pair in GAUSS_32 for v in pair)


class TestSpecValidation:
    def test_defaults(self):
        """QuadratureSpec builds with no arguments and changes no result."""
        spec = QuadratureSpec()
        assert spec == QuadratureSpec()
        section = SectionGeometry.from_ratios(3.0, 3.5, math.pi / 4)
        assert section_integral(section, spec) == section_integral(section)
        ring = WireRing(227.0, 82, 210000.0, section)
        assert torque_full(ring, 0.01, spec) == torque_full(ring, 0.01)
