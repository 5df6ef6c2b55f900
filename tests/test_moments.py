"""The section moments M0, Mc, Ms behind every torque, and properties of T(alpha).

The conditioning grid covers the edges of the accepted domain where the
moments are hard to get right in floating point: a nearly flat groove
(r_w/r up to 1e6), a ring radius close to the wire radius (R/r down to
1 + 1e-6) and a thin ring (R/r = 1e4).  Its 40-digit values come from ``tests/moment_reference.py``
(mpmath, independent of ``wiretwist.torque``); rerun it to regenerate.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wiretwist.torque as torque_module
from wiretwist import SectionClass, SectionGeometry, WireRing, classify_section, torque_curve, torque_full

# (rw_ratio, x, gamma, R, M0, Mc, Ms) for r = 1, L = rw_ratio + x; None is the uncut circle.
CASES = [
    (10.0, 0.05, 0.5235987755982988, 2.0, 0.558636575565444, 0.05847186537672461, -0.014546877019771452),
    (10.0, 0.5, 0.5235987755982988, 2.0, 0.7087693679382121, 0.007086962381256834, -0.07572939517302235),
    (10.0, 0.99, 0.5235987755982988, 2.0, 0.861310389486599, 0.03998334962337421, -0.0005357203655162047),
    (100.0, 0.05, 0.5235987755982988, 2.0, 0.5495709686227712, 0.06319931046284909, -0.006965410208034621),
    (100.0, 0.5, 0.5235987755982988, 2.0, 0.7032966616072772, 0.008401829370241013, -0.07489294362777021),
    (100.0, 0.99, 0.5235987755982988, 2.0, 0.8612833484321712, 0.03997023100080109, -0.0005586567483103748),
    (10000.0, 0.05, 0.5235987755982988, 2.0, 0.5485619672679364, 0.06372142296899778, -0.006111983850771019),
    (10000.0, 0.5, 0.5235987755982988, 2.0, 0.7026692115661279, 0.00856282137139678, -0.0747800445909445),
    (10000.0, 0.99, 0.5235987755982988, 2.0, 0.8612801549157437, 0.039968683968192545, -0.000561362792301423),
    (1000000.0, 0.05, 0.5235987755982988, 2.0, 0.5485518650160482, 0.06372664561512308, -0.006103430501226665),
    (1000000.0, 0.5, 0.5235987755982988, 2.0, 0.7026629102543918, 0.008564448653267304, -0.07477889318299179),
    (1000000.0, 0.99, 0.5235987755982988, 2.0, 0.8612801227424497, 0.03996866838497093, -0.0005613900515654111),
    (None, None, None, 1.5, 1.2583399342460713, 0.11671663876348905, 0.0),
    (3.0, 0.5, 0.7853981633974483, 1.5, 1.0721679792070975, 0.13528558360181817, -0.11039588921043994),
    (3.0, 0.5, 2.6179938779914944, 1.5, 0.7909570866089948, -0.09044738979066759, 0.21339869062988656),
    (None, None, None, 1.05, 2.699988065941998, 0.8142323657796094, 0.0),
    (3.0, 0.5, 0.7853981633974483, 1.05, 2.4571629594694433, 0.8460244046398356, -0.14222753182420297),
    (3.0, 0.5, 2.6179938779914944, 1.05, 1.2782813202944248, -0.07546568235218984, 0.45694037849166524),
    (None, None, None, 1.001, 3.9199313795366875, 1.8314570951967095, 0.0),
    (3.0, 0.5, 0.7853981633974483, 1.001, 3.6686841896026054, 1.865522293679592, -0.14685921118007594),
    (3.0, 0.5, 2.6179938779914944, 1.001, 1.4015411288283837, -0.052342045750858074, 0.532746123204391),
    (None, None, None, 1.000001, 4.179916991224482, 2.0855281601814624, 0.0),
    (3.0, 0.5, 0.7853981633974483, 1.000001, 3.928491725338624, 2.119642283210855, -0.14695683918169133),
    (3.0, 0.5, 2.6179938779914944, 1.000001, 1.4045143535571851, -0.05167018779932817, 0.5346370096895335),
    (None, None, None, 10000.0, 0.00015707963320308845, 2.617993897626449e-13, 0.0),
    (3.0, 0.5, 0.7853981633974483, 10000.0, 0.0001200528499484546, 7.152236858164868e-10, -2.249627785414797e-05),
    (3.0, 0.5, 2.6179938779914944, 10000.0, 0.00012004846195318594, -1.124997519598915e-05, 1.9484517742235754e-05),
]


def _case_id(case) -> str:
    rw, x, gamma, R = case[:4]
    shape = "uncut" if rw is None else f"rw={rw}-x={x}-gamma={round(math.degrees(gamma))}"
    return f"{shape}-R={R}"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_moments_match_40_digit_reference(case):
    """Each moment to 1e-12 of M0, the positive moment that bounds |Mc| and |Ms|.

    Mc and Ms can vanish (by symmetry, or nearly, as Mc of a thin uncut ring,
    2.6e-13 of M0 at R/r = 1e4), so M0 is their scale.
    """
    rw, x, gamma, R, *want = case
    section = SectionGeometry.circular(1.0) if rw is None else SectionGeometry.from_ratios(rw, rw + x, gamma)
    got = torque_module._moments(WireRing(R, 1, 1.0, section))
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * want[0]


# Random accepted sections: r_w/r log-uniform in [0.05, 100], the bite depth
# x = L/r - r_w/r anywhere the constructors accept (L > r_w, L + r_w > r) up
# to 1.5, any bite angle, R/r log-uniform in [1.001, 1000].
_settings = settings(max_examples=60, deadline=None, derandomize=True)
rw_ratios = st.floats(math.log(0.05), math.log(100.0)).map(math.exp)
fractions = st.floats(1e-6, 1.0)
gammas = st.floats(-math.pi, math.pi)
ring_ratios = st.floats(math.log(1.001), math.log(1000.0)).map(math.exp)
alphas = st.floats(-1.5, 1.5).filter(lambda a: abs(a) > 1e-6)


def _ring(rw: float, fraction: float, gamma: float, R: float) -> WireRing:
    """Ring with r = 1 whose bite depth x is the given fraction of its accepted range."""
    lo = max(0.0, 1.0 - 2.0 * rw)
    x = lo + fraction * (1.5 - lo)
    return WireRing(R, 82, 210000.0, SectionGeometry.from_ratios(rw, rw + x, gamma))


@_settings
@given(rw_ratios, fractions, gammas, ring_ratios, alphas)
def test_mirror_symmetry(rw, fraction, gamma, R, alpha):
    """Mirroring the section in the ring plane: T(alpha; gamma) = -T(-alpha; -gamma)."""
    t = torque_full(_ring(rw, fraction, gamma, R), alpha)
    t_mirror = torque_full(_ring(rw, fraction, -gamma, R), -alpha)
    assert t == pytest.approx(-t_mirror, rel=1e-12, abs=0.0)


@_settings
@given(rw_ratios, fractions, gammas, ring_ratios, st.floats(1e-3, 1.5), st.integers(2, 25))
def test_curve_samples_equal_torque_full(rw, fraction, gamma, R, alpha_max, n_steps):
    ring = _ring(rw, fraction, gamma, R)
    for alpha, torque in torque_curve(ring, alpha_max, n_steps).samples:
        assert torque == pytest.approx(torque_full(ring, alpha), rel=1e-12, abs=0.0)


@_settings
@given(rw_ratios, st.floats(1.0, 3.0), gammas, ring_ratios, alphas)
def test_bite_missing_the_section_is_the_uncut_circle(rw, x, gamma, R, alpha):
    """x >= 1: the torque is the uncut circle's, bit for bit."""
    section = SectionGeometry.from_ratios(rw, rw + x, gamma)
    assume(classify_section(section) is SectionClass.FULL_CIRCLE)  # L - r_w >= r after rounding
    circle = WireRing(R, 82, 210000.0, SectionGeometry.circular(1.0))
    assert torque_full(WireRing(R, 82, 210000.0, section), alpha) == torque_full(circle, alpha)


@_settings
@given(st.floats(math.log(0.5), math.log(100.0)).map(math.exp), gammas, ring_ratios, alphas)
def test_continuous_across_deep_bite_boundary(rw, gamma, R, alpha):
    """T moves by O(dL) when L crosses sqrt(r^2 + r_w^2), where the bite turns deep."""
    boundary = math.sqrt(1.0 + rw * rw)
    inside, outside = (
        torque_full(WireRing(R, 82, 210000.0, SectionGeometry.from_ratios(rw, boundary + dL, gamma)), alpha)
        for dL in (-1e-9, 1e-9)
    )
    assert inside == pytest.approx(outside, rel=1e-7, abs=0.0)
