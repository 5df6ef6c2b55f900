"""Quadrature backends: accuracy, tolerance handling, failure reporting."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from wiretwist import (
    QuadratureNotConvergedError,
    QuadratureScheme,
    QuadratureSpec,
    integrate,
)

from wiretwist.quadrature import _gauss_rule, _linspace

SIMPSON = QuadratureSpec(scheme=QuadratureScheme.ADAPTIVE_SIMPSON)
GAUSS = QuadratureSpec(scheme=QuadratureScheme.GAUSS_LEGENDRE_COMPOSITE)


class TestSpecValidation:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.scheme is QuadratureScheme.ADAPTIVE_SIMPSON
        assert spec.rel_tol == 1e-10
        assert spec.cap == 40

    def test_gauss_default_cap(self):
        assert GAUSS.cap == 512

    @pytest.mark.parametrize("tol", [0.0, -1e-3, 1e-2, 0.5])
    def test_rel_tol_bounds(self, tol):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=tol)

    def test_cap_minimum(self):
        with pytest.raises(ValueError):
            QuadratureSpec(max_depth_or_panels=3)


class TestAccuracy:
    @pytest.mark.parametrize("spec", [SIMPSON, GAUSS], ids=["simpson", "gauss"])
    def test_cubic(self, spec):
        value, err = integrate(lambda x: x**3, 0.0, 2.0, spec)
        assert value == pytest.approx(4.0, rel=1e-12)
        assert err >= 0.0

    @pytest.mark.parametrize("spec", [SIMPSON, GAUSS], ids=["simpson", "gauss"])
    def test_sine(self, spec):
        value, _ = integrate(math.sin, 0.0, math.pi, spec)
        assert value == pytest.approx(2.0, rel=1e-10)

    @pytest.mark.parametrize("spec", [SIMPSON, GAUSS], ids=["simpson", "gauss"])
    def test_exponential(self, spec):
        value, _ = integrate(math.exp, 0.0, 1.0, spec)
        assert value == pytest.approx(math.e - 1.0, rel=1e-10)

    def test_empty_interval(self):
        assert integrate(math.exp, 1.5, 1.5, SIMPSON) == (0.0, 0.0)

    def test_error_estimate_tracks_tolerance(self):
        loose = QuadratureSpec(rel_tol=1e-4)
        tight = QuadratureSpec(rel_tol=1e-12)
        f = lambda x: math.exp(-x) * math.sin(7.0 * x)
        # antiderivative: -e^-x (sin 7x + 7 cos 7x) / 50
        exact = (7.0 - math.exp(-2.0) * (math.sin(14.0) + 7.0 * math.cos(14.0))) / 50.0
        v_loose, _ = integrate(f, 0.0, 2.0, loose)
        v_tight, _ = integrate(f, 0.0, 2.0, tight)
        assert abs(v_tight - exact) <= abs(v_loose - exact) + 1e-15
        assert v_tight == pytest.approx(exact, rel=1e-11)

    def test_backends_agree(self):
        f = lambda x: math.sin(x) ** 2 * (2.0 - math.cos(3.0 * x)) ** 4
        vs, _ = integrate(f, -0.3, 1.9, SIMPSON)
        vg, _ = integrate(f, -0.3, 1.9, GAUSS)
        assert vs == pytest.approx(vg, rel=1e-10)


class TestNotConverged:
    def test_simpson_step_function(self):
        """A jump discontinuity cannot meet a 1e-10 tolerance: depth cap hit."""
        f = lambda x: 1.0 if x < 1.0 / 3.0 else 0.0
        with pytest.raises(QuadratureNotConvergedError) as info:
            integrate(f, 0.0, 1.0, SIMPSON)
        exc = info.value
        assert exc.best_estimate == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert exc.error_bound > 0.0

    def test_gauss_panel_cap(self):
        """Highly oscillatory integrand with a tiny panel cap."""
        spec = QuadratureSpec(
            scheme=QuadratureScheme.GAUSS_LEGENDRE_COMPOSITE,
            rel_tol=1e-10,
            max_depth_or_panels=8,
        )
        with pytest.raises(QuadratureNotConvergedError):
            integrate(lambda x: math.sin(300.0 * x) ** 2, 0.0, 2.0 * math.pi, spec)

    def test_simpson_smooth_never_fails_at_default_depth(self):
        value, _ = integrate(lambda x: math.cos(10.0 * x), 0.0, 3.0, SIMPSON)
        assert value == pytest.approx(math.sin(30.0) / 10.0, rel=1e-9)


class TestPlainFloatNodes:
    """The nodes are built without numpy but must equal numpy's bit for bit."""

    def _intervals(self):
        rng = random.Random(20)
        for _ in range(200):
            a = rng.uniform(-10.0, 10.0)
            yield a, a + rng.uniform(-7.0, 7.0)  # reversed about half the time
            yield a, a + rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-16.0, -6.0)  # tiny
        yield 0.0, 2.0 * math.pi
        yield 0.0, 5e-323  # a span whose step underflows to zero
        yield -2.5, -2.5 - 1e-300

    @pytest.mark.parametrize("n", [2, 3, 5, 21, 513])
    def test_linspace_matches_numpy(self, n):
        for a, b in self._intervals():
            assert _linspace(a, b, n) == np.linspace(a, b, n).tolist(), (a, b)

    def test_gauss_rule_is_leggauss(self):
        x, w = _gauss_rule(16)
        ref_x, ref_w = np.polynomial.legendre.leggauss(16)
        assert x == tuple(ref_x.tolist()) and w == tuple(ref_w.tolist())
        assert all(type(v) is float for v in x + w)

    @pytest.mark.parametrize("spec", [SIMPSON, GAUSS], ids=["simpson", "gauss"])
    def test_results_are_plain_floats(self, spec):
        value, err = integrate(math.exp, 0.0, 1.0, spec)
        assert type(value) is float and type(err) is float
