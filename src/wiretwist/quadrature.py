"""One-dimensional numerical integration with an explicit policy object.

Two interchangeable backends:

* adaptive Simpson with local error control (default) -- cheap and accurate
  for the smooth integrands this package produces;
* composite Gauss-Legendre with panel doubling -- kept as an independent
  cross-check backend.

Both honor a relative tolerance and a hard refinement cap; adaptive Simpson
also has a fixed budget of integrand evaluations.  When the cap or the budget
is reached before the tolerance, ``QuadratureNotConvergedError`` is raised and
carries the best available estimate plus an error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import QuadratureNotConvergedError

_DEFAULT_SIMPSON_DEPTH = 40
# Integrand evaluations one adaptive Simpson refinement may spend.  At the
# default rel_tol the largest count seen over 1,600 seeded shapes of the
# benchmark's domain (section integral and torque moments) was 5,866, and
# rel_tol 1e-15 on the reference section takes about 25,000; a tolerance
# below roundoff would otherwise refine every leaf to full depth (2^40 nodes).
_SIMPSON_EVAL_BUDGET = 100_000
_DEFAULT_GAUSS_PANELS = 512
_GAUSS_PANEL_ORDER = 16
_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(_GAUSS_PANEL_ORDER)


class QuadratureScheme(Enum):
    ADAPTIVE_SIMPSON = "adaptive_simpson"
    GAUSS_LEGENDRE_COMPOSITE = "gauss_legendre_composite"


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration policy: backend, relative tolerance and refinement cap.

    ``max_depth_or_panels`` means recursion depth for the Simpson backend and
    the panel-count cap for the Gauss backend; ``None`` picks the backend
    default (depth 40 / 512 panels).
    """

    scheme: QuadratureScheme = QuadratureScheme.ADAPTIVE_SIMPSON
    rel_tol: float = 1e-10
    max_depth_or_panels: int | None = None

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1e-2):
            raise ValueError(f"rel_tol must lie in (0, 1e-2), got {self.rel_tol}")
        if self.max_depth_or_panels is not None and self.max_depth_or_panels < 4:
            raise ValueError(f"refinement cap must be >= 4, got {self.max_depth_or_panels}")

    @property
    def cap(self) -> int:
        if self.max_depth_or_panels is not None:
            return self.max_depth_or_panels
        if self.scheme is QuadratureScheme.ADAPTIVE_SIMPSON:
            return _DEFAULT_SIMPSON_DEPTH
        return _DEFAULT_GAUSS_PANELS


def integrate(
    f: Callable[[float], float], a: float, b: float, spec: QuadratureSpec | None = None
) -> tuple[float, float]:
    """Integrate ``f`` over ``[a, b]``; returns ``(value, error_estimate)``.

    Raises QuadratureNotConvergedError when the tolerance cannot be met
    within the refinement cap.
    """
    if spec is None:
        spec = QuadratureSpec()
    if a == b:
        return 0.0, 0.0
    if spec.scheme is QuadratureScheme.ADAPTIVE_SIMPSON:
        return _adaptive_simpson(f, a, b, spec.rel_tol, spec.cap)
    return _gauss_composite(f, a, b, spec.rel_tol, spec.cap)


def _coarse_scale(f, a, b) -> float:
    """Magnitude estimate used to turn the relative tolerance into an absolute one."""
    xs = np.linspace(a, b, 21)
    w = np.ones(21)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    est = sum(wi * f(xi) for wi, xi in zip(w, xs)) * (xs[1] - xs[0]) / 3.0
    return abs(est)


def _adaptive_simpson(f, a, b, rel_tol, max_depth) -> tuple[float, float]:
    scale = _coarse_scale(f, a, b)
    eps0 = rel_tol * max(scale, 1e-300)

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    # state: [accumulated |error|, evaluations left, reason refinement stopped early]
    state = [0.0, _SIMPSON_EVAL_BUDGET - 3, None]

    def recurse(a_, b_, fa, fm, fb, whole, eps, depth):
        m = 0.5 * (a_ + b_)
        lm, rm = 0.5 * (a_ + m), 0.5 * (m + b_)
        flm, frm = f(lm), f(rm)
        state[1] -= 2
        left = simpson(fa, flm, fm, m - a_)
        right = simpson(fm, frm, fb, b_ - m)
        delta = left + right - whole
        if abs(delta) <= 15.0 * eps:
            state[0] += abs(delta) / 15.0
            return left + right + delta / 15.0
        if depth >= max_depth or state[1] <= 0:
            state[0] += abs(delta) / 15.0
            budget = f"{_SIMPSON_EVAL_BUDGET} evaluations"
            state[2] = state[2] or (f"depth {max_depth}" if depth >= max_depth else budget)
            return left + right + delta / 15.0
        return recurse(a_, m, fa, flm, fm, left, eps / 2.0, depth + 1) + recurse(
            m, b_, fm, frm, fb, right, eps / 2.0, depth + 1
        )

    fa, fb = f(a), f(b)
    m0 = 0.5 * (a + b)
    fm0 = f(m0)
    whole = simpson(fa, fm0, fb, b - a)
    value = recurse(a, b, fa, fm0, fb, whole, eps0, 0)
    if state[2] is not None:
        raise QuadratureNotConvergedError(
            f"adaptive Simpson hit {state[2]} before reaching rel_tol={rel_tol}",
            best_estimate=value,
            error_bound=state[0],
        )
    return value, state[0]


def _gauss_panels(f, a, b, n_panels) -> float:
    edges = np.linspace(a, b, n_panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        total += half * sum(w * f(mid + half * x) for x, w in zip(_PANEL_X, _PANEL_W))
    return total


def _gauss_composite(f, a, b, rel_tol, max_panels) -> tuple[float, float]:
    n = 4
    prev = _gauss_panels(f, a, b, n)
    err = math.inf
    while 2 * n <= max_panels:
        n *= 2
        cur = _gauss_panels(f, a, b, n)
        err = abs(cur - prev)
        if err <= rel_tol * max(abs(cur), 1e-300):
            return cur, err
        prev = cur
    raise QuadratureNotConvergedError(
        f"Gauss-Legendre composite hit the {max_panels}-panel cap before reaching rel_tol={rel_tol}",
        best_estimate=prev,
        error_bound=err,
    )
