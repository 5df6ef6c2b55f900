"""Seeded inputs for the three workloads.

Shapes are given as ratios to the section radius ``r``: ``rw = r_w/r``,
``L = L/r`` and the bite angle ``gamma``.  The sampled domain is

    r_w/r in [0.5, 4] (log scale),  x = L/r - r_w/r in [0.05, 1.5],
    gamma in [0, 2 pi),

split into four classes that the program treats differently:

* ``uncut``   -- plain circle, no bite;
* ``full``    -- bite clear of the section, x >= 1;
* ``partial`` -- bite cuts the rim with L^2 > r^2 + r_w^2;
* ``deep``    -- L^2 < r^2 + r_w^2, where the production split is wrong.

Bite shapes are spread uniformly over the domain in (log r_w/r, x).  Every
workload draws its shapes in rounds with a fixed class mix: one uncut
shape, which has no extent in the domain, and the bite classes in
proportion to their share of its area (``domain_mix``): about 34% full,
46% partial and 20% deep.  Within a class, r_w/r follows the class's share
of each r_w/r and x is uniform across the class's band; both come from a
shifted low-discrepancy sequence, so the rounds a run completes cover every
class evenly whatever their number.  The shifts and gamma come from
``--seed``; the class mix, and therefore the share of deep bites, is the
same for every seed.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass

RW_MIN, RW_MAX = 0.5, 4.0
X_MIN, X_FULL_MAX = 0.05, 1.5


@dataclass(frozen=True)
class Shape:
    cls: str
    rw: float | None = None
    L: float | None = None
    gamma: float | None = None

    @classmethod
    def bite(cls, rw: float, L: float, gamma: float) -> "Shape":
        return cls(shape_class(rw, L), rw, L, gamma)

    def describe(self) -> str:
        if self.rw is None:
            return "uncut"
        return f"{self.cls} r_w/r={self.rw:.6g} L/r={self.L:.6g} gamma={self.gamma:.6g}"


@dataclass(frozen=True)
class Ring:
    R: float
    Z: int
    E: float
    r: float

    def describe(self) -> str:
        return f"R={self.R:.6g} Z={self.Z} E={self.E:.6g} r={self.r:.6g}"


# The paper's reference bearing (R, Z, E, r); the CLI's default ring.
REFERENCE_RING = Ring(227.0, 82, 210000.0, 3.3)


def shape_class(rw: float, L: float) -> str:
    if L - rw >= 1.0:
        return "full"
    return "deep" if L * L < 1.0 + rw * rw else "partial"


def x_deep(rw: float) -> float:
    """Largest x of the deep class for this r_w/r: L^2 = 1 + (r_w/r)^2."""
    return math.sqrt(1.0 + rw * rw) - rw


# The paper's reference section, the deepest corner of the domain (whose
# relative error in I, 24%, is the largest anywhere in it) and the two
# defect examples quoted for the deep-bite error (ROADMAP item 2).
ANCHORS = (
    Shape.bite(3.0, 3.5, math.pi / 4),
    Shape.bite(RW_MIN, RW_MIN + X_MIN, math.pi / 2),
    Shape.bite(3.0, 3.05, math.pi / 4),
    Shape.bite(1.2, 1.25, 0.0),
)
DEEP_ANCHORS = tuple(s for s in ANCHORS if s.cls == "deep")


def _radical_inverse(i: int, base: int) -> float:
    f, out = 1.0, 0.0
    while i:
        f /= base
        out += f * (i % base)
        i //= base
    return out


def _rw(u: float) -> float:
    """r_w/r at the log-scaled position u in [0, 1]."""
    return RW_MIN * (RW_MAX / RW_MIN) ** u


def band(cls: str, rw: float) -> tuple[float, float]:
    """The interval of x that a bite class covers at this r_w/r."""
    xd = x_deep(rw)
    return {"full": (1.0, X_FULL_MAX), "partial": (xd, 1.0), "deep": (X_MIN, xd)}[cls]


BITE_CLASSES = ("full", "partial", "deep")
_TABLE_POINTS = 1024


def _cumulative_width(cls: str) -> list[float]:
    """Band width of ``cls`` integrated over u = log(r_w/r) scaled to [0, 1] (trapezoids)."""
    widths = [band(cls, _rw(j / _TABLE_POINTS)) for j in range(_TABLE_POINTS + 1)]
    cum = [0.0]
    for (a0, b0), (a1, b1) in zip(widths, widths[1:]):
        cum.append(cum[-1] + 0.5 * ((b0 - a0) + (b1 - a1)) / _TABLE_POINTS)
    return cum


_CUMULATIVE = {cls: _cumulative_width(cls) for cls in BITE_CLASSES}
AREA = {cls: cum[-1] for cls, cum in _CUMULATIVE.items()}


def domain_mix(n_bites: int) -> tuple[tuple[str, int], ...]:
    """One uncut shape and ``n_bites`` bite shapes split by class area (largest remainder)."""
    total = sum(AREA.values())
    exact = {cls: n_bites * AREA[cls] / total for cls in BITE_CLASSES}
    counts = {cls: int(v) for cls, v in exact.items()}
    for cls in sorted(BITE_CLASSES, key=lambda c: counts[c] - exact[c])[: n_bites - sum(counts.values())]:
        counts[cls] += 1
    return (("uncut", 1),) + tuple((cls, counts[cls]) for cls in BITE_CLASSES)


def _u_for_share(cls: str, p: float) -> float:
    """The u below which a share ``p`` of the class's area lies."""
    cum = _CUMULATIVE[cls]
    target = p * cum[-1]
    j = min(max(bisect.bisect_left(cum, target), 1), _TABLE_POINTS)
    step = cum[j] - cum[j - 1]
    frac = (target - cum[j - 1]) / step if step > 0.0 else 0.0
    return (j - 1 + frac) / _TABLE_POINTS


class ShapeStream:
    """Endless shapes of one class, uniform over its area in low-discrepancy order.

    r_w/r follows the class's area (the base-3 van der Corput sequence
    through the inverse of its cumulative band width) and the position
    across the band at that r_w/r the base-2 one, each shifted by a seeded
    offset, so any prefix of the stream covers the class evenly; gamma is
    uniform.
    """

    def __init__(self, cls: str, rng: random.Random):
        self.cls = cls
        self.rng = rng
        self.shift = (rng.random(), rng.random())
        self.i = 0

    def next(self) -> Shape:
        if self.cls == "uncut":
            return Shape("uncut")
        self.i += 1
        q = (_radical_inverse(self.i, 2) + self.shift[0]) % 1.0
        p = (_radical_inverse(self.i, 3) + self.shift[1]) % 1.0
        rw = _rw(_u_for_share(self.cls, p))
        lo, hi = band(self.cls, rw)
        return Shape.bite(rw, rw + lo + q * (hi - lo), 2.0 * math.pi * self.rng.random())


def streams(rng: random.Random) -> dict[str, ShapeStream]:
    return {c: ShapeStream(c, rng) for c in ("uncut",) + BITE_CLASSES}


def random_ring(rng: random.Random) -> Ring:
    return Ring(
        R=50.0 * 8.0 ** rng.random(),
        Z=rng.randint(8, 120),
        E=rng.uniform(190e3, 215e3),
        r=rng.uniform(1.0, 6.0),
    )


def shape_rounds(mix: tuple[tuple[str, int], ...], rng: random.Random):
    """A function returning the next round: ``count`` shapes of every class.

    The anchors take the first slots of their class, so the first rounds
    keep the same class mix as the rest.
    """
    s = streams(rng)
    queued = {cls: [a for a in ANCHORS if a.cls == cls] for cls, _ in mix}

    def next_round() -> list[Shape]:
        return [queued[cls].pop(0) if queued[cls] else s[cls].next() for cls, count in mix for _ in range(count)]

    return next_round
