"""Brute-force virtual-work validator, independent of the section-moment path.

The section is discretized into differential elements on a midpoint polar
grid.  Each material element is treated as a circumferential fibre of length
``L = beta (R + rho cos(theta))`` and tractive stiffness ``E dA / L`` with
``dA = rho d(rho) d(theta)``; its virtual work under the twist is
``E (dL)^2 / L * dA``, and the torque follows from equating the summed work
to ``T * alpha``.  The fibre stretch over alpha is written without
cancellation, ``(cos(theta + alpha) - cos(theta)) / alpha = -s`` with
``s = (2 sin(alpha/2) / alpha) sin(theta + alpha/2)``, so a cell's work over
alpha is ``E beta alpha s^2 rho^3 d(rho) d(theta) / (R + rho cos(theta))``.

The sum is factored: ``s`` depends on theta alone and ``rho^3 d(rho)`` on rho
alone, so only ``1 / (R + rho cos(theta))`` and the bite mask are
two-dimensional.  The rho sum of each theta column is one vector-matrix
product, taken over chunks of ``_CHUNK`` columns, which keeps memory at
O(n_rho * _CHUNK) for any grid.  The torque is then the 1-D sum over the
columns of ``s^2`` times the column sums.

No closed forms, no adaptive quadrature, no bite-boundary parametrization:
membership of a cell is decided directly by the distance of its center from
the bite center (law of cosines), which keeps this module an independent
cross-check of the main code path.  A cell near the bite circle counts by the
share of its sub-cell centers outside the bite, cutting the first-order
boundary error.  Only the columns and rows the bite can reach are masked: a
ray whose nearest approach to the bite center (``L |sin(theta - gamma)|``
ahead of the origin, ``L`` behind it) exceeds ``r_w`` plus the largest cell
diagonal has no cell the bite removes or cuts, and neither has a row whose
``rho`` plus its cell diagonal falls short of ``L - r_w``.

Determinism: the chunks and the order of every sum are fixed by the grid, so
a call gives the same bits each time for the same inputs and the same numpy
build.  The column sums are BLAS matrix-vector products; with OpenBLAS they
gave the same bits under 1, 2 and 4 threads (``tests/test_oracle.py`` checks
1 against 2).  Another BLAS may round them differently, in the last bits.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .geometry import SectionClass, WireRing, classify_section

_SUBCELLS = 8  # sub-grid per side of a cell near the bite circle
_CHUNK = 64  # theta columns per vector-matrix product
_MAX_SIDE = 4096  # cells per grid side; a cut 4096^2 section takes about 0.25 s


@dataclass(frozen=True)
class GridSpec:
    """Midpoint-grid resolution: cell counts along rho and theta, each in [8, 4096]."""

    n_rho: int = 400
    n_theta: int = 400

    def __post_init__(self):
        for n in (self.n_rho, self.n_theta):
            if not isinstance(n, numbers.Integral) or isinstance(n, bool):
                raise ValueError(f"grid sizes must be integers, got {n!r}")
        if self.n_rho < 8 or self.n_theta < 8:
            raise ValueError(
                f"grid must be at least 8x8, got {self.n_rho}x{self.n_theta}"
            )
        if self.n_rho > _MAX_SIDE or self.n_theta > _MAX_SIDE:
            raise ValueError(
                f"grid must be at most {_MAX_SIDE}x{_MAX_SIDE}, got {self.n_rho}x{self.n_theta}"
            )


def oracle_torque(ring: WireRing, alpha: float, grid: GridSpec | None = None) -> float:
    """Torque at twist angle ``alpha`` by direct summation over section cells [N*mm].

    Accuracy is governed purely by the grid.  When the bite cuts the section,
    cells whose center lies inside the bite contribute nothing, and cells near
    the bite circle count by the share of their sub-cells outside it.
    ``alpha`` must be a nonzero normal float (the quotient by alpha is what
    turns summed virtual work into a torque).
    """
    if not abs(alpha) >= sys.float_info.min:
        raise ValueError(f"oracle_torque requires a nonzero, non-subnormal twist angle, got {alpha}")
    if grid is None:
        grid = GridSpec()
    import numpy as np

    section = ring.section
    d_rho = section.r / grid.n_rho
    d_theta = 2.0 * np.pi / grid.n_theta
    rho = (np.arange(grid.n_rho) + 0.5) * d_rho
    theta = (np.arange(grid.n_theta) + 0.5) * d_theta
    cos_theta = np.cos(theta)
    rho3 = rho**3 * d_rho
    cut = classify_section(section) is SectionClass.PARTIAL_BITE
    if cut:
        mask_bite = _bite_mask(section, rho, theta, d_rho, d_theta)

    columns = np.empty(grid.n_theta)
    block = np.empty((_CHUNK, grid.n_rho))  # theta along axis 0, rho along axis 1
    for start in range(0, grid.n_theta, _CHUNK):
        stop = min(start + _CHUNK, grid.n_theta)
        inv = block[: stop - start]
        np.multiply.outer(cos_theta[start:stop], rho, out=inv)
        inv += ring.R
        np.reciprocal(inv, out=inv)
        if cut:
            mask_bite(inv, start, stop)
        columns[start:stop] = inv @ rho3

    stretch = 2.0 * math.sin(0.5 * alpha) / alpha * np.sin(theta + 0.5 * alpha)
    return ring.E * ring.beta * d_theta * alpha * float(stretch**2 @ columns)


def _bite_mask(section, rho, theta, d_rho, d_theta):
    """``mask(inv, start, stop)``: scale each cell of the theta columns
    ``start:stop``, the rows of ``inv``, by its share outside the bite, in place.

    A cell counts whole or not at all by its center, except within one cell
    diagonal of the bite circle, where the share of its sub-cell centers
    outside the bite decides.  Only the columns and rows the bite can reach
    are touched: outside them every share is 1.
    """
    import numpy as np

    L, r_w, gamma = section.L, section.r_w, section.gamma
    cos_bite = np.cos(gamma - theta)
    # rays whose nearest approach to the bite center is within r_w plus the largest cell diagonal
    nearest = np.where(cos_bite > 0.0, L * np.abs(np.sin(theta - gamma)), L)
    reached = nearest <= r_w + math.hypot(d_rho, section.r * d_theta)
    diag = np.hypot(d_rho, rho * d_theta)
    # rows with rho + diag < L - r_w lie farther than r_w + diag from the bite center
    first = int(np.searchsorted(rho + diag, L - r_w))
    rho, diag = rho[first:], diag[first:]
    # by the law of cosines a cell center lies at distance d or more from the
    # bite center when 2 L rho cos(theta - gamma) <= L^2 + rho^2 - d^2
    twice_product = 2.0 * L * rho
    sq_sum = L**2 + rho**2
    outside_max = sq_sum - r_w**2
    band_min = sq_sum - (r_w + diag) ** 2  # centers within one cell diagonal of the bite circle
    band_max = sq_sum - np.maximum(r_w - diag, 0.0) ** 2
    offsets = (np.arange(_SUBCELLS) + 0.5) / _SUBCELLS - 0.5
    sub_rho, sub_theta = (offsets * d_rho)[:, None], (offsets * d_theta)[:, None]
    buffer = np.empty((_CHUNK, rho.size))

    def mask(inv, start, stop):
        (hit,) = np.nonzero(reached[start:stop])
        if not hit.size:
            return
        # one slice over every reached column: a column between them that the bite
        # does not reach keeps a share of 1
        lo, hi = start + hit[0], start + hit[-1] + 1
        cells = inv[lo - start : hi - start, first:]
        product = buffer[: hi - lo]
        np.multiply.outer(cos_bite[lo:hi], twice_product, out=product)
        j, i = np.divmod(np.flatnonzero((product >= band_min) & (product <= band_max)), rho.size)
        edge = cells[j, i]  # band cells, before the center test
        np.multiply(cells, product <= outside_max, out=cells)
        if i.size:
            # sub-cell centers: rho offsets on axis 0, theta offsets on axis 1, band cells on axis 2
            p = rho[i] + sub_rho
            sub_centre = np.multiply((2.0 * L * p)[:, None, :], np.cos(gamma - (theta[lo + j] + sub_theta)))
            np.subtract((L**2 + p**2)[:, None, :], sub_centre, out=sub_centre)
            outside = (sub_centre >= r_w**2).reshape(_SUBCELLS**2, i.size)
            cells[j, i] = edge * (np.count_nonzero(outside, axis=0) / _SUBCELLS**2)

    return mask
