"""Brute-force virtual-work validator, independent of the section-moment path.

The section is discretized into differential elements on a midpoint polar
grid.  Each material element is treated as a circumferential fibre of length
``L = beta (R + rho cos(theta))`` and tractive stiffness ``E dA / L`` with
``dA = rho d(rho) d(theta)``; its virtual work under the twist is
``E (dL)^2 / L * dA``, and the torque follows from equating the summed work
to ``T * alpha``.

No closed forms, no adaptive quadrature, no bite-boundary parametrization:
membership of a cell is decided directly by the distance of its center from
the bite center (law of cosines), which keeps this module an independent
cross-check of the main code path.  A cell near the bite circle counts by the
share of its sub-cell centers outside the bite, cutting the first-order
boundary error.  Summation is numpy pairwise reduction, so results are
deterministic for a fixed grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import SectionKind, WireRing

_SUBCELLS = 8  # sub-grid per side of a cell near the bite circle


@dataclass(frozen=True)
class GridSpec:
    """Midpoint-grid resolution: cell counts along rho and theta."""

    n_rho: int = 400
    n_theta: int = 400

    def __post_init__(self):
        if self.n_rho < 8 or self.n_theta < 8:
            raise ValueError(
                f"grid must be at least 8x8, got {self.n_rho}x{self.n_theta}"
            )


def oracle_torque(ring: WireRing, alpha: float, grid: GridSpec | None = None) -> float:
    """Torque at twist angle ``alpha`` by direct summation over section cells [N*mm].

    Accuracy is governed purely by the grid; cells whose center lies inside
    the bite contribute nothing, and cells near the bite circle count by the
    share of their sub-cells outside it.  ``alpha`` must be nonzero (the
    quotient by alpha is what turns summed virtual work into a torque).
    """
    if alpha == 0.0:
        raise ValueError("oracle_torque requires a nonzero twist angle")
    if grid is None:
        grid = GridSpec()
    import numpy as np

    section = ring.section
    r = section.r
    d_rho = r / grid.n_rho
    d_theta = 2.0 * np.pi / grid.n_theta
    # rho is a column and theta a row: trig runs on 1-D tables and broadcasts
    rho = ((np.arange(grid.n_rho) + 0.5) * d_rho)[:, None]
    theta = (np.arange(grid.n_theta) + 0.5) * d_theta
    cos_theta = np.cos(theta)

    beta = ring.beta
    d_len = beta * rho * (np.cos(theta + alpha) - cos_theta)
    fibre_len = beta * (ring.R + rho * cos_theta)
    work = ring.E * d_len**2 / fibre_len * rho * d_rho * d_theta
    if section.kind is SectionKind.WIRE_RACE:
        L, r_w, gamma = section.L, section.r_w, section.gamma

        def dist_sq(p, t):  # squared distance of the point (p, t) from the bite center
            return L**2 + p**2 - 2.0 * L * p * np.cos(gamma - t)

        centre = dist_sq(rho, theta)
        # cells whose center lies within one cell diagonal of the bite circle
        diag = np.hypot(d_rho, rho * d_theta)
        i, j = np.nonzero((centre <= (r_w + diag) ** 2) & (centre >= np.maximum(r_w - diag, 0.0) ** 2))
        offsets = (np.arange(_SUBCELLS) + 0.5) / _SUBCELLS - 0.5
        sub_rho = (rho[i] + offsets * d_rho)[:, :, None]
        sub_theta = (theta[j][:, None] + offsets * d_theta)[:, None, :]
        share = np.mean(dist_sq(sub_rho, sub_theta) >= r_w**2, axis=(1, 2))
        boundary_work = work[i, j] * share
        work *= centre >= r_w**2
        work[i, j] = boundary_work
    return float(np.sum(work)) / alpha
