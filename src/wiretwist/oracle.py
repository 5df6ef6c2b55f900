"""Brute-force virtual-work validator, independent of the quadrature path.

The section is discretized into differential elements on a midpoint polar
grid.  Each material element is treated as a circumferential fibre of length
``L = beta (R + rho cos(theta))`` and tractive stiffness ``E dA / L`` with
``dA = rho d(rho) d(theta)``; its virtual work under the twist is
``E (dL)^2 / L * dA``, and the torque follows from equating the summed work
to ``T * alpha``.

No closed forms, no adaptive quadrature, no bite-boundary parametrization:
membership of a cell is decided directly by the distance of its center from
the bite center (law of cosines), which keeps this module an independent
cross-check of the main code path.  Summation is numpy pairwise reduction,
so results are deterministic for a fixed grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import SectionKind, WireRing


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
    the bite contribute nothing.  ``alpha`` must be nonzero (the quotient
    by alpha is what turns summed virtual work into a torque).
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
    rho = (np.arange(grid.n_rho) + 0.5) * d_rho
    theta = (np.arange(grid.n_theta) + 0.5) * d_theta
    P, T = np.meshgrid(rho, theta, indexing="ij")

    if section.kind is SectionKind.WIRE_RACE:
        # squared distance of the cell center from the bite center
        dist_sq = section.L**2 + P**2 - 2.0 * section.L * P * np.cos(section.gamma - T)
        material = dist_sq >= section.r_w**2
    else:
        material = np.ones_like(P, dtype=bool)

    beta = ring.beta
    d_len = beta * P * (np.cos(T + alpha) - np.cos(T))
    fibre_len = beta * (ring.R + P * np.cos(T))
    work = ring.E * d_len**2 / fibre_len * P * d_rho * d_theta
    return float(np.sum(work * material)) / alpha
