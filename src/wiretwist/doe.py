"""Full-factorial map of the section integral and the linear surrogate fit.

The section integral in dimensionless form, I/r^4, is evaluated on a grid of
(r_w/r, x, gamma) points with x = L/r - r_w/r, the parameter the integral
depends on almost linearly.  A one-parameter least-squares line

    I/r^4  ~=  pi/4 - c (1 - x),      clamped at pi/4 for x >= 1

is fitted through the anchor (x = 1, pi/4), which the grid rows with x >= 1
pin exactly.  The closed-form normal equation for the single unknown is

    c = sum_i (pi/4 - I_i) (1 - x_i) / sum_i (1 - x_i)^2

with (1 - x) clamped at 0, so anchor rows drop out of the fit naturally.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .errors import DegenerateFitError, OutOfValidatedRangeWarning
from .geometry import SectionGeometry
from .stiffness import ENGINEERING_FIT_SLOPE, VALIDATED_X_RANGE, _bite_x, _surrogate_integral, section_integral

CSV_HEADER = "rw_ratio,L_ratio,gamma_rad,x,I_over_r4"

DEFAULT_RW_RATIOS = (2.0, 2.5, 3.0)
DEFAULT_X_VALUES = (0.25, 0.5, 0.75, 1.0)
DEFAULT_GAMMAS = (math.pi / 4.0,)


def _fmt(x: float) -> str:
    """12 significant digits, the rendering of every number in CSV and JSON output."""
    return format(float(x), ".12g")


@dataclass(frozen=True)
class DoeRow:
    """One grid point of the factorial map (dimensionless, r = 1)."""

    rw_ratio: float
    L_ratio: float
    gamma: float
    I_over_r4: float

    @property
    def x(self) -> float:
        return self.L_ratio - self.rw_ratio

    @property
    def columns(self) -> tuple[float, float, float, float, float]:
        """The values of the CSV_HEADER columns, in order."""
        return (self.rw_ratio, self.L_ratio, self.gamma, self.x, self.I_over_r4)


@dataclass(frozen=True)
class DoeTable:
    """Ordered collection of factorial-map rows with CSV/JSON serialization."""

    rows: tuple[DoeRow, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_csv(self) -> str:
        """Render as CSV: dot decimals, 12 significant digits, LF line endings."""
        lines = [CSV_HEADER] + [",".join(_fmt(v) for v in row.columns) for row in self.rows]
        return "\n".join(lines) + "\n"

    def to_json_rows(self) -> list[dict]:
        keys = CSV_HEADER.split(",")
        return [{k: float(_fmt(v)) for k, v in zip(keys, row.columns)} for row in self.rows]

    @classmethod
    def from_csv(cls, text: str) -> "DoeTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].strip() != CSV_HEADER:
            raise ValueError(f"expected CSV header '{CSV_HEADER}'")
        rows = []
        for n, ln in enumerate(lines[1:], start=1):
            cells = ln.split(",")
            if len(cells) != 5:
                raise ValueError(f"CSV row {n} has {len(cells)} cells, expected 5: {ln.strip()!r}")
            try:
                values = [float(tok) for tok in cells]
            except ValueError:
                raise ValueError(f"CSV row {n} holds a non-numeric cell: {ln.strip()!r}") from None
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"CSV row {n} holds a non-finite value: {ln.strip()!r}")
            rw, lr, gamma, x, val = values
            if abs(x - (lr - rw)) > 1e-9 * max(1.0, abs(lr)):
                raise ValueError(
                    f"CSV row {n} has x={x:.12g}, but L_ratio - rw_ratio = {lr - rw:.12g}: {ln.strip()!r}"
                )
            rows.append(DoeRow(rw_ratio=rw, L_ratio=lr, gamma=gamma, I_over_r4=val))
        return cls(rows=tuple(rows))


def run_doe(
    rw_ratios=DEFAULT_RW_RATIOS,
    x_values=DEFAULT_X_VALUES,
    gammas=DEFAULT_GAMMAS,
) -> DoeTable:
    """Evaluate I/r^4 on the full-factorial (gamma, x, r_w/r) grid.

    Rows are ordered gamma-major, then by x, then by r_w/r.  Any failed
    evaluation aborts the whole table (all-or-nothing).
    """
    rows = []
    for gamma in gammas:
        for x in x_values:
            for rw in rw_ratios:
                section = SectionGeometry.from_ratios(rw, rw + x, gamma)
                value = section_integral(section).total
                rows.append(
                    DoeRow(rw_ratio=rw, L_ratio=rw + x, gamma=gamma, I_over_r4=value)
                )
    return DoeTable(rows=tuple(rows))


@dataclass(frozen=True)
class SurrogateFit:
    """One-parameter line through the fixed anchor (x = 1, pi/4).

    ``residuals`` are observed - fitted per table row, in I/r^4 units.
    """

    c: float
    residuals: tuple[float, ...] = field(repr=False)

    ANCHOR_X = 1.0
    ANCHOR_VALUE = math.pi / 4.0

    def predict(self, x: float) -> float:
        """Surrogate I/r^4 at parameter x, clamped at the anchor."""
        return _surrogate_integral(1.0, x, self.c)


def fit_surrogate(table: DoeTable) -> SurrogateFit:
    """Constrained least-squares slope through the anchor, in closed form.

    Rows with x >= 1 sit on the anchor and contribute nothing to the normal
    equation.  Raises DegenerateFitError when no row informs the slope.
    """
    anchor = SurrogateFit.ANCHOR_VALUE
    one_minus_x = [max(0.0, 1.0 - row.x) for row in table]
    denom = math.fsum(d * d for d in one_minus_x)
    if denom == 0.0:
        raise DegenerateFitError("all rows have x >= 1; the slope is unconstrained")
    c = math.fsum((anchor - row.I_over_r4) * d for row, d in zip(table, one_minus_x)) / denom
    residuals = tuple(row.I_over_r4 - (anchor - c * d) for row, d in zip(table, one_minus_x))
    return SurrogateFit(c=c, residuals=residuals)


def surrogate_integral(section: SectionGeometry, fit: "SurrogateFit | float" = ENGINEERING_FIT_SLOPE) -> float:
    """Surrogate section integral r^4 (pi/4 - c [1 - x]) [mm^4].

    ``fit`` may be a SurrogateFit or a plain slope coefficient (default: the
    engineering value 0.36).  Warns when x < 0.25, below the mapped range;
    for x > 1, or without a bite, the bracket clamps to the full-circle anchor.
    """
    x = _bite_x(section)
    if x < VALIDATED_X_RANGE[0] - 1e-12:
        warnings.warn(
            f"L/r - r_w/r = {x:.6g} is below the mapped range "
            f"(>= {VALIDATED_X_RANGE[0]}); the surrogate is extrapolating",
            OutOfValidatedRangeWarning,
            stacklevel=2,
        )
    slope = fit.c if isinstance(fit, SurrogateFit) else float(fit)
    return _surrogate_integral(section.r, x, slope)
