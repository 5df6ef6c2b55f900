"""Mapping I/r^4 over the design range and fitting the engineering line.

Across the common design range the section integral depends almost linearly
on x = L/r - r_w/r alone.  A full-factorial sweep over (r_w/r, x) makes that
visible, and a one-parameter least-squares line anchored at the full-circle
value (x=1 -> pi/4) turns the map into the engineering formula.
"""

import math

import numpy as np

from wiretwist import fit_surrogate, run_doe

PI4 = math.pi / 4.0


def main():
    table = run_doe()
    print("full-factorial map of I/r^4 (gamma = 45 deg):\n")
    print(f"  {'r_w/r':>6} {'L/r':>6} {'x':>6} {'I/r^4':>12}")
    for row in table:
        print(f"  {row.rw_ratio:>6.2f} {row.L_ratio:>6.2f} {row.x:>6.2f} {row.I_over_r4:>12.9f}")

    xs = sorted({row.x for row in table})
    print("\nspread of I/r^4 within each x group (the r_w/r dependence):")
    for x in xs:
        vals = [row.I_over_r4 for row in table if row.x == x]
        print(f"  x = {x:4.2f}: spread = {max(vals) - min(vals):.6f}")
    print("  -> second-order against the x trend; a line in x suffices.\n")

    fit = fit_surrogate(table)
    residuals = np.asarray(fit.residuals)
    print(f"constrained least squares through the anchor (x=1, pi/4):")
    print(f"  fitted slope c = {fit.c:.6f}   (rounded engineering value: 0.36)")
    print(f"  residuals: max |r| = {np.max(np.abs(residuals)):.5f}, "
          f"rms = {np.sqrt(np.mean(residuals**2)):.5f}\n")

    print("resulting engineering formulas:")
    print(f"  I   ~= r^4 (pi/4 - {fit.c:.4f} [1 - x])")
    print(f"  K_T ~= (E r^4 / (Z R)) (pi^2/2 - {2 * fit.c:.4f} pi [1 - x]),  x = L/r - r_w/r")

    print("\nsurrogate vs map at the grid points:")
    for x in xs:
        predicted = float(fit.predict(x))
        worst = max(abs(row.I_over_r4 - predicted) / row.I_over_r4
                    for row in table if row.x == x)
        print(f"  x = {x:4.2f}: line gives {predicted:.6f}, worst grid error {worst * 100:.2f}%")


if __name__ == "__main__":
    main()
