"""The mean set inside the cube of ``cube_square`` is a curved surface.

With p deep in the square wing and q, r on the cube, the portion of the
mean set interior to the cube is the graph

    y = z (1 + h) / (x + h),   h = sqrt(x^2 + z^2),   0 < z < x < 1.

This script scans a vertical line at fixed (x, z) and watches the decision
flip exactly where the closed form predicts, then cross-checks a few points
taken directly on the graph.
"""

import math

import numpy as np

from meanset import general_deficit, load_bundled, recognize

cx, A = load_bundled("cube_square")

x, z = 0.6, 0.3
h = math.hypot(x, z)
y_star = z * (1 + h) / (x + h)
print(f"scan at x={x}, z={z}: closed-form surface height y* = {y_star:.6f}\n")
print(f"{'y':>6}  {'deficit':>10}  decision")
for y in np.linspace(0.15, 0.75, 13):
    rep = general_deficit(A, (x, y, z))
    mark = " <- on the surface" if abs(y - y_star) < 0.025 else ""
    decision = "member" if rep.value <= 1e-6 else "non-member"
    print(f"{y:6.3f}  {rep.value:10.6f}  {decision}{mark}")

print("\npoints taken exactly on the graph:")
for t in (0.05, 0.1, 0.2):
    p = (4 * t, (1 + 5 * t) / 3.0, 3 * t)
    r = recognize(A, p, tol=1e-6)
    print(f"  {tuple(round(c, 6) for c in p)} -> {r.decision}")
