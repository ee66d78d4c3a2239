#!/usr/bin/env python3
"""How close does the orbit's convex hull come to the ergodic limit?

For a period-two automorphism the hull of {x, S(x), S^2(x)} already contains
E(x) exactly.  For amplitude damping the orbit of the excited projection is a
ray shrinking toward 0, so the hull distance at budget a is exactly (1-g)^a:
honest geometric decay, never zero at any finite budget.
"""

import numpy as np

from neveukit import TracialAlgebra, convex_hull_residual, gallery


def main():
    algebra = TracialAlgebra.full_matrix(2)
    excited = algebra.operator([np.diag([0.0, 1.0])])
    by_name = {s.name: s.action for s in gallery()}

    swap = by_name["swap-automorphism"]
    res = convex_hull_residual(swap, excited, a=2)
    print("swap automorphism, budget a=2")
    print(f"  residual  {res.residual:.3e}")
    print(f"  weights   {np.round(res.weights, 4)}")
    print(f"  solved in {res.iterations} active-set steps")
    print()

    g = 0.5
    damping = by_name["amplitude-damping"]
    print("amplitude damping (g=0.5)")
    print("   a   residual      (1-g)^a")
    for a in (1, 2, 4, 8, 12):
        res = convex_hull_residual(damping, excited, a=a)
        print(f"{a:4d}   {res.residual:.6e}   {(1.0 - g) ** a:.6e}")


if __name__ == "__main__":
    main()
