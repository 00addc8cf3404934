"""
Degraded frames are not mixtures of coherent states
===================================================

If the walk picture captured the full quantum state, an evolved frame would
be a convex combination of tilted coherent states.  It is not: already after
one measurement the best non-negative fit of the frame populations against a
dense family of coherent-state columns leaves a residual far above numerical
noise, and the residual barely moves when the candidate grid is doubled, so
it is not a discretisation artifact.

(For the smallest frame, 2j = 2, the populations wander back into the
feasible set at n = 2: three numbers carry little resolving power.  Larger
frames stay infeasible step after step.)
"""

from drfsim import convexity_test


def main():
    print(f"{'2j':>4} {'n':>3} {'nodes':>6} {'residual':>14} {'sum(w)-1':>12}")
    for twice_j in (2, 4, 8):
        nodes = 8 * (twice_j + 1)
        for n in (0, 1, 2, 5):
            r = convexity_test(twice_j, n, nodes)
            print(f"{twice_j:>4} {n:>3} {nodes:>6} {r.residual:>14.6e} "
                  f"{r.weight_sum_gap:>12.3e}")

    print("\ngrid-doubling stability at n = 1:")
    print(f"{'2j':>4} {'nodes':>6} {'residual':>14}")
    for twice_j in (2, 4, 8):
        for factor in (8, 16, 32):
            nodes = factor * (twice_j + 1)
            r = convexity_test(twice_j, 1, nodes)
            print(f"{twice_j:>4} {nodes:>6} {r.residual:>14.6e}")
        print()


if __name__ == "__main__":
    main()
