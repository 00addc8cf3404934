"""
Quadratic longevity
===================

The fidelity's half-life grows as (ln 2 / 2)(2j+1)^2: doubling the frame's
spin buys roughly four times as many useful measurements.  The heuristic is
the step size of the equivalent walk: adding a small random vector to a
vector of length j tilts it by ~1/j, and a walk with step 1/j needs ~j^2
steps to wander a fixed angle.
"""

import numpy as np

from drfsim import fitted_step, half_life


def main():
    spins = [5 * 2**k for k in range(7)]  # twice_j = 5 ... 320
    print(f"{'2j':>5} {'alpha (rad)':>12} {'half-life':>12} {'ratio to half':>14}")
    previous = {}
    for twice_j in spins:
        life = half_life(twice_j)
        ratio = f"{life / previous[twice_j // 2]:.4f}" if twice_j // 2 in previous else ""
        print(f"{twice_j:>5} {fitted_step(twice_j):>12.6f} {life:>12.1f} {ratio:>14}")
        previous[twice_j] = life

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; skipping the figure")
        return

    sizes = np.arange(2, 400)
    lives = np.array([half_life(int(t)) for t in sizes])
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.loglog(sizes, lives, label="half-life")
    ax.loglog(sizes, np.log(2) * (sizes + 1.0) ** 2 / 2.0, "k:",
              label=r"$(\ln 2/2)(2j+1)^2$")
    ax.set_xlabel("frame size 2j")
    ax.set_ylabel("half-life (measurements)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("longevity_scaling.png", dpi=150)
    print("\nwrote longevity_scaling.png")


if __name__ == "__main__":
    main()
