"""
A classical random walk that reproduces the quantum decay
=========================================================

The frame's orientation is modelled as a probability distribution on the
sphere; each measurement kicks it by a fixed angle alpha toward a random
azimuth.  With the fitted step

    alpha = arccos(1 - 2/(2j+1)^2)  (~ 1/j for large frames)

the walk's fidelity matches the quantum decay at every step and to all
orders in 1/j.  Any other step size gets the functional form right but the
rate wrong, which is the point: the form is classical, the magnitude is
quantum back-action.
"""

import numpy as np

from drfsim import classical_fidelity_series, evolve, fitted_step


def main():
    twice_j = 10
    n_max = 300

    alpha_fit = fitted_step(twice_j)
    print(f"2j = {twice_j}: fitted step = {alpha_fit:.6f} rad "
          f"(about 2/(2j+1) = {2 / (twice_j + 1):.6f})")

    quantum, _ = evolve(twice_j, n_max)
    walks = {
        "fitted": classical_fidelity_series(twice_j, alpha_fit, n_max)[0],
        "half step": classical_fidelity_series(twice_j, alpha_fit / 2, n_max)[0],
        "double step": classical_fidelity_series(twice_j, 2 * alpha_fit, n_max)[0],
    }

    print(f"\n{'step size':>12} {'max |F_C - F_Q|':>18}")
    for name, walk in walks.items():
        gap = np.max(np.abs(walk - quantum))
        print(f"{name:>12} {gap:>18.3e}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; skipping the figure")
        return

    fig, ax = plt.subplots(figsize=(6, 4))
    steps = np.arange(n_max + 1)
    ax.plot(steps, quantum, "k", lw=2, label="quantum map")
    styles = {"fitted": "C2--", "half step": "C0-.", "double step": "C3:"}
    for name, walk in walks.items():
        ax.plot(steps, walk, styles[name], label=f"walk, {name}")
    ax.set_xlabel("measurements n")
    ax.set_ylabel("average measurement fidelity")
    ax.legend()
    fig.tight_layout()
    fig.savefig("random_walk_fit.png", dpi=150)
    print("\nwrote random_walk_fit.png")


if __name__ == "__main__":
    main()
