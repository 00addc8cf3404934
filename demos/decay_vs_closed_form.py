"""
Fidelity decay of a measured reference frame
=============================================

Iterates the measurement channel from the fully aligned state and compares
the recorded fidelity with the closed-form geometric decay

    F(n) = 1/2 + [j/(2j+1)] (1 - 2/(2j+1)^2)^n.

The two agree to ~1e-14 at every step: the law is exact, not asymptotic.
"""

import numpy as np

from drfsim import evolve, half_life


def main():
    sizes = (2, 10, 40)
    series = {}
    print(f"{'2j':>4} {'half-life':>10} {'max |map - closed|':>20}")
    for twice_j in sizes:
        n_max = int(np.ceil(5 * half_life(twice_j)))
        fidelity, closed = evolve(twice_j, n_max)
        series[twice_j] = fidelity, closed
        gap = np.max(np.abs(fidelity - closed))
        print(f"{twice_j:>4} {half_life(twice_j):>10.2f} {gap:>20.3e}")

    print("\nfirst steps at 2j = 10:")
    fidelity, closed = series[10]
    for n in range(6):
        print(f"  n={n}: F_map={fidelity[n]:.12f}  F_closed={closed[n]:.12f}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; skipping the figure")
        return

    fig, ax = plt.subplots(figsize=(6, 4))
    for twice_j, (fidelity, closed) in series.items():
        steps = np.arange(len(fidelity))
        ax.plot(steps, fidelity, label=f"2j = {twice_j}")
        ax.plot(steps, closed, "k:", lw=0.8)
    ax.axhline(0.5, color="gray", lw=0.5)
    ax.set_xlabel("measurements n")
    ax.set_ylabel("average measurement fidelity")
    ax.set_xscale("symlog", linthresh=10)
    ax.legend()
    fig.tight_layout()
    fig.savefig("decay_vs_closed_form.png", dpi=150)
    print("\nwrote decay_vs_closed_form.png")


if __name__ == "__main__":
    main()
