"""
Keeping the measurement record
==============================

Averaging the record-conditioned states over all outcome strings is the same
as discarding the record and iterating the channel.  Individual records tell
different stories though: frames that happened to draw many lower-branch
outcomes end up noticeably worse.
"""

import numpy as np

from drfsim import (
    closed_form_fidelity,
    quantum_fidelity,
    sample_fidelity_batch,
    sample_trajectory,
)


def main():
    twice_j = 4
    n_steps = 20
    n_samples = 20000

    outcomes, _, final = sample_trajectory(twice_j, n_steps, seed=7)
    print(f"one trajectory at 2j = {twice_j}, n = {n_steps} (seed 7):")
    print("  outcomes:", "".join("+" if c > 0 else "-" for c in outcomes))
    print(f"  conditional fidelity: {quantum_fidelity(final):.6f}")

    fid, n_plus = sample_fidelity_batch(twice_j, n_steps, n_samples, seed=7)
    target = closed_form_fidelity(twice_j, n_steps)
    stderr = fid.std(ddof=1) / np.sqrt(n_samples)
    print(f"\n{n_samples} trajectories:")
    print(f"  mean conditional fidelity  {fid.mean():.6f} +- {stderr:.6f}")
    print(f"  record-discarded value     {target:.6f}")
    print(f"  spread across records      {fid.std(ddof=1):.6f}")
    print(f"  upper-branch outcomes      {n_plus.mean():.2f} of {n_steps} on average")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; skipping the figure")
        return

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.hist(fid, bins=60, density=True, alpha=0.75)
    ax.axvline(target, color="k", ls="--", label="record-discarded average")
    ax.axvline(fid.mean(), color="C3", lw=1, label="sample mean")
    ax.set_xlabel("conditional measurement fidelity")
    ax.set_ylabel("density over records")
    ax.legend()
    fig.tight_layout()
    fig.savefig("measurement_records.png", dpi=150)
    print("\nwrote measurement_records.png")


if __name__ == "__main__":
    main()
