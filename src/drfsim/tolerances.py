"""Central table of numerical tolerances, and :func:`require`, the one check.

Every cross-route comparison and structural check in the package pins its
tolerance here rather than inventing one locally, and compares against it
through :func:`require`, so every failure reads the same way and names the
tolerance it broke.
"""

from .errors import InternalConsistencyError

# Comparisons against closed forms or independent routes; sized for double
# precision accumulated over ~1000 map steps.
ORACLE_TOL = 1e-10

# evolve's per-step |F_n - C_n|, C_n the computed closed form, which lies in
# [1/2, 1) and rises by at most an ulp: so F_n lies within MAP_TOL of [1/2, 1]
# and rises by at most 2 MAP_TOL + 1 ulp a step, inside STRUCTURE_TOL while
# MAP_TOL <= 4e-13 (range and decay need no check of their own; NaN fails).
# Worst measured: 8.9e-16 (2j = 2000, its default 6.9e6 steps); 1.1e-16
# against the correctly rounded exact-rational map (2j <= 20, n <= 200).
MAP_TOL = 1e-13

# evolve's and the coherent fits' |<T2>_n - (1 - 6/q^2)^n j(2j - 1)| / (2j^2) at
# each state they check: T2(m) = 3m^2 - j(j + 1) is the map's k = 2 eigenvector,
# as m is its k = 1 one.  |T2|/(2j^2) <= 1 weighs each population at most twice
# as |m|/q < 1/2 does in F, and the closed form is rounded as F's: twice MAP_TOL.
# Worst measured: 4.7e-16 (2j = 1000, 1.7e6 steps).  Moving 1e-3 of p_{j-1} to
# m = j and j - 2 at each jump keeps F, but gives 3.4e-10 there at step 64.
MODE2_TOL = 2e-13

# Structural identities (hermiticity, unit trace, completeness sums) that
# hold to a few ulp per operation.
STRUCTURE_TOL = 1e-12

# Most negative eigenvalue / population a state may carry before it is
# rejected as non-positive.
EIGENVALUE_FLOOR = -1e-10

# Dip below zero allowed in a walked distribution's reconstruction.  Its Legendre
# series is exact (c_l = 0 past 4j) and ring averages keep it non-negative, so only
# rounding is left: at most 3.8e-15 (2j <= 20), 8.3e-15 (2j = 40) and 5.2e-14
# (2j = 200) over n in {0, 1, 2, 2j, (2j)^2, 5 (2j)^2, 50 (2j)^2}.
POSITIVITY_ALLOWANCE = 1e-6

# Active-set solver exit test: bound-set reduced gradients must all be
# >= -KKT_TOL.  At 1e-10, fits on the nearly collinear coherent columns
# stopped up to 7x above the minimum (2j = 6 ... 44); at 1e-13 they reach it.
KKT_TOL = 1e-13

# How far from 1 the total of a target population vector handed to the
# non-negative least-squares solver may be.
NNLS_TARGET_SUM_TOL = 1e-10

# Selftest bounds on the solver's residual: a well-conditioned random
# mixture is recovered essentially exactly, while a mixture of nearly
# collinear coherent columns is only recovered as far as the columns'
# conditioning lets a least-squares solve reach.
NNLS_RECOVERY_TOL = 1e-8
NNLS_MIXTURE_TOL = 2e-5

# The CSV writer forms x 10^k, the 17-digit significand D of x before
# rounding (D < 10^17 < 2^57), as a double-double p + r: p = fl(x hi_k), and
# r = e + fl(x lo_k) with e Dekker's exact error of p (|e| <= 8) and
# 10^k = hi_k + lo_k.  |x lo_k| < D 2^-53 < 11.1 is rounded to within 2^-50
# and is off by at most 11.1 2^-53 through the rounding of lo_k; the sum,
# below 20, rounds to within 2^-49: under 4e-15 in all, far below this
# margin.  A rounding fraction within the margin of 1/2 may be an exact tie
# or lie on the wrong side of one; its chunk is formatted cell by cell instead.
CSV_TIE_MARGIN = 1e-12

# Smallest positive float the CSV writer formats in numpy: from 1e-99 up to
# 1e15 '%.16e' writes a two-digit exponent, so every such cell is 22 bytes;
# below it the exponent has three digits ('e-100'), so a chunk holding such a
# cell is formatted cell by cell.
CSV_FAST_MIN = 1e-99


def require(where: str, what: str, observed, name: str,
            error: type = InternalConsistencyError):
    """Raise ``error`` unless ``observed`` is within the tolerance ``name``:
    at or above a ``*_FLOOR``, at or below any other, never NaN.  ``name`` is looked
    up on every call; only a failure formats the message,
    ``<where>: <what> <observed> exceeds|is below <NAME> = <value>``."""
    bound = globals()[name]
    floor = name.endswith("_FLOOR")
    if (observed >= bound) if floor else (observed <= bound):
        return
    raise error(f"{where}: {what} {float(observed)!r} "
                f"{'is below' if floor else 'exceeds'} {name} = {bound:g}")
