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

# Structural identities (hermiticity, unit trace, completeness sums) that
# hold to a few ulp per operation.
STRUCTURE_TOL = 1e-12

# Most negative eigenvalue / population a state may carry before it is
# rejected as non-positive.
EIGENVALUE_FLOOR = -1e-10

# Truncation wiggle allowed when a distribution is reconstructed from a
# finite Legendre series.
POSITIVITY_ALLOWANCE = 1e-6

# Active-set solver exit test: bound-set reduced gradients must all be
# >= -KKT_TOL.  At 1e-10, fits on the nearly collinear coherent columns
# stopped up to 7x above the minimum (2j = 6 ... 44); at 1e-13 they reach it.
KKT_TOL = 1e-13

# A coherent-state grid must start at theta = 0 (arccos(1) is exactly 0, so
# only a rounding of zero is allowed); its last node, theta = pi, is held to
# STRUCTURE_TOL.
GRID_ORIGIN_TOL = 1e-15

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
