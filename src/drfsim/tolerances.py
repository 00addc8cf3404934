"""Central table of numerical tolerances.

Every cross-route comparison and structural check in the package pins its
tolerance here rather than inventing one locally.
"""

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
# >= -KKT_TOL.
KKT_TOL = 1e-10

# A coherent-state grid must start at theta = 0 (arccos(1) is exactly 0, so
# only a rounding of zero is allowed); its last node, theta = pi, is held to
# STRUCTURE_TOL.
GRID_ORIGIN_TOL = 1e-15

# How far from 1 the total of a target population vector handed to the
# non-negative least-squares solver may be.
NNLS_TARGET_SUM_TOL = 1e-10

# Selftest bounds on the solver's residual: a well-conditioned random
# mixture is recovered essentially exactly, while a mixture of nearly
# collinear coherent columns is only recovered up to the KKT optimality gap.
NNLS_RECOVERY_TOL = 1e-8
NNLS_MIXTURE_TOL = 2e-5
