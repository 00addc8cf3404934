"""Independent brute-force oracles used only by the tests.

Nothing here goes through the package's coupling table: projectors come from
a dense eigendecomposition of the total J^2 and coupling coefficients from
sector-by-sector diagonalisation, so agreement with the production code is a
genuine cross-check.
"""

import numpy as np

# qubit basis ordered (|0> = up, |1> = down)
QUBIT_SX = np.array([[0.0, 0.5], [0.5, 0.0]])
QUBIT_SY = np.array([[0.0, -0.5j], [0.5j, 0.0]])
QUBIT_SZ = np.array([[0.5, 0.0], [0.0, -0.5]])


def spin_operators(twice_j):
    """(Jx, Jy, Jz) on the spin-j space, basis m ascending."""
    d = twice_j + 1
    j = twice_j / 2.0
    m = np.arange(d) - j
    raised = np.zeros((d, d))
    for k in range(d - 1):
        raised[k + 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jx = (raised + raised.T) / 2.0
    jy = (raised - raised.T) / 2.0j
    jz = np.diag(m)
    return jx, jy, jz


def total_j_squared(twice_j):
    """J^2 on H_j (x) H_{1/2}; tensor index = 2*frame_index + qubit_index."""
    fx, fy, fz = spin_operators(twice_j)
    eye_frame = np.eye(twice_j + 1)
    eye_qubit = np.eye(2)
    jx = np.kron(fx, eye_qubit) + np.kron(eye_frame, QUBIT_SX)
    jy = np.kron(fy, eye_qubit) + np.kron(eye_frame, QUBIT_SY)
    jz = np.kron(fz, eye_qubit) + np.kron(eye_frame, QUBIT_SZ)
    return jx @ jx + jy @ jy + jz @ jz


def coupled_projectors(twice_j):
    """(Pi_plus, Pi_minus) from an eigendecomposition of J^2."""
    j2 = total_j_squared(twice_j)
    eigvals, eigvecs = np.linalg.eigh(j2)
    j_plus = (twice_j + 1) / 2.0
    j_minus = (twice_j - 1) / 2.0
    lam_plus = j_plus * (j_plus + 1)
    lam_minus = j_minus * (j_minus + 1)
    pi_plus = np.zeros_like(j2)
    pi_minus = np.zeros_like(j2)
    for lam, vec in zip(eigvals, eigvecs.T):
        proj = np.outer(vec, vec.conj())
        if abs(lam - lam_plus) < 1e-8:
            pi_plus += proj
        elif abs(lam - lam_minus) < 1e-8:
            pi_minus += proj
        else:
            raise AssertionError(f"unexpected J^2 eigenvalue {lam}")
    return pi_plus.real, pi_minus.real


def kraus_block(projector, a, b):
    """<a| Pi |b> as an operator on the frame space."""
    return projector[a::2, b::2]


def sector_cg(twice_j, twice_m, s_up, plus):
    """Signed coupling coefficient from diagonalising J^2 in one M sector.

    Phase convention: the up-qubit component of the |J, M> eigenvector is
    positive on the upper branch, the down-qubit component positive on the
    lower branch (Condon-Shortley for j (x) 1/2).
    """
    j2 = total_j_squared(twice_j)
    twice_M = twice_m + (1 if s_up else -1)
    members = []  # (tensor index, qubit index)
    for k in range(twice_j + 1):
        tm = 2 * k - twice_j
        for a, ts in ((0, 1), (1, -1)):
            if tm + ts == twice_M:
                members.append((2 * k + a, a))
    sub = np.array([[j2[r, c] for c, _ in members] for r, _ in members]).real
    eigvals, eigvecs = np.linalg.eigh(sub)
    j_target = (twice_j + 1) / 2.0 if plus else (twice_j - 1) / 2.0
    lam = j_target * (j_target + 1)
    col = int(np.argmin(np.abs(eigvals - lam)))
    if abs(eigvals[col] - lam) > 1e-8:
        return 0.0  # no such |J, M> state (M outside the branch's range)
    vec = eigvecs[:, col]
    components = {a: vec[i] for i, (_, a) in enumerate(members)}
    reference = components.get(0 if plus else 1, 0.0)
    if reference < 0:
        components = {a: -c for a, c in components.items()}
    return components.get(0 if s_up else 1, 0.0)


def two_node_scan(columns, target, step=1e-3, w_max=1.5):
    """Best ||w_i a_i + w_k a_k - target|| over a dense non-negative weight grid."""
    gram = columns.T @ columns
    cross = columns.T @ target
    base = float(target @ target)
    weights = np.arange(0.0, w_max + step / 2.0, step)
    wi, wk = np.meshgrid(weights, weights, indexing="ij")
    best = np.inf
    n = columns.shape[1]
    for i in range(n):
        for k in range(i + 1, n):
            sq = (
                wi**2 * gram[i, i]
                + 2.0 * wi * wk * gram[i, k]
                + wk**2 * gram[k, k]
                - 2.0 * wi * cross[i]
                - 2.0 * wk * cross[k]
                + base
            )
            best = min(best, float(sq.min()))
    return np.sqrt(max(best, 0.0))


def _legendre_with_derivative(n, x):
    """(P_n(x), P_n'(x)) by the three-term recurrence, in the dtype of x."""
    prev, cur = np.ones_like(x), x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur, n * (x * cur - prev) / (x * x - 1)


def legendre_coefficients_by_quadrature(twice_j, l_max):
    """c_l of p0 = (4j+1) ((1+x)/2)^(4j) by Gauss-Legendre quadrature.

    c_l = (2l+1)/2 * int_{-1}^{1} P_l(x) p0(x) dx.  The integrand is a
    polynomial of degree 4j + l, so enough nodes make the rule exact; the
    remaining error is rounding.  Nodes start from numpy's double-precision
    rule, are refined by Newton steps on P_n in ``np.longdouble`` and the
    weights 2 / ((1 - x^2) P_n'(x)^2) and all sums stay in that precision,
    which holds the result to ~1e-14 for 2j <= 100 where plain double
    precision loses ~1e-10 at large l.
    """
    big_n = 2 * twice_j
    n = (big_n + l_max) // 2 + 8
    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for _ in range(2):
        p_n, dp_n = _legendre_with_derivative(n, x)
        x = x - p_n / dp_n
    _, dp_n = _legendre_with_derivative(n, x)
    weighted = 2 / ((1 - x * x) * dp_n * dp_n) * (big_n + 1) * ((1 + x) / 2) ** big_n
    coeffs = np.empty(l_max + 1, dtype=np.longdouble)
    prev, cur = np.ones_like(x), x
    coeffs[0] = weighted.sum() / 2
    for ell in range(1, l_max + 1):
        coeffs[ell] = (2 * ell + 1) * (weighted * cur).sum() / 2
        prev, cur = cur, ((2 * ell + 1) * x * cur - ell * prev) / (ell + 1)
    return coeffs.astype(float)
