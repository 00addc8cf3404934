"""Independent brute-force oracles used only by the tests.

Nothing here goes through the package's coupling table: projectors come from
a dense eigendecomposition of the total J^2 and coupling coefficients from
sector-by-sector diagonalisation, so agreement with the production code is a
genuine cross-check.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

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


def rotation(twice_j, beta):
    """exp(-i beta Jy), the rotation by ``beta`` about y on the spin-j space."""
    return expm(-1j * beta * spin_operators(twice_j)[1])


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


def kraus_operator(kraus, a, b, outcome):
    """Dense matrix of the Kraus operator E_ab^c of ``kraus``: its band on
    diagonal b - a."""
    return np.diag(kraus.bands[(a, b, outcome)], k=b - a)


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


def coupling_square(twice_j, twice_m, s_up, plus):
    """<J, m + s | j, m; 1/2, s>^2 as an exact Fraction, J = j +- 1/2.

    The textbook j (x) 1/2 table with q = 2j + 1: (j+m+1)/q and (j-m+1)/q on
    the upper branch for s = up and down, (j-m)/q and (j+m)/q on the lower.
    """
    if plus:
        num = twice_j + twice_m + 2 if s_up else twice_j - twice_m + 2
    else:
        num = twice_j - twice_m if s_up else twice_j + twice_m
    return Fraction(num, 2 * (twice_j + 1))


def exact_outcome_step(twice_j, populations, plus):
    """Unnormalised frame populations after one use that recorded J = j +- 1/2.

    The qubit is maximally mixed and the frame state diagonal, so
    p'(m') = 1/2 sum_ab <m' a|Pi|m b>^2 p(m) with m + s_b = m' + s_a, and the
    element is the product of two coupling coefficients.  Its total is the
    outcome's probability.  Populations are Fractions indexed by k = j + m.
    """
    out = [Fraction(0)] * (twice_j + 1)
    for k_out in range(twice_j + 1):
        tm_out = 2 * k_out - twice_j
        for a, ts_a in ((0, 1), (1, -1)):
            left = coupling_square(twice_j, tm_out, a == 0, plus)
            for b, ts_b in ((0, 1), (1, -1)):
                tm_in = tm_out + ts_a - ts_b
                if abs(tm_in) > twice_j:
                    continue
                right = coupling_square(twice_j, tm_in, b == 0, plus)
                out[k_out] += left * right * populations[(tm_in + twice_j) // 2] / 2
    return out


def exact_averaged_step(twice_j, populations):
    """Frame populations after one use with the outcome discarded, exactly.

    The p+/p- weighted sum of the two outcomes' normalised updates, i.e. the
    sum of the unnormalised populations of :func:`exact_outcome_step`.
    """
    plus = exact_outcome_step(twice_j, populations, True)
    minus = exact_outcome_step(twice_j, populations, False)
    return [a + b for a, b in zip(plus, minus)]


def exact_map_fidelities(twice_j, n_max):
    """F_0 ... F_n_max of the averaged map iterated exactly, as Fractions.

    The rates are w_k = r_k / q^2 with integers r_k = (k+1)(2j-k), q = 2j+1,
    so Q_n = P_n q^(2n) is an integer vector: Q_{n+1} = q^2 Q_n - t + t', with
    the integer flows t_k = r_k (Q_k - Q_{k+1}) leaving entry k and entering
    k+1, and F_n = 1/2 + sum_k (2k - 2j) Q_n[k] / (2 q^(2n+1)).
    """
    q2 = (twice_j + 1) ** 2
    rates = [(k + 1) * (twice_j - k) for k in range(twice_j)]
    Q = [0] * twice_j + [1]
    scale = twice_j + 1  # q^(2n+1)
    fidelities = []
    for _ in range(n_max + 1):
        twice_mean = sum((2 * k - twice_j) * v for k, v in enumerate(Q))
        fidelities.append(Fraction(1, 2) + Fraction(twice_mean, 2 * scale))
        flows = [r * (Q[k] - Q[k + 1]) for k, r in enumerate(rates)]
        Q = [q2 * v for v in Q]
        for k, t in enumerate(flows):
            Q[k] -= t
            Q[k + 1] += t
        scale *= q2
    return fidelities


def flux_loop(twice_j, n_max):
    """Fidelity of every step, one plain flux step at a time.

    From the aligned state, with rates w_k = (k+1)(2j-k)/q^2 across the bond
    k, k+1 (q = 2j+1): t_k = w_k (p_k - p_{k+1}), p_k <- p_k - t_k + t_{k-1},
    and F = 1/2 + <m>/q.
    """
    q = twice_j + 1
    k = np.arange(twice_j)
    rates = ((k + 1) * (twice_j - k)) / float(q * q)
    m = np.arange(q) - twice_j / 2.0
    states = np.zeros((n_max + 1, q))
    states[0, -1] = 1.0
    for n in range(1, n_max + 1):
        p = states[n - 1]
        flux = (p[:-1] - p[1:]) * rates
        states[n] = p
        states[n, :-1] -= flux
        states[n, 1:] += flux
    return 0.5 + (states @ m) / q


def jump_kernel_reference(rates, s):
    """Window storage of the bond operator G of s averaged map steps, by
    stepping every entry of every window.

    Row b starts as the column e_b - e_{b+1} in a window of 2s entries
    around bond b (entries b-s+1 ... b+s of the frame, with zero rate on
    bonds outside it); s - 1 plain flux steps over the whole window are
    summed with it and the sum is scaled by w_b.
    """
    bonds = len(rates)
    padded = np.zeros(bonds + 2 * s - 2)
    padded[s - 1 : s - 1 + bonds] = rates
    window_rates = np.lib.stride_tricks.sliding_window_view(padded, 2 * s - 1)
    column = np.zeros((bonds, 2 * s))
    column[:, s - 1] = 1.0
    column[:, s] = -1.0
    total = column.copy()
    for _ in range(s - 1):
        flux = (column[:, :-1] - column[:, 1:]) * window_rates
        column[:, :-1] -= flux
        column[:, 1:] += flux
        total += column
    return total * rates[:, None]


def coherent_columns_reference(twice_j, thetas):
    """Coherent-state populations, one column per angle, by whole-array steps.

    The expression ``coherent_columns`` evaluated before it was built in
    place: the log-pmf k log c^2 + (2j - k) log(1 - c^2) + log C(2j, k),
    c^2 = (1 + cos theta) / 2, formed for the interior columns only and
    exponentiated into a zeroed array, with each pole set one-hot.
    """
    thetas = np.asarray(thetas, dtype=float)
    prob_up = (1.0 + np.cos(thetas)) / 2.0
    interior = (prob_up > 0.0) & (prob_up < 1.0)
    k = np.arange(twice_j + 1)[:, None]
    inner = prob_up[interior]
    log_terms = k * np.log(inner) + (twice_j - k) * np.log1p(-inner)
    log_binomials = np.array([math.log(math.comb(twice_j, i)) for i in range(twice_j + 1)])
    columns = np.zeros((twice_j + 1, len(thetas)))
    columns[:, interior] = np.exp(log_binomials[:, None] + log_terms)
    columns[-1, prob_up == 1.0] = 1.0
    columns[0, prob_up == 0.0] = 1.0
    return columns


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


def full_ring_average(thetas, values, alpha, n_psi=256):
    """Ring average over all n_psi azimuth nodes by cubic interpolation on ``thetas``.

    Every node psi_k = 2 pi k / n_psi is evaluated on its own (no mirror
    symmetry).  Each ring point's cell i comes from np.searchsorted on the
    actual grid, its fraction is t = (theta' - thetas[i]) / h at the grid's
    uniform spacing h = pi / (N - 1), and the value is the four-point
    Lagrange sum over nodes i - 1 ... i + 2, a node beyond either end read
    at its even reflection (-1 -> 1, N -> N - 2, N + 1 -> N - 3).  Each ring
    is a plain mean.  So none of ring_average's shortcuts (the cell by
    arithmetic, the table of polynomial coefficients, Horner's rule, the
    half ring) is shared.  Rows go a block at a time to bound memory.
    """
    n = len(thetas)
    h = math.pi / (n - 1)
    cos_psi = np.cos(np.arange(n_psi) * (2.0 * math.pi / n_psi))
    out = np.empty(n)
    rows = max(1, (1 << 16) // n_psi)
    for start in range(0, n, rows):
        block = thetas[start:start + rows, None]
        ring = np.arccos(np.clip(
            np.cos(block) * math.cos(alpha)
            + np.sin(block) * math.sin(alpha) * cos_psi[None, :],
            -1.0, 1.0,
        ))
        cell = np.searchsorted(thetas, ring, side="right") - 1
        t = (ring - thetas[cell]) / h
        lagrange = {
            -1: -t * (t - 1.0) * (t - 2.0) / 6.0,
            0: (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
            1: -(t + 1.0) * t * (t - 2.0) / 2.0,
            2: (t + 1.0) * t * (t - 1.0) / 6.0,
        }
        total = np.zeros_like(t)
        for offset, weight in lagrange.items():
            node = np.abs(cell + offset)  # -1 -> 1
            node = np.where(node > n - 1, 2 * (n - 1) - node, node)
            total += weight * values[node]
        out[start:start + rows] = total.mean(axis=1)
    return out


def csv_reference(header, columns):
    """The CSV bytes of ``columns`` by ``%``: a row template repeated, over
    the cells in row order, ``%d`` for an integer and ``%.16e`` for a float;
    a list column's None is an empty cell.  The header line comes first
    unless ``header`` is None."""
    templates, cells = [], []
    for column in columns:
        if hasattr(column, "dtype"):
            templates.append("%d" if column.dtype.kind in "iu" else "%.16e")
            cells.append(column.tolist())
        else:
            templates.append("%s")
            cells.append(["" if v is None else ("%d" if isinstance(v, int) else "%.16e") % v
                          for v in column])
    line = ",".join(templates) + "\n"
    rows = (line * len(cells[0])) % tuple(itertools.chain.from_iterable(zip(*cells)))
    return ("" if header is None else ",".join(header) + "\n").encode() + rows.encode()
