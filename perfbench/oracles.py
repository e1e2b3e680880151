"""Reference values computed apart from the library under test.

Nothing here imports ``cvprivacy``: every quantity is derived from its
closed form or from a different numerical route (Hermitian eigenproblems,
Gauss-Legendre quadrature), so an output check compares two independent
computations.  Conventions match the library: interleaved (X1, P1, ...)
ordering, vacuum covariance equal to the identity.
"""

import math

import numpy as np


def omega(n_modes):
    """Symplectic form, the direct sum of n blocks [[0, 1], [-1, 0]]."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def symplectic_spectrum(cov):
    """Symplectic eigenvalues, ascending, through a Hermitian eigenproblem.

    With R the symmetric square root of cov, i R Omega R is Hermitian and
    its eigenvalues are +/- the symplectic eigenvalues.
    """
    w, V = np.linalg.eigh(cov)
    if w.min() <= 0.0:
        return np.zeros(cov.shape[0] // 2)
    root = (V * np.sqrt(w)) @ V.T
    vals = np.linalg.eigvalsh(1j * root @ omega(cov.shape[0] // 2) @ root)
    return np.sort(np.abs(vals))[::2]


def partial_transpose_cov(cov, n_a):
    """Covariance with the sign of every momentum after mode n_a flipped."""
    flip = np.ones(cov.shape[0])
    flip[2 * n_a + 1 :: 2] = -1.0
    return cov * np.outer(flip, flip)


def exponents(cov, coords):
    """(k_B, k_F) on the two measured X coordinates.

    k_B = 4 b / (a c - b^2) from the measured block [[a, b], [b, c]];
    k_F = u^T ((Omega cov^-1 Omega^T)_x^-1 - cov_x^-1) u with u = (1, 1).
    """
    ix = np.asarray(coords)
    gx = cov[np.ix_(ix, ix)]
    a, b, c = gx[0, 0], gx[0, 1], gx[1, 1]
    k_b = 4.0 * b / (a * c - b * b)
    om = omega(cov.shape[0] // 2)
    G = om @ np.linalg.solve(cov, om.T)
    u = np.ones(2)
    k_f = u @ (np.linalg.inv(G[np.ix_(ix, ix)]) - np.linalg.inv(gx)) @ u
    return float(k_b), float(k_f)


# -- symmetric family c_x = c_p = c ------------------------------------------


def symmetric_margins(lam, c):
    """Signed margins of the four region verdicts for (lam, c, c).

    Returns arrays (physical, nppt, individual, collective); each verdict
    holds where its margin is positive.  The security margins are only
    meaningful where the physical margin is nonnegative.
    """
    lam = np.asarray(lam, dtype=float)
    c = np.asarray(c, dtype=float)
    physical = lam * lam - 1.0 - c * c
    nppt = c - (lam - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        k_b = 4.0 * c / (lam * lam - c * c)
        k_f = 2.0 * (lam - c) - 2.0 / (lam + c)
    return physical, nppt, k_b - k_f, k_b - 2.0 * k_f


# -- post-selection window ----------------------------------------------------


def _window_masses(gx, x0, delta, nodes=64):
    """Unnormalized density mass on the (+, +) and (+, -) window squares.

    ``gx`` is the 2x2 covariance-matrix block of the measured X quadratures
    (probability covariance gx / 2, zero mean); the window is |X| in
    [x0 - delta, x0 + delta] on both sides, integrated with Gauss-Legendre
    quadrature.  By the symmetry of a zero-mean density the (-, -) square
    carries the same mass as (+, +), and (-, +) the same as (+, -).
    """
    prec = np.linalg.inv(np.asarray(gx, dtype=float) / 2.0)
    t, w = np.polynomial.legendre.leggauss(nodes)
    xs = x0 + delta * t
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    W = np.outer(w, w) * delta * delta

    def mass(sign):
        q = prec[0, 0] * X * X + 2.0 * prec[0, 1] * X * (sign * Y) + prec[1, 1] * Y * Y
        return float(np.sum(W * np.exp(-0.5 * q)))

    return mass(1.0), mass(-1.0)


def window_error_rate(gx, x0, delta):
    """Probability that the two signs differ, given both |X| in the window.

    As delta -> 0 the odds tend to exp(-k_B x0^2).
    """
    same, diff = _window_masses(gx, x0, delta)
    return diff / (same + diff)


def window_probability(gx, x0, delta):
    """Probability that a draw lands in the window on both sides."""
    same, diff = _window_masses(gx, x0, delta)
    det = np.linalg.det(np.asarray(gx, dtype=float) / 2.0)
    return 2.0 * (same + diff) / (2.0 * math.pi * math.sqrt(det))


def distilled_error(eps, n_rounds):
    """Error rate of an accepted repetition block: eps^N / (eps^N + (1-eps)^N)."""
    a = eps ** n_rounds
    return a / (a + (1.0 - eps) ** n_rounds)


# -- Fock certification -------------------------------------------------------


def displaced_pair_fidelity(cov, d):
    """Closed-form fidelity of the pair (cov, d), (cov, -d): exp(-d^T cov^-1 d)."""
    d = np.asarray(d, dtype=float)
    return math.exp(-float(d @ np.linalg.solve(cov, d)))
