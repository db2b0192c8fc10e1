"""Reference values and correctness checks for the benchmark.

Everything here is computed without the package's quadrature, recurrence
or Favard code: Gaussian bimoments from the Wick pairing sum, the Airy
function from its Maclaurin series, saddle-point leading terms in closed
form, moment-recurrence defects straight from the defining equations, and
the canonical form of recurrence data from its definition. Each check
returns a list of problems; an empty list means the result is correct.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

GAUSS_RTOL = 1e-8        # Gaussian tables and F(z, w) against the closed form
AIRY_RTOL = 1e-8         # loop transforms against 2*pi*i*Ai(z)
SDC_RTOL = 0.05          # steepest-descent value against its leading term
RESIDUAL_TOL = 1e-6      # relative moment-recurrence defect
PROPAGATION_RTOL = 1e-6  # seeded propagation against a quadrature table
FAVARD_RTOL = 1e-8       # Favard round trip against the canonical data
RANK_RTOL = 1e-8         # singular values against the largest


def _double_factorial(k: int) -> int:
    """k!! for odd k >= -1 (with (-1)!! = 1)."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def gaussian_expectations(delta: float, sigma: float, N: int) -> np.ndarray:
    """E[x^n y^m], n, m <= N, for the centred normal law with density
    proportional to exp(-delta x^2/2 - sigma y^2/2 + x y).

    Wick's theorem: sum over k cross pairings of C(n,k) C(m,k) k! Sxy^k
    times the pairings left inside each variable.
    """
    det = delta * sigma - 1.0
    if det <= 0:
        raise ValueError("need delta*sigma > 1")
    sxx, sxy, syy = sigma / det, 1.0 / det, delta / det
    E = np.zeros((N + 1, N + 1))
    for n in range(N + 1):
        for m in range(N + 1):
            acc = 0.0
            for k in range(min(n, m) + 1):
                if (n - k) % 2 or (m - k) % 2:
                    continue
                acc += (math.comb(n, k) * math.comb(m, k) * math.factorial(k)
                        * sxy ** k
                        * _double_factorial(n - k - 1) * sxx ** ((n - k) // 2)
                        * _double_factorial(m - k - 1) * syy ** ((m - k) // 2))
            E[n, m] = acc
    return E


def gaussian_mass(delta: float, sigma: float) -> float:
    """Integral of exp(-delta x^2/2 - sigma y^2/2 + x y) over the plane."""
    return 2.0 * math.pi / math.sqrt(delta * sigma - 1.0)


def gaussian_table_error(delta: float, sigma: float, entries) -> float:
    """Largest entry error of a coupled-Gaussian table, each measured
    against its Cauchy-Schwarz scale sqrt(mu[2n, 0] * mu[0, 2m]) so that
    the entries that vanish by parity are held to the same standard."""
    entries = np.asarray(entries)
    N = entries.shape[0] - 1
    mass = gaussian_mass(delta, sigma)
    E = gaussian_expectations(delta, sigma, 2 * N)
    ref = mass * E[: N + 1, : N + 1]
    scale = mass * np.sqrt(np.outer(E[0::2, 0][: N + 1], E[0, 0::2][: N + 1]))
    return float(np.max(np.abs(entries - ref) / scale))


def gaussian_generating(delta: float, sigma: float, z: complex, w: complex) -> complex:
    """F(z, w) = mass * exp((sigma z^2 + 2 z w + delta w^2) / (2 (delta sigma - 1)))."""
    det = delta * sigma - 1.0
    return gaussian_mass(delta, sigma) * cmath.exp(
        (sigma * z * z + 2 * z * w + delta * w * w) / (2 * det))


def airy_ai(z: complex, terms: int = 80) -> complex:
    """Ai(z) from its Maclaurin series Ai = c1 f(z) - c2 g(z)."""
    c1 = 1.0 / (3.0 ** (2.0 / 3.0) * math.gamma(2.0 / 3.0))
    c2 = 1.0 / (3.0 ** (1.0 / 3.0) * math.gamma(1.0 / 3.0))
    z = complex(z)
    z3 = z ** 3
    tf, tg = 1.0 + 0j, z
    f = g = 0j
    for k in range(terms):
        f += tf
        g += tg
        tf *= z3 / ((3 * k + 2) * (3 * k + 3))
        tg *= z3 / ((3 * k + 3) * (3 * k + 4))
    return c1 * f - c2 * g


def monomial_leading_term(d: int, z: complex) -> complex:
    """Saddle-point leading term of the integral of exp(-x^(d+1)/(d+1) + x z)
    along the steepest-descent path through the saddle x0 = z^(1/d)
    (principal root): sqrt(2 pi / S''(x0)) exp(-S(x0))."""
    x0 = complex(z) ** (1.0 / d)
    s0 = -d / (d + 1) * x0 ** (d + 1)
    return cmath.sqrt(2 * math.pi / (d * x0 ** (d - 1))) * cmath.exp(-s0)


def _side_defect(P, Q, mu) -> float:
    """Worst relative defect of the relation obtained from
    L(-Q p' + P p | s) = L(Q p | y s) with p = x^n, s = y^m, over every
    (n, m) whose entries all lie inside the table (first index = x)."""
    N = mu.shape[0] - 1
    top = max(len(P), len(Q)) - 1
    rows = N + 1 - top
    if rows <= 0 or N < 1:
        return 0.0
    n = np.arange(rows)[:, None]
    padded = np.vstack([np.zeros((1, N + 1), dtype=complex), mu])  # padded[i+1] = mu[i]
    terms = []
    for j, c in enumerate(P):
        terms.append(c * mu[j:j + rows, :N])
    for j, c in enumerate(Q):
        terms.append(-c * mu[j:j + rows, 1:])
        terms.append(-n * c * padded[j:j + rows, :N])
    T = np.array(terms)
    scale = np.maximum(1.0, np.abs(T).max(axis=0))
    return float(np.max(np.abs(T.sum(axis=0)) / scale))


def recurrence_defect(A1, B1, A2, B2, entries) -> float:
    """Largest relative defect of both moment recurrences on a table;
    polynomials are ascending coefficient sequences."""
    mu = np.asarray(entries, dtype=complex)
    return max(_side_defect(A1, B1, mu), _side_defect(A2, B2, mu.T))


def numerical_rank(tables, rtol: float = RANK_RTOL) -> int:
    """Rank of the stacked, normalized, flattened tables."""
    rows = [np.asarray(t).ravel() / np.linalg.norm(t) for t in tables]
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    return int(np.sum(sv > rtol * sv[0]))


def canonical_recurrence(gamma, gamma_t, a, b, pi0, sigma0) -> dict:
    """Canonical form of recurrence data: monic expansion coefficients
    with the diagonal pairings h_{n+1} moved into the x-side gammas, unit
    y-side gammas, and pi0 = 1/h_0."""
    N = len(gamma)

    def monic(coeffs, gam):
        return [[complex(coeffs[n][j]) * np.prod([complex(g) for g in gam[n - j:n]])
                 for j in range(n + 1)] for n in range(N)]

    ahat, bhat = monic(a, gamma), monic(b, gamma_t)
    h = [1.0 / (complex(pi0) * complex(sigma0))] + \
        [complex(gamma[n]) * complex(gamma_t[n]) for n in range(N)]
    gamma_c = h[1:]
    a_c = [[ahat[n][j] / np.prod(gamma_c[n - j:n]) for j in range(n + 1)]
           for n in range(N)]
    return {"gamma": gamma_c, "gamma_t": [1.0 + 0j] * N, "a": a_c, "b": bhat,
            "pi0": 1.0 / h[0]}


def recurrence_mismatch(got, want: dict) -> float:
    """Largest relative difference between a RecurrenceSystem and
    canonical data, each value against max(1, |wanted value|)."""
    def rel(x, y):
        return abs(complex(x) - y) / max(1.0, abs(y))

    worst = rel(got.pi0, want["pi0"])
    for n in range(len(want["gamma"])):
        worst = max(worst, rel(got.gamma[n], want["gamma"][n]),
                    rel(got.gamma_t[n], want["gamma_t"][n]))
        for j in range(n + 1):
            worst = max(worst, rel(got.a[n][j], want["a"][n][j]),
                        rel(got.b[n][j], want["b"][n][j]))
    return worst


def within(name: str, value: float, limit: float) -> list:
    """[] when value <= limit, else one problem line (NaN fails)."""
    if value <= limit:
        return []
    return [f"{name} = {value:.3e} exceeds {limit:.0e}"]
