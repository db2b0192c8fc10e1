"""Independent closed-form oracles used by the test suite.

These deliberately avoid the package's quadrature and recurrence code
paths: Gaussian bimoments come from the covariance recursion, the Airy
value from its Maclaurin series, one-sided power integrals from the
Gamma function, and recurrence defects from the functional equations in
polynomial arithmetic.
"""
import math

import numpy as np

from bimoment.polycore import CPoly
from bimoment.tables import pair_apply


def gaussian_bimoments(delta: float, sigma: float, N: int) -> np.ndarray:
    """Moments of exp(-(delta/2)x^2 - (sigma/2)y^2 + xy) over the real plane.

    mu[n, m] = mu00 * E[x^n y^m] for the centered Gaussian with covariance
    inv([[delta, -1], [-1, sigma]]); E follows the Isserlis recursion
    E[x^n y^m] = (n-1) Sxx E[x^(n-2) y^m] + m Sxy E[x^(n-1) y^(m-1)].
    """
    det = delta * sigma - 1.0
    if det <= 0:
        raise ValueError("quadratic form not positive definite")
    sxx = sigma / det
    sxy = 1.0 / det
    syy = delta / det
    mu00 = 2.0 * math.pi / math.sqrt(det)
    E = np.zeros((N + 3, N + 3))
    E[0, 0] = 1.0
    for total in range(1, 2 * (N + 1) + 1):
        for n in range(total + 1):
            m = total - n
            if n > N + 2 or m > N + 2:
                continue
            if n >= 1:
                acc = 0.0
                if n >= 2:
                    acc += (n - 1) * sxx * E[n - 2, m]
                if m >= 1:
                    acc += m * sxy * E[n - 1, m - 1]
                E[n, m] = acc
            else:  # n == 0, m >= 1: mirror recursion in y
                acc = 0.0
                if m >= 2:
                    acc += (m - 1) * syy * E[0, m - 2]
                E[0, m] = acc
    return mu00 * E[: N + 1, : N + 1]


def gaussian_generating(delta: float, sigma: float, z: complex, w: complex) -> complex:
    """F(z, w) = mu00 * exp((sigma z^2 + 2zw + delta w^2) / (2(delta sigma - 1)))."""
    det = delta * sigma - 1.0
    mu00 = 2.0 * math.pi / math.sqrt(det)
    return mu00 * np.exp((sigma * z * z + 2 * z * w + delta * w * w) / (2 * det))


def airy_maclaurin(z: complex, terms: int = 60) -> complex:
    """Ai(z) from its everywhere-convergent Maclaurin series."""
    c1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    c2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
    f = 0j
    g = 0j
    tf = 1.0 + 0j   # z^(3k)/(3k)! * prod(3j+1)
    tg = complex(z)  # z^(3k+1)/(3k+1)! * prod(3j+2)
    for k in range(terms):
        f += tf
        g += tg
        tf *= (3 * k + 1) * z ** 3 / ((3 * k + 1) * (3 * k + 2) * (3 * k + 3))
        tg *= (3 * k + 2) * z ** 3 / ((3 * k + 2) * (3 * k + 3) * (3 * k + 4))
    return c1 * f - c2 * g


def halfline_power_gaussian(lam: float) -> float:
    """int_0^inf x^lam exp(-x^2) dx = Gamma((lam+1)/2) / 2."""
    return math.gamma((lam + 1.0) / 2.0) / 2.0


def shifted_gaussian_moment(p: int, c: float) -> float:
    """int_R y^p exp(c y - y^2) dy, by differentiating exp(c^2/4) sqrt(pi)
    through the binomial shift y -> t + c/2."""
    base = math.sqrt(math.pi) * math.exp(c * c / 4.0)
    total = 0.0
    for k in range(0, p + 1):
        if (p - k) % 2:
            continue
        q = p - k
        # E[t^q] for the unnormalized exp(-t^2): Gamma((q+1)/2) pattern
        central = math.gamma((q + 1) / 2.0) / math.gamma(0.5)
        total += math.comb(p, k) * (c / 2.0) ** k * central
    return base * total


def quartic_realline_bimoments(N: int, terms: int = 80) -> np.ndarray:
    """int_R int_R x^n y^m exp(-x^4/4 - y^4/4 + xy) dx dy for n, m = 0..N.

    Expanding e^(xy) gives sum_k M_(n+k) M_(m+k) / k! with the one-sided
    moments M_j = int_R x^j e^(-x^4/4) dx = 2 4^((j-3)/4) Gamma((j+1)/4)
    for even j and 0 for odd j.
    """
    def M(j):
        return 0.0 if j % 2 else 2.0 * 4.0 ** ((j - 3) / 4.0) * math.gamma((j + 1) / 4.0)

    out = np.zeros((N + 1, N + 1))
    for n in range(N + 1):
        for m in range(N + 1):
            out[n, m] = sum(M(n + k) * M(m + k) / math.factorial(k) for k in range(terms))
    return out


def recurrence_defect(spec, table) -> float:
    """Largest relative defect of the functional equations on a table.

    With p = x^n and q = y^m the x side reads
    L(-B1 p' + A1 p | q) - L(B1 p | y q) = 0 and the y side
    L(p | -B2 q' + A2 q) - L(x p | B2 q) = 0. An instance counts when every
    term with a nonzero coefficient fits in the table, and its defect is
    |sum_t c_t mu_t| / max(1, max_t |c_t mu_t|).
    """
    N = table.size
    x, y = CPoly.x(), CPoly.x()
    worst = 0.0
    for n in range(N + 1):
        p = CPoly.monomial(n)
        for m in range(N + 1):
            q = CPoly.monomial(m)
            for (P, S), (Q, T) in (
                    ((-spec.B1 * p.deriv() + spec.A1 * p, q), (spec.B1 * p, y * q)),
                    ((p, -spec.B2 * q.deriv() + spec.A2 * q), (x * p, spec.B2 * q))):
                if max(P.degree, S.degree, Q.degree, T.degree) > N:
                    continue
                coeffs = np.zeros((N + 1, N + 1), dtype=complex)
                coeffs[: len(P.coeffs), : len(S.coeffs)] += np.outer(P.coeffs, S.coeffs)
                coeffs[: len(Q.coeffs), : len(T.coeffs)] -= np.outer(Q.coeffs, T.coeffs)
                total = pair_apply(table, P, S) - pair_apply(table, Q, T)
                scale = max(1.0, float(np.max(np.abs(coeffs * table.entries))))
                worst = max(worst, abs(total) / scale)
    return worst


def truncate_ray_one_node(spec, ray, gprobe) -> float:
    """Reference ray truncation: the ladder T, T 1.35, ... of at most 200
    lengths, probed one node per weight call and one per gprobe call. The
    length where |W g| has fallen 46 units of log below its running
    maximum; DivergentTail for a direction outside the decay sectors,
    after 61 rises in a row, or at the end of the ladder."""
    from bimoment.errors import DivergentTail
    from bimoment.weights import InRay, direction_decays

    u = ray.direction / abs(ray.direction)
    if not direction_decays(spec, u):
        raise DivergentTail(f"ray direction {u:.4f} is not inside a decay sector")
    x0 = ray.end if isinstance(ray, InRay) else ray.start
    T = max(1.0, (8.0 / max(abs(spec.v_top), 1e-12)) ** (1.0 / (spec.d + 1)))
    logmax = -np.inf
    grows = 0
    for _ in range(200):
        x = x0 + T * u
        lw = spec.log_weight_principal(np.array([x]))[0].real
        ga = float(np.max(np.abs(gprobe(np.array([x])))))
        logm = lw + (math.log(ga) if ga > 0 else -np.inf)
        if logm > logmax:
            grows += 1
            logmax = logm
        else:
            grows = 0
        if logm < logmax - 46.0:
            return T
        if grows > 60:
            raise DivergentTail("integrand keeps growing along the ray")
        T *= 1.35
    raise DivergentTail("truncation search exhausted")
