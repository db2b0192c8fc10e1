"""Complex polynomial arithmetic, root finding and partial fractions.

Polynomials are dense complex coefficient vectors in ascending degree
order; CPoly keeps them in canonical form (no trailing zeros, so the
last stored coefficient is the leading one). Degrees in this package
stay small (<= 10 or so), which is why dense companion-matrix root
finding is the right tool.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroPolynomial

# Default numerical knobs; every operation taking a tolerance defaults here.
ROOT_CLUSTER_TOL = 1e-8
ROOT_RESIDUAL_TOL = 1e-10


def _canon(coeffs) -> np.ndarray:
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex)).ravel()
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        return np.zeros(0, dtype=complex)
    return c[: nz[-1] + 1].copy()


@dataclass(frozen=True)
class CPoly:
    """Dense complex polynomial, coefficients ascending.

    CPoly([1, 0, 2]) is 1 + 2x^2; CPoly([]) (or CPoly([0])) is the zero
    polynomial with degree -1.
    """

    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _canon(self.coeffs))

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "CPoly":
        return CPoly([])

    @staticmethod
    def one() -> "CPoly":
        return CPoly([1.0])

    @staticmethod
    def x() -> "CPoly":
        return CPoly([0.0, 1.0])

    @staticmethod
    def monomial(k: int, coeff: complex = 1.0) -> "CPoly":
        c = np.zeros(k + 1, dtype=complex)
        c[k] = coeff
        return CPoly(c)

    @staticmethod
    def from_roots(roots, leading: complex = 1.0) -> "CPoly":
        p = CPoly([leading])
        for r in roots:
            p = p * CPoly([-r, 1.0])
        return p

    # -- structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    def coeff(self, k: int) -> complex:
        if 0 <= k < len(self.coeffs):
            return complex(self.coeffs[k])
        return 0.0 + 0.0j

    @property
    def leading(self) -> complex:
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return complex(self.coeffs[-1])

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n, dtype=complex)
        a[: len(self.coeffs)] += self.coeffs
        a[: len(other.coeffs)] += other.coeffs
        return CPoly(a)

    __radd__ = __add__

    def __neg__(self):
        return CPoly(-self.coeffs)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if np.isscalar(other):
            return CPoly(self.coeffs * complex(other))
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return CPoly.zero()
        return CPoly(np.convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = CPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __divmod__(self, den: "CPoly"):
        den = _coerce(den)
        if den.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        if self.degree < den.degree:
            return CPoly.zero(), self
        r = self.coeffs.astype(complex).copy()
        d = den.coeffs
        q = np.zeros(self.degree - den.degree + 1, dtype=complex)
        for k in range(len(q) - 1, -1, -1):
            q[k] = r[k + den.degree] / d[-1]
            r[k : k + den.degree + 1] -= q[k] * d
        return CPoly(q), CPoly(r[: den.degree] if den.degree > 0 else [])

    def __floordiv__(self, den):
        return divmod(self, den)[0]

    def __mod__(self, den):
        return divmod(self, den)[1]

    def __eq__(self, other):
        other = _coerce(other)
        return len(self.coeffs) == len(other.coeffs) and bool(
            np.all(self.coeffs == other.coeffs)
        )

    # -- calculus -----------------------------------------------------

    def deriv(self) -> "CPoly":
        if self.degree <= 0:
            return CPoly.zero()
        k = np.arange(1, len(self.coeffs))
        return CPoly(self.coeffs[1:] * k)

    def integ(self) -> "CPoly":
        """Antiderivative with zero constant term."""
        if self.is_zero():
            return CPoly.zero()
        k = np.arange(1, len(self.coeffs) + 1)
        return CPoly(np.concatenate([[0.0], self.coeffs / k]))

    def shift(self, c: complex) -> "CPoly":
        """Taylor coefficients around c, i.e. q with q(t) = p(c + t)."""
        out = self.coeffs.astype(complex).copy()
        n = len(out)
        # repeated synthetic division by (x - c)
        for i in range(1, n):
            for k in range(n - 2, i - 2, -1):
                out[k] += c * out[k + 1]
        return CPoly(out)

    def __call__(self, x):
        return poly_eval(self, x)

    def __repr__(self):
        if self.is_zero():
            return "CPoly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            terms.append(f"({c:.6g})x^{k}" if k else f"({c:.6g})")
        return "CPoly(" + " + ".join(terms) + ")"


def _coerce(p) -> CPoly:
    if isinstance(p, CPoly):
        return p
    if np.isscalar(p):
        return CPoly([complex(p)])
    return CPoly(p)


@dataclass(frozen=True)
class RootMultiset:
    """Roots with multiplicities, e.g. the zero set of a B_i."""

    roots: tuple  # of (location, multiplicity)

    def total(self) -> int:
        return sum(m for _, m in self.roots)

    def __len__(self):
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)


@dataclass(frozen=True)
class PartialFraction:
    """num/den = polynomial_part + sum coeff/(x - pole)^order."""

    polynomial_part: CPoly
    terms: tuple  # of (pole, order, coefficient)

    def __call__(self, x):
        val = poly_eval(self.polynomial_part, x)
        for pole, order, coeff in self.terms:
            val = val + coeff / (x - pole) ** order
        return val


def poly_eval(p: CPoly, x):
    """Horner evaluation; broadcasts over array arguments."""
    p = _coerce(p)
    if p.is_zero():
        return np.zeros_like(np.asarray(x, dtype=complex)) if np.ndim(x) else 0j
    acc = np.full_like(np.asarray(x, dtype=complex), p.coeffs[-1]) if np.ndim(x) else p.coeffs[-1]
    for c in p.coeffs[-2::-1]:
        acc = acc * x + c
    return acc if np.ndim(x) else complex(acc)


def poly_roots(p: CPoly, cluster_tol: float = ROOT_CLUSTER_TOL) -> RootMultiset:
    """All complex roots with multiplicities.

    Companion-matrix eigenvalues, then cluster-merging at cluster_tol
    (relative to max(1, |root|)) with a multiplicity-aware Newton polish
    of each cluster center. Residuals are checked against
    |p(r)| <= 1e-10 * max|coeff| * max(1, |r|)^deg.
    """
    p = _coerce(p)
    if p.is_zero():
        raise ZeroPolynomial("poly_roots of the zero polynomial")
    if p.degree == 0:
        return RootMultiset(())
    c = p.coeffs / p.coeffs[-1]
    n = p.degree
    comp = np.zeros((n, n), dtype=complex)
    if n > 1:
        comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -c[:-1]
    raw = np.linalg.eigvals(comp)
    raw = raw[np.argsort(raw.real, kind="stable")]

    # Eigenvalues of an m-fold root scatter by ~eps^(1/m), so clustering
    # proceeds with a radius that grows with the hypothesized multiplicity;
    # a global reconstruction check below rejects over-merging.
    def merge_radius(m: int, center: complex) -> float:
        return max(cluster_tol, 3.0 * (5e-15) ** (1.0 / m)) * max(1.0, abs(center))

    def cluster_with(radius_fn):
        clusters = [[r] for r in raw]
        for m_try in range(2, n + 1):
            merged_any = True
            while merged_any:
                merged_any = False
                for i in range(len(clusters)):
                    for k in range(i + 1, len(clusters)):
                        ci = np.mean(clusters[i])
                        ck = np.mean(clusters[k])
                        if abs(ci - ck) <= radius_fn(m_try, (ci + ck) / 2):
                            clusters[i].extend(clusters[k])
                            del clusters[k]
                            merged_any = True
                            break
                    if merged_any:
                        break
        return [(np.mean(c_), len(c_)) for c_ in clusters]

    clusters = cluster_with(merge_radius)

    dp = p.deriv()

    def polish(center, mult, reach):
        # a step that leaves the cluster's half-gap to its neighbours would
        # land on another root, where |p| is just as small
        r = center
        for _ in range(30):
            pv = poly_eval(p, r)
            dv = poly_eval(dp, r)
            if dv == 0:
                break
            step = mult * pv / dv
            if not np.isfinite(step):
                break
            r_new = r - step
            if abs(r_new - center) <= reach and abs(poly_eval(p, r_new)) <= abs(pv):
                r = r_new
            if abs(step) <= 1e-16 * max(1.0, abs(r)):
                break
        return r

    def finalize(clusters):
        polished = []
        for i, (c, m) in enumerate(clusters):
            gap = min((abs(c - o) for j, (o, _) in enumerate(clusters) if j != i),
                      default=np.inf)
            polished.append((polish(c, m, 0.5 * gap), m))
        merged = []
        for r, m in sorted(polished, key=lambda t: (t[0].real, t[0].imag)):
            for idx, (r0, m0) in enumerate(merged):
                if abs(r - r0) <= cluster_tol * max(1.0, abs(r0)):
                    merged[idx] = ((r0 * m0 + r * m) / (m0 + m), m0 + m)
                    break
            else:
                merged.append((r, m))
        rebuilt = CPoly.from_roots([r for r, m in merged for _ in range(m)],
                                   p.coeffs[-1])
        defect = float(np.max(np.abs(rebuilt.coeffs - p.coeffs)))
        return merged, defect

    scale = float(np.max(np.abs(p.coeffs)))
    merged, defect = finalize(clusters)
    if defect > 1e-7 * scale:
        # multiplicity hypothesis failed: fall back to plain clustering
        merged, defect = finalize(
            cluster_with(lambda m, c: cluster_tol * max(1.0, abs(c)))
        )

    for r, m in merged:
        residual = abs(poly_eval(p, r))
        bound = ROOT_RESIDUAL_TOL * scale * max(1.0, abs(r)) ** p.degree
        if residual > bound * 10 ** (m - 1):
            # multiple roots lose roughly one digit per extra multiplicity
            raise ArithmeticError(
                f"root polish failed: |p({r})| = {residual:.2e} > {bound:.2e}"
            )
    return RootMultiset(tuple((complex(r), int(m)) for r, m in merged))


def partial_fractions(num: CPoly, den: CPoly) -> PartialFraction:
    """Decompose num/den into polynomial part plus simple-pole terms.

    The order-1 coefficient at each pole is the residue. Pole locations
    and orders come from poly_roots(den).
    """
    num = _coerce(num)
    den = _coerce(den)
    if den.is_zero():
        raise ZeroPolynomial("partial fractions with zero denominator")
    q, r = divmod(num, den)
    if r.is_zero():
        return PartialFraction(q, ())
    roots = poly_roots(den)
    terms = []
    for pole, order in roots:
        # g = den / (x - pole)^order, expanded around the pole; the local
        # series of r/g gives the Laurent coefficients directly.
        g = den
        for _ in range(order):
            g = g // CPoly([-pole, 1.0])
        r_loc = r.shift(pole).coeffs
        g_loc = g.shift(pole).coeffs
        h = np.zeros(order, dtype=complex)
        g0 = g_loc[0]
        for k in range(order):
            acc = r_loc[k] if k < len(r_loc) else 0.0
            for i in range(k):
                acc -= h[i] * (g_loc[k - i] if k - i < len(g_loc) else 0.0)
            h[k] = acc / g0
        for o in range(1, order + 1):
            coeff = h[order - o]
            if coeff != 0:
                terms.append((complex(pole), o, complex(coeff)))
    return PartialFraction(q, tuple(terms))


def common_factor(p: CPoly, q: CPoly, tol: float = ROOT_CLUSTER_TOL) -> RootMultiset:
    """Shared roots of p and q with min multiplicities (numerical gcd by
    root matching at tolerance tol)."""
    p = _coerce(p)
    q = _coerce(q)
    if p.is_zero() and q.is_zero():
        raise ZeroPolynomial("common factor of two zero polynomials")
    if p.is_zero() or q.is_zero() or p.degree == 0 or q.degree == 0:
        return RootMultiset(())
    rp = poly_roots(p, tol)
    rq = poly_roots(q, tol)
    shared = []
    for rloc, rm in rp:
        for qloc, qm in rq:
            if abs(rloc - qloc) <= tol * max(1.0, abs(rloc)) * 100:
                shared.append(((rloc + qloc) / 2, min(rm, qm)))
                break
    return RootMultiset(tuple(shared))
