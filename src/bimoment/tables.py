"""Bimoment tables, their minors, and biorthogonal polynomial pairs.

A bimoment table stores mu[n, m] = L(x^n | y^m) for a bilinear moment
functional L up to a finite order N. Biorthogonal polynomials (BOPs)
are two monic graded sequences p_n(x), s_n(y) with
L(p_n | s_m) = h_n * delta_{nm}; they exist iff every leading principal
minor Delta_n of the table is nonzero, and then h_n = Delta_{n+1}/Delta_n.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMinor, OutOfRange
from .polycore import CPoly

# provenance codes per entry
PROV_INPUT = 0
PROV_QUADRATURE = 1
PROV_RECURRENCE = 2

DEGENERACY_REL_TOL = 1e-12


@dataclass
class BimomentTable:
    """Dense (N+1) x (N+1) complex table of bimoments with provenance."""

    entries: np.ndarray
    provenance: np.ndarray = None

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("bimoment table must be square")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("bimoment table has non-finite entries")
        if self.provenance is None:
            self.provenance = np.full(self.entries.shape, PROV_INPUT, dtype=np.int8)
        else:
            self.provenance = np.asarray(self.provenance, dtype=np.int8)

    @property
    def size(self) -> int:
        """Largest stored order N (table is (N+1) x (N+1))."""
        return self.entries.shape[0] - 1

    def __getitem__(self, nm):
        n, m = nm
        return complex(self.entries[n, m])

    @staticmethod
    def identity(N: int) -> "BimomentTable":
        return BimomentTable(np.eye(N + 1, dtype=complex))

    def to_csv(self, err=None, comment: str = None) -> str:
        """Serialize as n,m,re,im rows at 17 significant digits, with an err
        column when per-entry errors are given and a leading '# comment'
        line when a comment is given."""
        buf = io.StringIO()
        if comment is not None:
            buf.write(f"# {comment}\n")
        buf.write("n,m,re,im\n" if err is None else "n,m,re,im,err\n")
        for n in range(self.size + 1):
            for m in range(self.size + 1):
                v = self.entries[n, m]
                buf.write(f"{n},{m},{v.real:.17g},{v.imag:.17g}")
                buf.write("\n" if err is None else f",{err[n, m]:.17g}\n")
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "BimomentTable":
        rows = []
        for line in text.strip().splitlines():
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("n,"):
                continue
            n_s, m_s, re_s, im_s = line.split(",")[:4]
            rows.append((int(n_s), int(m_s), float(re_s), float(im_s)))
        if not rows:
            raise ValueError("empty table CSV")
        N = max(max(r[0] for r in rows), max(r[1] for r in rows))
        ent = np.zeros((N + 1, N + 1), dtype=complex)
        for n, m, re, im in rows:
            ent[n, m] = re + 1j * im
        return BimomentTable(ent)


@dataclass
class BOPPair:
    """Monic biorthogonal sequences p_n(x), s_n(y) and their pairings h_n."""

    p: list  # of CPoly, p[n] monic of degree n
    s: list
    h: list  # of complex, h[n] = L(p_n | s_n)

    @property
    def order(self) -> int:
        return len(self.p) - 1


@dataclass
class RecurrenceSystem:
    """Coefficients of x*pi_n = gamma_n pi_{n+1} + sum_j a_j(n) pi_{n-j}
    and its y-side mirror, plus the degree-zero normalizations pi0, sigma0.

    a[n][j] holds a_j(n) for 0 <= j <= n (triangular), same for b.
    The associated functional pairs the monic sequences with
    h_0 = 1/(pi0*sigma0) and h_n = gamma_{n-1}*gamma_t_{n-1} for n >= 1.
    """

    gamma: list
    gamma_t: list
    a: list
    b: list
    pi0: complex = 1.0 + 0j
    sigma0: complex = 1.0 + 0j

    @property
    def order(self) -> int:
        """Number of recurrence levels stored (polynomials reach this degree)."""
        return len(self.gamma)

    def monic_transform(self):
        """Monic-recurrence data implied by this system.

        Returns (ahat, bhat, h) where x*p_n = p_{n+1} + sum_j ahat[n][j] p_{n-j}
        for the monic polynomials, and h[n] is the diagonal pairing chain
        (h[0] = 1/(pi0*sigma0), h[n] = gamma[n-1]*gamma_t[n-1]).
        """
        N = self.order
        ahat, bhat = [], []
        for n in range(N):
            ga = [complex(v) for v in self.a[n]]
            gb = [complex(v) for v in self.b[n]]
            arow, brow = [], []
            for j in range(n + 1):
                fac_a = np.prod([complex(self.gamma[k]) for k in range(n - j, n)]) if j else 1.0
                fac_b = np.prod([complex(self.gamma_t[k]) for k in range(n - j, n)]) if j else 1.0
                arow.append(ga[j] * fac_a)
                brow.append(gb[j] * fac_b)
            ahat.append(arow)
            bhat.append(brow)
        h = [1.0 / (complex(self.pi0) * complex(self.sigma0))]
        for n in range(1, N + 1):
            h.append(complex(self.gamma[n - 1]) * complex(self.gamma_t[n - 1]))
        return ahat, bhat, h

    def canonical(self) -> "RecurrenceSystem":
        """Equivalent system in the canonical form produced by
        extract_recurrence: the y-side carries unit gammas, the x-side
        gammas carry the diagonal pairings, and pi0 holds 1/mu_00."""
        ahat, bhat, h = self.monic_transform()
        return _canonical_from_monic(ahat, bhat, h)

    def monic_polynomials(self):
        """The monic sequences p_n, s_n generated by the recurrences."""
        ahat, bhat, _ = self.monic_transform()
        return _run_monic(ahat), _run_monic(bhat)


def _run_monic(ahat):
    """Generate monic polynomials from monic recurrence coefficients."""
    polys = [CPoly.one()]
    x = CPoly.x()
    for n in range(len(ahat)):
        nxt = x * polys[n]
        for j in range(n + 1):
            nxt = nxt - ahat[n][j] * polys[n - j]
        polys.append(nxt)
    return polys


def _canonical_from_monic(ahat, bhat, h) -> RecurrenceSystem:
    N = len(ahat)
    gamma = [h[n + 1] for n in range(N)]
    gamma_t = [1.0 + 0j] * N
    a = []
    for n in range(N):
        row = []
        for j in range(n + 1):
            fac = np.prod([gamma[k] for k in range(n - j, n)]) if j else 1.0
            row.append(ahat[n][j] / fac)
        a.append(row)
    return RecurrenceSystem(gamma=gamma, gamma_t=gamma_t, a=a, b=[list(r) for r in bhat],
                            pi0=1.0 / h[0], sigma0=1.0 + 0j)


def delta(table: BimomentTable, n: int) -> complex:
    """Leading principal n x n minor Delta_n (Delta_0 = 1 by convention).

    Row-pivoted elimination with row-norm scaling; the log magnitude is
    accumulated separately so large tables do not overflow prematurely.
    """
    if n < 0 or n > table.size + 1:
        raise OutOfRange(f"minor order {n} exceeds table size {table.size}")
    if n == 0:
        return 1.0 + 0j
    val, logmag = delta_scaled(table, n)
    return complex(val * np.exp(logmag))


def delta_scaled(table: BimomentTable, n: int):
    """Return (u, logmag) with Delta_n = u * exp(logmag), |u| ~ 1."""
    if n < 0 or n > table.size + 1:
        raise OutOfRange(f"minor order {n} exceeds table size {table.size}")
    if n == 0:
        return 1.0 + 0j, 0.0
    a = table.entries[:n, :n].astype(complex).copy()
    logmag = 0.0
    unit = 1.0 + 0j
    for i in range(n):
        norm = np.max(np.abs(a[i]))
        if norm > 0:
            a[i] /= norm
            logmag += np.log(norm)
    for col in range(n):
        piv = col + np.argmax(np.abs(a[col:, col]))
        if a[piv, col] == 0:
            return 0.0 + 0j, logmag
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            unit = -unit
        pval = a[col, col]
        logmag += np.log(abs(pval))
        unit *= pval / abs(pval)
        a[col + 1 :, col:] -= np.outer(a[col + 1 :, col] / pval, a[col, col:])
    return unit, logmag


def minor_scale(table: BimomentTable, n: int) -> float:
    """Geometric mean of row norms of the n x n minor (degeneracy scale)."""
    if n == 0:
        return 1.0
    norms = np.linalg.norm(table.entries[:n, :n], axis=1)
    norms = np.where(norms > 0, norms, 1.0)
    return float(np.exp(np.mean(np.log(norms))))


def pair_apply(table: BimomentTable, p: CPoly, s: CPoly) -> complex:
    """L(p | s) = sum_{i,j} p_i s_j mu_{ij}."""
    if p.degree > table.size or s.degree > table.size:
        raise OutOfRange("polynomial degree exceeds table size")
    if p.is_zero() or s.is_zero():
        return 0.0 + 0j
    pi = p.coeffs
    sj = s.coeffs
    return complex(pi @ table.entries[: len(pi), : len(sj)] @ sj)


def monic_bops(table: BimomentTable, N: int,
               degeneracy_tol: float = DEGENERACY_REL_TOL) -> BOPPair:
    """Monic biorthogonal pairs through degree N.

    Solves the n x n orthogonality systems for the non-leading
    coefficients (equivalent to the bordered-determinant formulas by
    Cramer's rule) and sets h_n = L(p_n | s_n). Raises DegenerateMinor
    when a leading minor is numerically zero.
    """
    if N > table.size:
        raise OutOfRange(f"requested order {N} exceeds table size {table.size}")
    mu = table.entries
    p = [CPoly.one()]
    s = [CPoly.one()]
    for n in range(1, N + 1):
        val, logmag = delta_scaled(table, n)
        if abs(val) * np.exp(logmag) <= degeneracy_tol * minor_scale(table, n):
            raise DegenerateMinor(n)
        # p_n: L(p_n | y^k) = 0 for k < n; unknowns are coeffs 0..n-1
        A = mu[:n, :n].T  # rows indexed by k, columns by i
        rhs = -mu[n, :n]
        cp = np.linalg.solve(A, rhs)
        p.append(CPoly(np.concatenate([cp, [1.0]])))
        # s_n: L(x^i | s_n) = 0 for i < n
        B = mu[:n, :n]
        rhs = -mu[:n, n]
        cs = np.linalg.solve(B, rhs)
        s.append(CPoly(np.concatenate([cs, [1.0]])))
    # h_N = Delta_{N+1}/Delta_N also needs the next minor nonzero
    val, logmag = delta_scaled(table, N + 1)
    if abs(val) * np.exp(logmag) <= degeneracy_tol * minor_scale(table, N + 1):
        raise DegenerateMinor(N + 1)
    h = [pair_apply(table, p[n], s[n]) for n in range(N + 1)]
    return BOPPair(p=p, s=s, h=h)


def extract_recurrence(table: BimomentTable, bops: BOPPair) -> RecurrenceSystem:
    """Recurrence data of the monic BOPs, in canonical form.

    The monic expansion coefficients are recovered through the pairings
    ahat_j(n) = L(x p_n | s_{n-j}) / h_{n-j} (mirror for bhat). The
    returned system stores the diagonal pairings h_{n+1} in gamma (with
    unit gamma_t), so that favard_reconstruct maps it back to this exact
    table; when every h_n = 1 this is the plain monic normalization.
    """
    N = bops.order
    if N < 1:
        return RecurrenceSystem([], [], [], [], pi0=1.0 / bops.h[0], sigma0=1.0)
    x = CPoly.x()
    ahat, bhat = [], []
    for n in range(N):
        if abs(bops.h[n]) == 0:
            raise DegenerateMinor(n, "h_n vanishes")
        xp = x * bops.p[n]
        ys = x * bops.s[n]  # same shift on the y side
        arow = [pair_apply(table, xp, bops.s[n - j]) / bops.h[n - j] for j in range(n + 1)]
        brow = [pair_apply(table, bops.p[n - j], ys) / bops.h[n - j] for j in range(n + 1)]
        ahat.append(arow)
        bhat.append(brow)
    return _canonical_from_monic(ahat, bhat, list(bops.h))
