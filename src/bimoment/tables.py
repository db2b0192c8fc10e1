"""Bimoment tables, their minors, and biorthogonal polynomial pairs.

A bimoment table stores mu[n, m] = L(x^n | y^m) for a bilinear moment
functional L up to a finite order N. Biorthogonal polynomials (BOPs)
are two monic graded sequences p_n(x), s_n(y) with
L(p_n | s_m) = h_n * delta_{nm}; they exist iff every leading principal
minor Delta_n of the table is nonzero.

This module owns the map between a table and its triangular factors:
unpivoted, mu = L·D·U, the BOP coefficient rows are Cp = L⁻¹ (row n is p_n)
and Cs = U⁻ᵀ (row n is s_n), and h_n = D_n = Delta_{n+1}/Delta_n. The
monic recurrences generate Cp and Cs, and mu = Cp⁻¹·diag(h)·Cs⁻ᵀ.
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
_PROV_CODES = (PROV_INPUT, PROV_QUADRATURE, PROV_RECURRENCE)

DEGENERACY_REL_TOL = 1e-12


def complex_from_pair(v) -> complex:
    """A complex number from its JSON form [re, im]; ValueError for any
    other entry."""
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ValueError(f"entry {v!r} is not a pair [re, im]")
    return complex(v[0], v[1])


@dataclass
class BimomentTable:
    """Dense (N+1) x (N+1) complex table of bimoments with provenance, and
    the per-entry error estimates err when it has them (else None)."""

    entries: np.ndarray
    provenance: np.ndarray = None
    err: np.ndarray = None

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("bimoment table must be square")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("bimoment table has non-finite entries")
        if self.provenance is None:
            self.provenance = np.full(self.entries.shape, PROV_INPUT, dtype=np.int8)
        else:
            prov = np.asarray(self.provenance)
            if prov.shape != self.entries.shape or not np.all(np.isin(prov, _PROV_CODES)):
                raise ValueError("bimoment table provenance must be one known code per entry")
            self.provenance = prov.astype(np.int8)
        if self.err is not None:
            self.err = np.asarray(self.err, dtype=float)
            if self.err.shape != self.entries.shape or not np.all(self.err >= 0):
                raise ValueError("bimoment table errors must be one >= 0 per entry")

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

    def to_csv(self, comment: str = None) -> str:
        """Serialize as n,m,re,im rows at 17 significant digits, with an err
        column when the table has errors and a leading '# comment' line when
        a comment is given."""
        buf = io.StringIO()
        if comment is not None:
            buf.write(f"# {comment}\n")
        buf.write("n,m,re,im\n" if self.err is None else "n,m,re,im,err\n")
        for n in range(self.size + 1):
            for m in range(self.size + 1):
                v = self.entries[n, m]
                buf.write(f"{n},{m},{v.real:.17g},{v.imag:.17g}")
                buf.write("\n" if self.err is None else f",{self.err[n, m]:.17g}\n")
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
        if sorted(r[:2] for r in rows) != [(n, m) for n in range(N + 1) for m in range(N + 1)]:
            raise ValueError(f"table CSV must hold each (n, m) with 0 <= n, m <= {N} once")
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

    def __post_init__(self):
        N = len(self.gamma)
        for name, rows in (("gamma_t", self.gamma_t), ("a", self.a), ("b", self.b)):
            if len(rows) != N:
                raise ValueError(f"{name} has {len(rows)} entries, gamma has {N}")
        for name, rows in (("a", self.a), ("b", self.b)):
            for n, row in enumerate(rows):
                if len(row) != n + 1:
                    raise ValueError(f"{name}[{n}] has {len(row)} entries, not {n + 1}")

    @property
    def order(self) -> int:
        """Number of recurrence levels stored (polynomials reach this degree)."""
        return len(self.gamma)

    def _monic(self, N: int):
        """(Ja, Jb, h) through level N: x*p_n = p_{n+1} + sum_{m<=n} Ja[n, m] p_m
        for the monic polynomials, Jb the y-side mirror, h[0..N] the pairings."""
        Ja = _lower(self.a, N) * _chain(self.gamma, N)
        Jb = _lower(self.b, N) * _chain(self.gamma_t, N)
        h = np.concatenate(([1.0 / (complex(self.pi0) * complex(self.sigma0))],
                            np.multiply(self.gamma[:N], self.gamma_t[:N], dtype=complex)))
        return Ja, Jb, h

    def monic_transform(self):
        """Monic-recurrence data (ahat, bhat, h) implied by this system:
        x*p_n = p_{n+1} + sum_j ahat[n][j] p_{n-j} for the monic polynomials,
        bhat the y-side mirror, and the diagonal pairing chain
        h[0] = 1/(pi0*sigma0), h[n] = gamma[n-1]*gamma_t[n-1]."""
        Ja, Jb, h = self._monic(self.order)
        return _triangle(Ja), _triangle(Jb), h.tolist()

    def canonical(self) -> "RecurrenceSystem":
        """Equivalent system in the canonical form produced by
        extract_recurrence: the y-side carries unit gammas, the x-side
        gammas carry the diagonal pairings, and pi0 holds 1/mu_00."""
        return _canonical(*self._monic(self.order))

    def factors(self, N: int):
        """(Cp, h, Cs): the L·D·U factors, through degree N, of the table
        these recurrences generate. Row n of Cp (of Cs) holds the
        coefficients of the monic p_n (of s_n), and h[n] = L(p_n | s_n)."""
        Ja, Jb, h = self._monic(N)
        return _monic_rows(Ja), h, _monic_rows(Jb)


def _lower(rows, N: int) -> np.ndarray:
    """Triangle rows[n][j] (j <= n < N) as the lower-triangular T[n, n-j]."""
    T = np.zeros((N, N), dtype=complex)
    for n in range(N):
        T[n, : n + 1] = rows[n][n::-1]
    return T


def _triangle(T: np.ndarray) -> list:
    """Inverse of _lower: row n lists T[n, n], T[n, n-1], ..., T[n, 0]."""
    return [T[n, n::-1].tolist() for n in range(len(T))]


def _chain(g, N: int) -> np.ndarray:
    """C[n, m] = g_m * g_(m+1) * ... * g_(n-1) for m < n < N, 1 elsewhere."""
    col = np.concatenate(([1.0], np.asarray(g[:N], dtype=complex)))[:N, None]
    return np.cumprod(np.where(np.tri(N, k=-1, dtype=bool), col, 1.0), axis=0)


def _canonical(Ja, Jb, h) -> RecurrenceSystem:
    N = len(Ja)
    return RecurrenceSystem(gamma=h[1:].tolist(), gamma_t=[1.0 + 0j] * N,
                            a=_triangle(Ja / _chain(h[1:], N)), b=_triangle(Jb),
                            pi0=complex(1.0 / h[0]), sigma0=1.0 + 0j)


def _monic_rows(J: np.ndarray) -> np.ndarray:
    """Coefficient rows of the monic sequence p_(n+1) = x*p_n - sum_m J[n, m] p_m."""
    N = len(J)
    C = np.zeros((N + 1, N + 1), dtype=complex)
    C[0, 0] = 1.0
    for n in range(N):
        C[n + 1, 1:] = C[n, :-1]
        C[n + 1] -= J[n, : n + 1] @ C[: n + 1]
    return C


def _ldu(mu: np.ndarray, tol: float):
    """Unpivoted mu = L·D·U as (Cp, h, Cs) = (L⁻¹, diag(D), U⁻ᵀ), from the
    elimination's row and column operations applied to identities. Step k adds
    the last rank-one term Cs[k]ᵀ·Cp[k]/h[k] of mu[:k+1, :k+1]⁻¹ and stops with
    DegenerateMinor(k + 1) if that block fails _conditioned (as inf or NaN at
    a zero pivot)."""
    a = np.array(mu, dtype=complex)
    K = len(a)
    Cp, Cs = np.eye(K, dtype=complex), np.eye(K, dtype=complex)
    inv = np.zeros((K, K), dtype=complex)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(K):
            d = a[k, k]
            inv += np.outer(Cs[k], Cp[k] / d)
            if not _conditioned(mu[: k + 1, : k + 1], inv[: k + 1, : k + 1], tol):
                raise DegenerateMinor(k + 1)
            col = a[k + 1 :, k] / d
            row = a[k, k + 1 :] / d
            a[k + 1 :, k + 1 :] -= np.outer(col, a[k, k + 1 :])
            Cp[k + 1 :] -= np.outer(col, Cp[k])
            Cs[k + 1 :] -= np.outer(row, Cs[k])
    return Cp, np.diag(a).copy(), Cs


def _conditioned(block: np.ndarray, inv: np.ndarray, tol: float) -> bool:
    """Whether rho(|block⁻¹|·|block|) < 1/tol. Scaling the rows or the
    columns of the block is a similarity of that product, so neither scaling
    the table nor the units of x or y moves the verdict; and rho is at most
    the 1-norm condition number of every such scaling. The product's 1-norm
    bounds rho and settles the common well-conditioned case."""
    M = np.abs(inv) @ np.abs(block)
    if M.sum(axis=0).max() * tol < 1.0:
        return True
    return bool(np.isfinite(M).all() and np.abs(np.linalg.eigvals(M)).max() * tol < 1.0)


def delta(table: BimomentTable, n: int) -> complex:
    """Leading principal n x n minor Delta_n (Delta_0 = 1 by convention),
    from delta_scaled, so large tables do not overflow prematurely."""
    val, logmag = delta_scaled(table, n)
    return complex(val * np.exp(logmag))


def delta_scaled(table: BimomentTable, n: int):
    """Return (u, logmag) with Delta_n = u * exp(logmag): |u| = 1, or
    u = 0 and logmag = -inf for a singular minor. Each row is scaled by its
    largest |entry|, and LAPACK's pivoted LU (np.linalg.slogdet) gives the
    rest."""
    if n < 0 or n > table.size + 1:
        raise OutOfRange(f"minor order {n} exceeds table size {table.size}")
    if n == 0:
        return 1.0 + 0j, 0.0
    a = table.entries[:n, :n]
    norms = np.abs(a).max(axis=1)
    norms[norms == 0] = 1.0
    unit, logdet = np.linalg.slogdet(a / norms[:, None])
    return complex(unit), float(np.log(norms).sum() + logdet)


def table_from_factors(Cp: np.ndarray, h: np.ndarray, Cs: np.ndarray) -> np.ndarray:
    """mu = Cp⁻¹·diag(h)·Cs⁻ᵀ by forward substitution on the unit triangular
    factors. Its residual is small entry by entry; a table from pivoted
    solves loses more digits in the Favard round trip."""
    mu = np.diag(h).astype(complex)
    for C in (Cs, Cp):
        mu = mu.T.copy()
        for i in range(1, len(C)):
            mu[i] -= C[i, :i] @ mu[:i]
    return mu


def pair_apply(table: BimomentTable, p: CPoly, s: CPoly) -> complex:
    """L(p | s) = sum_{i,j} p_i s_j mu_{ij}."""
    if p.degree > table.size or s.degree > table.size:
        raise OutOfRange("polynomial degree exceeds table size")
    if p.is_zero() or s.is_zero():
        return 0.0 + 0j
    pi = p.coeffs
    sj = s.coeffs
    return complex(pi @ table.entries[: len(pi), : len(sj)] @ sj)


def monic_bops(table: BimomentTable, N: int) -> BOPPair:
    """Monic biorthogonal pairs through degree N.

    One unpivoted L·D·U of mu[:N+1, :N+1]: p_n is row n of L⁻¹, s_n is
    column n of U⁻¹ and h_n = D_n = Delta_{n+1}/Delta_n. Raises
    DegenerateMinor(n) for the first leading block mu[:n, :n] with
    1/rho(|mu[:n, :n]⁻¹|·|mu[:n, :n]|) at most DEGENERACY_REL_TOL: a verdict
    that scaling the table or the units of x and y does not change.
    """
    if N < 0:
        raise ValueError(f"table order must be >= 0, got {N}")
    if N > table.size:
        raise OutOfRange(f"requested order {N} exceeds table size {table.size}")
    Cp, h, Cs = _ldu(table.entries[: N + 1, : N + 1], DEGENERACY_REL_TOL)
    return BOPPair(p=[CPoly(c) for c in Cp], s=[CPoly(c) for c in Cs], h=h.tolist())


def extract_recurrence(table: BimomentTable, bops: BOPPair) -> RecurrenceSystem:
    """Recurrence data of the monic BOPs, in canonical form.

    The monic expansion coefficients are the pairings
    ahat_j(n) = L(x p_n | s_{n-j}) / h_{n-j}, read off the one product
    G = (x·Cp)·mu·Csᵀ of the coefficient rows (mirror for bhat). The
    returned system stores the diagonal pairings h_{n+1} in gamma (with
    unit gamma_t), so that favard_reconstruct maps it back to this exact
    table; when every h_n = 1 this is the plain monic normalization.
    """
    N = bops.order
    if N > table.size:
        raise OutOfRange("polynomial degree exceeds table size")
    h = np.asarray(bops.h, dtype=complex)
    zero = np.flatnonzero(h[:N] == 0)
    if zero.size:
        raise DegenerateMinor(int(zero[0]), "h_n vanishes")
    Cp, Cs = (np.array([np.pad(q.coeffs, (0, N - q.degree)) for q in polys], dtype=complex)
              for polys in (bops.p, bops.s))
    mu = table.entries[: N + 1, : N + 1]
    Ja = np.tril(Cp[:N, :N] @ mu[1:] @ Cs[:N].T / h[:N])
    Jb = np.tril((Cp[:N] @ mu[:, 1:] @ Cs[:N, :N].T).T / h[:N])
    return _canonical(Ja, Jb, h)
