"""Bilinear semiclassical data: validation, moment recurrences, reductions.

The defining data are four polynomials (A1, B1, A2, B2). They induce two
coupled recurrences on the bimoments:

  sum_j beta1(j) mu[n+j, m+1] = -n sum_j beta1(j) mu[n-1+j, m]
                                 + sum_j alpha1(j) mu[n+j, m]

and the x<->y mirror. Under the degree assumptions deg(B_i)+1 <= deg(A_i)
the solution space has dimension exactly (a1+1)*(a2+1) and every solution
is determined by the seed block mu[0..a1, 0..a2]; propagate_moments
realizes that determination as a sequence of per-antidiagonal linear
solves with consistency residuals.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AssumptionAViolated,
    AssumptionBViolated,
    DegenerateQuadratic,
    InconsistentSeed,
    MultipleSharedRoots,
    NoCommonFactor,
    NotReducible,
    SingularFrontier,
)
from .polycore import CPoly, common_factor
from .tables import PROV_INPUT, PROV_RECURRENCE, BimomentTable


@dataclass
class SemiclassicalSpec:
    """Validated defining data with degree bookkeeping.

    deg A_i = a_i + 1 and deg B_i = b_i + 1 (so b_i = -1 for constant
    B_i); the bi-class is s_i = max(a_i, b_i) + 1 and M = s1*s2 counts
    the independent functionals.
    """

    A1: CPoly
    B1: CPoly
    A2: CPoly
    B2: CPoly
    a1: int
    b1: int
    a2: int
    b2: int
    s1: int
    s2: int
    case: str  # "BB1" | "BB2" | "BB3"
    determinant: Optional[complex]  # the 2x2 leading determinant in case BB3
    shared1: tuple = ()  # common roots of (A1, B1), as (root, lA, lB)
    shared2: tuple = ()

    @property
    def M(self) -> int:
        return self.s1 * self.s2

    @property
    def reducible(self) -> bool:
        return bool(self.shared1 or self.shared2)


def _shared_roots(A: CPoly, B: CPoly):
    shared = common_factor(A, B)
    out = []
    for root, mult in shared:
        # recover the separate multiplicities l (in A) and r (in B)
        lA = _root_mult(A, root)
        lB = _root_mult(B, root)
        out.append((root, lA, lB))
    return tuple(out)


def _root_mult(p: CPoly, c: complex) -> int:
    m = 0
    cur = p
    while cur.degree >= 1:
        q, r = divmod(cur, CPoly([-c, 1.0]))
        scale = max(1.0, float(np.max(np.abs(cur.coeffs))))
        if r.is_zero() or abs(r.coeffs[0]) <= 1e-8 * scale:
            m += 1
            cur = q
        else:
            break
    return m


def validate_spec(A1, B1, A2, B2) -> SemiclassicalSpec:
    """Check the degree assumptions and classify the data.

    Raises ValueError when a coefficient is NaN or infinite,
    AssumptionAViolated when deg(B_i)+1 > deg(A_i),
    DegenerateQuadratic when both sides are at the quadratic edge and the
    leading 2x2 determinant vanishes, and AssumptionBViolated when a pair
    shares more than one distinct root. A single shared root is legal and
    only tags the spec reducible (see reduce_common_factor).
    """
    A1, B1, A2, B2 = CPoly(A1.coeffs if isinstance(A1, CPoly) else A1), \
        CPoly(B1.coeffs if isinstance(B1, CPoly) else B1), \
        CPoly(A2.coeffs if isinstance(A2, CPoly) else A2), \
        CPoly(B2.coeffs if isinstance(B2, CPoly) else B2)
    for name, p in (("A1", A1), ("B1", B1), ("A2", A2), ("B2", B2)):
        if not all(map(cmath.isfinite, p.coeffs.tolist())):
            raise ValueError(f"{name} has a non-finite coefficient")
        if p.is_zero():
            raise AssumptionAViolated(f"{name} is identically zero")
    a1, b1 = A1.degree - 1, B1.degree - 1
    a2, b2 = A2.degree - 1, B2.degree - 1
    if b1 + 1 > a1 or b2 + 1 > a2:
        raise AssumptionAViolated(
            f"need deg(B)+1 <= deg(A) on both sides; got degrees "
            f"A1={a1+1}, B1={b1+1}, A2={a2+1}, B2={b2+1}"
        )
    edge1 = a1 == b1 + 1
    edge2 = a2 == b2 + 1
    case = "BB3" if (edge1 and edge2) else ("BB1" if (not edge1 and not edge2) else "BB2")
    det = None
    if case == "BB3":
        det = A1.coeff(a1 + 1) * A2.coeff(a2 + 1) - B1.coeff(b1 + 1) * B2.coeff(b2 + 1)
        scale = max(abs(A1.coeff(a1 + 1) * A2.coeff(a2 + 1)),
                    abs(B1.coeff(b1 + 1) * B2.coeff(b2 + 1)), 1e-300)
        if abs(det) <= 1e-12 * scale:
            raise DegenerateQuadratic(
                "leading 2x2 determinant vanishes: "
                f"det[[{A1.coeff(a1+1)}, {B1.coeff(b1+1)}], "
                f"[{B2.coeff(b2+1)}, {A2.coeff(a2+1)}]] = {det}"
            )
    shared1 = _shared_roots(A1, B1)
    shared2 = _shared_roots(A2, B2)
    if len(shared1) > 1 or len(shared2) > 1:
        raise AssumptionBViolated(
            "a pair (A_i, B_i) shares more than one distinct root"
        )
    return SemiclassicalSpec(
        A1=A1, B1=B1, A2=A2, B2=B2,
        a1=a1, b1=b1, a2=a2, b2=b2,
        s1=max(a1, b1) + 1, s2=max(a2, b2) + 1,
        case=case, determinant=det, shared1=shared1, shared2=shared2,
    )


# --- moment recurrences -------------------------------------------------

def _recurrence_terms(spec: SemiclassicalSpec):
    """The two recurrences of the module docstring, built once.

    Returns terms(side, n, m) -> (I, J, C), arrays of shape
    (terms, len(n)): the instance at (n, m) of the x side (side 0) or the
    y side (side 1) is sum_t C_t mu[I_t, J_t] = 0. Each side is a stencil
    of merged offsets with coefficients c0 + k c1, k = n on the x side
    and k = m on the y side; a term with a zero coefficient is absent.
    """
    stencils = []
    for A, B, a, b in ((spec.A1, spec.B1, spec.a1, spec.b1),
                       (spec.A2, spec.B2, spec.a2, spec.b2)):
        acc = {}  # (offset along the side, across it) -> [c0, c1]
        for j in range(b + 2):
            acc[(j, 1)] = [B.coeff(j), 0j]
            acc[(j - 1, 0)] = [0j, B.coeff(j)]
        for j in range(a + 2):
            acc.setdefault((j, 0), [0j, 0j])[0] -= A.coeff(j)
        # in the order the relation is written
        keys = sorted((k for k, c in acc.items() if any(c)), key=lambda k: (-k[1], k[0]))
        along, across = np.array(keys).T[:, :, None]
        c0, c1 = np.array([acc[k] for k in keys]).T[:, :, None]
        stencils.append((along, across, c0, c1))

    def terms(side, n, m):
        along, across, c0, c1 = stencils[side]
        if side:
            return across + n, along + m, c0 + m * c1
        return along + n, across + m, c0 + n * c1
    return terms


def recurrence_residual(spec: SemiclassicalSpec, table: BimomentTable) -> float:
    """Largest relative defect of the two moment recurrences on the table.

    Every instance whose present terms all fit in the table contributes
    |sum_t c_t mu_t| / max(1, max_t |c_t mu_t|).
    """
    N = table.size
    n, m = (g.ravel() for g in np.indices((N + 1, N + 1)))
    terms = _recurrence_terms(spec)

    def worst(side):
        I, J, C = terms(side, n, m)
        present = C != 0
        fits = np.all(~present | ((I <= N) & (J <= N)), axis=0)
        vals = np.where(present, C * table.entries[np.clip(I, 0, N), np.clip(J, 0, N)], 0)
        defect = np.abs(vals.sum(axis=0)) / np.maximum(1.0, np.abs(vals).max(axis=0))
        return float(defect[fits].max(initial=0.0))
    # one side at a time: only one side's (terms, instances) arrays are alive
    return max(worst(0), worst(1))


def propagate_moments(spec: SemiclassicalSpec, seed, N: int,
                      residual_tol: float = 1e-8) -> BimomentTable:
    """Extend the seed block mu[0..a1, 0..a2] to a size-N table.

    Works antidiagonal by antidiagonal: every recurrence instance whose
    highest-order entries sit on the current frontier becomes one linear
    equation; the (often overdetermined) system is solved by least
    squares and its residual checked against residual_tol times the
    scale of the participating entries. The seed block entries are the
    (a1+1)*(a2+1) free parameters and are never constrained.
    """
    seed = np.asarray(seed, dtype=complex)
    if seed.shape != (spec.a1 + 1, spec.a2 + 1):
        raise ValueError(
            f"seed block must be {(spec.a1 + 1, spec.a2 + 1)}, got {seed.shape}"
        )
    # internal margin lets instances reach across the cropped edge
    Ni = N + max(spec.a1, spec.a2) + 2
    known = np.zeros((Ni + 1, Ni + 1), dtype=bool)
    mu = np.zeros((Ni + 1, Ni + 1), dtype=complex)
    mu[: spec.a1 + 1, : spec.a2 + 1] = seed
    known[: spec.a1 + 1, : spec.a2 + 1] = True

    terms = _recurrence_terms(spec)
    for k in range(1, 2 * Ni + 1):
        # each usable instance whose top antidiagonal is k is one equation
        # in the unknown entries of that antidiagonal
        rows, cols, coefs, rhs = [], [], [], []
        nrows = 0
        for side, top in ((0, spec.a1 + 1), (1, spec.a2 + 1)):
            s = k - top
            if s < 0:
                continue
            n = np.arange(s + 1)
            I, J, C = terms(side, n, s - n)
            present = C != 0
            inside = (I <= Ni) & (J <= Ni)
            I, J = np.clip(I, 0, Ni), np.clip(J, 0, Ni)
            kn = known[I, J]
            # usable: every present term is inside and known below the frontier
            usable = np.all(~present | (inside & (kn | (I + J >= k))), axis=0)
            unk = present & usable & (I + J == k) & ~kn
            active = unk.any(axis=0)
            unk, I, J, C = unk[:, active], I[:, active], J[:, active], C[:, active]
            t, r = np.nonzero(unk)
            rows.append(nrows + r)
            cols.append(I[t, r] * (Ni + 1) + J[t, r])
            coefs.append(C[t, r])
            rhs.append(-np.where(unk, 0, C * mu[I, J]).sum(axis=0))
            nrows += int(active.sum())
        if not nrows:
            continue
        # unknowns are numbered by their flat index into mu
        ids, col = np.unique(np.concatenate(cols), return_inverse=True)
        nunk = len(ids)
        A = np.zeros((nrows, nunk), dtype=complex)
        np.add.at(A, (np.concatenate(rows), col), np.concatenate(coefs))
        b = np.concatenate(rhs)
        # column scaling keeps the rank decision honest
        colnorm = np.linalg.norm(A, axis=0)
        if np.any(colnorm == 0):
            missing = [divmod(int(ij), Ni + 1) for ij in ids[colnorm == 0]]
            raise SingularFrontier(
                f"antidiagonal {k}: entries {missing} appear in no usable relation"
            )
        x, _, rank, _ = np.linalg.lstsq(A / colnorm, b, rcond=1e-10)
        if rank < nunk:
            raise SingularFrontier(
                f"antidiagonal {k}: frontier system rank {rank} < {nunk} unknowns"
            )
        x = x / colnorm
        scale = max(1.0, float(np.max(np.abs(b))), float(np.max(np.abs(x))))
        resid = float(np.max(np.abs(A @ x - b)))
        if resid > residual_tol * scale:
            raise InconsistentSeed(resid / scale, residual_tol)
        mu.flat[ids] = x
        known.flat[ids] = True

    if not np.all(known[: N + 1, : N + 1]):
        holes = np.argwhere(~known[: N + 1, : N + 1])
        raise SingularFrontier(f"entries never determined: {holes[:5].tolist()} ...")
    prov = np.full((N + 1, N + 1), PROV_RECURRENCE, dtype=np.int8)
    prov[: spec.a1 + 1, : spec.a2 + 1] = PROV_INPUT
    return BimomentTable(mu[: N + 1, : N + 1], prov)


# --- reductions ---------------------------------------------------------

def reduce_to_linear(spec: SemiclassicalSpec):
    """Marginal 1D data when the second side is Gaussian-like.

    For A2 = a*y (a != 0) and B2 = 1 the restricted functional
    L_r(.) = L(.|1) is 1D semiclassical with A = A1 - (x/a) B1, B = B1.
    Moments of (A, B) match mu[n, 0] up to one overall normalization.
    """
    if spec.a2 != 0 or spec.b2 != -1 or spec.A2.coeff(0) != 0:
        raise NotReducible("need A2 = a*y with a != 0 and B2 constant")
    a = spec.A2.coeff(1)
    if a == 0:
        raise NotReducible("need A2 = a*y with a != 0")
    scale2 = spec.B2.coeff(0)
    if scale2 != 1.0:
        # B2 = const != 1 rescales the relation; normalize it away
        a = a / scale2
    A = spec.A1 - CPoly([0.0, 1.0 / a]) * spec.B1
    return A, spec.B1


def reduce_common_factor(A: CPoly, B: CPoly):
    """Strip a shared factor (x - c)^min(l, r) down to the reduced pair.

    Returns (A_red, B_red, K, c). Case l >= r-1 gives
    A_red = (x-c)^(l-r+1) At + (r-1) Bt, B_red = (x-c) Bt; case l <= r-2
    gives A_red = At + l (x-c)^(r-1-l) Bt, B_red = (x-c)^(r-l) Bt. The
    number of delta-supported solutions to recover (per partner contour)
    is K-1 when l > r-1 and K otherwise.
    """
    shared = _shared_roots(A, B)
    if len(shared) == 0:
        raise NoCommonFactor("pair is relatively prime")
    if len(shared) > 1:
        raise MultipleSharedRoots(
            "several distinct shared roots; apply the reduction one root at a time"
        )
    c, l, r = shared[0]
    lin = CPoly([-c, 1.0])
    At = A
    for _ in range(l):
        At = At // lin
    Bt = B
    for _ in range(r):
        Bt = Bt // lin
    K = min(l, r)
    if l >= r - 1:
        A_red = lin ** (l - r + 1) * At + (r - 1) * Bt
        B_red = lin * Bt
    else:
        A_red = At + l * lin ** (r - 1 - l) * Bt
        B_red = lin ** (r - l) * Bt
    return A_red, B_red, K, complex(c)


@dataclass
class DeltaSolution:
    """One delta-supported solution F^(j) at a shared root c.

    Bimoments are mu[n, m] = sum_{i<=j} C(j,i) n!/(n-j+i)! c^(n-j+i) Y[i+m]
    with Y[p] the partner moments int y^p e^(c y) W2(y) dy over the chosen
    partner contour; for j = 0 this collapses to c^n * Y[m].
    """

    c: complex
    j: int
    partner_moments: np.ndarray  # Y[p], p = 0..P

    def bimoments(self, N: int) -> BimomentTable:
        from math import comb, factorial

        if self.j + N >= len(self.partner_moments):
            raise ValueError("not enough partner moments cached")
        mu = np.zeros((N + 1, N + 1), dtype=complex)
        for n in range(N + 1):
            for m in range(N + 1):
                acc = 0.0 + 0j
                for i in range(self.j + 1):
                    q = self.j - i
                    if n < q:
                        continue
                    acc += comb(self.j, i) * (factorial(n) // factorial(n - q)) \
                        * self.c ** (n - q) * self.partner_moments[i + m]
                mu[n, m] = acc
        return BimomentTable(mu)


def delta_solutions(spec: SemiclassicalSpec, partner_contour, partner_weight,
                    j: int, N: int) -> DeltaSolution:
    """Delta-supported solution of order j at the shared root of (A1, B1).

    Requires A1 = (x-c)^K At, B1 = (x-c)^K Bt with 0 <= j <= K-1; the
    partner contour/weight realize the (A2, B2) side. Partner moments are
    evaluated by 1D quadrature once and reused for any table order <= N.
    """
    if not spec.shared1:
        raise NoCommonFactor("A1, B1 share no root")
    c, l, r = spec.shared1[0]
    K = min(l, r)
    if not (0 <= j <= K - 1):
        raise ValueError(f"delta solution order j must be in [0, {K-1}]")
    from .quadrature import laplace_many

    Y, _ = laplace_many(partner_contour, partner_weight, np.array([c]), j + N)
    return DeltaSolution(c=complex(c), j=j, partner_moments=Y[:, 0])


# --- JSON serialization (external interface) ---

def spec_to_json_dict(spec: SemiclassicalSpec) -> dict:
    def enc(p: CPoly):
        return [[z.real, z.imag] for z in p.coeffs]

    return {"A1": enc(spec.A1), "B1": enc(spec.B1),
            "A2": enc(spec.A2), "B2": enc(spec.B2)}


def spec_from_json_dict(d: dict) -> SemiclassicalSpec:
    def dec(v):
        return CPoly([complex(x[0], x[1]) for x in v])

    return validate_spec(dec(d["A1"]), dec(d["B1"]), dec(d["A2"]), dec(d["B2"]))
