"""Bilinear semiclassical data: validation, moment recurrences, reductions.

The defining data are four polynomials (A1, B1, A2, B2). They induce two
coupled recurrences on the bimoments:

  sum_j beta1(j) mu[n+j, m+1] = -n sum_j beta1(j) mu[n-1+j, m]
                                 + sum_j alpha1(j) mu[n+j, m]

and the x<->y mirror. Under the degree assumptions deg(B_i)+1 <= deg(A_i)
the solution space has dimension exactly (a1+1)*(a2+1) and every solution
is determined by the seed block mu[0..a1, 0..a2]; propagate_moments
realizes that determination as a sequence of per-antidiagonal linear
solves with consistency residuals. On a side with deg(B_i)+1 < deg(A_i)
each recurrence instance holds one entry of the frontier, so an
antidiagonal whose equations each hold one unknown is solved as a
weighted mean per unknown; an antidiagonal with a coupled equation, which
an edge side (deg(B_i)+1 = deg(A_i)) brings, is solved by least squares.
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
from .tables import PROV_INPUT, PROV_RECURRENCE, BimomentTable, complex_from_pair


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
        # C is the largest array; forming it in place saves a copy
        C = (m if side else n) * c1
        C += c0
        if side:
            return across + n, along + m, C
        return along + n, across + m, C
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


_TINY = np.finfo(float).tiny


def _unit_scale(A: CPoly, B: CPoly) -> float:
    """The power of two that brings the largest coefficient of A and B into
    [1, 2). Those coefficients are the side's stencil coefficients (c0, c1)."""
    peak = max(float(np.max(np.abs(A.coeffs))), float(np.max(np.abs(B.coeffs))))
    return 2.0 ** (1 - np.frexp(peak)[1])


def _frontier_plan(terms, side, top, Ni, scale):
    """The seed-independent part of one side's frontier equations.

    The instances are those whose terms fit in the (Ni+1)^2 grid, ordered
    by their top antidiagonal k = n + m + top and then by n, so that the
    equations of antidiagonal k are the columns edges[k]:edges[k+1]. The
    terms that reach furthest along and across the side have constant
    nonzero coefficients (deg B_i < deg A_i), so bounding n and m by the
    stencil's reach keeps exactly the instances that fit. The coefficients
    are multiplied by scale, a power of two, which is exact. Returns
    (edges, flat grid index of every term, its coefficient, terms that
    need not be known (absent, or at or above the frontier), present
    terms on the frontier), each array of shape (terms, instances).
    """
    reach_i, reach_j, _ = terms(side, 0, 0)
    n, m = (g.ravel() for g in np.indices((Ni + 1 - reach_i.max(), Ni + 1 - reach_j.max())))
    order = np.lexsort((n, n + m))
    n, m = n[order], m[order]
    k = n + m + top
    I, J, C = terms(side, n, m)
    C *= scale
    present = C != 0
    # absent terms may point off the grid; their index is clipped. In
    # place: these (terms, instances) arrays set the call's peak memory.
    np.clip(I, 0, Ni, out=I)
    np.clip(J, 0, Ni, out=J)
    level = I + J
    level -= k
    free, front = ~present | (level >= 0), present & (level == 0)
    del level
    I *= Ni + 1
    I += J
    edges = np.searchsorted(k, np.arange(2 * Ni + 2)).tolist()
    return edges, I.astype(np.int32), C, free, front


def _solve_frontiers(spec: SemiclassicalSpec, mu, known, residual_tol: float):
    """Fill mu and known in place, antidiagonal by antidiagonal (see
    propagate_moments). The plan lives only as long as this call."""
    Ni = len(mu) - 1
    known_flat, mu_flat = known.reshape(-1), mu.reshape(-1)
    terms = _recurrence_terms(spec)
    sides = ((spec.A1, spec.B1, spec.a1 + 1), (spec.A2, spec.B2, spec.a2 + 1))
    plan = [_frontier_plan(terms, side, top, Ni, _unit_scale(A, B))
            for side, (A, B, top) in enumerate(sides)]
    for k in range(1, 2 * Ni + 1):
        # each usable instance whose top antidiagonal is k is one equation
        # in the unknown entries of that antidiagonal
        rows, cols, coefs, rhs = [], [], [], []
        nrows = 0
        for edges, flat, coef, free, front in plan:
            lo, hi = edges[k], edges[k + 1]
            if lo == hi:
                continue
            f, C = flat[:, lo:hi], coef[:, lo:hi]
            kn = known_flat[f]
            # usable: every present term below the frontier is known
            usable = np.all(kn | free[:, lo:hi], axis=0)
            unk = front[:, lo:hi] & usable & ~kn
            active = unk.any(axis=0)
            unk, f, C = unk[:, active], f[:, active], C[:, active]
            t, r = np.nonzero(unk)
            rows.append(nrows + r)
            cols.append(f[t, r])
            coefs.append(C[t, r])
            rhs.append(-np.where(unk, 0, C * mu_flat[f]).sum(axis=0))
            nrows += unk.shape[1]
        if not nrows:
            continue
        rows, cols, coefs, b = (np.concatenate(v) for v in (rows, cols, coefs, rhs))
        i = cols // (Ni + 1)
        den = np.bincount(i, coefs.real ** 2 + coefs.imag ** 2)
        if len(cols) == nrows and den[i].min() >= _TINY:
            # every equation holds one unknown: the scaled columns are
            # orthonormal, so least squares is a weighted mean per unknown,
            # summed over the unknown's row index i. A sum of squares below
            # the normal range is left to lstsq.
            b = b[rows]
            w = coefs.conj() * b
            x = np.bincount(i, w.real) + 1j * np.bincount(i, w.imag)
            fixed = den > 0
            np.divide(x, den, out=x, where=fixed)
            resid = float(np.max(np.abs(coefs * x[i] - b)))
            ids = np.flatnonzero(fixed)
            x = x[ids]
            ids = ids * (Ni + 1) + (k - ids)
        else:
            # unknowns are numbered by their flat index into mu
            ids, col = np.unique(cols, return_inverse=True)
            nunk = len(ids)
            A = np.zeros((nrows, nunk), dtype=complex)
            np.add.at(A, (rows, col), coefs)
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
            resid = float(np.max(np.abs(A @ x - b)))
        scale = max(1.0, float(np.max(np.abs(b))), float(np.max(np.abs(x))))
        if resid > residual_tol * scale:
            raise InconsistentSeed(resid / scale, residual_tol, "frontier residual")
        mu_flat[ids] = x
        known_flat[ids] = True


def propagate_moments(spec: SemiclassicalSpec, seed, N: int,
                      residual_tol: float = 1e-8) -> BimomentTable:
    """Extend the seed block mu[0..a1, 0..a2] to a size-N table.

    Works antidiagonal by antidiagonal: every recurrence instance whose
    highest-order entries sit on the current frontier becomes one linear
    equation; the (often overdetermined) system is solved in the least-
    squares sense and each equation's residual checked against
    residual_tol times the scale of the participating entries. The seed
    block entries are the (a1+1)*(a2+1) free parameters and are never
    constrained.

    The stencils are evaluated once per call (_frontier_plan); each
    antidiagonal then only gathers which entries are known, builds its
    right-hand side and solves. Each side's coefficients are first
    multiplied by the power of two that brings its largest one into
    [1, 2): the recurrences are homogeneous in (A_i, B_i), and without it
    a side scaled by 1e-100 carries no weight against the other, and the
    squares below underflow. An equation from a side with
    deg B_i + 1 < deg A_i holds one unknown. When every equation of an
    antidiagonal does, the column-scaled system has orthonormal columns
    and its solution is the weighted mean
    x_j = sum_r conj(a_rj) b_r / sum_r |a_rj|^2. An antidiagonal with a
    coupled equation, which only an edge side (deg B_i + 1 = deg A_i)
    brings, goes through a column-scaled lstsq, which raises
    SingularFrontier below full rank. Errors can still grow across
    antidiagonals that each pass, so the finished table must also meet
    recurrence_residual <= residual_tol, else InconsistentSeed.

    Raises ValueError for N < 0, a misshapen or non-finite seed block and
    a residual_tol that is not positive and finite.
    """
    if N < 0:
        raise ValueError(f"table order must be >= 0, got {N}")
    if not (np.isfinite(residual_tol) and residual_tol > 0):
        raise ValueError(f"residual_tol must be positive and finite, got {residual_tol}")
    seed = np.asarray(seed, dtype=complex)
    if seed.shape != (spec.a1 + 1, spec.a2 + 1):
        raise ValueError(
            f"seed block must be {(spec.a1 + 1, spec.a2 + 1)}, got {seed.shape}"
        )
    if not np.all(np.isfinite(seed)):
        raise ValueError("seed block has a non-finite entry")
    # internal margin lets instances reach across the cropped edge
    Ni = N + max(spec.a1, spec.a2) + 2
    known = np.zeros((Ni + 1, Ni + 1), dtype=bool)
    mu = np.zeros((Ni + 1, Ni + 1), dtype=complex)
    mu[: spec.a1 + 1, : spec.a2 + 1] = seed
    known[: spec.a1 + 1, : spec.a2 + 1] = True
    _solve_frontiers(spec, mu, known, residual_tol)

    if not np.all(known[: N + 1, : N + 1]):
        holes = np.argwhere(~known[: N + 1, : N + 1])
        raise SingularFrontier(f"entries never determined: {holes[:5].tolist()} ...")
    prov = np.full((N + 1, N + 1), PROV_RECURRENCE, dtype=np.int8)
    prov[: spec.a1 + 1, : spec.a2 + 1] = PROV_INPUT
    table = BimomentTable(mu[: N + 1, : N + 1], prov)
    # each antidiagonal met its own bound; refuse growth across them
    growth = recurrence_residual(spec, table)
    if growth > residual_tol:
        raise InconsistentSeed(growth, residual_tol, "table recurrence residual")
    return table


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
        return CPoly([complex_from_pair(x) for x in v])

    return validate_spec(dec(d["A1"]), dec(d["B1"]), dec(d["A2"]), dec(d["B2"]))
