"""Bilinear semiclassical data: validation, moment recurrences, reductions.

The defining data are four polynomials (A1, B1, A2, B2). They induce two
coupled recurrences on the bimoments:

  sum_j beta1(j) mu[n+j, m+1] = -n sum_j beta1(j) mu[n-1+j, m]
                                 + sum_j alpha1(j) mu[n+j, m]

and the x<->y mirror. Under the degree assumptions deg(B_i)+1 <= deg(A_i)
the solution space has dimension exactly (a1+1)*(a2+1) and every solution
is determined by the seed block mu[0..a1, 0..a2]; propagate_moments
realizes that determination as a sequence of per-antidiagonal linear
solves with consistency residuals. Which entries each antidiagonal's
equations determine does not depend on the seed, so that structure is
laid out once per call and each antidiagonal is a gather, a weighted sum,
a solve and a scatter. On a side with deg(B_i)+1 < deg(A_i) each
recurrence instance holds one entry of the frontier, so an antidiagonal
whose equations each hold one unknown is solved as a weighted mean per
unknown; an antidiagonal with a coupled equation, which an edge side
(deg(B_i)+1 = deg(A_i)) brings, is solved by least squares.
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
        along, across = np.array(keys, dtype=np.int32).T[:, :, None]
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

    Each side's coefficients are first multiplied by its _unit_scale: the
    recurrences are homogeneous in (A_i, B_i), and without it a side whose
    coefficients are all tiny shows no defect under the floor below. Every
    instance whose present terms all fit in the table contributes
    |sum_t c_t mu_t| / max(1, max_t |c_t mu_t|).
    """
    N = table.size
    n, m = (g.ravel() for g in np.indices((N + 1, N + 1)))
    terms = _recurrence_terms(spec)
    scales = (_unit_scale(spec.A1, spec.B1), _unit_scale(spec.A2, spec.B2))

    def worst(side):
        I, J, C = terms(side, n, m)
        C *= scales[side]
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


def _frontier_plan(spec: SemiclassicalSpec, Ni: int):
    """Everything about the frontier solves that the seed does not change.

    The recurrence instances of both sides whose terms fit in the
    (Ni+1)^2 grid are the columns of two (terms, instances) arrays: G, the
    flat grid index of each term, and Cz, its coefficient. The terms that
    reach furthest along and across a side have constant nonzero
    coefficients (deg B_i < deg A_i), so bounding n and m by the stencil's
    reach keeps exactly the instances that fit. Each side's coefficients
    are multiplied by its _unit_scale, which is exact, and a side with
    fewer terms is padded with zero terms on entry 0.

    An entry is known when it is in the seed block or on the frontier of a
    usable instance, one whose present terms below its frontier are all
    known. Those terms lie on lower antidiagonals, so the known pattern is
    the unique fixed point of this rule, and it is every frontier entry:
    the leading terms of A_i and B_i are present in every instance, so
    every entry outside the seed block is on the frontier of an instance
    that fits, but for the grid's last corner, which no instance that fits
    needs. One whole-grid check confirms that every instance is usable.
    Each holds an unknown, its leading A_i term, which is outside the seed
    block, and is one equation. The equations are ordered by top
    antidiagonal k = n + m + deg A_i, then side, then n. Their unknown
    terms get coefficient 0 in Cz: mu holds 0 there until they are solved.

    Returns (known, steps): known is the flat pattern, and steps lists, in
    order of antidiagonal, what the solve does, as tuples whose first item
    names the kind. ids are the flat indices of an antidiagonal's unknowns
    in increasing order; the right-hand sides of a block's equations are
    -sum_t Cz[t] mu[G[t]].
    - ("mean", ids, G, Cz, conj(coef), inv2, -den, out): every equation
      holds one unknown and every sum of squares is normal. One
      column-major block holds the equations of both sides; coef is each
      equation's unknown coefficient, inv2 the index of its unknown into
      ids for the interleaved real and imaginary parts, den = sum |coef|^2
      per unknown, and out the slots of minus the right-hand sides.
    - ("check", conj(coef), flat, eoff, ids, uoff, out): the residual
      checks of the "mean" antidiagonals since the last check, ahead of the
      next antidiagonal of another kind. flat is each equation's unknown,
      eoff and uoff are where each antidiagonal's equations and unknowns
      start, and out holds their slots.
    - ("lstsq", k, ids, blocks, A, A / colnorm, colnorm): an antidiagonal
      with a coupled equation; blocks holds each side's (G, Cz) block, in
      the order of the rows of A.
    - ("singular", message): the SingularFrontier to raise when a column
      of such an A is 0.
    """
    W = Ni + 1
    span = np.arange(2 * Ni + 2)
    terms = _recurrence_terms(spec)
    n, m, S, K, rows = [], [], [], [], []
    for side, top in enumerate((spec.a1 + 1, spec.a2 + 1)):
        reach_i, reach_j, _ = terms(side, 0, 0)
        ns, ms = (g.ravel() for g in np.indices((W - reach_i.max(), W - reach_j.max()),
                                                 dtype=np.int32))
        n.append(ns)
        m.append(ms)
        S.append(np.full(len(ns), side, dtype=np.int8))
        K.append(ns + ms + top)
        rows.append(len(reach_i))
    n, m, S, K = (np.concatenate(v) for v in (n, m, S, K))
    order = np.argsort((2 * K.astype(np.int64) + S) * W + n)
    n, m, S, K = n[order], m[order], S[order], K[order]
    del order
    # each side's stencil on its instances, the indices of absent terms
    # (which may point off the grid) clipped in place
    parts = []
    for side, (A, B) in enumerate(((spec.A1, spec.B1), (spec.A2, spec.B2))):
        cols = np.flatnonzero(S == side)
        I, J, C = terms(side, n[cols], m[cols])
        C *= _unit_scale(A, B)
        present = C != 0
        np.clip(I, 0, Ni, out=I)
        np.clip(J, 0, Ni, out=J)
        level = I + J
        level -= K[cols]
        free = ~present | (level >= 0)  # absent, or at or above the frontier
        front = present & (level == 0)  # present and on the frontier
        I *= W
        I += J
        parts.append((cols, I, C, free, front))
        del I, J, C, present, level
    del n, m
    # column-major, so that numpy sums the terms of each equation along a
    # contiguous axis. The plan sets the call's peak memory, so a side's
    # arrays are freed once copied.
    shape = (max(rows), len(K))
    G = np.zeros(shape, dtype=np.intp, order="F")
    front = np.zeros(shape, dtype=bool, order="F")
    for cols, flat, _, _, fr in parts:
        G[: len(flat), cols] = flat
        front[: len(fr), cols] = fr
    seeds = np.zeros((W, W), dtype=bool)
    seeds[: spec.a1 + 1, : spec.a2 + 1] = True
    seeds = seeds.ravel()
    known = seeds.copy()
    known[G[front]] = True
    if not all((known[flat] | f).all() for _, flat, _, f, _ in parts):
        raise SingularFrontier("a recurrence instance needs an entry that no equation determines")
    parts = [(cols, C) for cols, _, C, _, _ in parts]
    del cols, flat, fr
    Cz = np.zeros(shape, dtype=complex, order="F")
    while parts:
        cols, C = parts.pop()
        Cz[: len(C), cols] = C
    del cols, C

    # the unknown terms, column by column
    c, t = np.nonzero((front & ~seeds[G]).T)
    del front
    coef, eflat = Cz[t, c], G[t, c]
    Cz[t, c] = 0
    ek = K[c]
    cedge, eedge = np.searchsorted(K, span), np.searchsorted(ek, span)
    counts = [np.bincount(K[S == side], minlength=len(span)) for side in range(2)]
    del t, K, S
    # the unknowns, by antidiagonal and then row
    key = ek * W + eflat // W
    seen = np.zeros(len(span) * W, dtype=bool)
    seen[key] = True
    uk, ui = np.divmod(np.flatnonzero(seen), W)
    inv = (np.cumsum(seen) - 1)[key]
    ids = ui * W + (uk - ui)
    den = np.bincount(inv, coef.real ** 2 + coef.imag ** 2)
    uedge = np.searchsorted(uk, span)
    inv -= uedge[ek]
    mean = np.diff(cedge) == np.diff(eedge)
    mean[uk[den < _TINY]] = False
    del ek, key, seen, uk, ui
    inv2 = np.stack((2 * inv, 2 * inv + 1), axis=1).ravel()
    del inv
    cconj = np.conjugate(coef, out=coef)
    nden = -den
    del coef, den
    height = np.maximum(*(np.where(count > 0, r, 0) for count, r in zip(counts, rows)))

    # minus the right-hand sides of the weighted means, one slot per equation
    bneg = np.empty(len(cconj), dtype=complex)

    def check(run):
        """The residual check of the weighted-mean antidiagonals run."""
        e, u = slice(eedge[run[0]], eedge[run[-1] + 1]), slice(uedge[run[0]], uedge[run[-1] + 1])
        return ("check", cconj[e], eflat[e], eedge[run] - e.start, ids[u], uedge[run] - u.start,
                bneg[e])

    steps, run = [], []
    ks = np.flatnonzero(np.diff(cedge))
    bounds = np.stack((cedge[ks], cedge[ks + 1], eedge[ks], eedge[ks + 1], uedge[ks],
                       uedge[ks + 1], height[ks], counts[0][ks], mean[ks]), axis=1)
    for k, (lo, hi, elo, ehi, ulo, uhi, r, mid, one) in zip(ks.tolist(), bounds.tolist()):
        mid += lo
        if one:
            g, cz = G[:r, lo:hi], Cz[:r, lo:hi]
            if r < shape[0]:
                g, cz = np.asfortranarray(g), np.asfortranarray(cz)
            steps.append(("mean", ids[ulo:uhi], g, cz, cconj[elo:ehi], inv2[2 * elo: 2 * ehi],
                          nden[ulo:uhi], bneg[elo:ehi]))
            run.append(k)
            continue
        if run:
            steps.append(check(run))
            run = []
        A = np.zeros((hi - lo, uhi - ulo), dtype=complex)
        A[c[elo:ehi] - lo, inv2[2 * elo: 2 * ehi: 2] // 2] = cconj[elo:ehi].conj()
        # column scaling keeps the rank decision honest
        colnorm = np.linalg.norm(A, axis=0)
        if np.any(colnorm == 0):
            missing = [divmod(int(ij), W) for ij in ids[ulo:uhi][colnorm == 0]]
            steps.append(("singular", f"antidiagonal {k}: entries {missing} appear in no "
                                      "usable relation"))
            continue
        blocks = [(np.asfortranarray(G[:h, a:b]), np.asfortranarray(Cz[:h, a:b]))
                  for h, a, b in ((rows[0], lo, mid), (rows[1], mid, hi)) if b > a]
        steps.append(("lstsq", k, ids[ulo:uhi], blocks, A, A / colnorm, colnorm))
    if run:
        steps.append(check(run))
    return known, steps


def _solve_frontiers(spec: SemiclassicalSpec, mu, residual_tol: float):
    """Fill mu in place, antidiagonal by antidiagonal, and return the
    pattern of the entries the seed block determines (see
    propagate_moments). The plan lives only as long as this call."""
    known, steps = _frontier_plan(spec, len(mu) - 1)
    mu_flat = mu.reshape(-1)
    for kind, *data in steps:
        if kind == "mean":
            # the scaled columns are orthonormal, so least squares is a
            # weighted mean per unknown: x_j = sum_r conj(a_rj) b_r / den_j.
            # Here b holds minus the right-hand sides, and nden = -den.
            ids, G, Cz, cconj, inv2, nden, b = data
            np.add.reduce(Cz * mu_flat[G], axis=0, out=b)
            x = np.bincount(inv2, (cconj * b).view(float), minlength=2 * len(ids)).view(complex)
            x /= nden
            mu_flat[ids] = x
        elif kind == "check":
            # each antidiagonal's residual check, for a run of means at once:
            # every entry they read or wrote is final. The first to fail raises.
            cconj, flat, eoff, ids, uoff, b = data
            scale = np.maximum.reduceat(np.abs(b), eoff)
            np.maximum(scale, np.maximum.reduceat(np.abs(mu_flat[ids]), uoff), out=scale)
            np.maximum(scale, 1.0, out=scale)
            r = cconj.conj()
            r *= mu_flat[flat]
            r += b
            resid = np.maximum.reduceat(np.abs(r), eoff)
            bad = np.flatnonzero(resid > residual_tol * scale)
            if len(bad):
                i = bad[0]
                raise InconsistentSeed(float(resid[i] / scale[i]), residual_tol,
                                       "frontier residual")
        elif kind == "lstsq":
            k, ids, blocks, A, scaled, colnorm = data
            b = -np.concatenate([(Cz * mu_flat[G]).sum(axis=0) for G, Cz in blocks])
            x, _, rank, _ = np.linalg.lstsq(scaled, b, rcond=1e-10)
            if rank < len(ids):
                raise SingularFrontier(
                    f"antidiagonal {k}: frontier system rank {rank} < {len(ids)} unknowns"
                )
            x = x / colnorm
            resid = float(np.abs(A @ x - b).max())
            scale = max(1.0, float(np.abs(np.concatenate((b, x))).max()))
            if resid > residual_tol * scale:
                raise InconsistentSeed(resid / scale, residual_tol, "frontier residual")
            mu_flat[ids] = x
        else:
            raise SingularFrontier(data[0])
    return known.reshape(mu.shape)


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

    Which equations an antidiagonal holds, which entries they determine
    and the arrays that solve them depend on the spec and N, not on the
    seed, so they are worked out once per call, for all antidiagonals at
    once (_frontier_plan). Each antidiagonal is then one gather of mu, one
    weighted sum for the right-hand sides, the solve and one scatter of
    the solution. The residual checks of a run of weighted-mean
    antidiagonals are made together after it, each against its own
    antidiagonal's scale, and the first to fail raises. Each side's
    coefficients are first
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
    mu = np.zeros((Ni + 1, Ni + 1), dtype=complex)
    mu[: spec.a1 + 1, : spec.a2 + 1] = seed
    known = _solve_frontiers(spec, mu, residual_tol)

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
