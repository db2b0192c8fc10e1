"""Adaptive complex-contour quadrature and the fundamental functionals.

The engine integrates W(x) * g(x) dx along a Contour with 15-point
Gauss-Kronrod panels and bisection, vectorized over the components of g.
Unbounded pieces are truncated where the sampled integrand has dropped
~20 decades below its running maximum; multivalued weight factors are
continued along the path from a fixed anchor point so branch choices do
not depend on truncation or panel counts.

Double integrals over product contours use a product rule: each contour
gets one converged Kronrod mesh, adapted against the other contour's
fixed rule, and a bimoment table or a value of the generating function
is the bilinear form of the two meshes with the kernel e^(rho x y).
"""
from __future__ import annotations

import cmath
import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    AssumptionBViolated,
    DivergentCoupling,
    DivergentTail,
    QuadratureStall,
)
from .tables import PROV_QUADRATURE, BimomentTable
from .weights import (
    Arc,
    Contour,
    InRay,
    OutRay,
    Seg,
    WeightSpec,
    default_truncation,
    direction_decays,
    normalize_potential,
    trace_sdc,
)

# 15-point Kronrod nodes/weights with the embedded 7-point Gauss rule, to
# double precision (QUADPACK qk15); the rule is symmetric about 0
_XK = [0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
       0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
       0.20778495500789848, 0.0]
_WK = [0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
       0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
       0.20443294007529889, 0.20948214108472782]
_WGH = [0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
        0.4179591836734694]
_XGK = np.array([-x for x in _XK[:-1]] + _XK[::-1])
_WGK = np.array(_WK + _WK[-2::-1])
_WG = np.array(_WGH + _WGH[-2::-1])
_GAUSS_IDX = np.arange(1, 15, 2)

MAX_PANELS_PER_PIECE = 2 ** 14
# initial panels on a segment longer than 3, before any bisection
_LONG_SEG_PANELS = 6


def default_tolerance() -> float:
    """Base relative tolerance; BIMOMENT_TOL overrides it and must be a
    positive finite number (ValueError otherwise)."""
    env = os.environ.get("BIMOMENT_TOL")
    if not env:
        return 1e-10
    try:
        tol = float(env)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise ValueError(f"BIMOMENT_TOL must be a positive finite number, got {env!r}")
    return tol


# --- path preparation -----------------------------------------------------

@dataclass
class _QPiece:
    """Bounded piece with the continued args of every tracked singularity
    pinned at its start."""

    geom: object                  # Seg or Arc
    theta_in: dict                # sing index -> arg at t = 0

    def thetas(self, spec: WeightSpec, t: np.ndarray) -> dict:
        out = {}
        x = self.geom.point(t)
        for idx, th0 in self.theta_in.items():
            X = spec.singularities[idx].location
            out[idx] = th0 + _relative_angle(self.geom, X, x, t)
        return out

    def theta_out(self, spec: WeightSpec) -> dict:
        return {i: float(th[0]) for i, th in self.thetas(spec, np.array([1.0])).items()}


def _relative_angle(geom, X: complex, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Continuous change of arg(x - X) along the piece relative to t = 0.

    Exact for segments (a segment subtends < pi from any external point),
    exact for arcs centered at X, and valid for short sub-arcs (the
    builder splits arcs until their chord is small against the distance
    to every tracked singularity).
    """
    if isinstance(geom, Arc) and abs(geom.center - X) <= 1e-14 * max(1.0, abs(X)):
        return (geom.th1 - geom.th0) * np.asarray(t)
    x0 = geom.point(np.array([0.0]))[0]
    d0 = x0 - X
    if abs(d0) == 0.0:
        # radial piece leaving the singularity: the direction is constant
        return np.zeros_like(np.asarray(t, dtype=float))
    return np.angle((x - X) / d0)


def _subdivide_for_tracking(geom, spec: WeightSpec):
    """Split arcs until each sub-arc is short against its distance to every
    tracked singularity (keeps the relative-angle formula single-valued)."""
    tracked = [s for s in spec.singularities if s.tracked]
    if isinstance(geom, Seg) or not tracked:
        return [geom]
    out = []
    stack = [geom]
    while stack:
        arc = stack.pop()
        span = abs(arc.th1 - arc.th0)
        chord = 2 * arc.radius * math.sin(min(span / 2, math.pi / 2))
        mid = arc.point(np.array([0.5]))[0]
        centered = any(abs(arc.center - s.location) <= 1e-14 * max(1.0, abs(s.location))
                       for s in tracked)
        dmin = min((abs(mid - s.location) for s in tracked
                    if abs(arc.center - s.location) > 1e-14 * max(1.0, abs(s.location))),
                   default=np.inf)
        if span <= math.pi / 2 and (centered or chord <= 0.6 * dmin or dmin == np.inf):
            out.append(arc)
        else:
            thm = 0.5 * (arc.th0 + arc.th1)
            stack.append(Arc(arc.center, arc.radius, thm, arc.th1))
            stack.append(Arc(arc.center, arc.radius, arc.th0, thm))
    # stack order reversed the pieces; restore path order
    out.sort(key=lambda a: (a.th0 - geom.th0) * (1 if geom.th1 >= geom.th0 else -1))
    return out


def _truncate_ray(spec: WeightSpec, ray, gprobe) -> float:
    """Length at which the sampled |W * g| has fallen ~20 decades below its
    running maximum along the ray. Raises DivergentTail when the direction
    is not a decay direction or the samples keep growing."""
    u = ray.direction / abs(ray.direction)
    if not direction_decays(spec, u):
        raise DivergentTail(
            f"ray direction {u:.4f} is not inside a decay sector"
        )
    x0 = ray.end if isinstance(ray, InRay) else ray.start
    # start where the potential alone is already a few digits down
    d = spec.d
    T = max(1.0, (8.0 / max(abs(spec.v_top), 1e-12)) ** (1.0 / (d + 1)))
    logmax = -np.inf
    grows = 0
    for _ in range(200):
        x = x0 + T * u
        lw = spec.log_weight_principal(np.array([x]))[0].real
        g = gprobe(np.array([x]))
        ga = float(np.max(np.abs(g)))
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


def _prepare(contour: Contour, spec: WeightSpec, gprobe) -> list:
    """Materialize rays, split arcs, and chain the branch continuation,
    re-anchored at the contour's fixed anchor point."""
    geoms = []
    for p in contour.pieces:
        if isinstance(p, (InRay, OutRay)):
            T = _truncate_ray(spec, p, gprobe)
            geoms.extend(_subdivide_for_tracking(p.materialize(T), spec))
        else:
            geoms.extend(_subdivide_for_tracking(p, spec))
    tracked = [i for i, s in enumerate(spec.singularities) if s.tracked]
    if not tracked:
        return [_QPiece(g, {}) for g in geoms]

    start = geoms[0].point(np.array([0.0]))[0]
    theta = {}
    for i in tracked:
        X = spec.singularities[i].location
        if abs(start - X) <= 1e-14 * max(1.0, abs(X)):
            nxt = geoms[0].point(np.array([1e-6]))[0]
            theta[i] = cmath.phase(nxt - X)
        else:
            theta[i] = cmath.phase(start - X)
    qpieces = []
    best = (np.inf, None)
    for g in geoms:
        qp = _QPiece(g, dict(theta))
        qpieces.append(qp)
        p0 = g.point(np.array([0.0]))[0]
        dist = abs(p0 - contour.anchor_point)
        if dist < best[0]:
            best = (dist, dict(theta))
        theta = qp.theta_out(spec)
    anchor_theta = best[1]
    # re-anchor: principal branch holds at the anchor point, not at the
    # (truncation-dependent) far start
    shift = {}
    for i in tracked:
        X = spec.singularities[i].location
        principal = cmath.phase(contour.anchor_point - X) \
            if abs(contour.anchor_point - X) > 0 else anchor_theta[i]
        shift[i] = principal - anchor_theta[i]
    for qp in qpieces:
        qp.theta_in = {i: th + shift[i] for i, th in qp.theta_in.items()}
    return qpieces


# --- panel machinery ------------------------------------------------------

def _panel_eval(spec: WeightSpec, qp: _QPiece, t0: float, t1: float, gfun):
    mid = 0.5 * (t0 + t1)
    half = 0.5 * (t1 - t0)
    t = mid + half * _XGK
    x = qp.geom.point(t)
    dx = qp.geom.velocity(t)
    w = spec.weight_tracked(x, qp.thetas(spec, t))
    g = np.atleast_2d(gfun(x))
    f = g * (w * dx)[None, :]
    if not np.all(np.isfinite(f)):
        raise QuadratureStall("non-finite integrand sample")
    k15 = half * (f @ _WGK)
    g7 = half * (f[:, _GAUSS_IDX] @ _WG)
    err = np.abs(k15 - g7)
    return k15, err


def integrate_contour(contour: Contour, spec: WeightSpec, gfun, ncomp: int,
                      rtol: Optional[float] = None, atol: float = 0.0,
                      max_panels: int = MAX_PANELS_PER_PIECE,
                      _panels: Optional[list] = None):
    """integral of W(x) g(x) dx over the contour; g vector-valued.

    Returns (values, errors) with shapes (ncomp,). Tolerance per
    component is max(atol, rtol * (1 + |I_comp|)); panels split worst
    first until every component converges. When _panels is a list, the
    final panels are appended to it as (piece, t0, t1) in path order.
    """
    if rtol is None:
        rtol = default_tolerance()
    qpieces = _prepare(contour, spec, gfun)

    cap = 256
    meta = np.zeros((cap, 3))            # piece index, t0, t1
    vals_arr = np.zeros((cap, ncomp), dtype=complex)
    errs_arr = np.zeros((cap, ncomp))
    count = 0

    def push(ip, t0, t1):
        nonlocal count, cap, meta, vals_arr, errs_arr
        if count == cap:
            cap *= 2
            meta = np.resize(meta, (cap, 3))
            vals_arr = np.resize(vals_arr, (cap, ncomp))
            errs_arr = np.resize(errs_arr, (cap, ncomp))
        v, e = _panel_eval(spec, qpieces[ip], t0, t1, gfun)
        meta[count] = (ip, t0, t1)
        vals_arr[count] = v
        errs_arr[count] = e
        count += 1

    for ip, qp in enumerate(qpieces):
        n0 = 1
        if isinstance(qp.geom, Seg) and abs(qp.geom.b - qp.geom.a) > 3.0:
            n0 = _LONG_SEG_PANELS
        cuts = np.linspace(0.0, 1.0, n0 + 1)
        for i in range(n0):
            push(ip, cuts[i], cuts[i + 1])

    budget = max_panels * len(qpieces)
    while True:
        total = vals_arr[:count].sum(axis=0)
        toterr = errs_arr[:count].sum(axis=0)
        totabs = np.abs(vals_arr[:count]).sum(axis=0)
        tol = np.maximum(atol, rtol * (1.0 + np.abs(total)))
        # roundoff floor: the error estimate cannot drop below machine eps
        # times the mass being cancelled along the path
        denom = np.maximum(0.25 * tol, 5e-15 * totabs)
        bad = toterr > denom
        if not bad.any():
            break
        if count >= budget:
            if np.all(toterr <= np.maximum(20 * tol, 10 * 5e-15 * totabs)):
                break
            raise QuadratureStall(
                f"tolerance unreachable: err {float(np.max(toterr / tol)):.2e}x target "
                f"with {count} panels"
            )
        # split the panel worst-placed relative to the unmet tolerances, so
        # large-magnitude components cannot starve small ones
        scores = (errs_arr[:count][:, bad] / denom[bad]).max(axis=1)
        k = int(np.argmax(scores))
        ip, t0, t1 = int(meta[k, 0]), meta[k, 1], meta[k, 2]
        # drop panel k by swapping in the last one
        count -= 1
        meta[k] = meta[count]
        vals_arr[k] = vals_arr[count]
        errs_arr[k] = errs_arr[count]
        tm = 0.5 * (t0 + t1)
        push(ip, t0, tm)
        push(ip, tm, t1)

    # deterministic ordered reduction
    order = np.lexsort((meta[:count, 1], meta[:count, 0]))
    if _panels is not None:
        _panels.extend((qpieces[int(ip)], t0, t1) for ip, t0, t1 in meta[:count][order])
    total = vals_arr[:count][order].sum(axis=0)
    toterr = errs_arr[:count][order].sum(axis=0)
    totabs = np.abs(vals_arr[:count][order]).sum(axis=0)
    return total, np.maximum(toterr, 2e-16 * totabs)


# --- public single-contour transforms -------------------------------------

def laplace(contour: Contour, spec: WeightSpec, z: complex, m: int = 0,
            rtol: Optional[float] = None) -> complex:
    """int_Gamma x^m W(x) e^(xz) dx."""
    vals, _ = laplace_many(contour, spec, np.array([z]), m, rtol=rtol)
    return complex(vals[m, 0])


def laplace_many(contour: Contour, spec: WeightSpec, zs: np.ndarray,
                 max_m: int, rtol: Optional[float] = None):
    """All transforms int x^m W e^(xz) dx for m = 0..max_m and each z.

    Returns (values, errors) of shape (max_m + 1, len(zs)).
    """
    zs = np.asarray(zs, dtype=complex)
    nz = len(zs)
    ncomp = (max_m + 1) * nz

    def gfun(x):
        ez = np.exp(np.multiply.outer(zs, x))              # (nz, nx)
        pows = np.ones((max_m + 1, len(x)), dtype=complex)  # (m, nx)
        for m in range(1, max_m + 1):
            pows[m] = pows[m - 1] * x
        return (pows[:, None, :] * ez[None, :, :]).reshape(ncomp, len(x))

    # far out on a ray e^(xz) can overflow; _panel_eval refuses such a sample
    # with QuadratureStall, so numpy need not warn about it as well
    with np.errstate(over="ignore", invalid="ignore"):
        vals, errs = integrate_contour(contour, spec, gfun, ncomp, rtol=rtol)
    return vals.reshape(max_m + 1, nz), errs.reshape(max_m + 1, nz)


# --- fundamental functionals ----------------------------------------------

@dataclass
class FunctionalHandle:
    """One fundamental functional: a pair of marginal weights and one
    contour on each sphere, coupled through e^(rho * x * y)."""

    wx: WeightSpec
    wy: WeightSpec
    cx: Contour
    cy: Contour
    i: int = 0
    j: int = 0
    rho: float = 1.0
    _cache: dict = field(default_factory=dict)

    def table_with_errors(self, N: int, rtol: Optional[float] = None):
        """(BimomentTable, per-entry errors), computed once per (N, rtol, rho)."""
        key = (N, rtol, self.rho)
        if key not in self._cache:
            self._cache[key] = bimoment_table(self, N, rtol=rtol)
        return self._cache[key]

    def table(self, N: int, rtol: Optional[float] = None) -> BimomentTable:
        return self.table_with_errors(N, rtol)[0]

    def table_errors(self, N: int, rtol: Optional[float] = None) -> np.ndarray:
        return self.table_with_errors(N, rtol)[1]


def _gaussian_coupling_guard(handle: FunctionalHandle):
    """Refuse the d1 = d2 = 1 regime unless the coupled quadratic form is
    convergent on the chosen contour tails."""
    wx, wy = handle.wx, handle.wy
    if wx.d != 1 or wy.d != 1:
        return
    delta = 2.0 * wx.Vplus.coeff(2)
    sigma = 2.0 * wy.Vplus.coeff(2)
    if abs(delta * sigma) <= 1.0 + 1e-12:
        raise DivergentCoupling(
            f"|delta*sigma| = {abs(delta * sigma):.6g} <= 1: factorized product "
            "contours diverge"
        )
    for u in handle.cx.ray_directions():
        for v in handle.cy.ray_directions():
            u = u / abs(u)
            v = v / abs(v)
            a = (delta / 2 * u * u).real
            b = (sigma / 2 * v * v).real
            c = handle.rho * (u * v).real
            if a <= 0 or b <= 0 or (c > 0 and c * c >= 4 * a * b):
                raise DivergentCoupling(
                    "coupled quadratic form not negative definite along "
                    f"tail directions ({u:.3f}, {v:.3f})"
                )


@dataclass
class _Mesh:
    """Converged node set of one contour: nodes x with the weights
    W(x) dx w_k of the 15-point Kronrod rule (wk) and of its embedded
    7-point Gauss rule (wg, zero off the Gauss nodes)."""

    x: np.ndarray
    wk: np.ndarray
    wg: np.ndarray


def _mesh_from_panels(spec: WeightSpec, panels: list) -> _Mesh:
    """Nodes and weights of the panels handed back by integrate_contour."""
    xs, wks, wgs = [], [], []
    for _, group in itertools.groupby(panels, key=lambda p: id(p[0])):
        group = list(group)
        qp = group[0][0]
        t0 = np.array([p[1] for p in group])[:, None]
        t1 = np.array([p[2] for p in group])[:, None]
        half = 0.5 * (t1 - t0)
        t = (0.5 * (t0 + t1) + half * _XGK).ravel()
        x = qp.geom.point(t)
        w = spec.weight_tracked(x, qp.thetas(spec, t)) * qp.geom.velocity(t)
        base = half * w.reshape(-1, len(_XGK))
        wg = np.zeros_like(base)
        wg[:, _GAUSS_IDX] = base[:, _GAUSS_IDX] * _WG
        xs.append(x)
        wks.append((base * _WGK).ravel())
        wgs.append(wg.ravel())
    return _Mesh(np.concatenate(xs), np.concatenate(wks), np.concatenate(wgs))


def _adapt_mesh(contour: Contour, spec: WeightSpec, gfun, ncomp: int,
                rtol: float) -> _Mesh:
    panels = []
    integrate_contour(contour, spec, gfun, ncomp, rtol=rtol, _panels=panels)
    return _mesh_from_panels(spec, panels)


def _coupled_mesh(contour: Contour, spec: WeightSpec, cols, other: _Mesh,
                  other_cols, rho: float, rtol: float) -> _Mesh:
    """Mesh of contour converged for the components
    cols(u)_a sum_k wk_k other_cols(v_k)_b e^(rho u v_k) over the fixed
    rule (v, wk) of the other contour. A column function maps nodes of
    shape (n,) to values of shape (n, ncols)."""
    V = other.wk[:, None] * other_cols(other.x)
    ncomp = cols(np.zeros(1)).shape[1] * V.shape[1]

    def gfun(u):
        S = np.exp(rho * np.multiply.outer(u, other.x)) @ V      # (nu, b)
        P = cols(u)                                              # (nu, a)
        return (P.T[:, None, :] * S.T[None, :, :]).reshape(ncomp, len(u))

    return _adapt_mesh(contour, spec, gfun, ncomp, rtol)


def _product_meshes(handle: FunctionalHandle, fx, fy, rtol: Optional[float]):
    """Converged meshes (mx, my) of the handle's contours for the double
    integrals of fx(x)_a fy(y)_b e^(rho x y) against W1(x) W2(y), with
    column functions fx, fy as in _coupled_mesh.

    The meshes alternate: a provisional y mesh for fy alone, x adapted
    against the fixed y rule, y against the fixed x rule, for at most two
    sweeps, stopping early once a re-adapted mesh repeats.
    """
    if rtol is None:
        rtol = default_tolerance()
    if handle.wx.d < 1 or handle.wy.d < 1:
        raise DivergentCoupling("both marginal weights need d >= 1")
    _gaussian_coupling_guard(handle)
    rho = handle.rho
    my = _adapt_mesh(handle.cy, handle.wy, lambda y: fy(y).T,
                     fy(np.zeros(1)).shape[1], rtol)
    mx = None
    for _ in range(2):
        new_x = _coupled_mesh(handle.cx, handle.wx, fx, my, fy, rho, rtol)
        if mx is not None and np.array_equal(new_x.x, mx.x):
            break
        mx = new_x
        new_y = _coupled_mesh(handle.cy, handle.wy, fy, mx, fx, rho, rtol)
        if np.array_equal(new_y.x, my.x):
            break
        my = new_y
    return mx, my


_KERNEL_ROWS = 16


def _product_rule(mx: _Mesh, my: _Mesh, rho: float, Px: np.ndarray, Py: np.ndarray):
    """The bilinear form F = Xᵀ exp(rho x yᵀ) Y with X[k, a] = wk_k Px[k, a]
    and Y[l, b] = wk_l Py[l, b], for column values Px, Py at the nodes of
    mx, my. Returns (F, err, mass): err is |F_KK - F_GK| + |F_KK - F_KG|
    (Kronrod minus Gauss on each factor) and mass the summed |terms| of
    each entry, for a roundoff floor. The kernel is formed in blocks of
    rows, never whole."""
    na, nb = Px.shape[1], Py.shape[1]
    # Kronrod rule and Kronrod-minus-Gauss side by side
    X = np.hstack([mx.wk[:, None] * Px, (mx.wk - mx.wg)[:, None] * Px])
    Y = np.hstack([my.wk[:, None] * Py, (my.wk - my.wg)[:, None] * Py])
    absY = np.abs(Y[:, :nb])
    KY = np.empty((len(mx.x), 2 * nb), dtype=complex)
    absKY = np.empty((len(mx.x), nb))
    buf = np.empty((_KERNEL_ROWS, len(my.x)), dtype=complex)
    ry = rho * my.x
    for r0 in range(0, len(mx.x), _KERNEL_ROWS):
        rows = slice(r0, r0 + _KERNEL_ROWS)
        blk = buf[: len(mx.x[rows])]
        np.multiply.outer(mx.x[rows], ry, out=blk)
        np.exp(blk, out=blk)
        KY[rows] = blk @ Y
        absKY[rows] = np.abs(blk) @ absY
    acc = X.T @ KY
    F = acc[:na, :nb].copy()
    err = np.abs(acc[na:, :nb]) + np.abs(acc[:na, nb:])
    return F, err, np.abs(X[:, :na]).T @ absKY


def bimoment_table(handle: FunctionalHandle, N: int,
                   rtol: Optional[float] = None):
    """mu[n, m] = int_Gx int_Gy W1(x) W2(y) x^n y^m e^(rho x y) dy dx for
    n, m = 0..N.

    Returns (BimomentTable, per-entry error array). Each contour gets one
    converged Kronrod mesh (see _product_meshes) and the table is their
    bilinear form with the kernel in the monomial columns. The error is
    Kronrod minus Gauss on both factors, floored at the roundoff
    2e-16 (n + m + 2) times the summed |terms|: a term carries the n + m
    roundings of its powers, and the exponents of the nodes that weigh
    x^n y^m grow with n + m.
    """
    if N < 0:
        raise ValueError(f"table order must be >= 0, got {N}")

    def powers(x):
        return np.vander(x, N + 1, increasing=True)

    mx, my = _product_meshes(handle, powers, powers, rtol)
    mu, err, mass = _product_rule(mx, my, handle.rho, powers(mx.x), powers(my.x))
    ulps = 2e-16 * (np.add.outer(np.arange(N + 1), np.arange(N + 1)) + 2)
    table = BimomentTable(mu, np.full((N + 1, N + 1), PROV_QUADRATURE, dtype=np.int8))
    return table, np.maximum(err, ulps * mass)


def generating_eval(handle: FunctionalHandle, z: complex, w: complex,
                    rtol: Optional[float] = None) -> complex:
    """F(z, w) = int_Gx int_Gy W1(x) W2(y) e^(xz + yw + rho x y) dy dx, the
    entire generating function of the handle's bimoments, by the product
    rule of bimoment_table with the single columns e^(xz) and e^(yw)."""
    def fx(x):
        return np.exp(z * x)[:, None]

    def fy(y):
        return np.exp(w * y)[:, None]

    mx, my = _product_meshes(handle, fx, fy, rtol)
    F, _, _ = _product_rule(mx, my, handle.rho, fx(mx.x), fy(my.x))
    return complex(F[0, 0])


def rho_factorization_check(handle: FunctionalHandle,
                            grid=(-0.25, 0.0, 0.25),
                            rtol: Optional[float] = None) -> float:
    """Decoupling check at rho = 0: the double integral with unit kernel,
    evaluated by generating_eval on product-rule meshes, must factor into
    Xi(z) * Psi(w) from independent single-contour runs (one laplace_many
    over the grid per contour). Returns the max relative discrepancy over
    the (z, w) grid."""
    zero = FunctionalHandle(wx=handle.wx, wy=handle.wy, cx=handle.cx,
                            cy=handle.cy, i=handle.i, j=handle.j, rho=0.0)
    xi = laplace_many(handle.cx, handle.wx, grid, 0, rtol=rtol)[0][0]
    psi = laplace_many(handle.cy, handle.wy, grid, 0, rtol=rtol)[0][0]
    worst = 0.0
    for z, xi_z in zip(grid, xi):
        for w, psi_w in zip(grid, psi):
            fac = xi_z * psi_w
            it = generating_eval(zero, z, w, rtol=rtol)
            worst = max(worst, abs(it - fac) / max(1.0, abs(fac)))
    return worst


def rho_sweep(handle: FunctionalHandle, rhos, z: complex = 0.2, w: complex = -0.1,
              rtol: Optional[float] = None) -> list:
    """|F(z, w; rho) - Xi(z)Psi(w)| along a kernel sweep, with F from
    generating_eval (reported, not asserted)."""
    xi = laplace(handle.cx, handle.wx, z, 0, rtol=rtol)
    psi = laplace(handle.cy, handle.wy, w, 0, rtol=rtol)
    out = []
    for r in rhos:
        h = FunctionalHandle(wx=handle.wx, wy=handle.wy, cx=handle.cx,
                             cy=handle.cy, rho=float(r))
        out.append(abs(generating_eval(h, z, w, rtol=rtol) - xi * psi))
    return out


# --- certificates ----------------------------------------------------------

@dataclass
class IndependenceReport:
    rank: int
    expected: int
    sv_ratio: float
    singular_values: np.ndarray

    @property
    def passed(self) -> bool:
        return self.rank == self.expected


def independence_certificate(handles: list, N: int,
                             rank_rel_tol: float = 1e-8,
                             rtol: Optional[float] = None) -> IndependenceReport:
    """Numerical rank of the stacked, row-normalized bimoment tables.

    The handles span the solution space of the moment recurrences; full
    rank len(handles) realizes their linear independence.
    """
    if (N + 1) ** 2 < len(handles):
        raise ValueError("(N+1)^2 must be at least the number of handles")
    rows = []
    for h in handles:
        v = h.table(N, rtol=rtol).entries.ravel()
        nrm = np.linalg.norm(v)
        rows.append(v / (nrm if nrm > 0 else 1.0))
    A = np.array(rows)
    sv = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(sv > rank_rel_tol * sv[0]))
    return IndependenceReport(rank=rank, expected=len(handles),
                              sv_ratio=float(sv[-1] / sv[0]), singular_values=sv)


@dataclass
class AsymptoticReport:
    k: int
    zs: list
    ratios: list          # |F_k| / |predicted leading term|
    phase_defects: list   # |arg F_k - arg predicted| mod 2pi, in radians
    slope: float          # log-log decay rate of |ratio - 1|
    K_settled: bool

    @property
    def passed(self) -> bool:
        # the leading term must be confirmed and the correction must die
        # at least about as fast as 1/z
        return abs(self.ratios[-1] - 1.0) <= 0.05 and self.slope <= -0.7


def predicted_leading(spec: WeightSpec, z: complex, k: int) -> complex:
    """K sqrt(2 pi/d) z^((2A+1-d)/(2d)) omega^(k(A-1/2))
    exp(d/(d+1) z^((d+1)/d) omega^k) for the normalized potential."""
    d = spec.d
    A = spec.A_total
    omega = cmath.exp(2j * math.pi / d)
    zp = z ** ((2 * A + 1 - d) / (2 * d))
    op = cmath.exp((2j * math.pi / d) * k * (A - 0.5))
    ex = cmath.exp(d / (d + 1) * z ** ((d + 1) / d) * omega ** k)
    return math.sqrt(2 * math.pi / d) * zp * op * ex


def asymptotic_check(spec: WeightSpec, k: int, zs, rtol: Optional[float] = None,
                     auto_normalize: bool = True) -> AsymptoticReport:
    """Quadrature over traced steepest-descent contours against the
    predicted leading term, along increasing |z| inside the dual sector."""
    if auto_normalize:
        spec, _ = normalize_potential(spec)
    ratios, phases = [], []
    # the constant K is the limit of the essential factor exp(sum E_j); in
    # this canonical normalization that limit is 1, settled when the
    # principal parts are already negligible at the truncation radius
    far = 10.0 * default_truncation(spec)
    tail = 0.0
    for sng in spec.singularities:
        for q, e in enumerate(sng.essential, start=1):
            tail += abs(e) / abs(far - sng.location) ** q
    settled = tail <= 1e-8
    for z in zs:
        z = complex(z)
        sdc = trace_sdc(spec, z, k)
        F = laplace(sdc, spec, z, 0, rtol=rtol)
        P = predicted_leading(spec, z, k)
        ratios.append(abs(F) / abs(P))
        dphi = cmath.phase(F / P)
        phases.append(abs(dphi))
    devs = np.array([max(abs(r - 1.0), 1e-14) for r in ratios])
    mags = np.log(np.abs(np.array([complex(z) for z in zs])))
    if len(zs) >= 2:
        slope = float(np.polyfit(mags, np.log(devs), 1)[0])
    else:
        slope = 0.0
    return AsymptoticReport(k=k, zs=[complex(z) for z in zs], ratios=ratios,
                            phase_defects=phases, slope=slope, K_settled=settled)


# --- problem setup ----------------------------------------------------------

@dataclass
class ProblemSetup:
    """Weights, contours, and the full family of fundamental functionals
    for a validated semiclassical spec."""

    wx: WeightSpec
    wy: WeightSpec
    contours_x: list
    contours_y: list
    handles: list  # row-major over (i, j)

    def handle(self, i: int, j: int) -> FunctionalHandle:
        """The functional on contour i of x and contour j of y (0-based)."""
        s1, s2 = len(self.contours_x), len(self.contours_y)
        if not (0 <= i < s1 and 0 <= j < s2):
            raise IndexError(f"functional ({i}, {j}) outside 0 <= i < {s1}, 0 <= j < {s2}")
        return self.handles[i * s2 + j]


def make_setup(spec) -> ProblemSetup:
    """Build both marginal weights, their contour families, and all
    s1*s2 fundamental functionals for an irreducible validated spec."""
    from .weights import build_contours, build_weight

    if spec.reducible:
        raise AssumptionBViolated(
            "pair shares a factor: reduce_common_factor / delta_solutions apply"
        )
    wx = build_weight(spec.A1, spec.B1)
    wy = build_weight(spec.A2, spec.B2)
    cxs = build_contours(wx)
    cys = build_contours(wy)
    handles = [FunctionalHandle(wx=wx, wy=wy, cx=cx, cy=cy, i=i, j=j)
               for i, cx in enumerate(cxs) for j, cy in enumerate(cys)]
    return ProblemSetup(wx=wx, wy=wy, contours_x=cxs, contours_y=cys,
                        handles=handles)
