"""Adaptive complex-contour quadrature and the fundamental functionals.

The engine integrates W(x) * g(x) dx along a Contour with 15-point
Gauss-Kronrod panels and bisection, vectorized over the components of g.
Refinement runs in global-error rounds (QUADPACK qag; Gander & Gautschi,
BIT 40, 2000). The initial panels, and then the new halves of each round,
are evaluated together on stacked nodes: one weight call over all of
them, and g on at most about 2^14 integrand values per call, so memory
stays flat however many panels a round splits. A pass maps the nodes of
all its segment panels at once and each arc per piece. Unbounded pieces
are truncated where the sampled integrand has dropped ~20 decades below
its running maximum, on a geometric ladder of lengths sampled a chunk at
a time (one weight call and one integrand call per chunk) and decided
node by node, so the length does not depend on the chunks; multivalued
weight factors are continued along the path from a fixed anchor point so
branch choices do not depend on truncation or panel counts. A run whose
weight samples are all 0 after its first pass raises QuadratureStall.

A bimoment table comes from the series of the kernel e^(rho x y): each
entry is sum_k rho^k/k! a[n+k] b[m+k] over the one-sided moments of the
two contours, one integrate_contour run per contour (bimoment_table). A
table comes back as one BimomentTable that carries its per-entry errors; a
FunctionalHandle is plain data and keeps no table. The one-sided runs are
kept instead, in a module-level memo of the last _MOMENT_MEMO_SIZE runs
keyed by (contour, weight, number of moments, resolved rtol)
(_hankel_block), so the s1*s2 handles of a family take s1 + s2 runs.

The generating function F(z, w) is the same series over the one-sided
transforms Xi_k(z) = int x^k W1 e^(xz) and Psi_k(w): F = sum_k rho^k/k!
Xi_k(z) Psi_k(w). A side integrates only its deg A seeds and a two-term
check block, in one integrate_contour run, and the weight's Pearson
recurrence gives the rest (_SeededTransforms), with errors carried
through the recursion; a recursion that misses its check block, or an F
whose propagated error exceeds rtol times its summed |terms|, falls back
to integrating all the transforms.

The rho check keeps a product rule, as a double integral independent of
the series: each contour gets one converged Kronrod mesh, adapted against
the other contour's fixed rule (y alone, x against y, then y against x),
and the value is the bilinear form of the two meshes with the kernel
e^(rho x y). That product also judges x against the final y rule by the
engine's own acceptance; only a failed check re-adapts x, then y.
"""
from __future__ import annotations

import cmath
import functools
import math
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (
    AssumptionBViolated,
    DivergentCoupling,
    DivergentTail,
    QuadratureStall,
)
from .polycore import CPoly, poly_eval
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
    saddle_points,
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
# the weights as complex, which matmul would otherwise cast on every panel
_WGK_C = _WGK.astype(complex)
_WG_C = _WG.astype(complex)

MAX_PANELS_PER_PIECE = 2 ** 14
# initial panels on a segment longer than 3, before any bisection, and the
# initial cuts in the piece parameter of such a segment and of other pieces
_LONG_SEG_PANELS = 6
_LONG_SEG_CUTS = np.linspace(0.0, 1.0, _LONG_SEG_PANELS + 1)
_UNIT_CUTS = np.array([0.0, 1.0])


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

    def thetas(self, spec: WeightSpec, t: np.ndarray, x: np.ndarray) -> dict:
        """The continued args at the parameters t, whose points are x."""
        out = {}
        for idx, th0 in self.theta_in.items():
            X = spec.singularities[idx].location
            out[idx] = th0 + _relative_angle(self.geom, X, x, t)
        return out

    def theta_out(self, spec: WeightSpec) -> dict:
        t = np.array([1.0])
        return {i: float(th[0]) for i, th in self.thetas(spec, t, self.geom.point(t)).items()}


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


# the truncation ladder: at most _TRUNCATION_STEPS lengths T, T 1.35, ...,
# probed in chunks of _FIRST_PROBE_CHUNK lengths, each chunk twice the last
_TRUNCATION_STEPS = 200
_FIRST_PROBE_CHUNK = 8


def _truncate_ray(spec: WeightSpec, ray, gprobe) -> float:
    """Length at which the sampled |W * g| has fallen ~20 decades below its
    running maximum along the ray. Raises DivergentTail when the direction
    is not a decay direction or the samples keep growing.

    The ladder T, T 1.35, ... is sampled a chunk at a time, one weight call
    and one gprobe call per chunk, and decided node by node in ladder
    order, so the length and any DivergentTail do not depend on the chunk
    sizes; samples past the decision are discarded."""
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
    done, chunk = 0, _FIRST_PROBE_CHUNK
    while done < _TRUNCATION_STEPS:
        ladder = []
        for _ in range(min(chunk, _TRUNCATION_STEPS - done)):
            ladder.append(T)
            T *= 1.35
        done += len(ladder)
        chunk *= 2
        x = np.array([x0 + t * u for t in ladder])
        # far past the decision a sample may leave the double range; it is
        # never looked at
        with np.errstate(over="ignore", invalid="ignore"):
            lws = spec.log_weight_principal(x).real.tolist()
            gas = np.max(np.abs(np.atleast_2d(gprobe(x))), axis=0).tolist()
        for t, lw, ga in zip(ladder, lws, gas):
            logm = lw + (math.log(ga) if ga > 0 else -np.inf)
            if logm > logmax:
                grows += 1
                logmax = logm
            else:
                grows = 0
            if logm < logmax - 46.0:
                return t
            if grows > 60:
                raise DivergentTail("integrand keeps growing along the ray")
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


class _Path:
    """The prepared pieces of a contour, with every segment's start a and
    step b - a in arrays indexed by piece (0 on the arcs), so that a pass
    maps the nodes of all its segment panels at once."""

    def __init__(self, qpieces: list):
        self.qpieces = qpieces
        segs = [isinstance(qp.geom, Seg) for qp in qpieces]
        self.arcs = not all(segs)
        self.start = np.array([qp.geom.a if s else 0j for qp, s in zip(qpieces, segs)],
                              dtype=complex)
        self.step = np.array([qp.geom.b - qp.geom.a if s else 0j
                              for qp, s in zip(qpieces, segs)], dtype=complex)


# --- panel machinery ------------------------------------------------------

def _panel_eval(half: float, f: np.ndarray):
    """Kronrod value and |Kronrod - Gauss| of one panel of half-width half
    (in the piece parameter) from its samples f = g(x) W(x) dx/dt, shape
    (ncomp, 15)."""
    k15 = half * (f @ _WGK_C)
    g7 = half * (f[:, _GAUSS_IDX] @ _WG_C)
    return k15, np.abs(k15 - g7)


# integrand values per stacked gfun call: a pass hands gfun the nodes of at
# most max(1, _STACK_VALUES // (15 ncomp)) panels at a time
_STACK_VALUES = 2 ** 14


def _eval_pass(spec: WeightSpec, path: _Path, piece: np.ndarray, t0: np.ndarray,
               t1: np.ndarray, gfun, ncomp: int):
    """Evaluate the panels [t0, t1] of path.qpieces[piece] (in path order)
    on stacked nodes: the segment panels in one geometry pass, the arcs and
    the branches per piece, one weight call over all the nodes, and gfun in
    blocks of about _STACK_VALUES values.

    Returns (k15, err, x, wdx) with shapes (P, ncomp), (P, ncomp), (P, 15)
    and (P, 15): _panel_eval's result per panel, the nodes and the values
    W(x) dx/dt there.
    """
    half = 0.5 * (t1 - t0)
    t = (0.5 * (t0 + t1))[:, None] + half[:, None] * _XGK
    P = len(piece)
    # a segment's point a + (b - a) t and velocity b - a, as Seg.point forms
    # the point; the rows of arc panels are overwritten below
    ds = path.step[piece][:, None]
    x = path.start[piece][:, None] + ds * t
    vel = np.repeat(ds, 15, axis=1)
    thetas = {i: np.empty((P, 15)) for i in path.qpieces[0].theta_in}
    if thetas or path.arcs:
        # the panels of one piece are consecutive
        edges = [0, *(np.flatnonzero(piece[1:] != piece[:-1]) + 1).tolist(), P]
        for a, b in zip(edges[:-1], edges[1:]):
            qp = path.qpieces[piece[a]]
            if isinstance(qp.geom, Arc):
                x[a:b], vel[a:b] = qp.geom.point_velocity(t[a:b])
            for i, th in qp.thetas(spec, t[a:b], x[a:b]).items():
                thetas[i][a:b] = th
    x = x.ravel()
    wdx = spec.weight_tracked(x, {i: th.ravel() for i, th in thetas.items()}) * vel.ravel()
    step = max(1, _STACK_VALUES // (15 * max(ncomp, 1)))
    for p0 in range(0, P, step):
        nodes = slice(15 * p0, 15 * (p0 + step))
        f = np.atleast_2d(gfun(x[nodes])) * wdx[nodes]
        if not np.all(np.isfinite(f)):
            what = "weight" if not np.all(np.isfinite(wdx[nodes])) else "integrand"
            raise QuadratureStall(f"non-finite {what} sample")
        if not p0:
            vals = np.empty((P, len(f)), dtype=complex)
            errs = np.empty((P, len(f)))
        for p, h in enumerate(half[p0:p0 + step].tolist(), start=p0):
            c = 15 * (p - p0)
            vals[p], errs[p] = _panel_eval(h, f[:, c:c + 15])
    return vals, errs, x.reshape(-1, 15), wdx.reshape(-1, 15)


def _targets(total: np.ndarray, totabs: np.ndarray, rtol: float, atol: float = 0.0):
    """(tol, target) per component: tol = max(atol, rtol (1 + |total|)), and
    a summed |Kronrod - Gauss| is accepted up to target, which is floored at
    machine eps times the summed |panel values| totabs cancelled on the path."""
    tol = np.maximum(atol, rtol * (1.0 + np.abs(total)))
    return tol, np.maximum(0.25 * tol, 5e-15 * totabs)


# refinement has stalled after this many rounds in a row in which the halves
# kept at least half of their parents' error on the worst unmet component
_STALL_ROUNDS = 3


def integrate_contour(contour: Contour, spec: WeightSpec, gfun, ncomp: int,
                      rtol: Optional[float] = None, atol: float = 0.0,
                      max_panels: int = MAX_PANELS_PER_PIECE,
                      _panels: Optional[list] = None, probe=None):
    """integral of W(x) g(x) dx over the contour; g vector-valued with ncomp
    components.

    Returns (values, errors) with shapes (ncomp,). Tolerance per
    component is max(atol, rtol * (1 + |I_comp|)). The initial panels,
    then the new halves of each round, are evaluated together on stacked
    nodes (see _eval_pass). Refinement runs in rounds: each round bisects
    the shortest worst-first run of panels whose errors, once removed,
    would leave every unmet component within its target. It ends when
    every component converges, or at the panel budget or a stall, where it
    accepts within 20x the tolerance or raises QuadratureStall. When
    _panels is a list, the final panels are appended to it as one pair
    (nodes, W(x) dx times the half-width) of (P, 15) arrays in path order.
    The rays are truncated on the samples of probe (default gfun), a
    function of the nodes like gfun with any number of components.
    """
    if rtol is None:
        rtol = default_tolerance()
    qpieces = _prepare(contour, spec, gfun if probe is None else probe)
    path = _Path(qpieces)

    # the panels in path order: piece index, parameter interval, Kronrod
    # value and error, and for _panels the nodes and W(x) dx/dt there
    cuts = [_LONG_SEG_CUTS if isinstance(qp.geom, Seg) and abs(qp.geom.b - qp.geom.a) > 3.0
            else _UNIT_CUTS for qp in qpieces]
    piece = np.repeat(np.arange(len(cuts)), [len(c) - 1 for c in cuts])
    t0 = np.concatenate([c[:-1] for c in cuts])
    t1 = np.concatenate([c[1:] for c in cuts])
    vals, errs, x, wdx = _eval_pass(spec, path, piece, t0, t1, gfun, ncomp)
    if not np.any(wdx):
        # the weight underflows at every node: a zero result would be no
        # integral, only the end of the double range
        raise QuadratureStall("every weight sample is 0")

    budget = max_panels * len(qpieces)
    stalls = 0
    while True:
        total = vals.sum(axis=0)
        toterr = errs.sum(axis=0)
        totabs = np.abs(vals).sum(axis=0)
        tol, denom = _targets(total, totabs, rtol, atol)
        bad = toterr > denom
        if not bad.any():
            break
        if len(vals) >= budget or stalls >= _STALL_ROUNDS:
            if np.all(toterr <= np.maximum(20 * tol, 10 * 5e-15 * totabs)):
                break
            raise QuadratureStall(
                f"tolerance unreachable: err {float(np.max(toterr / tol)):.2e}x target "
                f"with {len(vals)} panels"
            )
        # rank panels by their worst share of an unmet target, so
        # large-magnitude components cannot starve small ones, and bisect the
        # shortest worst-first run whose removal would meet every target
        scores = (errs[:, bad] / denom[bad]).max(axis=1)
        order = np.argsort(-scores, kind="stable")
        left = toterr[bad] - np.cumsum(errs[order][:, bad], axis=0)
        # when even removing every panel's error leaves a target unmet,
        # every panel is split and the stall rule decides
        n = min(1 + np.count_nonzero(np.any(left > denom[bad], axis=1)), len(vals))
        worst = int(np.argmax(toterr / denom))
        before = errs[order[:n], worst].sum()
        # splice: each split panel becomes its two halves, in path order
        split = np.zeros(len(vals), dtype=bool)
        split[order[:n]] = True
        idx = np.repeat(np.arange(len(vals)), 1 + split)
        halves = np.flatnonzero(split[idx])
        lo = halves[::2]
        piece, t0, t1, vals, errs = piece[idx], t0[idx], t1[idx], vals[idx], errs[idx]
        tm = 0.5 * (t0[lo] + t1[lo])
        t1[lo] = tm
        t0[lo + 1] = tm
        vals[halves], errs[halves], xh, wh = _eval_pass(
            spec, path, piece[halves], t0[halves], t1[halves], gfun, ncomp)
        if _panels is not None:
            x, wdx = x[idx], wdx[idx]
            x[halves], wdx[halves] = xh, wh
        # a sequential sum in path order: np.sum pairs terms and rounds
        # differently, which could move the stall decision
        after = np.cumsum(errs[halves, worst])[-1]
        stalls = stalls + 1 if after >= 0.5 * before else 0

    if _panels is not None:
        _panels.append((x, (0.5 * (t1 - t0))[:, None] * wdx))
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
        if not max_m:
            return ez
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
    contour on each sphere, coupled through e^(rho * x * y). Plain data:
    derive variants with dataclasses.replace; table() is bimoment_table."""

    wx: WeightSpec
    wy: WeightSpec
    cx: Contour
    cy: Contour
    i: int = 0
    j: int = 0
    rho: float = 1.0

    def table(self, N: int, rtol: Optional[float] = None) -> BimomentTable:
        return bimoment_table(self, N, rtol)


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


def _adapt_mesh(contour: Contour, spec: WeightSpec, gfun, ncomp: int,
                rtol: float) -> _Mesh:
    """The mesh of the panels on which integrate_contour converged for gfun."""
    panels = []
    integrate_contour(contour, spec, gfun, ncomp, rtol=rtol, _panels=panels)
    (x, base), = panels
    wg = np.zeros_like(base)
    wg[:, _GAUSS_IDX] = base[:, _GAUSS_IDX] * _WG
    return _Mesh(x.ravel(), (base * _WGK).ravel(), wg.ravel())


_KERNEL_ROWS = 16


def _kernel_apply(u: np.ndarray, v: np.ndarray, Y: np.ndarray,
                  absY: Optional[np.ndarray] = None):
    """K @ Y for the kernel K = exp(u vᵀ), and |K| @ absY when absY is
    given (else None). K is formed in blocks of _KERNEL_ROWS rows, never
    whole."""
    KY = np.empty((len(u), Y.shape[1]), dtype=complex)
    absKY = None if absY is None else np.empty((len(u), absY.shape[1]))
    buf = np.empty((_KERNEL_ROWS, len(v)), dtype=complex)
    for r0 in range(0, len(u), _KERNEL_ROWS):
        rows = slice(r0, r0 + _KERNEL_ROWS)
        blk = buf[: len(u[rows])]
        np.multiply.outer(u[rows], v, out=blk)
        np.exp(blk, out=blk)
        KY[rows] = blk @ Y
        if absY is not None:
            absKY[rows] = np.abs(blk) @ absY
    return KY, absKY


def _coupled_mesh(contour: Contour, spec: WeightSpec, cols, other: _Mesh,
                  other_cols, rho: float, rtol: float) -> _Mesh:
    """Mesh of contour converged for the components
    cols(u)_a sum_k wk_k other_cols(v_k)_b e^(rho u v_k) over the fixed
    rule (v, wk) of the other contour. A column function maps nodes of
    shape (n,) to values of shape (n, ncols)."""
    V = other.wk[:, None] * other_cols(other.x)
    ncomp = cols(np.zeros(1)).shape[1] * V.shape[1]
    rv = rho * other.x

    def gfun(u):
        S, _ = _kernel_apply(u, rv, V)                           # (nu, b)
        P = cols(u)                                              # (nu, a)
        return (P.T[:, None, :] * S.T[None, :, :]).reshape(ncomp, len(u))

    return _adapt_mesh(contour, spec, gfun, ncomp, rtol)


def _product_meshes(handle: FunctionalHandle, fx, fy, rtol: Optional[float]):
    """(mx, my, (F, err, mass)): converged meshes of the handle's contours
    for the double integrals of fx(x)_a fy(y)_b e^(rho x y) against
    W1(x) W2(y), with column functions fx, fy as in _coupled_mesh, and
    their product rule (_product_rule).

    y for fy alone, then at most two passes of x against the fixed y rule,
    y against the fixed x rule and the product rule, which also judges x
    against the final y rule by integrate_contour's own acceptance. Only a
    failed check takes the second pass; if x fails it again, err is
    floored at that check's x error.
    """
    if rtol is None:
        rtol = default_tolerance()
    if handle.wx.d < 1 or handle.wy.d < 1:
        raise DivergentCoupling("both marginal weights need d >= 1")
    _gaussian_coupling_guard(handle)
    rho = handle.rho
    # far out on a ray the kernel e^(rho u v) can overflow; _eval_pass refuses
    # such a sample with QuadratureStall, so numpy need not warn as well
    with np.errstate(over="ignore", invalid="ignore"):
        my = _adapt_mesh(handle.cy, handle.wy, lambda y: fy(y).T,
                         fy(np.zeros(1)).shape[1], rtol)
        for _ in range(2):
            mx = _coupled_mesh(handle.cx, handle.wx, fx, my, fy, rho, rtol)
            my = _coupled_mesh(handle.cy, handle.wy, fy, mx, fx, rho, rtol)
            (F, err, mass), (total, xerr, xmass) = _product_rule(mx, my, rho, fx(mx.x),
                                                                 fy(my.x))
            if np.all(xerr <= _targets(total, xmass, rtol)[1]):
                return mx, my, (F, err, mass)
    return mx, my, (F, np.maximum(err, xerr), mass)


def _product_rule(mx: _Mesh, my: _Mesh, rho: float, Px: np.ndarray, Py: np.ndarray):
    """The bilinear form F = Xᵀ exp(rho x yᵀ) Y with X[k, a] = wk_k Px[k, a]
    and Y[l, b] = wk_l Py[l, b], for column values Px, Py at the nodes of
    mx, my. Returns ((F, err, mass), xsums): err is |F_KK - F_GK| +
    |F_KK - F_KG| (Kronrod minus Gauss on each factor), mass the summed
    |terms| of each entry, for a roundoff floor, and xsums the engine's
    sums (total, error, |panel values|) over the 15-node panels of mx for
    the x integrals of Px_a (exp(rho x yᵀ) Y)_b against the y rule."""
    na, nb = Px.shape[1], Py.shape[1]
    # Kronrod rule and Kronrod-minus-Gauss side by side
    X = np.hstack([mx.wk[:, None] * Px, (mx.wk - mx.wg)[:, None] * Px])
    Y = np.hstack([my.wk[:, None] * Py, (my.wk - my.wg)[:, None] * Py])
    KY, absKY = _kernel_apply(mx.x, rho * my.x, Y, np.abs(Y[:, :nb]))
    acc = X.T @ KY
    F = acc[:na, :nb].copy()
    err = np.abs(acc[na:, :nb]) + np.abs(acc[:na, nb:])
    kron, diff = np.split(X.reshape(-1, 15, 2 * na).swapaxes(1, 2)
                          @ KY[:, :nb].reshape(-1, 15, nb), 2, axis=1)
    return ((F, err, np.abs(X[:, :na]).T @ absKY),
            (kron.sum(axis=0), np.abs(diff).sum(axis=0), np.abs(kron).sum(axis=0)))


# the e^(xy) series of a table: the last _SERIES_WINDOW terms of every entry
# must sum to at most _SERIES_GUARD of its summed |terms|, with at most
# _SERIES_MAX_K + 1 terms (a window, because parity zeros make single terms
# of the Gaussian exactly 0)
_SERIES_WINDOW = 4
_SERIES_GUARD = 1e-17
_SERIES_MAX_K = 700
# the up-front K passes the window test on the estimated terms with this
# margin: the rounding noise of a moment that vanishes by parity grows with
# j, so the terms of such an entry decay a little slower than the estimate
_SERIES_MARGIN = 10.0


def _series_stall(N: int, of: Optional[str] = None) -> QuadratureStall:
    return QuadratureStall(
        f"e^(xy) series of {of or f'the order-{N} table'} needs more than "
        f"{_SERIES_MAX_K} terms")


@functools.lru_cache(maxsize=64)
def _lgammas(e: float, J: int) -> np.ndarray:
    """lgamma((i+1) e) for i = 0..J, read-only: the grids of _log_scales
    and, with e = 1, the log k! of the series."""
    out = np.array([math.lgamma((i + 1) * e) for i in range(J + 1)])
    out.flags.writeable = False
    return out


def _log_scales(spec: WeightSpec, J: int) -> np.ndarray:
    """log s_j, j = 0..J, with s_j = Gamma((j+1)/(d+1)) |v_top|^(-j/(d+1)):
    the magnitude of int x^j W for the pure monomial weight."""
    e = 1.0 / (spec.d + 1)
    return _lgammas(e, J) - np.arange(J + 1) * e * math.log(abs(spec.v_top))


# the last _MOMENT_MEMO_SIZE one-sided runs of _hankel_block, oldest first:
# (id(contour), id(spec), N + K, resolved rtol) -> (contour, spec, values,
# errors). An entry holds its contour and weight, so their ids cannot be
# reused while it lives; neither is changed in place anywhere, so an id
# stands for its contents. Each update is one atomic dict operation, so
# concurrent tables can at worst integrate twice.
_MOMENT_MEMO_SIZE = 32
_moment_memo: dict = {}


def _hankel_block(contour: Contour, spec: WeightSpec, N: int, K: int,
                  rtol: Optional[float]):
    """(H, dH) of shape (N + 1, K + 1): H[n, k] = a[n+k]/sqrt(k!) for the
    one-sided moments a_j = int x^j W(x) dx, and dH their errors, by one
    integrate_contour run.

    The run integrates the scaled moments a_j/s_j (_log_scales): every
    component is O(1) on the monomial weight, so the engine's target
    rtol (1 + |a_j/s_j|) is a relative one. The powers are formed
    incrementally, already scaled, so x^j itself is never formed; the
    factor s_(n+k)/sqrt(k!) is formed from lgamma. Raises QuadratureStall
    when H or dH leaves the double range.

    The run's (values, errors) are memoized under (id(contour), id(spec),
    N + K, rtol), rtol resolved through default_tolerance; the memo keeps
    the last _MOMENT_MEMO_SIZE runs and evicts the oldest. The moments do
    not depend on rho, so every handle on the contour reads the same run,
    under any rho with the same series length; a copy of the contour or
    weight, or a fresh setup, misses.
    """
    if rtol is None:
        rtol = default_tolerance()
    J = N + K
    logs = _log_scales(spec, J)
    key = (id(contour), id(spec), J, rtol)
    hit = _moment_memo.get(key)
    if hit is not None and hit[0] is contour and hit[1] is spec:
        val, err = hit[2:]
    else:
        steps = np.exp(-np.diff(logs, prepend=0.0))   # 1/s_0, then s_(j-1)/s_j

        def gfun(x):
            f = np.multiply.outer(steps, x)
            f[0] = steps[0]
            return np.cumprod(f, axis=0)

        # a far-out node can take a scaled power past the double range;
        # _eval_pass refuses such a sample with QuadratureStall, so numpy need
        # not warn as well
        with np.errstate(over="ignore", invalid="ignore"):
            val, err = integrate_contour(contour, spec, gfun, J + 1, rtol=rtol)
        _moment_memo[key] = (contour, spec, val, err)
        for old in list(_moment_memo)[:-_MOMENT_MEMO_SIZE]:
            _moment_memo.pop(old, None)
    k = np.arange(K + 1)
    hankel = np.add.outer(np.arange(N + 1), k)
    with np.errstate(over="ignore", invalid="ignore"):
        G = np.exp(logs[hankel] - 0.5 * _lgammas(1.0, K))
        H, dH = val[hankel] * G, err[hankel] * G
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(dH))):
        raise QuadratureStall(f"moments a[n+k]/sqrt(k!) of the order-{N} table with "
                              f"{K + 1} series terms leave the double range")
    return H, dH


def _series_length(handle: FunctionalHandle, N: int, of: Optional[str] = None) -> int:
    """The K that the entry (N, N) of the e^(xy) series needs by the window
    test, with a margin of _SERIES_MARGIN, from the magnitudes s_(N+k) of
    the monomial weights (_log_scales). Its terms decay slowest of the
    table, so the estimate covers every entry. Raises QuadratureStall,
    naming the series as of (default: the order-N table), when K would
    pass _SERIES_MAX_K."""
    if handle.rho == 0:
        return _SERIES_WINDOW - 1
    k = np.arange(_SERIES_MAX_K + 1)
    lt = (k * math.log(abs(handle.rho)) - _lgammas(1.0, _SERIES_MAX_K)
          + _log_scales(handle.wx, N + _SERIES_MAX_K)[N:]
          + _log_scales(handle.wy, N + _SERIES_MAX_K)[N:])
    terms = np.exp(lt - lt.max())
    # window[i] sums terms[i..i+3], the last window when K = i + 3
    window = np.convolve(terms, np.ones(_SERIES_WINDOW), "valid")
    settled = np.flatnonzero(window <= _SERIES_GUARD / _SERIES_MARGIN
                             * np.cumsum(terms)[_SERIES_WINDOW - 1:])
    if not len(settled):
        raise _series_stall(N, of)
    return int(settled[0]) + _SERIES_WINDOW - 1


def bimoment_table(handle: FunctionalHandle, N: int,
                   rtol: Optional[float] = None):
    """mu[n, m] = int_Gx int_Gy W1(x) W2(y) x^n y^m e^(rho x y) dy dx for
    n, m = 0..N.

    Returns one BimomentTable whose err holds the per-entry errors. The
    kernel's series gives mu[n, m] = sum_k rho^k/k! a[n+k] b[m+k] from the
    one-sided moments a_j = int_Gx x^j W1 and b_j = int_Gy y^j W2, one
    integrate_contour run per side: with the Hankel blocks
    A[n, k] = a[n+k]/sqrt(k!) and B of b (_hankel_block), the table is
    A diag(rho^k) Bᵀ. The runs are memoized per (contour, weight, N + K,
    rtol), not per handle, so the handles of one family share them; a
    table reads the same bits from the memo as from a fresh run.

    K is chosen up front (_series_length) and doubled, up to
    _SERIES_MAX_K, while the last _SERIES_WINDOW terms of an entry exceed
    _SERIES_GUARD of its summed |terms|; past that it raises
    QuadratureStall. The error is sum_k |rho|^k/k! (|da| |b| + |a| |db|)
    plus the last window, floored at the roundoff of the summed |terms|: a
    term carries the n + m + 2k roundings of its powers x^(n+k) y^(m+k),
    and exp(-lgamma(k+1)) stands for 1/k! to within lgamma(k+1) ulps. A
    table or error that leaves the double range raises QuadratureStall.
    """
    if N < 0:
        raise ValueError(f"table order must be >= 0, got {N}")
    if handle.wx.d < 1 or handle.wy.d < 1:
        raise DivergentCoupling("both marginal weights need d >= 1")
    _gaussian_coupling_guard(handle)
    K = _series_length(handle, N)
    # finite Hankel blocks can still give sums past the double range; such a
    # table is refused below, so numpy need not warn as well
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            k = np.arange(K + 1)
            c = np.abs(handle.rho) ** k
            (A, dA), (B, dB) = (_hankel_block(handle.cx, handle.wx, N, K, rtol),
                                _hankel_block(handle.cy, handle.wy, N, K, rtol))
            absA, absB = np.abs(A) * c, np.abs(B)
            mass = absA @ absB.T
            last = slice(K + 1 - _SERIES_WINDOW, None)
            window = absA[:, last] @ absB[:, last].T
            if np.all(window <= _SERIES_GUARD * mass):
                break
            if K == _SERIES_MAX_K:
                raise _series_stall(N)
            K = min(2 * K, _SERIES_MAX_K)
        n = np.arange(N + 1)
        mu = (A * handle.rho ** k) @ B.T
        err = (dA * c) @ absB.T + absA @ dB.T + window
        roundoff = 2e-16 * ((np.add.outer(n, n) + 2) * mass
                            + (absA * (2 * k + _lgammas(1.0, K))) @ absB.T)
        err = np.maximum(err, roundoff)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(err))):
        raise QuadratureStall(f"the order-{N} table or its error leaves the double range")
    return BimomentTable(mu, np.full((N + 1, N + 1), PROV_QUADRATURE, dtype=np.int8),
                         err)


# --- one-sided transforms from seeds -----------------------------------------

_EPS = 2.0 ** -52   # the unit roundoff of a double


def _pearson(spec: WeightSpec):
    """Pearson data (A, B) of the weight as integrated, (B W)' = -A W:
    B = prod_j (x - X_j)^(g_j + 1) and A = B V' - B'. Equal to the defining
    pair up to the leading coefficient of its B."""
    lins = [CPoly([-sng.location, 1.0]) for sng in spec.singularities]
    factors = [lin ** (sng.g + 1) for lin, sng in zip(lins, spec.singularities)]
    B = functools.reduce(CPoly.__mul__, factors, CPoly.one())
    A = B * spec.Vplus.deriv() - B.deriv()
    for j, (lin, sng) in enumerate(zip(lins, spec.singularities)):
        # B times the polar part -lam/(x - X) + sum_q q e_q/(x - X)^(q+1) of V'
        polar = -sng.lam * lin ** sng.g
        for q, e in enumerate(sng.essential, start=1):
            polar = polar + q * e * lin ** (sng.g - q)
        A = A + functools.reduce(CPoly.__mul__, factors[:j] + factors[j + 1:], polar)
    return A, B


def _transform_run(contour: Contour, spec: WeightSpec, z: complex, blocks,
                   rtol: float):
    """(values, errors) of the scaled transforms int x^j W e^(xz) dx / s_j
    for j in each range(lo, hi) of blocks, in order, by one
    integrate_contour run. Within a block the powers are formed
    incrementally and already scaled, as in _hankel_block, from
    (x s_lo^(-1/lo))^lo when lo > 0, so x^j itself is never formed. The
    rays are truncated on every j below the last hi, not only on the
    blocks: a block far above the others has its mass farther out."""
    logs = _log_scales(spec, blocks[-1][1] - 1)
    steps = np.exp(-np.diff(logs, prepend=0.0))   # 1/s_0, then s_(j-1)/s_j

    def powers(x, lo, hi):
        f = np.multiply.outer(steps[lo:hi], x)
        f[0] = (x * math.exp(-logs[lo] / lo)) ** lo if lo else steps[0]
        return np.cumprod(f, axis=0)

    def gfun(x):
        return np.concatenate([powers(x, lo, hi) for lo, hi in blocks]) * np.exp(z * x)

    def probe(x):
        return powers(x, 0, blocks[-1][1]) * np.exp(z * x)

    # far out on a ray e^(xz) or a scaled power can pass the double range;
    # _eval_pass refuses such a sample with QuadratureStall, so numpy need not
    # warn as well
    with np.errstate(over="ignore", invalid="ignore"):
        return integrate_contour(contour, spec, gfun, sum(hi - lo for lo, hi in blocks),
                                 rtol=rtol, probe=probe)


class _SeededTransforms:
    """The scaled one-sided transforms t_j = Xi_j(z)/s_j of one contour,
    Xi_j(z) = int x^j W e^(xz) dx and s_j as in _log_scales, for j = 0..J
    with any J, from one integrate_contour run.

    The weight W e^(xz) has the Pearson data (A - zB, B) (_pearson), so
    sum_i A_i Xi[j+i] = j sum_i B_i Xi[j-1+i] with A here A - zB, and the
    p = deg A seeds t_0..t_(p-1) fix every t_j. The run integrates the
    seeds and a check block t_(top-1), t_top, which the recursion must
    match within the summed errors (agrees): a contour's transforms may be
    a minimal solution, for which forward recursion is unstable (Gautschi,
    SIAM Review 9, 1967). The recursion runs on the scaled t_j with the
    ratios s_i/s_(j+p), so nothing overflows, and carries the p unit-seed
    columns along: e_j = sum_i |dt_j/dseed_i| err_i, plus the roundoff of
    the steps, a running sum over the steps of eps times each term's
    |value| times its roundings: the p + 2 of the step's products and sums
    and |log s_i| + |log s_(j+p)| of the exp that forms its ratio.

    The check block sits at j = top, the series length chosen up front, so
    it checks the whole recursion that a series of that length uses.
    """

    def __init__(self, contour: Contour, spec: WeightSpec, z: complex, top: int,
                 rtol: float):
        A, B = _pearson(spec)
        self.spec = spec
        self.a = (A - z * B).coeffs
        self.b = B.coeffs
        p = self.p = len(self.a) - 1
        top = max(top, p + 1)
        self.check = np.array([top - 1, top])
        vals, errs = _transform_run(contour, spec, z, [(0, p), (top - 1, top + 1)], rtol)
        self.seeds, self.seed_err = vals[:p], errs[:p]
        self.block, self.block_err = vals[p:], errs[p:]
        # row r of _T holds t_(r-1): the value, then the p unit-seed
        # columns; row 0 is t_(-1), which every step multiplies by j = 0
        self._T = np.zeros((p + 1, p + 1), dtype=complex)
        self._T[1:, 0] = self.seeds
        self._T[1:, 1:] = np.eye(p)
        self._coef = np.zeros((0, p + 1), dtype=complex)
        self._ulps = np.zeros((0, p + 1))
        self.upto(top)

    def upto(self, J: int):
        """(t, e) for j = 0..J: the recursion's values and their errors.
        A longer J extends the recursion kept so far."""
        p = self.p
        have = len(self._T) - 2
        if J > have:
            # step j forms t_(j+p) from t_(j-1)..t_(j+p-1), with the weights
            # (j B_o - A_(o-1)) s_(j-1+o) / (A_p s_(j+p)), o = 0..p
            logs = _log_scales(self.spec, J)
            j = np.arange(have + 1 - p, J + 1 - p)[:, None]
            o = np.arange(p + 1)
            bpad = np.zeros(p + 1, dtype=complex)
            bpad[:len(self.b)] = self.b
            apad = np.r_[0.0, self.a[:p]]
            src, dst = logs[np.maximum(j - 1 + o, 0)], logs[j + p]
            coef = (j * bpad - apad) / self.a[p] * np.exp(src - dst)
            # the roundings of a term: its p + 2 products and sums, and the
            # exp of a difference of logs of size |log s|
            self._ulps = np.concatenate([self._ulps, p + 2 + np.abs(src) + np.abs(dst)])
            T = np.concatenate([self._T, np.zeros((len(coef), p + 1), dtype=complex)])
            for i, c in zip(j.ravel().tolist(), coef):
                np.dot(c, T[i:i + p + 1], out=T[i + p + 1])
            self._T = T
            self._coef = np.concatenate([self._coef, coef])
            # each step's roundoff from its |terms|, in a running sum
            ulps = np.sum(self._ulps * np.abs(self._coef) * np.lib.stride_tricks
                          .sliding_window_view(np.abs(T[:-1, 0]), p + 1), axis=1)
            self._e = (np.abs(T[1:, 1:]) @ self.seed_err
                       + _EPS * np.cumsum(np.r_[np.zeros(p), ulps]))
        return self._T[1:J + 2, 0], self._e[:J + 1]

    def agrees(self) -> bool:
        """The recursion matches the integrated check block within the
        summed errors."""
        t, e = self.upto(int(self.check[-1]))
        return bool(np.all(np.abs(t[self.check] - self.block)
                           <= e[self.check] + self.block_err))


def _generating_series(handle: FunctionalHandle, K: int, transforms):
    """(F, err, mass, K) of F = sum_k rho^k/k! Xi_k(z) Psi_k(w) from
    transforms(K) = ((t, e) of x, (t, e) of y), the scaled one-sided
    transforms and their errors for k = 0..K. K is doubled, up to
    _SERIES_MAX_K, while the last _SERIES_WINDOW terms exceed _SERIES_GUARD
    of the summed |terms| mass; past that it raises QuadratureStall. err is
    sum_k |rho^k/k!| (e^x_k |Psi_k| + |Xi_k| e^y_k)."""
    while True:
        (tx, ex), (ty, ey) = transforms(K)
        k = np.arange(K + 1)
        g = (np.exp(_log_scales(handle.wx, K) + _log_scales(handle.wy, K)
                    - _lgammas(1.0, K)) * handle.rho ** k)
        terms = np.abs(g * tx * ty)
        if terms[K + 1 - _SERIES_WINDOW:].sum() <= _SERIES_GUARD * terms.sum():
            break
        if K == _SERIES_MAX_K:
            raise _series_stall(0, "F(z, w)")
        K = min(2 * K, _SERIES_MAX_K)
    return (g @ (tx * ty), np.abs(g) @ (ex * np.abs(ty) + np.abs(tx) * ey),
            terms.sum(), K)


def generating_eval(handle: FunctionalHandle, z: complex, w: complex,
                    rtol: Optional[float] = None) -> complex:
    """F(z, w) = int_Gx int_Gy W1(x) W2(y) e^(xz + yw + rho x y) dy dx, the
    entire generating function of the handle's bimoments, from the kernel's
    series F = sum_k rho^k/k! Xi_k(z) Psi_k(w) over the one-sided
    transforms Xi_k(z) = int_Gx x^k W1 e^(xz) and Psi_k(w) = int_Gy y^k W2
    e^(yw).

    Each side's transforms come from its seeds and the Pearson recurrence
    (_SeededTransforms), one integrate_contour run per contour; K is chosen
    up front (_series_length) and doubling it only extends the recursions.
    The series is accepted when both recursions match their check blocks
    and the propagated error of F is at most rtol (1 + sum_k |terms|): the
    transforms from seeds are then as accurate as integrated ones, which
    the engine holds to rtol (1 + |t_k|). Otherwise both sides integrate
    all K + 1 scaled transforms in one run each and the series is summed
    from those. Raises QuadratureStall when the series would need more
    than _SERIES_MAX_K terms. The product rule (_product_meshes) serves
    only rho_factorization_check.
    """
    if rtol is None:
        rtol = default_tolerance()
    if handle.wx.d < 1 or handle.wy.d < 1:
        raise DivergentCoupling("both marginal weights need d >= 1")
    _gaussian_coupling_guard(handle)
    K = _series_length(handle, 0, "F(z, w)")
    sides = ((handle.cx, handle.wx, z), (handle.cy, handle.wy, w))
    seeded = [_SeededTransforms(c, spec, zeta, K, rtol) for c, spec, zeta in sides]
    F, err, mass, K = _generating_series(handle, K, lambda K: [s.upto(K) for s in seeded])
    if all(s.agrees() for s in seeded) and err <= rtol * (1.0 + mass):
        return complex(F)
    F, _, _, _ = _generating_series(handle, K, lambda K: [
        _transform_run(c, spec, zeta, [(0, K + 1)], rtol) for c, spec, zeta in sides])
    return complex(F)


def rho_factorization_check(handle: FunctionalHandle,
                            grid=(-0.25, 0.0, 0.25),
                            rtol: Optional[float] = None) -> float:
    """Decoupling check at rho = 0: the double integral with unit kernel,
    evaluated over the (z, w) grid by one product rule, must factor into
    Xi(z) * Psi(w) from independent single-contour runs (one laplace_many
    over the grid per contour). Returns the max relative discrepancy over
    the grid."""
    xi = laplace_many(handle.cx, handle.wx, grid, 0, rtol=rtol)[0][0]
    psi = laplace_many(handle.cy, handle.wy, grid, 0, rtol=rtol)[0][0]

    def cols(u):
        return np.exp(np.multiply.outer(u, grid))

    _, _, (F, _, _) = _product_meshes(replace(handle, rho=0.0), cols, cols, rtol)
    fac = np.multiply.outer(xi, psi)
    return float(np.max(np.abs(F - fac) / np.maximum(1.0, np.abs(fac))))


def rho_sweep(handle: FunctionalHandle, rhos, z: complex = 0.2, w: complex = -0.1,
              rtol: Optional[float] = None) -> list:
    """|F(z, w; rho) - Xi(z)Psi(w)| along a kernel sweep, with F from
    generating_eval (reported, not asserted)."""
    xi = laplace(handle.cx, handle.wx, z, 0, rtol=rtol)
    psi = laplace(handle.cy, handle.wy, w, 0, rtol=rtol)
    out = []
    for r in rhos:
        h = replace(handle, rho=float(r))
        out.append(abs(generating_eval(h, z, w, rtol=rtol) - xi * psi))
    return out


# --- certificates ----------------------------------------------------------

RANK_REL_TOL = 1e-8  # singular values above this share of the largest count to the rank


@dataclass
class IndependenceReport:
    rank: int
    expected: int
    sv_ratio: float
    singular_values: np.ndarray

    @property
    def passed(self) -> bool:
        return self.rank == self.expected


def independence_certificate(tables: list) -> IndependenceReport:
    """Numerical rank of the stacked, row-normalized bimoment tables, one
    of order N per functional.

    The functionals span the solution space of the moment recurrences; full
    rank len(tables) realizes their linear independence.
    """
    if tables[0].entries.size < len(tables):
        raise ValueError("(N+1)^2 must be at least the number of tables")
    rows = []
    for t in tables:
        v = t.entries.ravel()
        with np.errstate(over="ignore"):
            nrm = np.linalg.norm(v)
        if not np.isfinite(nrm):
            # entries near the top of the double range: scale them first
            v = v / np.max(np.abs(v))
            nrm = np.linalg.norm(v)
        rows.append(v / (nrm if nrm > 0 else 1.0))
    A = np.array(rows)
    sv = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(sv > RANK_REL_TOL * sv[0]))
    # an all-zero family has rank 0, and its ratio is 0 too
    ratio = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    return IndependenceReport(rank=rank, expected=len(tables), sv_ratio=ratio,
                              singular_values=sv)


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
    """The saddle-point term sqrt(2 pi/S''(x_k)) e^(-S(x_k)) W_rest(x_k) of
    the one-sided transform over the k-th steepest-descent contour.

    S(x) = V+(x) - xz, x_k = saddle_points(spec, z)[k] and W_rest = W e^(V+)
    with principal branches, so e^(-S) W_rest is the integrand W(x) e^(xz)
    at the saddle. The square root is the branch along which trace_sdc
    leaves the saddle toward increasing u.
    """
    xk = saddle_points(spec, z)[k]
    Spp = poly_eval(spec.Vplus.deriv().deriv(), xk)
    log_w = spec.log_weight_principal(np.array([xk]))[0]
    return cmath.sqrt(2 * math.pi / Spp) * cmath.exp(log_w + xk * z)


def asymptotic_check(spec: WeightSpec, k: int, zs,
                     rtol: Optional[float] = None) -> AsymptoticReport:
    """Quadrature over traced steepest-descent contours of the normalized
    spec (normalize_potential) against the predicted leading term, along
    increasing |z| inside the dual sector."""
    spec, _ = normalize_potential(spec)
    ratios, phases = [], []
    # the essential factor exp(sum E_j) tends to 1 in this canonical
    # normalization; it counts as settled when the principal parts are
    # already negligible at ten truncation radii
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
