"""Marginal weights, decay sectors, integration contours, steepest descent.

A weight is reconstructed from Pearson-type data (A, B) through
V' = (A + B')/B and W = exp(-V). Splitting V into its polynomial part,
logarithmic terms and principal parts at the zeros of B gives

    W(x) = exp(-V+(x)) * prod_j (x - X_j)^lambda_j * exp(sum_j E_j(x)),

with E_j the order-g_j principal part at X_j. Decay sectors are the
angular regions where Re V -> +infinity toward an essential anchor
(infinity, or an X_j with g_j > 0); contours run between decay sectors
or around singularities so that every integral of x^m W(x) e^(xz)
converges and integration by parts drops no boundary terms.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    AssumptionAViolated,
    AssumptionBViolated,
    NotEssential,
    SaddleCollision,
    StokesProximity,
    ZeroB,
)
from .polycore import CPoly, common_factor, partial_fractions, poly_eval, poly_roots

SECTOR_EPS = 0.05          # angular safety margin in the sector definition
STOKES_MARGIN = 1e-3       # min distance of arg(z) from a Stokes ray
SDC_STEP = 0.25            # path-parameter step of the steepest-descent trace
U_MAX_SDC = 7.0            # trace |u| <= U_MAX_SDC, where exp(-u^2) ~ 5e-22
INT_TOL = 1e-9             # lambda within this of an integer counts as integer


@dataclass(frozen=True)
class Singularity:
    """A zero of B: location, essential order g, exponent lambda and the
    principal-part coefficients e_q of the essential exponent
    E(x) = sum_{q=1}^{g} e_q / (x - X)^q."""

    location: complex
    g: int
    lam: complex
    essential: tuple = ()

    @property
    def tracked(self) -> bool:
        """Needs branch-continued arg along contours."""
        lr = self.lam.real
        near_int = abs(self.lam.imag) <= INT_TOL and abs(lr - round(lr)) <= INT_TOL
        return not near_int

    @property
    def is_integer_lambda(self) -> bool:
        return not self.tracked and round(self.lam.real) >= 0


@dataclass
class WeightSpec:
    """Weight data: polynomial potential part plus finite singularities."""

    Vplus: CPoly
    singularities: list
    s: int                      # class: d + sum (g_j + 1)
    A_total: complex            # sum of the lambda_j
    source_class: Optional[int] = None  # max(a, b) + 1 of the defining pair

    @property
    def d(self) -> int:
        return self.Vplus.degree - 1

    @property
    def v_top(self) -> complex:
        return self.Vplus.leading

    # -- evaluation ---------------------------------------------------

    def log_weight_principal(self, x):
        """log W with principal branches everywhere (single-valued parts
        plus principal logs); fine off the cuts, e.g. for sampling."""
        x = np.asarray(x, dtype=complex)
        return self.log_weight_tracked(x, {
            idx: np.angle(x - sng.location)
            for idx, sng in enumerate(self.singularities) if sng.tracked})

    def log_weight_tracked(self, x, thetas: dict):
        """log W using externally supplied continued args for the tracked
        singularities (thetas maps singularity index -> arg array)."""
        x = np.asarray(x, dtype=complex)
        acc = -poly_eval(self.Vplus, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            for idx, sng in enumerate(self.singularities):
                dxv = x - sng.location
                if sng.tracked:
                    acc = acc + sng.lam * (np.log(np.abs(dxv)) + 1j * thetas[idx])
                elif sng.lam != 0:
                    # integer exponent: single-valued, principal log suffices
                    acc = acc + round(sng.lam.real) * np.log(dxv)
                for q, e in enumerate(sng.essential, start=1):
                    acc = acc + e / dxv ** q
        return acc

    def weight_tracked(self, x, thetas: dict):
        lw = self.log_weight_tracked(x, thetas)
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.exp(lw)
        # a node sitting on a singularity inside its decay region: W -> 0
        return np.where(np.isnan(out) & (lw.real == -np.inf), 0.0, out)


def build_weight(A, B) -> WeightSpec:
    """WeightSpec from the Pearson data: V' = (A + B')/B.

    The polynomial part integrates to V+; order-1 pole coefficients become
    -lambda_j; higher-order parts integrate into the essential principal
    parts. Raises ZeroB for B = 0 and AssumptionAViolated when the
    potential would not grow at infinity (deg A <= deg B).
    """
    A = A if isinstance(A, CPoly) else CPoly(A)
    B = B if isinstance(B, CPoly) else CPoly(B)
    if B.is_zero():
        raise ZeroB("B is identically zero")
    if len(common_factor(A, B)) > 0:
        raise AssumptionBViolated(
            "A and B share a root; apply reduce_common_factor first"
        )
    pf = partial_fractions(A + B.deriv(), B)
    Vplus = pf.polynomial_part.integ()
    if Vplus.degree < 2:
        raise AssumptionAViolated(
            f"potential part has degree {Vplus.degree}; need deg(A) > deg(B)"
        )
    by_pole = {}
    for pole, order, coeff in pf.terms:
        by_pole.setdefault(pole, {})[order] = coeff
    sings = []
    for pole in sorted(by_pole, key=lambda p: (p.real, p.imag)):
        parts = by_pole[pole]
        gmax = max(parts)
        lam = -parts.get(1, 0.0)
        ess = tuple(parts.get(q + 1, 0.0) / q for q in range(1, gmax))
        sings.append(Singularity(location=complex(pole), g=gmax - 1,
                                 lam=complex(lam), essential=ess))
    d = Vplus.degree - 1
    s = d + sum(sng.g + 1 for sng in sings)
    a_total = sum(sng.lam for sng in sings)
    src = max(A.degree - 1, B.degree - 1) + 1
    return WeightSpec(Vplus=Vplus, singularities=sings, s=s,
                      A_total=complex(a_total), source_class=src)


# --- sectors -------------------------------------------------------------

@dataclass(frozen=True)
class Sector:
    """Angular sector where Re V -> +inf toward the anchor."""

    anchor: Optional[complex]   # None means infinity
    k: int
    center: float
    half_width: float

    def contains(self, angle: float) -> bool:
        diff = (angle - self.center + math.pi) % (2 * math.pi) - math.pi
        return abs(diff) < self.half_width


def sectors_at(spec: WeightSpec, anchor=None, eps: float = SECTOR_EPS) -> list:
    """Decay sectors at infinity (anchor None) or at a finite essential
    singularity. Infinity has d+1 sectors centered at
    (2 pi k - arg v_top)/(d+1); an X_j with g > 0 has g sectors."""
    if anchor is None:
        d = spec.d
        if d < 1:
            raise NotEssential("potential part has no growth at infinity")
        hw = (math.pi / 2 - eps) / (d + 1)
        base = -cmath.phase(spec.v_top) / (d + 1)
        return [Sector(None, k, _wrap(base + 2 * math.pi * k / (d + 1)), hw)
                for k in range(d + 1)]
    for sng in spec.singularities:
        if abs(sng.location - anchor) <= 1e-12 * max(1.0, abs(anchor)):
            if sng.g < 1:
                raise NotEssential(f"no essential behavior at {anchor}")
            m = -sng.essential[sng.g - 1]  # V ~ m/(x-X)^g near X
            hw = (math.pi / 2 - eps) / sng.g
            base = cmath.phase(m) / sng.g
            return [Sector(sng.location, k, _wrap(base + 2 * math.pi * k / sng.g), hw)
                    for k in range(sng.g)]
    raise NotEssential(f"{anchor} is not a singularity of this weight")


def _wrap(a: float) -> float:
    return (a + math.pi) % (2 * math.pi) - math.pi


# --- contour pieces ------------------------------------------------------

@dataclass(frozen=True)
class Seg:
    a: complex
    b: complex

    def point(self, t):
        return self.a + (self.b - self.a) * np.asarray(t)

    def velocity(self, t):
        return np.full_like(np.asarray(t, dtype=complex), self.b - self.a)


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    th0: float
    th1: float

    def point(self, t):
        th = self.th0 + (self.th1 - self.th0) * np.asarray(t)
        return self.center + self.radius * np.exp(1j * th)

    def velocity(self, t):
        th = self.th0 + (self.th1 - self.th0) * np.asarray(t)
        return 1j * self.radius * (self.th1 - self.th0) * np.exp(1j * th)


@dataclass(frozen=True)
class InRay:
    """Unbounded piece running from infinity (along direction) down to end."""

    end: complex
    direction: complex

    def materialize(self, T: float) -> Seg:
        return Seg(self.end + T * self.direction, self.end)


@dataclass(frozen=True)
class OutRay:
    """Unbounded piece running from start out to infinity along direction."""

    start: complex
    direction: complex

    def materialize(self, T: float) -> Seg:
        return Seg(self.start, self.start + T * self.direction)


KIND_LOOP_1A = "loop_1a"
KIND_RAY_1B = "ray_1b"
KIND_ESSENTIAL = "essential_loop_2"
KIND_INFINITY = "infinity_loop_3"
KIND_SDC = "sdc"


@dataclass
class Contour:
    """Ordered pieces plus sector/singularity metadata.

    anchor_point is a finite path point where the principal branch of
    every multivalued factor is taken; branch continuation runs from
    there in both directions so that truncation choices cannot flip
    branches between runs.
    """

    kind: str
    pieces: list
    anchor: Optional[complex]           # the singularity it belongs to (None: infinity)
    p_flag: bool
    anchor_point: complex = 0.0 + 0j
    sector_in: Optional[int] = None     # sector index at the incoming infinity end
    sector_out: Optional[int] = None
    meta: dict = field(default_factory=dict)

    def ray_directions(self) -> list:
        out = []
        for p in self.pieces:
            if isinstance(p, (InRay, OutRay)):
                out.append(complex(p.direction))
        return out

    def polyline(self, spec: Optional[WeightSpec] = None, T: float = None,
                 pts_per_piece: int = 64) -> np.ndarray:
        """Sampled points for plotting/export; rays truncated at T (default:
        where the weight alone decays to ~1e-16)."""
        if T is None:
            T = default_truncation(spec) if spec is not None else 10.0
        pts = []
        for p in self.pieces:
            q = p.materialize(T) if isinstance(p, (InRay, OutRay)) else p
            ts = np.linspace(0.0, 1.0, pts_per_piece)
            pts.append(q.point(ts))
        return np.concatenate(pts)


def default_truncation(spec: WeightSpec) -> float:
    """Radius at which exp(-Re V+) alone is below ~1e-20 in a decay sector."""
    d = spec.d
    v = abs(spec.v_top)
    # |V+| ~ v R^(d+1) = 46 up to lower-order slack
    r = (60.0 / max(v, 1e-12)) ** (1.0 / (d + 1))
    return max(2.0, 1.5 * r)


def build_contours(spec: WeightSpec, eps: float = SECTOR_EPS) -> list:
    """The class-many integration contours of the weight.

    Per singularity: a loop from infinity around each branch point/pole
    (lambda not a nonnegative integer, g = 0); a plain ray to infinity at
    regular points (lambda in N, g = 0); g essential loops plus one
    connector at each essential point (g > 0). Plus d loops at infinity
    joining consecutive decay sectors. One-sided pieces all approach
    infinity inside the k_L = 0 sector; the infinity loop k runs from
    sector k+1 to sector k, which orients the real-line-like d = 1 loop
    left to right.
    """
    secs = sectors_at(spec, None, eps)
    d = spec.d
    theta = [s.center for s in secs]
    u_L = cmath.exp(1j * theta[0])

    locs = [s.location for s in spec.singularities]
    rho = 1.0
    if locs:
        rho = max(1.0, 1.6 * max(abs(x) for x in locs) + 0.5)
        while any(abs(abs(x) - rho) < 0.15 for x in locs):
            rho *= 1.17

    contours = []
    for idx, sng in enumerate(spec.singularities):
        d_near = min((abs(o.location - sng.location)
                      for o in spec.singularities if o is not sng), default=1.0)
        if sng.g == 0:
            u = _clear_direction(sng.location, u_L, locs, secs[0])
            r = 0.01 * d_near
            p0 = sng.location + r * u
            phi = cmath.phase(u)
            if sng.is_integer_lambda:
                contours.append(Contour(
                    kind=KIND_RAY_1B,
                    pieces=[OutRay(sng.location, u)],
                    anchor=sng.location, p_flag=False,
                    anchor_point=sng.location,
                    sector_out=0, meta={"sing_index": idx}))
            elif not sng.tracked:
                # single-valued pole (negative integer exponent): the loop
                # from infinity retracts to the circle, and the exactly
                # cancelling anti-parallel rays would wreck the quadrature;
                # a generous radius keeps |x - X|^lam tame on the circle
                rp = 0.45 * d_near
                contours.append(Contour(
                    kind=KIND_LOOP_1A,
                    pieces=[Arc(sng.location, rp, phi, phi + 2 * math.pi)],
                    anchor=sng.location, p_flag=True,
                    anchor_point=sng.location + rp * u,
                    meta={"sing_index": idx, "retracted": True}))
            else:
                contours.append(Contour(
                    kind=KIND_LOOP_1A,
                    pieces=[InRay(p0, u),
                            Arc(sng.location, r, phi, phi + 2 * math.pi),
                            OutRay(p0, u)],
                    anchor=sng.location, p_flag=True,
                    anchor_point=p0,
                    sector_in=0, sector_out=0, meta={"sing_index": idx}))
        else:
            loc_secs = sectors_at(spec, sng.location, eps)
            e_top = abs(sng.essential[sng.g - 1])
            r_arc = (e_top / 2.0) ** (1.0 / sng.g)
            r_arc = min(max(r_arc, 1e-3), 0.45 * d_near)
            for i in range(sng.g):
                phi0 = loc_secs[i].center
                phi1 = loc_secs[(i + 1) % sng.g].center
                while phi1 <= phi0:
                    phi1 += 2 * math.pi
                contours.append(Contour(
                    kind=KIND_ESSENTIAL,
                    pieces=[Seg(sng.location, sng.location + r_arc * cmath.exp(1j * phi0)),
                            Arc(sng.location, r_arc, phi0, phi1),
                            Seg(sng.location + r_arc * cmath.exp(1j * phi1), sng.location)],
                    anchor=sng.location, p_flag=True,
                    anchor_point=sng.location + r_arc * cmath.exp(1j * phi0),
                    meta={"sing_index": idx, "local_sectors": (i, (i + 1) % sng.g)}))
            u = _clear_direction(sng.location, u_L, locs, secs[0])
            phi0 = loc_secs[0].center
            # swing from the local decay direction to the outgoing ray on the
            # tame circle (never cut across the essential point)
            th_u = phi0 + _wrap(cmath.phase(u) - phi0)
            exit_pt = sng.location + r_arc * cmath.exp(1j * phi0)
            turn_pt = sng.location + r_arc * cmath.exp(1j * th_u)
            join = sng.location + max(2 * r_arc, 0.2) * u
            contours.append(Contour(
                kind=KIND_RAY_1B,
                pieces=[Seg(sng.location, exit_pt),
                        Arc(sng.location, r_arc, phi0, th_u),
                        Seg(turn_pt, join), OutRay(join, u)],
                anchor=sng.location, p_flag=False,
                anchor_point=exit_pt,
                sector_out=0, meta={"sing_index": idx, "connector": True}))

    for k in range(d):
        pin = rho * cmath.exp(1j * theta_in_plane(theta, k + 1))
        pout = rho * cmath.exp(1j * theta_in_plane(theta, k))
        contours.append(Contour(
            kind=KIND_INFINITY,
            pieces=[InRay(pin, cmath.exp(1j * theta_in_plane(theta, k + 1))),
                    Arc(0.0, rho, theta_in_plane(theta, k + 1), theta_in_plane(theta, k)),
                    OutRay(pout, cmath.exp(1j * theta_in_plane(theta, k)))],
            anchor=None, p_flag=True,
            anchor_point=pin,
            sector_in=k + 1, sector_out=k, meta={"k": k}))
    return contours


def theta_in_plane(theta: list, k: int) -> float:
    """Sector-center angle continued monotonically in k (no wrapping), so
    arcs between consecutive sectors sweep the short way."""
    base = theta[0]
    n = len(theta)
    return base + 2 * math.pi * k / n


def _clear_direction(origin: complex, u: complex, locs: list, sector: Sector) -> complex:
    """Rotate u inside the sector until the ray origin + t*u keeps a safe
    distance from every other singularity."""
    candidates = [0.0, 0.35, -0.35, 0.7, -0.7]
    hw = sector.half_width
    for frac in candidates:
        cand = cmath.exp(1j * (cmath.phase(u) + frac * hw))
        ok = True
        for x in locs:
            if abs(x - origin) < 1e-12:
                continue
            w = (x - origin) / cand
            if w.real > 0 and abs(w.imag) < 0.05 * max(1.0, abs(w.real)):
                ok = False
                break
        if ok:
            return cand
    return u


# --- decay certificate ---------------------------------------------------

def direction_decays(spec: WeightSpec, u: complex, margin: float = 1e-3) -> bool:
    """True when Re(v_top * u^(d+1)) > 0 with an angular margin, i.e. the
    weight decays superexponentially along the ray direction u."""
    val = spec.v_top * u ** (spec.d + 1)
    return val.real > abs(val) * math.sin(margin)


def contour_certificate(spec: WeightSpec, contour: Contour) -> bool:
    return all(direction_decays(spec, u / abs(u)) for u in contour.ray_directions())


# --- potential normalization --------------------------------------------

@dataclass(frozen=True)
class ScaleMap:
    """x = c * xi; moments transform as mu_new[n] = c^-(n+1) mu_old[n]."""

    c: complex

    def moment_factor(self, n: int) -> complex:
        return self.c ** (-(n + 1))


def normalize_potential(spec: WeightSpec):
    """Rescale so the potential part becomes xi^(d+1)/(d+1) + lower order.

    Returns (normalized WeightSpec, ScaleMap). Already-normalized input
    comes back with the identity map.
    """
    d = spec.d
    if d < 1:
        raise AssumptionAViolated("need d >= 1 to normalize")
    target = 1.0 / (d + 1)
    vtop = spec.v_top
    if abs(vtop - target) <= 1e-14 * abs(target):
        return spec, ScaleMap(1.0 + 0j)
    c = (target / vtop) ** (1.0 / (d + 1))
    coeffs = np.array([spec.Vplus.coeff(k) * c ** k for k in range(d + 2)], dtype=complex)
    sings = [Singularity(location=s.location / c, g=s.g, lam=s.lam,
                         essential=tuple(e / c ** (q + 1) for q, e in enumerate(s.essential)))
             for s in spec.singularities]
    out = WeightSpec(Vplus=CPoly(coeffs), singularities=sings, s=spec.s,
                     A_total=spec.A_total, source_class=spec.source_class)
    return out, ScaleMap(complex(c))


# --- steepest descent ----------------------------------------------------

def stokes_distance(z: complex, d: int) -> float:
    """Distance of arg(z) to the nearest Stokes ray arg = pi*k/(2(d+1))."""
    step = math.pi / (2 * (d + 1))
    a = cmath.phase(z)
    return abs(a / step - round(a / step)) * step


def saddle_points(spec: WeightSpec, z: complex) -> list:
    """The d saddles of V+(x) - xz, ordered by the z^(1/d) omega^k branches."""
    d = spec.d
    dV = spec.Vplus.deriv() - CPoly([z])
    roots = [r for r, mult in poly_roots(dV) for _ in range(mult)]
    omega = cmath.exp(2j * math.pi / d)
    seed = z ** (1.0 / d)
    ordered = []
    remaining = list(roots)
    for k in range(d):
        want = seed * omega ** k
        best = min(remaining, key=lambda r: abs(r - want))
        ordered.append(best)
        remaining.remove(best)
    return ordered


def trace_sdc(spec: WeightSpec, z: complex, k: int) -> Contour:
    """Steepest-descent contour through the k-th saddle of S(x) = V+(x) - xz.

    The curve is parametrized by u with S(x(u)) = S_k + u^2 and traced
    by Newton continuation for |u| <= U_MAX_SDC on both sides of the
    saddle: the predictor follows dx/du = 2u/S'(x) (which is sqrt(2/S'')
    at the saddle), and _newton_phase corrects onto the target value.
    The step is SDC_STEP; it halves while Newton fails or its correction
    exceeds a tenth of the predictor step (a jump to another branch of
    the level curve) and returns to SDC_STEP after each accepted node.
    Consecutive nodes are joined by chords. The chords are a Cauchy
    deformation of the curve: the integral along them equals the one
    along the curve provided no singularity of the weight lies between a
    chord and the arc it spans. Requires the normalized potential and z
    inside the dual sector away from Stokes rays; raises StokesProximity
    when the step falls below 2^-30 SDC_STEP.
    """
    d = spec.d
    if not 0 <= k <= d - 1:
        raise ValueError(f"saddle index {k} outside 0..{d-1}")
    if d >= 2 and stokes_distance(z, d) < STOKES_MARGIN:
        # a single saddle (d = 1) has no cuts to collide
        raise StokesProximity(
            f"arg(z) = {cmath.phase(z):.6f} within {STOKES_MARGIN} of a Stokes ray"
        )
    saddles = saddle_points(spec, z)
    crits = [poly_eval(spec.Vplus, x) - x * z for x in saddles]
    scale = max(1.0, max(abs(c) for c in crits))
    for i in range(d):
        for j in range(i + 1, d):
            if abs(crits[i] - crits[j]) <= 1e-8 * scale:
                raise SaddleCollision(
                    f"critical values {i} and {j} coincide within tolerance"
                )
    xs = saddles[k]
    S0 = crits[k]
    dV = spec.Vplus.deriv()

    def S(x):
        return poly_eval(spec.Vplus, x) - x * z

    def Sp(x):
        return poly_eval(dV, x) - z

    Spp = poly_eval(dV.deriv(), xs)
    if abs(Spp) <= 1e-10 * max(1.0, abs(z)):
        raise SaddleCollision("degenerate saddle: S'' ~ 0")
    slope0 = cmath.sqrt(2 / Spp)

    branches = []
    for sign in (+1.0, -1.0):
        # u counts |u| on this side; only the first step needs the side's sign
        u, x, h = 0.0, xs, SDC_STEP
        nodes = [xs]
        while u < U_MAX_SDC:
            un = min(u + h, U_MAX_SDC)
            x_pred = x + (un - u) * (sign * slope0 if u == 0 else 2 * u / Sp(x))
            x_new = _newton_phase(S, Sp, x_pred, S0, un * un)
            if x_new is None or abs(x_new - x_pred) > 0.1 * abs(x_pred - x):
                h /= 2
                if h < 2.0 ** -30 * SDC_STEP:
                    raise StokesProximity("phase tracking lost (near a Stokes ray?)")
                continue
            nodes.append(x_new)
            u, x, h = un, x_new, SDC_STEP
        branches.append(nodes)

    path = list(reversed(branches[1])) + branches[0][1:]
    pieces = [Seg(path[i], path[i + 1]) for i in range(len(path) - 1)]
    return Contour(kind=KIND_SDC, pieces=pieces, anchor=None, p_flag=False,
                   anchor_point=xs,
                   meta={"saddle": xs, "critical_value": S0, "k": k, "z": z,
                         "t_stop": U_MAX_SDC ** 2})


def _newton_phase(S, Sp, x, S0, t_target, iters: int = 30):
    """Solve S(x) = S0 + t_target by complex Newton; None if not converged."""
    target = S0 + t_target
    tol = 1e-13 * max(1.0, abs(target))
    for _ in range(iters):
        g = S(x) - target
        if abs(g) <= tol:
            return x
        dv = Sp(x)
        if dv == 0:
            return None
        x = x - g / dv
    return x if abs(S(x) - target) <= 100 * tol else None


def sdc_phase_defect(spec: WeightSpec, contour: Contour) -> float:
    """max |Im(S(x)) - Im(S at saddle)| over the traced nodes (the chord
    ends; chord interiors leave the curve by design)."""
    z = contour.meta["z"]
    S0 = contour.meta["critical_value"]
    nodes = np.array([p.a for p in contour.pieces] + [contour.pieces[-1].b])
    return float(np.max(np.abs((poly_eval(spec.Vplus, nodes) - nodes * z).imag - S0.imag)))


# --- contour JSON export --------------------------------------------------

def contour_to_json_dict(contour: Contour, spec: WeightSpec = None) -> dict:
    pts = contour.polyline(spec)
    return {
        "kind": contour.kind,
        "points": [[p.real, p.imag] for p in pts],
        "p_flag": contour.p_flag,
        "sector_in": contour.sector_in,
        "sector_out": contour.sector_out,
    }
