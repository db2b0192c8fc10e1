"""Seeded workloads: inputs, timed operations and their correctness checks.

``build(bm, name, seed, seconds)`` is the benchmark's set-up: it draws
every input from the seed, validates every spec and builds every weight,
contour family and functional handle the run can use, and returns the
operations as closures over those objects. Every timed operation gets
inputs of its own, so no cached result of an earlier operation can answer
it; the one sharing allowed is between the handles of one family in
``tables``, which are visited in order as ``certify`` does. Warm-up
operations are drawn from a separate random stream.

The pools hold seven to eleven times the operations the current code
completes in ``seconds``; a run that exhausts its pool stops early and
says so.
Orders are stratified (each block of operations runs every order once, in
a seeded order), so the mix of problem sizes is the same for every seed.
"""
from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

TABLE_ORDERS = (4, 6, 8)
FAVARD_ORDERS = (8, 9, 10, 11, 12)
PROPAGATION_ORDERS = (24, 26, 28, 30, 32, 34, 36, 38, 40)
AIRY_POINTS = 24


@dataclass
class Op:
    """One timed operation. ``check`` returns a list of problems. The
    label starts with the operation's kind. The loop only stops after an
    operation with ``group_end`` set."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    group_end: bool = True


@dataclass
class Plan:
    warmup: list
    timed: list
    traced_ops: int   # the traced run executes exactly the first traced_ops ops
    setup_s: float = 0.0   # time spent inside the package's set-up calls


class SetupCalls:
    """The package's set-up entry points (validate_spec, make_setup,
    build_weight, build_contours), timed, so that set-up time counts the
    package's work and not the drawing of random inputs."""

    def __init__(self, bm):
        self.bm = bm
        self.seconds = 0.0

    def __getattr__(self, name):
        fn = getattr(self.bm, name)

        def timed(*args):
            t = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.seconds += time.perf_counter() - t
        return timed


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _stratified(rng, values, count):
    """count values, each consecutive block a seeded permutation of values."""
    out = []
    while len(out) < count:
        out.extend(rng.permutation(values).tolist())
    return out[:count]


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _whole(seconds) -> int:
    return max(1, math.ceil(seconds))


def build(bm, name: str, seed: int, seconds: float) -> Plan:
    builders = {"tables": _tables, "transforms": _transforms, "algebra": _algebra}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(builders)}")
    lib = SetupCalls(bm)
    plan = builders[name](bm, lib, seed, seconds)
    plan.setup_s = lib.seconds
    return plan


# --- tables -----------------------------------------------------------------

FAMILIES = ("quartic", "cubic_quintic", "quartic_pole", "gaussian")


def _family_coeffs(rng, family):
    """(A1, B1, A2, B2) ascending coefficients with seeded lower orders,
    plus (delta, sigma) for the Gaussian. The ranges are narrow because
    table cost moves with the coefficients, and a run holds only twelve
    family instances."""
    def c():
        return _u(rng, -.25, .25)

    if family == "quartic":
        return ([c(), c(), 0, 1], [1], [c(), c(), 0, 1], [1]), None
    if family == "cubic_quintic":
        return ([c(), c(), 1], [1], [c(), c(), c(), 0, 1], [1]), None
    if family == "quartic_pole":
        # A2 = y^2 + a, B2 = y/2 with a in [1.15, 1.35]: a pole at 0 with the
        # non-integer exponent -(2a + 1), so its loop tracks a branch
        return ([c(), c(), 0, 1], [1], [1.25 + c() / 2.5, 0, 1], [0, .5]), None
    delta, sigma = _u(rng, 1.4, 2.2), _u(rng, 1.4, 2.2)
    return ([0, delta], [1], [0, sigma], [1]), (delta, sigma)


def _table_family(bm, lib, coeffs, gauss, N, label, first_only=False):
    """One op per handle of the family, in order; the last one also checks
    that the family's tables have full rank s1*s2."""
    spec = lib.validate_spec(*(bm.CPoly(c) for c in coeffs))
    handles = lib.make_setup(spec).handles
    if first_only:
        handles = handles[:1]
    done = []
    ops = []
    for k, h in enumerate(handles):
        last = k == len(handles) - 1

        def check(table, last=last):
            mu = table.entries
            done.append(mu)
            problems = checks.within("recurrence defect",
                                     checks.recurrence_defect(*coeffs, mu),
                                     checks.RESIDUAL_TOL)
            prop = bm.propagate_moments(spec, mu[: spec.a1 + 1, : spec.a2 + 1], N)
            problems += checks.within(
                "propagation mismatch",
                float(np.max(np.abs(prop.entries - mu)) / np.max(np.abs(mu))),
                checks.PROPAGATION_RTOL)
            if gauss:
                problems += checks.within("Gaussian table error",
                                          checks.gaussian_table_error(*gauss, mu),
                                          checks.GAUSS_RTOL)
            if last and not first_only:
                rank = checks.numerical_rank(done)
                if rank != spec.M:
                    problems.append(f"rank {rank} of {spec.M} tables")
            return problems

        ops.append(Op(f"{label}[{h.i},{h.j}] N={N}",
                      lambda h=h: h.table(N), check, group_end=False))
    return ops


def _tables(bm, lib, seed, seconds):
    """Cycles of three rounds, each round one fresh instance of every
    family; within a cycle each family runs each order once, in a seeded
    order. A run stops only at a cycle end, so every run holds each
    (family, order) pair equally often: per-table times range over 5x,
    and a partial cycle would move the median with the seed."""
    rng = _rng(seed, 0)
    timed = []
    first_round = None
    for _ in range(1 + _whole(seconds) // 2):
        orders = {f: rng.permutation(TABLE_ORDERS).tolist() for f in FAMILIES}
        for r in range(len(TABLE_ORDERS)):
            for f in FAMILIES:
                coeffs, gauss = _family_coeffs(rng, f)
                timed += _table_family(bm, lib, coeffs, gauss, orders[f][r], f)
            first_round = first_round or len(timed)
        timed[-1].group_end = True
    warm_rng = _rng(seed, 1)
    warmup = []
    for f in FAMILIES:
        coeffs, gauss = _family_coeffs(warm_rng, f)
        warmup += _table_family(bm, lib, coeffs, gauss, 4, f"warm {f}", first_only=True)
    return Plan(warmup, timed, first_round)


# --- transforms -------------------------------------------------------------

def _transforms(bm, lib, seed, seconds):
    rng = _rng(seed, 0)
    weights = {d: lib.build_weight(bm.CPoly([0] * d + [1]), bm.CPoly([1])) for d in (2, 3)}
    airy_weight = weights[2]
    airy_loop = lib.build_contours(airy_weight)[1]

    def gaussian_point(r):
        delta, sigma = _u(r, 1.4, 2.2), _u(r, 1.4, 2.2)
        z = complex(_u(r, -.8, .8), _u(r, -.8, .8))
        w = complex(_u(r, -.8, .8), _u(r, -.8, .8))
        spec = lib.validate_spec(bm.CPoly([0, delta]), bm.CPoly([1]),
                                 bm.CPoly([0, sigma]), bm.CPoly([1]))
        h = lib.make_setup(spec).handle(0, 0)

        def check(got):
            want = checks.gaussian_generating(delta, sigma, z, w)
            return checks.within("F(z,w) relative error", abs(got - want) / abs(want),
                                 checks.GAUSS_RTOL)

        return Op(f"F z={z:.3f} w={w:.3f} delta={delta:.3f} sigma={sigma:.3f}",
                  lambda: bm.generating_eval(h, z, w), check)

    def sdc_point(r, d):
        spec = weights[d]
        z = _u(r, 20, 40) * cmath.exp(-1j * math.pi / (4 * (d + 1)))

        def run():
            return bm.laplace(bm.trace_sdc(spec, z, 0), spec, z, 0)

        def check(got):
            want = checks.monomial_leading_term(d, z)
            return checks.within("|F/leading - 1|", abs(got / want - 1), checks.SDC_RTOL)

        return Op(f"sdc d={d} |z|={abs(z):.2f}", run, check)

    def airy_bundle(r):
        # a box clear of the zeros of Ai, which lie on the negative axis
        # from -2.338 on, so the relative error stays meaningful
        zs = [complex(_u(r, -1.5, 2.0), _u(r, -1.5, 1.5)) for _ in range(AIRY_POINTS)]

        def run():
            return [bm.laplace(airy_loop, airy_weight, z, 0) for z in zs]

        def check(got):
            want = [2j * math.pi * checks.airy_ai(z) for z in zs]
            worst = max(abs(g - w) / abs(w) for g, w in zip(got, want))
            return checks.within("Airy relative error", worst, checks.AIRY_RTOL)

        return Op(f"airy x{AIRY_POINTS}", run, check)

    def round_ops(r, k):
        return [gaussian_point(r), sdc_point(r, 2 + k % 2), airy_bundle(r)]

    timed = []
    for k in range(30 * _whole(seconds)):
        timed += round_ops(rng, k)
    warmup = round_ops(_rng(seed, 1), 0) + [sdc_point(_rng(seed, 2), 3)]
    return Plan(warmup, timed, 36)


# --- algebra ----------------------------------------------------------------

def random_recurrence(bm, rng, N):
    """Random recurrence data of order N: gammas of modulus 0.5..2, a and b
    in a box of half-width 0.7, pi0 and sigma0 near 1."""
    def disk(n):
        return [complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(n)]

    def gammas():
        mags = rng.uniform(0.5, 2.0, N)
        args = rng.uniform(-math.pi, math.pi, N)
        return [complex(m * math.cos(a), m * math.sin(a)) for m, a in zip(mags, args)]

    return bm.RecurrenceSystem(
        gamma=gammas(), gamma_t=gammas(),
        a=[disk(n + 1) for n in range(N)], b=[disk(n + 1) for n in range(N)],
        pi0=complex(*rng.uniform(0.5, 1.5, 2)),
        sigma0=complex(*rng.uniform(0.5, 1.5, 2)))


def _algebra_op(bm, lib, rng, nf, Np, deg_a):
    """Favard round trip at order nf, then propagation of a random seed
    block to order Np for A1, A2 of degree deg_a (weights of degree
    deg_a + 1) with seeded lower coefficients."""
    rec = random_recurrence(bm, rng, nf)
    top = [0] * (deg_a - 2) + [1]
    coeffs = ([_u(rng, -.5, .5), _u(rng, -.5, .5)] + top, [1],
              [_u(rng, -.5, .5), _u(rng, -.5, .5)] + top, [1])
    spec = lib.validate_spec(*(bm.CPoly(c) for c in coeffs))
    shape = (spec.a1 + 1, spec.a2 + 1)
    seed_block = rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def run():
        table = bm.favard_reconstruct(rec, nf)
        back = bm.extract_recurrence(table, bm.monic_bops(table, nf))
        verify = bm.favard_verify(rec, table)
        prop = bm.propagate_moments(spec, seed_block, Np)
        return back, verify, prop, bm.recurrence_residual(spec, prop)

    def check(out):
        back, verify, prop, residual = out
        mu = prop.entries
        want = checks.canonical_recurrence(rec.gamma, rec.gamma_t, rec.a, rec.b,
                                           rec.pi0, rec.sigma0)
        problems = checks.within("Favard round trip", checks.recurrence_mismatch(back, want),
                                 checks.FAVARD_RTOL)
        problems += checks.within("favard_verify", verify, checks.FAVARD_RTOL)
        problems += checks.within("recurrence_residual", residual, checks.RESIDUAL_TOL)
        problems += checks.within("recurrence defect",
                                  checks.recurrence_defect(*coeffs, mu), checks.RESIDUAL_TOL)
        if not np.array_equal(mu[: shape[0], : shape[1]], seed_block):
            problems.append("seed block not preserved")
        return problems

    return Op(f"algebra favard N={nf}, propagate deg A={deg_a} N={Np}", run, check)


def _algebra(bm, lib, seed, seconds):
    rng = _rng(seed, 0)
    count = 60 * _whole(seconds)
    nfs = _stratified(rng, FAVARD_ORDERS, count)
    nps = _stratified(rng, PROPAGATION_ORDERS, count)
    degrees = _stratified(rng, (2, 3), count)
    timed = [_algebra_op(bm, lib, rng, nf, Np, deg) for nf, Np, deg in zip(nfs, nps, degrees)]
    warm_rng = _rng(seed, 1)
    warmup = [_algebra_op(bm, lib, warm_rng, 10, 30, deg) for deg in (2, 3)]
    block = len(FAVARD_ORDERS) * len(PROPAGATION_ORDERS)
    return Plan(warmup, timed, block)
