"""Properties of propagate_moments: a returned table meets its recurrences
to residual_tol, keeps the seed block exactly, carries the right
provenance and is linear in the seed; otherwise it raises InconsistentSeed."""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bimoment.errors import InconsistentSeed, SingularFrontier  # noqa: E402
from bimoment.polycore import CPoly  # noqa: E402
from bimoment.semiclassical import (  # noqa: E402
    _recurrence_terms,
    propagate_moments,
    recurrence_residual,
    validate_spec,
)
from bimoment.tables import PROV_INPUT, PROV_RECURRENCE  # noqa: E402

TOL = 1e-8


def small(bound):
    return st.complex_numbers(max_magnitude=bound, allow_nan=False, allow_infinity=False)


@st.composite
def side(draw):
    """A of degree 1..4 with a leading coefficient near 1, and B constant,
    linear, or quadratic with a zero x coefficient, as deg B < deg A allows.
    B's leading coefficient stays within 0.2 of 1/2, so that two edge sides
    keep the leading determinant away from 0."""
    deg = draw(st.integers(1, 4))
    A = [draw(small(0.5)) for _ in range(deg)] + [1 + draw(small(0.2))]
    kind = draw(st.sampled_from(["constant", "linear", "quadratic"][:deg]))
    B = {"constant": [0.5],
         "linear": [draw(small(0.5)), 0.5 + draw(small(0.2))],
         "quadratic": [1 + draw(small(0.25)), 0.0, 0.5]}[kind]
    return A, B


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(side(), side(), st.integers(0, 24), st.integers(0, 2**32 - 1))
# B1 = 1.2 + x^2/2: each antidiagonal meets 1e-8, the N=24 table misses it
@example(([0.1, -1, 0.2, 1], [1.2, 0, 0.5]), ([0.1, 0.2, 0, 1], [0.5]), 24, 0)
def test_propagation_is_consistent_or_refused(x, y, N, seed):
    spec = validate_spec(CPoly(x[0]), CPoly(x[1]), CPoly(y[0]), CPoly(y[1]))
    rng = np.random.default_rng(seed)
    shape = (spec.a1 + 1, spec.a2 + 1)
    s1, s2 = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
    try:
        t1 = propagate_moments(spec, s1, N, residual_tol=TOL)
        t2 = propagate_moments(spec, s2, N, residual_tol=TOL)
        t12 = propagate_moments(spec, s1 + 2.0 * s2, N, residual_tol=TOL)
    except InconsistentSeed:
        return
    for table, block in ((t1, s1), (t2, s2), (t12, s1 + 2.0 * s2)):
        assert recurrence_residual(spec, table) <= TOL
        assert np.array_equal(table.entries[: shape[0], : shape[1]], block[: N + 1, : N + 1])
        want = np.full((N + 1, N + 1), PROV_RECURRENCE)
        want[: shape[0], : shape[1]] = PROV_INPUT
        assert np.array_equal(table.provenance, want)
    scale = max(np.max(np.abs(t.entries)) for t in (t1, t2, t12))
    assert np.max(np.abs(t12.entries - (t1.entries + 2.0 * t2.entries))) <= 1e-9 * scale


def unit_scale(A, B):
    """The power of two that brings the largest coefficient of A and B into
    [1, 2)."""
    peak = max(abs(c) for c in [*A.coeffs, *B.coeffs])
    return 2.0 ** (1 - math.frexp(peak)[1])


def reference_frontiers(spec, seed, N):
    """The per-antidiagonal loop that propagate_moments replaced: both
    stencils evaluated afresh on every antidiagonal, each side's
    coefficients scaled by its unit_scale, then one column-scaled
    least-squares solve. Returns mu[:N+1, :N+1] without the final growth
    check."""
    Ni = N + max(spec.a1, spec.a2) + 2
    known = np.zeros((Ni + 1, Ni + 1), dtype=bool)
    mu = np.zeros((Ni + 1, Ni + 1), dtype=complex)
    mu[: spec.a1 + 1, : spec.a2 + 1] = seed
    known[: spec.a1 + 1, : spec.a2 + 1] = True
    terms = _recurrence_terms(spec)
    sides = ((0, spec.a1 + 1, unit_scale(spec.A1, spec.B1)),
             (1, spec.a2 + 1, unit_scale(spec.A2, spec.B2)))
    for k in range(1, 2 * Ni + 1):
        rows, cols, coefs, rhs = [], [], [], []
        nrows = 0
        for side, top, scale in sides:
            if k < top:
                continue
            n = np.arange(k - top + 1)
            I, J, C = terms(side, n, k - top - n)
            C = C * scale
            present = C != 0
            inside = (I <= Ni) & (J <= Ni)
            I, J = np.clip(I, 0, Ni), np.clip(J, 0, Ni)
            kn = known[I, J]
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
        ids, col = np.unique(np.concatenate(cols), return_inverse=True)
        A = np.zeros((nrows, len(ids)), dtype=complex)
        np.add.at(A, (np.concatenate(rows), col), np.concatenate(coefs))
        colnorm = np.linalg.norm(A, axis=0)
        x = np.linalg.lstsq(A / colnorm, np.concatenate(rhs), rcond=1e-10)[0] / colnorm
        mu.flat[ids] = x
        known.flat[ids] = True
    return mu[: N + 1, : N + 1]


FRONTIER_SPECS = [
    ([0.3, -0.2, 0, 1], [1], [0.3, -0.2, 0, 1], [1]),
    ([0.1 + 0.2j, -0.3, 0.1j, 0.2, 1], [1, 0.3j], [0.25, 0.1, 1], [1]),
    ([0.1, -1, 0.2, 1], [1.2, 0, 0.5], [0.1, 0.2, 0, 1], [0.5]),
    ([0.1, -0.2, 0, 1], [1], [1.25, 0, 1], [0, 0.5]),
    ([0.2j, 2.1], [0.4], [-0.1, 1.9], [0.6]),
    # complex leading coefficients of modulus 0.95 and 1.6 (after scaling)
    ([0.3, -0.2, 0, 0.9 + 0.3j], [1], [0.1j, 0.25, 0.4 - 0.7j], [0.5]),
]
# an edge side (deg B = deg A - 1) couples the equations: least squares on
# every antidiagonal, but for the lone equation in (0, 2) of set 3, which
# the weighted mean solves to the same bits
COUPLED = (3, 4)
FRONTIER_CASES = [(c, N) for N in (0, 3, 16) for c in range(5)] + [
    (0, 40), (5, 0), (5, 3), (5, 16), (5, 40)]


@pytest.mark.parametrize("c, N", FRONTIER_CASES,
                         ids=[f"{N}-coeffs{c}" for c, N in FRONTIER_CASES])
def test_frontier_plan_matches_reference_bit_for_bit(c, N):
    """The plan changes where the stencil is evaluated, not the systems.
    On the COUPLED sets the same rows, columns and least-squares
    arithmetic give the same bits. Elsewhere antidiagonals whose equations
    each hold one unknown take the weighted mean, which sums in another
    order than the least-squares solve: within 1e-13 of the largest
    entry."""
    spec = validate_spec(*(CPoly(p) for p in FRONTIER_SPECS[c]))
    rng = np.random.default_rng(N)
    shape = (spec.a1 + 1, spec.a2 + 1)
    seed = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = propagate_moments(spec, seed, N).entries
    want = reference_frontiers(spec, seed, N)
    if c in COUPLED:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def workload_spec(deg, c):
    """A1 = A2 of degree deg with two seeded low coefficients, B = 1: the
    specs the benchmark's algebra workload propagates."""
    A = CPoly([c[0], c[1]] + [0] * (deg - 2) + [1])
    return validate_spec(A, CPoly([1]), A, CPoly([1]))


@pytest.mark.parametrize("deg", [2, 3])
@pytest.mark.parametrize("c", [(0.3, -0.2), (-0.45, 0.41)])
def test_workload_families_propagate_to_order_40(deg, c):
    spec = workload_spec(deg, c)
    rng = np.random.default_rng(deg)
    seed = rng.normal(size=(deg, deg)) + 1j * rng.normal(size=(deg, deg))
    table = propagate_moments(spec, seed, 40)
    assert recurrence_residual(spec, table) <= 1e-12


@pytest.mark.parametrize("c", [(0.1, -0.2, 0.15), (-0.2, 0.05, 0.25), (0.25, 0.25, -0.1)])
def test_interior_zero_b_refuses_growth_at_order_40(c):
    """A1 = c0 - x + c2 x^2 + x^3, B1 = 1 + c + x^2, A2 = c0 + c1 y + y^3,
    B2 = 1: every antidiagonal meets its own 1e-8 bound, yet the errors
    they pass on grow until the table misses its recurrences by far more."""
    spec = validate_spec(CPoly([c[0], -1, c[1], 1]), CPoly([1 + c[2], 0, 1]),
                         CPoly([c[0], c[1], 0, 1]), CPoly([1]))
    rng = np.random.default_rng(40)
    seed = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    with pytest.raises(InconsistentSeed, match="table recurrence residual") as refused:
        propagate_moments(spec, seed, 40)
    assert refused.value.residual > 1e-8


def test_frontier_refusal_names_the_frontier():
    """A residual_tol below roundoff refuses the first antidiagonal's
    least-squares solve, before any finished table exists to check."""
    spec = workload_spec(3, (0.3, -0.2))
    rng = np.random.default_rng(3)
    seed = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    with pytest.raises(InconsistentSeed, match="frontier residual") as refused:
        propagate_moments(spec, seed, 6, residual_tol=1e-30)
    assert refused.value.residual > 1e-30


def test_a_frontier_coefficient_whose_square_underflows_is_refused():
    """A1 = 1 + x/2 + 1e-170 x^2: the frontier coefficient's square is 0 in
    double, so the weighted mean would have no denominator. The
    antidiagonal goes to least squares, whose column norm is 0 too."""
    spec = validate_spec(CPoly([1, 0.5, 1e-170]), CPoly([1]),
                         CPoly([0.3, -0.2, 0, 1]), CPoly([1]))
    with pytest.raises(SingularFrontier, match=r"entries \[\(2, 0\)\] appear in no usable"):
        propagate_moments(spec, np.ones((2, 3)), 6)


def test_order_40_call_stays_small():
    """The per-side plan holds (terms, instances) arrays of flat int32
    indices, coefficients and two masks; one warm N=40 call peaks near
    0.75 MB (the per-antidiagonal loop alone peaked near 0.24 MB)."""
    import tracemalloc

    spec = workload_spec(3, (0.3, -0.2))
    seed = np.ones((3, 3), dtype=complex)
    propagate_moments(spec, seed, 40)
    tracemalloc.start()
    try:
        propagate_moments(spec, seed, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0e6
