import numpy as np
import pytest

from bimoment.errors import (
    AssumptionAViolated,
    AssumptionBViolated,
    DegenerateQuadratic,
    MultipleSharedRoots,
    NoCommonFactor,
    NotReducible,
)
from bimoment.polycore import CPoly
from bimoment.semiclassical import (
    DeltaSolution,
    propagate_moments,
    recurrence_residual,
    reduce_common_factor,
    reduce_to_linear,
    spec_from_json_dict,
    spec_to_json_dict,
    validate_spec,
)
from bimoment.tables import BimomentTable

from oracles import (
    gaussian_bimoments,
    quartic_realline_bimoments,
    recurrence_defect,
    shifted_gaussian_moment,
)

X = CPoly.x()
ONE = CPoly.one()


def quartic_pair():
    return validate_spec(CPoly([0, 0, 0, 1]), ONE, CPoly([0, 0, 0, 1]), ONE)


def gaussian_pair():
    return validate_spec(CPoly([0, 2]), ONE, CPoly([0, 2]), ONE)


def test_validate_quartic_bb1():
    spec = quartic_pair()
    assert (spec.a1, spec.b1, spec.a2, spec.b2) == (2, -1, 2, -1)
    assert (spec.s1, spec.s2, spec.M) == (3, 3, 9)
    assert spec.case == "BB1"
    assert spec.determinant is None


def test_validate_gaussian_bb3():
    spec = gaussian_pair()
    assert spec.case == "BB3"
    assert spec.determinant == pytest.approx(3.0)
    assert (spec.s1, spec.s2) == (1, 1)


def test_validate_degenerate_quadratic():
    with pytest.raises(DegenerateQuadratic):
        validate_spec(X, ONE, X, ONE)


def test_validate_assumption_a():
    with pytest.raises(AssumptionAViolated):
        validate_spec(X, CPoly([0, 0, 1]), X, ONE)  # deg B1 = 2 > deg A1 - 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_rejects_nonfinite_coefficient(bad):
    with pytest.raises(ValueError, match="A1 has a non-finite coefficient"):
        validate_spec(CPoly([0, bad]), ONE, CPoly([0, 2]), ONE)


def test_validate_assumption_b_two_roots():
    A1 = CPoly.from_roots([1.0, -1.0, 3.0])
    B1 = CPoly.from_roots([1.0, -1.0])
    with pytest.raises(AssumptionBViolated):
        validate_spec(A1, B1, CPoly([0, 2]), ONE)


def test_validate_single_shared_root_is_reducible():
    A1 = 2 * X * CPoly([-1, 1])           # 2x(x-1)
    spec = validate_spec(A1, CPoly([-1, 1]), CPoly([0, 2]), ONE)
    assert spec.reducible
    root, l, r = spec.shared1[0]
    assert root == pytest.approx(1.0)
    assert (l, r) == (1, 1)


def test_validate_mixed_case_bb2():
    spec = validate_spec(CPoly([0, 0, 0, 1]), ONE, CPoly([0, 0, 1]), CPoly([0, 0.5]), )
    assert spec.case == "BB2"


def test_propagate_gaussian_matches_oracle():
    spec = gaussian_pair()
    mu = gaussian_bimoments(2.0, 2.0, 6)
    seed = mu[:1, :1]
    table = propagate_moments(spec, seed, 6)
    assert table[1, 0] == pytest.approx(0.0, abs=1e-12)
    assert table[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert table[1, 1] == pytest.approx(mu[0, 0] / 3.0, rel=1e-12)
    assert np.allclose(table.entries, mu, rtol=1e-9, atol=1e-9 * mu[0, 0])


def test_propagate_quartic_matches_oracle():
    """The 3x3 seed block of the real-line quartic table determines the rest."""
    mu = quartic_realline_bimoments(16)
    table = propagate_moments(quartic_pair(), mu[:3, :3], 16)
    assert np.max(np.abs(table.entries - mu)) <= 1e-12 * np.max(np.abs(mu))


@pytest.mark.parametrize("coeffs", [
    ([0.1, -0.2, 0, 1], [1, 0, 1], [1.25, 0, 1], [0, 0.5]),
    ([0.1, -0.2, 0, 1], [1], [1.25, 0, 1], [0, 0.5]),
    ([0.3j, 0.2, 0, 1], [1, 0, 1], [0, 0, 0, 1], [1]),
])
@pytest.mark.parametrize("N", [0, 1, 6])
def test_recurrence_residual_matches_functional_equations(coeffs, N):
    """B1 = 1 + x^2 has an interior zero coefficient, B2 = y/2 a zero
    constant term; on a random table every instance has a defect of O(1)."""
    spec = validate_spec(*(CPoly(c) for c in coeffs))
    rng = np.random.default_rng(N)
    table = BimomentTable(rng.normal(size=(N + 1, N + 1))
                          + 1j * rng.normal(size=(N + 1, N + 1)))
    assert recurrence_residual(spec, table) == pytest.approx(
        recurrence_defect(spec, table), rel=1e-12)


def test_propagate_zero_seed_gives_zero_table():
    spec = quartic_pair()
    table = propagate_moments(spec, np.zeros((3, 3)), 7)
    assert np.allclose(table.entries, 0.0)


def test_propagate_seed_shape_checked():
    with pytest.raises(ValueError):
        propagate_moments(quartic_pair(), np.zeros((2, 2)), 5)


@pytest.mark.parametrize("N", [-1, -7])
def test_propagate_rejects_negative_order(N):
    with pytest.raises(ValueError, match="table order must be >= 0"):
        propagate_moments(quartic_pair(), np.zeros((3, 3)), N)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_propagate_rejects_nonfinite_seed(bad):
    """Refused before any arithmetic: a RuntimeWarning (an error under
    pytest.ini) or BimomentTable's non-finite check would come later."""
    seed = np.ones((3, 3), dtype=complex)
    seed[1, 2] = bad
    with pytest.raises(ValueError, match="seed block has a non-finite entry"):
        propagate_moments(quartic_pair(), seed, 6)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-8])
def test_propagate_rejects_residual_tol(tol):
    """NaN would turn every consistency check off (resid > nan is False)."""
    with pytest.raises(ValueError, match="residual_tol must be positive and finite"):
        propagate_moments(quartic_pair(), np.ones((3, 3)), 6, residual_tol=tol)


def test_propagated_table_satisfies_recurrences():
    spec = quartic_pair()
    rng = np.random.default_rng(5)
    seed = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    table = propagate_moments(spec, seed, 8)
    assert recurrence_residual(spec, table) < 1e-10


def test_propagation_is_linear():
    spec = quartic_pair()
    rng = np.random.default_rng(6)
    s1 = rng.normal(size=(3, 3))
    s2 = rng.normal(size=(3, 3))
    t1 = propagate_moments(spec, s1, 5).entries
    t2 = propagate_moments(spec, s2, 5).entries
    t12 = propagate_moments(spec, s1 + 2.0 * s2, 5).entries
    assert np.allclose(t12, t1 + 2.0 * t2, rtol=1e-9, atol=1e-9)


def test_scaling_equivariance():
    """(A1, B1) -> (lam A1, lam B1) leaves the recurrence solutions fixed."""
    spec = quartic_pair()
    lam = 2.7 - 0.4j
    scaled = validate_spec(lam * spec.A1, lam * spec.B1, spec.A2, spec.B2)
    rng = np.random.default_rng(8)
    seed = rng.normal(size=(3, 3))
    t1 = propagate_moments(spec, seed, 6).entries
    t2 = propagate_moments(scaled, seed, 6).entries
    assert np.allclose(t1, t2, rtol=1e-9, atol=1e-9)


def test_reduce_to_linear_gaussian():
    spec = validate_spec(CPoly([0, 2]), ONE, CPoly([0, 1]), ONE)
    A, B = reduce_to_linear(spec)
    assert np.allclose(A.coeffs, [0.0, 1.0])
    assert np.allclose(B.coeffs, [1.0])


def test_reduce_to_linear_cubic():
    spec = validate_spec(CPoly([0, 0, 0, 1]), ONE, CPoly([0, 2]), ONE)
    A, B = reduce_to_linear(spec)
    assert np.allclose(A.coeffs, [0.0, -0.5, 0.0, 1.0])
    assert np.allclose(B.coeffs, [1.0])


def test_reduce_to_linear_requires_shape():
    with pytest.raises(NotReducible):
        reduce_to_linear(quartic_pair())


def test_reduce_common_factor_case_i():
    A = CPoly.from_roots([1.0, 1.0]) * X      # (x-1)^2 x
    B = CPoly.from_roots([1.0, 1.0])          # (x-1)^2
    A_red, B_red, K, c = reduce_common_factor(A, B)
    assert K == 2
    assert c == pytest.approx(1.0)
    assert np.allclose(A_red.coeffs, [1.0, -1.0, 1.0])   # x^2 - x + 1
    assert np.allclose(B_red.coeffs, [-1.0, 1.0])


def test_reduce_common_factor_case_ii():
    A = CPoly.from_roots([1.0])               # (x-1)
    B = CPoly.from_roots([1.0, 1.0, 1.0])     # (x-1)^3
    A_red, B_red, K, c = reduce_common_factor(A, B)
    assert K == 1
    # A_red = 1 + (x-1) = x
    assert np.allclose(A_red.coeffs, [0.0, 1.0], atol=1e-9)
    assert np.allclose(B_red.coeffs, CPoly.from_roots([1.0, 1.0]).coeffs, atol=1e-9)


def test_reduce_common_factor_coprime_raises():
    with pytest.raises(NoCommonFactor):
        reduce_common_factor(CPoly([1, 0, 1]), CPoly([-1, 1]))


def test_reduce_common_factor_two_roots_raises():
    A = CPoly.from_roots([1.0, 2.0])
    B = CPoly.from_roots([1.0, 2.0, 0.0])
    with pytest.raises(MultipleSharedRoots):
        reduce_common_factor(A, B)


def test_reduction_preserves_log_derivative():
    """Both reduction cases leave (A + B')/B unchanged off the shared root."""
    cases = [
        (CPoly.from_roots([1.0, 1.0]) * X, CPoly.from_roots([1.0, 1.0])),
        (CPoly.from_roots([1.0]) * CPoly([2]), CPoly.from_roots([1.0, 1.0, 1.0])),
    ]
    for A, B in cases:
        A_red, B_red, _, _ = reduce_common_factor(A, B)
        for x in (0.3, 2.5, 1.7 + 0.8j):
            orig = (A(x) + B.deriv()(x)) / B(x)
            red = (A_red(x) + B_red.deriv()(x)) / B_red(x)
            assert orig == pytest.approx(red, rel=1e-9)


def test_delta_solution_formula_c_zero():
    """j = 0, c = 0: the delta at the origin kills every positive x power."""
    Y = np.array([1.0, 0.5, 0.75, 0.1], dtype=complex)
    sol = DeltaSolution(c=0.0, j=0, partner_moments=Y)
    t = sol.bimoments(3)
    for n in range(4):
        for m in range(4):
            want = Y[m] if n == 0 else 0.0
            assert t[n, m] == pytest.approx(want, abs=1e-14)


def test_delta_solution_formula_c_one():
    Y = np.array([1.0, -0.25, 2.0], dtype=complex)
    sol = DeltaSolution(c=1.0, j=0, partner_moments=Y)
    t = sol.bimoments(2)
    for n in range(3):
        assert np.allclose([t[n, m] for m in range(3)], Y)


def test_delta_solution_satisfies_recurrences():
    """A1 = 2x(x-1), B1 = x-1, Gaussian partner: mu[n,m] = Y_m solves both
    moment recurrences (Y from the shifted-Gaussian closed form)."""
    A1 = 2 * X * CPoly([-1, 1])
    spec = validate_spec(A1, CPoly([-1, 1]), CPoly([0, 2]), ONE)
    Y = np.array([shifted_gaussian_moment(p, 1.0) for p in range(12)], dtype=complex)
    sol = DeltaSolution(c=1.0, j=0, partner_moments=Y)
    table = sol.bimoments(8)
    assert recurrence_residual(spec, table) < 1e-12


def test_spec_json_roundtrip():
    spec = quartic_pair()
    back = spec_from_json_dict(spec_to_json_dict(spec))
    assert back.case == spec.case
    assert np.allclose(back.A1.coeffs, spec.A1.coeffs)


def test_singular_frontier_on_forced_degenerate_data():
    """Bypassing validation with determinant-zero quadratic data leaves the
    first frontier rank deficient; the solver reports it instead of
    inventing numbers."""
    from bimoment.errors import SingularFrontier
    from bimoment.semiclassical import SemiclassicalSpec

    bad = SemiclassicalSpec(A1=X, B1=ONE, A2=CPoly([0, 1]), B2=ONE,
                            a1=0, b1=-1, a2=0, b2=-1, s1=1, s2=1,
                            case="BB3", determinant=0.0)
    with pytest.raises(SingularFrontier):
        propagate_moments(bad, np.array([[1.0]]), 3)


def test_propagation_provenance_tags():
    from bimoment.tables import PROV_INPUT, PROV_RECURRENCE

    spec = gaussian_pair()
    table = propagate_moments(spec, np.array([[2.0]]), 3)
    assert table.provenance[0, 0] == PROV_INPUT
    assert table.provenance[2, 3] == PROV_RECURRENCE


def test_delta_solutions_higher_order():
    """K = 2 shared factor: the j = 1 delta-supported table
    mu[n,m] = n c^(n-1) Y_m + c^n Y_{m+1} also solves the full system."""
    from bimoment.semiclassical import delta_solutions
    from bimoment.weights import build_contours, build_weight

    lin2 = CPoly.from_roots([1.0, 1.0])
    spec = validate_spec(2 * X * lin2, lin2, CPoly([0, 2]), ONE)
    assert spec.shared1[0][1:] == (2, 2)
    wy = build_weight(spec.A2, spec.B2)
    cy = build_contours(wy)[0]
    Y = np.array([shifted_gaussian_moment(p, 1.0) for p in range(16)])
    for j in (0, 1):
        sol = delta_solutions(spec, cy, wy, j, 6)
        table = sol.bimoments(6)
        assert recurrence_residual(spec, table) < 1e-10
        if j == 1:
            for n in range(7):
                want = n * Y[:7] + Y[1:8]
                assert np.max(np.abs(table.entries[n] - want)) <= 1e-10 * np.abs(Y).max()
    with pytest.raises(ValueError):
        delta_solutions(spec, cy, wy, 2, 4)
