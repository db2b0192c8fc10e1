import cmath
import math

import numpy as np
import pytest

from bimoment.errors import DivergentCoupling, DivergentTail
from bimoment.tables import monic_bops, pair_apply
from bimoment.polycore import CPoly
from bimoment.quadrature import (
    FunctionalHandle,
    asymptotic_check,
    bimoment_table,
    generating_eval,
    independence_certificate,
    laplace,
    laplace_many,
    make_setup,
    predicted_leading,
    rho_factorization_check,
    rho_sweep,
)
from bimoment.semiclassical import (
    propagate_moments,
    recurrence_residual,
    validate_spec,
)
from bimoment.weights import (
    Arc,
    Contour,
    InRay,
    OutRay,
    Seg,
    build_contours,
    build_weight,
    trace_sdc,
)

from oracles import (
    airy_maclaurin,
    gaussian_bimoments,
    gaussian_generating,
    quartic_realline_bimoments,
)

ONE = CPoly.one()
X = CPoly.x()


@pytest.fixture(scope="module")
def gauss_setup():
    spec = validate_spec(CPoly([0, 2]), ONE, CPoly([0, 2]), ONE)
    return spec, make_setup(spec)


@pytest.fixture(scope="module")
def quartic_setup():
    spec = validate_spec(CPoly([0, 0, 0, 1]), ONE, CPoly([0, 0, 0, 1]), ONE)
    return spec, make_setup(spec)


# --- laplace -----------------------------------------------------------

def test_laplace_gaussian_sqrt_pi():
    w = build_weight(CPoly([0, 2]), ONE)
    c = build_contours(w)[0]
    got = laplace(c, w, 0.0, 0)
    assert got == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_laplace_airy_value():
    w = build_weight(CPoly([0, 0, 1]), ONE)
    loops = build_contours(w)
    got = laplace(loops[1], w, 0.0, 0)  # the loop joining sectors +-2pi/3
    want = 2j * math.pi * airy_maclaurin(0.0)
    assert abs(got - want) <= 1e-8 * abs(want)


def test_laplace_airy_generating_function():
    """The same loop evaluates 2 pi i Ai(z) for small z."""
    w = build_weight(CPoly([0, 0, 1]), ONE)
    loop = build_contours(w)[1]
    for z in (0.3, -0.4 + 0.2j):
        got = laplace(loop, w, z, 0)
        want = 2j * math.pi * airy_maclaurin(z)
        assert abs(got - want) <= 1e-9 * abs(want)


def test_laplace_closed_loop_around_nothing_vanishes():
    w = build_weight(CPoly([0, 2]), ONE)
    circle = Contour(kind="loop_1a",
                     pieces=[Arc(1.5 + 0.5j, 0.3, 0.0, 2 * math.pi)],
                     anchor=None, p_flag=False, anchor_point=1.8 + 0.5j)
    got = laplace(circle, w, 0.7, 0)
    assert abs(got) < 1e-12


def test_laplace_branch_keyhole_gamma_oracle():
    """Keyhole around x = 0 for x^lam e^(-x^2/2):
    (e^(2 pi i lam) - 1) * 2^((lam-1)/2) Gamma((lam+1)/2)."""
    for lam in (0.5, 1.7, -0.3):
        w = build_weight(CPoly([-lam - 1, 0, 1]), X)
        key = next(c for c in build_contours(w) if c.kind == "loop_1a")
        got = laplace(key, w, 0.0, 0)
        half = 2.0 ** ((lam - 1) / 2) * math.gamma((lam + 1) / 2)
        want = (cmath.exp(2j * math.pi * lam) - 1.0) * half
        assert abs(got - want) <= 1e-9 * abs(want)


def test_laplace_divergent_direction_rejected():
    w = build_weight(CPoly([0, 2]), ONE)
    bad = Contour(kind="ray_1b", pieces=[OutRay(0.0, cmath.exp(0.25j * math.pi))],
                  anchor=None, p_flag=False, anchor_point=0.0)
    with pytest.raises(DivergentTail):
        laplace(bad, w, 0.0, 0)


def test_node_doubling_within_error_bound():
    """A mesh refined to rtol = 1e-13 and the default one differ by no
    more than their summed stated errors."""
    w = build_weight(CPoly([-2.3, 0, 0, 0, 1]), X)  # x^1.3 e^(-x^4/4)
    key = next(c for c in build_contours(w) if c.kind == "loop_1a")
    v1, e1 = laplace_many(key, w, np.array([0.4]), 1)
    v2, e2 = laplace_many(key, w, np.array([0.4]), 1, rtol=1e-13)
    assert np.all(np.abs(v1 - v2) <= e1 + e2)


def test_cauchy_deformation_invariance():
    """Moving the junction arc of an infinity loop does not move the value."""
    w = build_weight(CPoly([0, 0, 1]), ONE)
    loop = build_contours(w)[1]
    rho = 2.5
    th_in = cmath.phase(loop.pieces[0].direction)
    th_out = cmath.phase(loop.pieces[-1].direction)
    # reconstruct th continued (incoming angle is above outgoing by 2pi/3)
    th_in_c = th_out + 2 * math.pi / 3
    deformed = Contour(
        kind=loop.kind,
        pieces=[InRay(rho * cmath.exp(1j * th_in_c), cmath.exp(1j * th_in)),
                Arc(0.0, rho, th_in_c, th_out),
                OutRay(rho * cmath.exp(1j * th_out), cmath.exp(1j * th_out))],
        anchor=None, p_flag=True,
        anchor_point=rho * cmath.exp(1j * th_in_c))
    for z in (0.0, 1.2 - 0.4j):
        a = laplace(loop, w, z, 0)
        b = laplace(deformed, w, z, 0)
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


# --- bimoment tables ---------------------------------------------------

def test_gaussian_table_closed_form(gauss_setup):
    spec, setup = gauss_setup
    table, err = bimoment_table(setup.handle(0, 0), 4)
    want = gaussian_bimoments(2.0, 2.0, 4)
    assert np.max(np.abs(table.entries - want)) <= 1e-8 * want[0, 0]
    assert np.all(err >= 0)


def test_gaussian_table_parity_zeros(gauss_setup):
    spec, setup = gauss_setup
    table = setup.handle(0, 0).table(5)
    scale = abs(table[0, 0])
    for n in range(6):
        for m in range(6):
            if (n + m) % 2 == 1:
                assert abs(table[n, m]) <= 1e-10 * scale


def test_quartic_tables_satisfy_recurrences(quartic_setup):
    spec, setup = quartic_setup
    for h in setup.handles:
        assert recurrence_residual(spec, h.table(8)) <= 1e-6


def test_table_caching_is_stable(quartic_setup):
    _, setup = quartic_setup
    h = setup.handle(1, 2)
    t1 = h.table(8)
    t2 = h.table(8)
    assert t1 is t2


def test_table_and_errors_come_from_one_cached_build(quartic_setup):
    _, setup = quartic_setup
    h = setup.handle(2, 0)
    table, err = h.table_with_errors(4)
    assert h.table(4) is table
    assert h.table_errors(4) is err
    # the cache keeps every table alive: no view into a larger work array
    assert table.entries.base is None and err.base is None
    assert table.entries.shape == err.shape == (5, 5)


def test_quartic_tables_match_real_line_closed_form(quartic_setup):
    """The loops of handles (0,0), (0,1), (1,0), (1,1) add up to the real
    line in both variables, where the e^(xy) series gives the moments."""
    _, setup = quartic_setup
    parts = [setup.handle(i, j).table_with_errors(8) for i in (0, 1) for j in (0, 1)]
    total = sum(t.entries for t, _ in parts)
    err = sum(e for _, e in parts)
    want = quartic_realline_bimoments(8)
    assert want[0, 0] == pytest.approx(8.3900359466875, rel=1e-13)
    assert np.all(np.abs(total - want) <= err)


@pytest.mark.parametrize("rtol", [1e-8, 1e-10, 1e-12])
def test_gaussian_table_within_stated_error(gauss_setup, rtol):
    _, setup = gauss_setup
    table, err = bimoment_table(setup.handle(0, 0), 8, rtol=rtol)
    want = gaussian_bimoments(2.0, 2.0, 8)
    assert np.all(np.abs(table.entries - want) <= err)


def test_quartic_tables_panel_budget(monkeypatch):
    """All 9 quartic tables at N=8 once took 17,600 panel evaluations as
    nested adaptive quadrature; the product rule needs under a quarter."""
    from bimoment import quadrature

    calls = [0]
    original = quadrature._panel_eval

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(quadrature, "_panel_eval", counted)
    spec = validate_spec(CPoly([0, 0, 0, 1]), ONE, CPoly([0, 0, 0, 1]), ONE)
    for h in make_setup(spec).handles:
        bimoment_table(h, 8)
    assert 0 < calls[0] <= 4400


def test_negative_order_rejected(gauss_setup):
    _, setup = gauss_setup
    with pytest.raises(ValueError):
        bimoment_table(setup.handle(0, 0), -1)


def test_handle_index_out_of_range(quartic_setup):
    _, setup = quartic_setup
    assert setup.handle(2, 1) is setup.handles[7]
    for i, j in ((-1, 0), (0, -1), (3, 0), (0, 3)):
        with pytest.raises(IndexError):
            setup.handle(i, j)


def test_divergent_coupling_guard():
    spec = validate_spec(CPoly([0, 1.2]), ONE, CPoly([0, 0.5]), ONE)
    setup = make_setup(spec)
    with pytest.raises(DivergentCoupling):
        bimoment_table(setup.handle(0, 0), 2)


# --- generating function ------------------------------------------------

def test_generating_at_origin_is_mu00(gauss_setup):
    _, setup = gauss_setup
    h = setup.handle(0, 0)
    F = generating_eval(h, 0.0, 0.0)
    assert F == pytest.approx(h.table(2)[0, 0], rel=1e-10)


def test_generating_gaussian_closed_form(gauss_setup):
    _, setup = gauss_setup
    h = setup.handle(0, 0)
    for z, w in ((1.0, 0.0), (0.5, -0.3), (0.2 + 0.1j, 0.4j)):
        got = generating_eval(h, z, w)
        want = gaussian_generating(2.0, 2.0, z, w)
        assert abs(got - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("z, w", [(-0.546 + 0.773j, -0.542 + 0.021j), (0.5, 0.5)])
def test_generating_gaussian_near_coupling_edge(z, w):
    """delta = 1.216, sigma = 1.201 once raised QuadratureStall and
    DivergentTail in the nested path."""
    spec = validate_spec(CPoly([0, 1.216]), ONE, CPoly([0, 1.201]), ONE)
    got = generating_eval(make_setup(spec).handle(0, 0), z, w)
    want = gaussian_generating(1.216, 1.201, z, w)
    assert abs(got - want) <= 1e-9 * abs(want)


def test_generating_quartic_real_line_taylor(quartic_setup):
    """Handles (0,0)+(0,1)+(1,0)+(1,1) add up to the real line, whose
    generating function is the Taylor series of the closed-form table."""
    _, setup = quartic_setup
    N = 30
    mu = quartic_realline_bimoments(N)
    inv_fact = np.array([1.0 / math.factorial(k) for k in range(N + 1)])
    for z, w in ((0.3, -0.2), (0.2 + 0.3j, 0.1j)):
        zn = inv_fact * z ** np.arange(N + 1)
        wm = inv_fact * w ** np.arange(N + 1)
        want = zn @ mu @ wm
        got = sum(generating_eval(setup.handle(i, j), z, w) for i in (0, 1) for j in (0, 1))
        assert abs(got - want) <= 1e-10 * abs(want)


def test_generating_mixed_derivative_matches_mu11(gauss_setup):
    _, setup = gauss_setup
    h = setup.handle(0, 0)
    eps = 1e-3
    fd = (generating_eval(h, eps, eps) - generating_eval(h, eps, -eps)
          - generating_eval(h, -eps, eps) + generating_eval(h, -eps, -eps)) / (4 * eps * eps)
    assert abs(fd - h.table(2)[1, 1]) <= 1e-5 * max(1.0, abs(h.table(2)[1, 1]))


def test_entirety_taylor_proxy(gauss_setup):
    """F(z, w) agrees with the order-12 Taylor sum inside |z|,|w| <= 0.5."""
    _, setup = gauss_setup
    h = setup.handle(0, 0)
    table = h.table(12)
    fact = [math.factorial(k) for k in range(13)]
    for z, w in ((0.5, 0.5), (0.3, -0.5), (0.5j, 0.25)):
        taylor = sum(table[n, m] * z ** n * w ** m / (fact[n] * fact[m])
                     for n in range(13) for m in range(13))
        got = generating_eval(h, z, w)
        assert abs(got - taylor) <= 1e-6 * max(1.0, abs(got))


# --- rho factorization ---------------------------------------------------

def test_rho_factorization_gaussian(gauss_setup):
    _, setup = gauss_setup
    assert rho_factorization_check(setup.handle(0, 0)) <= 1e-8


def test_rho_factorization_quartic(quartic_setup):
    _, setup = quartic_setup
    assert rho_factorization_check(setup.handle(0, 0)) <= 1e-8


def test_rho_factorization_gaussian_value(gauss_setup):
    """Xi(0) Psi(0) = sqrt(pi) * sqrt(pi) for the e^(-x^2) marginals."""
    _, setup = gauss_setup
    h = setup.handle(0, 0)
    xi = laplace(h.cx, h.wx, 0.0, 0)
    psi = laplace(h.cy, h.wy, 0.0, 0)
    assert xi * psi == pytest.approx(math.pi, rel=1e-10)


def test_rho_sweep_grows(quartic_setup):
    _, setup = quartic_setup
    devs = rho_sweep(setup.handle(0, 0), (0.0, 0.5, 1.0))
    assert devs[0] <= 1e-8 * max(1.0, devs[-1])
    assert devs[-1] > devs[1] > devs[0]


# --- independence ---------------------------------------------------------

def test_independence_quartic_rank_nine(quartic_setup):
    _, setup = quartic_setup
    rep = independence_certificate(setup.handles, 3)
    assert rep.rank == 9
    assert rep.passed


def test_independence_duplicate_row_detected(quartic_setup):
    _, setup = quartic_setup
    rep = independence_certificate(setup.handles + [setup.handles[0]], 3)
    assert rep.rank == 9
    assert rep.rank < rep.expected
    assert not rep.passed


def test_independence_gaussian_rank_one(gauss_setup):
    _, setup = gauss_setup
    rep = independence_certificate(setup.handles, 1)
    assert rep.rank == 1 == rep.expected


# --- steepest descent asymptotics ------------------------------------------

def test_sdc_reproduces_homologous_loop():
    w = build_weight(CPoly([0, 0, 1]), ONE)
    z = 25.0 * cmath.exp(-1j * math.pi / 24)
    sdc = trace_sdc(w, z, 0)
    got = laplace(sdc, w, z, 0)
    loop = laplace(build_contours(w)[0], w, z, 0)
    assert min(abs(got - s * loop) for s in (1, -1)) <= 1e-8 * abs(loop)


def test_asymptotic_cubic_leading_term():
    w = build_weight(CPoly([0, 0, 1]), ONE)
    zs = [r * cmath.exp(-1j * math.pi / 12) for r in (20.0, 30.0, 40.0)]
    rep = asymptotic_check(w, 0, zs)
    assert abs(rep.ratios[-1] - 1.0) <= 0.05
    assert rep.slope <= -0.7
    assert rep.K_settled
    assert rep.passed


def test_asymptotic_gaussian_exact():
    """d = 1: single saddle, the ratio is 1 up to quadrature error."""
    w = build_weight(X, ONE)  # e^(-x^2/2), already normalized
    zs = [6.0 * cmath.exp(-1j * 0.19), 9.0 * cmath.exp(-1j * 0.19)]
    rep = asymptotic_check(w, 0, zs)
    for r in rep.ratios:
        assert abs(r - 1.0) <= 1e-6


def test_asymptotic_phase_factor():
    w = build_weight(CPoly([0, 0, 1]), ONE)
    zs = [40.0 * cmath.exp(-1j * math.pi / 12)]
    for k in (0, 1):
        rep = asymptotic_check(w, k, zs)
        assert rep.phase_defects[0] <= 0.05


def test_predicted_leading_value():
    """Spot-check the formula at d = 2, A = 0, k = 0."""
    w = build_weight(CPoly([0, 0, 1]), ONE)
    z = 30.0 * cmath.exp(-0.2j)
    got = predicted_leading(w, z, 0)
    want = math.sqrt(math.pi) * z ** (-0.25) * cmath.exp((2.0 / 3.0) * z ** 1.5)
    assert got == pytest.approx(want, rel=1e-12)


# --- mixed degree case (one side at the quadratic edge) ---------------------

def test_bb2_pole_loop_tables_match_propagation():
    """A1 = x^3, B1 = 1 against A2 = y^2 + 1, B2 = y/2: the y weight has a
    third-order pole at 0 (retracted loop) plus a real-line contour; both
    functionals must satisfy the recurrences and agree with propagation."""
    spec = validate_spec(CPoly([0, 0, 0, 1]), ONE, CPoly([1, 0, 1]), CPoly([0, 0.5]))
    assert spec.case == "BB2"
    setup = make_setup(spec)
    assert len(setup.contours_y) == 2 == spec.s2
    for j in range(2):
        h = setup.handle(0, j)
        table = h.table(4)
        assert recurrence_residual(spec, table) <= 1e-8
        prop = propagate_moments(spec, table.entries[:3, :2], 4)
        scale = np.max(np.abs(table.entries))
        assert np.max(np.abs(prop.entries - table.entries)) <= 1e-8 * scale


def test_monic_bops_on_quadrature_table(gauss_setup):
    _, setup = gauss_setup
    table = setup.handle(0, 0).table(4)
    bops = monic_bops(table, 4)
    h0 = abs(bops.h[0])
    for n in range(5):
        for m in range(5):
            if n != m:
                assert abs(pair_apply(table, bops.p[n], bops.s[m])) / h0 < 1e-8


def test_tolerance_env_override(monkeypatch):
    from bimoment.quadrature import default_tolerance

    assert default_tolerance() == 1e-10
    monkeypatch.setenv("BIMOMENT_TOL", "1e-6")
    assert default_tolerance() == 1e-6
    monkeypatch.setenv("BIMOMENT_TOL", "garbage")
    with pytest.raises(ValueError, match="BIMOMENT_TOL must be a positive finite number"):
        default_tolerance()


def test_table_reproducible_within_stated_error(gauss_setup):
    _, setup = gauss_setup
    h = setup.handle(0, 0)
    t1, e1 = bimoment_table(h, 3, rtol=1e-9)
    t2, e2 = bimoment_table(h, 3, rtol=1e-11)
    assert np.all(np.abs(t1.entries - t2.entries) <= e1 + e2)


def test_normalize_change_of_variable_oracle():
    """Moments of the normalized weight equal c^-(n+1) times the originals."""
    from bimoment.weights import normalize_potential

    w = build_weight(CPoly([0, 0, 2]), ONE)  # V+ = 2x^3/3
    wn, mp = normalize_potential(w)
    c0 = build_contours(w)[0]
    cn = build_contours(wn)[0]
    for n in (0, 1, 3):
        orig = laplace(c0, w, 0.0, n)
        norm = laplace(cn, wn, 0.0, n)
        assert abs(norm - mp.moment_factor(n) * orig) <= 1e-10 * abs(norm)


def test_quadrature_stall_raises():
    from bimoment.quadrature import integrate_contour
    from bimoment.errors import QuadratureStall

    w = build_weight(CPoly([0, 2]), ONE)
    c = build_contours(w)[0]

    def oscillatory(x):
        return np.exp(40j * x ** 2)[None, :]

    with pytest.raises(QuadratureStall):
        integrate_contour(c, w, oscillatory, 1, rtol=1e-13, max_panels=2)


def test_laplace_gaussian_transform_closed_form():
    """int e^(-x^2+xz) dx = sqrt(pi) e^(z^2/4) for complex z."""
    w = build_weight(CPoly([0, 2]), ONE)
    c = build_contours(w)[0]
    for z in (1.0, -2.5, 1.3 + 0.8j, -0.4 - 2.1j):
        got = laplace(c, w, z, 0)
        want = math.sqrt(math.pi) * cmath.exp(z * z / 4.0)
        assert abs(got - want) <= 1e-10 * abs(want)


def test_normalize_with_complex_leading_coefficient():
    """Rotated cubic weight: normalized moments match the scaling map."""
    from bimoment.weights import normalize_potential

    rot = cmath.exp(1j * math.pi / 5)
    w = build_weight(CPoly([0, 0, rot]), ONE)
    wn, mp = normalize_potential(w)
    assert abs(wn.v_top - 1.0 / 3.0) < 1e-14
    c0 = build_contours(w)[1]
    cn = build_contours(wn)[1]
    for n in (0, 1):
        orig = laplace(c0, w, 0.0, n)
        norm = laplace(cn, wn, 0.0, n)
        assert abs(norm - mp.moment_factor(n) * orig) <= 1e-9 * abs(norm)


def test_table_provenance_is_quadrature(gauss_setup):
    from bimoment.tables import PROV_QUADRATURE

    _, setup = gauss_setup
    table = setup.handle(0, 0).table(2)
    assert np.all(table.provenance == PROV_QUADRATURE)


def test_independence_asymmetric_degrees_rank_twelve():
    """Cubic against quintic potentials: all s1*s2 = 12 functionals
    independent."""
    spec = validate_spec(CPoly([0, 0, 0, 1]), ONE, CPoly([0, 0, 0, 0, 1]), ONE)
    assert (spec.s1, spec.s2, spec.M) == (3, 4, 12)
    setup = make_setup(spec)
    assert len(setup.handles) == 12
    rep = independence_certificate(setup.handles, 3)
    assert rep.rank == 12
    worst = max(recurrence_residual(spec, h.table(3)) for h in setup.handles)
    assert worst <= 1e-8


def test_essential_loop_residue_oracle():
    """W = e^(1/x - x^2/2) (from A = x^3 - 2x + 1, B = x^2): the essential
    loop at 0 retracts to a circle, so its value is 2 pi i times the residue
    sum_k (-1)^k / (2^k k! (2k+1)!)."""
    w = build_weight(CPoly([1, -2, 0, 1]), CPoly.monomial(2))
    sng = w.singularities[0]
    assert (sng.g, sng.lam) == (1, 0)
    ess = next(c for c in build_contours(w) if c.kind == "essential_loop_2")
    got = laplace(ess, w, 0.0, 0)
    res = sum((-1) ** k / (2.0 ** k * math.factorial(k) * math.factorial(2 * k + 1))
              for k in range(12))
    want = 2j * math.pi * res
    assert abs(got - want) <= 1e-9 * abs(want)


def test_essential_weight_contours_satisfy_1d_recurrence():
    """All class-many contours of the essential weight solve the 1D moment
    recurrence n sum beta_j mu[n-1+j] = sum alpha_j mu[n+j]."""
    A = CPoly([1, -2, 0, 1])
    B = CPoly.monomial(2)
    w = build_weight(A, B)
    for c in build_contours(w):
        mu = laplace_many(c, w, np.array([0.0]), 7)[0][:, 0]
        worst = 0.0
        for n in range(4):
            lhs = n * sum(B.coeff(j) * mu[n - 1 + j] for j in range(B.degree + 1)
                          if n - 1 + j >= 0)
            rhs = sum(A.coeff(j) * mu[n + j] for j in range(A.degree + 1))
            scale = max(1.0, abs(lhs), abs(rhs))
            worst = max(worst, abs(lhs - rhs) / scale)
        assert worst <= 1e-9


def test_extracted_recurrence_reconstructs_semiclassical_table(gauss_setup):
    """Quadrature table -> recurrence data -> Favard reconstruction preserves
    both the table and its semiclassical structure."""
    from bimoment.favard import favard_reconstruct
    from bimoment.tables import extract_recurrence, monic_bops

    spec, setup = gauss_setup
    table = setup.handle(0, 0).table(6)
    rec = extract_recurrence(table, monic_bops(table, 6))
    back = favard_reconstruct(rec, 6)
    scale = np.max(np.abs(table.entries))
    assert np.max(np.abs(back.entries - table.entries)) <= 1e-8 * scale
    assert recurrence_residual(spec, back) <= 1e-6
