import cmath
import math
import signal
from contextlib import contextmanager

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
    normalize_potential,
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
    """All 9 quartic tables at N=8 once took 390 integrations, 17,600 panel
    evaluations and 780 ray truncations as nested adaptive quadrature. The
    product rule's counts are pinned exactly: evaluating a round's panels
    on stacked nodes must not move any of them."""
    from bimoment import quadrature

    calls = {}

    def count(name):
        original = getattr(quadrature, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(quadrature, name, counted)

    for name in ("integrate_contour", "_panel_eval", "_truncate_ray"):
        count(name)
    spec = validate_spec(CPoly([0, 0, 0, 1]), ONE, CPoly([0, 0, 0, 1]), ONE)
    for h in make_setup(spec).handles:
        bimoment_table(h, 8)
    assert calls == {"integrate_contour": 36, "_panel_eval": 1314, "_truncate_ray": 72}


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


@pytest.mark.parametrize("sign, loops", [(-1, (0, 1, 2)), (1, (0,))])
def test_sdc_near_stokes_homology_class(sign, loops):
    """Near a Stokes ray the level curve of the quartic-pole potential
    passes close to another saddle's; the traced path must keep to its
    own curve and end in the sectors of its homology class."""
    w, _ = normalize_potential(build_weight(CPoly([0.1, -0.2, 0, 1]), ONE))
    z = 5.0 * cmath.exp(sign * 0.363j)
    sdc = trace_sdc(w, z, 0)
    got = laplace(sdc, w, z, 0)
    contours = build_contours(w)
    want = sum(laplace(contours[i], w, z, 0) for i in loops)
    assert abs(got - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("A", [[0.1, 0, 1], [0.1, -0.2, 0, 1]])
def test_asymptotic_ratios_at_the_true_saddle(A):
    """The cubic (0.1 + x^2) and quartic-pole (0.1 - 0.2x + x^3) weights at
    the certify points: the lower-order terms of V+ shift the saddle."""
    w, _ = normalize_potential(build_weight(CPoly(A), ONE))
    zs = [r * cmath.exp(-1j * math.pi / (4 * (w.d + 1))) for r in (20.0, 30.0, 40.0)]
    rep = asymptotic_check(w, 0, zs)
    assert all(abs(r - 1.0) <= 0.01 for r in rep.ratios)
    assert rep.slope <= -0.7


def test_asymptotic_phase_quartic_every_saddle():
    w = build_weight(CPoly([0, 0, 0, 1]), ONE)
    zs = [r * cmath.exp(-1j * math.pi / 16) for r in (20.0, 30.0, 40.0)]
    for k in (1, 2):
        rep = asymptotic_check(w, k, zs)
        assert max(rep.phase_defects) <= 0.05


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


# --- the adaptive engine ------------------------------------------------------

def _engine_cases():
    """Every contour of the quartic weight (infinity loops) and of the
    a = 1.25 pole-loop weight y^2 + 1.25 over y/2."""
    for A, B in ((CPoly([0, 0, 0, 1]), ONE), (CPoly([1.25, 0, 1]), CPoly([0, 0.5]))):
        w = build_weight(A, B)
        for c in build_contours(w):
            yield w, c


def _powers(x):
    return np.vander(x, 5, increasing=True).T


def test_adapted_mesh_reproduces_the_integral():
    """The Kronrod sum over the mesh _adapt_mesh hands back equals the
    integrate_contour value, to 1e-14 of the summed |terms|."""
    from bimoment.quadrature import _adapt_mesh, integrate_contour

    for w, c in _engine_cases():
        mesh = _adapt_mesh(c, w, _powers, 5, 1e-10)
        vals, _ = integrate_contour(c, w, _powers, 5, rtol=1e-10)
        terms = _powers(mesh.x) * mesh.wk
        assert np.all(np.abs(terms.sum(axis=1) - vals) <= 1e-14 * np.abs(terms).sum(axis=1))
        assert mesh.x.shape == mesh.wk.shape == mesh.wg.shape
        assert len(mesh.x) % 15 == 0


def test_adapted_mesh_is_deterministic():
    from bimoment.quadrature import _adapt_mesh

    for w, c in _engine_cases():
        a = _adapt_mesh(c, w, _powers, 5, 1e-10)
        b = _adapt_mesh(c, w, _powers, 5, 1e-10)
        for name in ("x", "wk", "wg"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


@contextmanager
def _deadline(seconds):
    """Fail, instead of hanging, when the block runs past seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _pole_loop_handle(a):
    spec = validate_spec(CPoly([0, 0, 0, 1]), ONE, CPoly([a, 0, 1]), CPoly([0, 0.5]))
    return make_setup(spec).handle(0, 0)


def test_stalled_refinement_accepts_within_the_budget_tolerance():
    """At a = 1.6 bisection stops shrinking the x loop's error near 0.87 of
    the tolerance; the engine once ran past two minutes on this table."""
    with _deadline(30):
        table, err = _pole_loop_handle(1.6).table_with_errors(6)
    assert np.all(np.isfinite(table.entries))
    assert np.all(err <= 1e-6 * np.abs(table.entries))


def test_stalled_refinement_out_of_tolerance_raises():
    from bimoment.errors import QuadratureStall

    with _deadline(30), pytest.raises(QuadratureStall, match="tolerance unreachable"):
        _pole_loop_handle(2.2).table(6)


# --- stacked evaluation -------------------------------------------------------

def _stacking_cases():
    """The a = 1.25 pole-loop contours, whose tracked branch is continued
    piece by piece, and a traced steepest-descent contour of 56 chords."""
    w = build_weight(CPoly([1.25, 0, 1]), CPoly([0, 0.5]))
    for c in build_contours(w):
        yield w, c, _powers, 5
    z = 20 * cmath.exp(-0.3j)
    w = build_weight(CPoly([0.1, 0, 1]), ONE)
    sdc = trace_sdc(w, z, 0)
    assert len(sdc.pieces) >= 56

    def laplace_powers(x):
        return _powers(x) * np.exp(z * x)

    yield w, sdc, laplace_powers, 5


def _engine_results():
    from bimoment.quadrature import _adapt_mesh, integrate_contour

    out = []
    for w, c, g, ncomp in _stacking_cases():
        out.append(integrate_contour(c, w, g, ncomp, rtol=1e-10))
        mesh = _adapt_mesh(c, w, g, ncomp, 1e-10)
        out.append((mesh.x, mesh.wk, mesh.wg))
    return out


def test_stacked_pass_is_bit_identical_to_one_panel_at_a_time(monkeypatch):
    """A pass evaluates its panels on stacked nodes. Handing gfun one panel
    per call, or running every panel as a pass of its own (one weight call
    per panel, as a per-panel engine would), changes no bit of the values,
    errors or meshes."""
    from bimoment import quadrature

    stacked = _engine_results()
    monkeypatch.setattr(quadrature, "_STACK_VALUES", 1)
    one_per_call = _engine_results()
    original = quadrature._eval_pass

    def one_panel_per_pass(spec, qpieces, piece, t0, t1, gfun, ncomp):
        parts = [original(spec, qpieces, piece[i:i + 1], t0[i:i + 1], t1[i:i + 1],
                          gfun, ncomp) for i in range(len(piece))]
        return tuple(np.concatenate(p) for p in zip(*parts))

    monkeypatch.setattr(quadrature, "_eval_pass", one_panel_per_pass)
    one_per_pass = _engine_results()
    for other in (one_per_call, one_per_pass):
        assert len(other) == len(stacked)
        for a, b in zip(stacked, other):
            for u, v in zip(a, b):
                assert u.tobytes() == v.tobytes()


def test_stacked_calls_stay_within_the_value_budget(monkeypatch):
    """gfun never sees more than max(1, _STACK_VALUES // (15 ncomp))
    panels at once, and every panel is still one _panel_eval call."""
    from bimoment import quadrature

    w = build_weight(CPoly([1.25, 0, 1]), CPoly([0, 0.5]))
    c = build_contours(w)[0]
    monkeypatch.setattr(quadrature, "_STACK_VALUES", 15 * 5 * 3)
    sizes, panels = [], [0]
    original = quadrature._panel_eval

    def counted(*args):
        panels[0] += 1
        return original(*args)

    def g(x):
        sizes.append(len(x))
        return _powers(x)

    monkeypatch.setattr(quadrature, "_panel_eval", counted)
    mesh = quadrature._adapt_mesh(c, w, g, 5, 1e-10)
    # the truncation probes see one node, a stacked call 1 to 3 panels
    stacked = [n for n in sizes if n > 1]
    assert max(stacked) == 45 and set(stacked) <= {15, 30, 45}
    assert sum(stacked) == 15 * panels[0] >= len(mesh.x)


def _gaussian_generating_call():
    h = make_setup(validate_spec(CPoly([0, 1.8]), ONE, CPoly([0, 1.6]), ONE)).handle(0, 0)
    return lambda: generating_eval(h, 0.3, -0.2), h


def _gaussian_table_call():
    h = make_setup(validate_spec(CPoly([0, 2]), ONE, CPoly([0, 2]), ONE)).handle(0, 0)
    return lambda: h.table(8), h


def _pole_loop_table_call():
    h = _pole_loop_handle(1.25)
    return lambda: h.table(8), h


@pytest.mark.parametrize("call, bound_mb", [
    (_gaussian_generating_call, 0.5),
    (_gaussian_table_call, 2.0),
    (_pole_loop_table_call, 2.0),
])
def test_stacked_passes_keep_memory_flat(call, bound_mb):
    """Peak traced allocation of one warm call: about 0.3, 1.4 and 1.3 MB.
    Forming the coupled kernel exp(rho u vᵀ) whole instead of in blocks of
    _KERNEL_ROWS rows raises them to about 2.4, 15 and 11 MB. (The gfun
    value cap is checked by call size above: these calls stack too few
    panels per pass to reach it.)"""
    import tracemalloc

    run, handle = call()
    run()
    handle._cache.clear()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6


def test_quartic_real_line_table_matches_mpmath_gamma_series(quartic_setup):
    """The loops of handles (0,0), (0,1), (1,0), (1,1) add up to the real
    line, where mu[n, m] = sum_k M_(n+k) M_(m+k) / k! with
    M_j = 2 4^((j-3)/4) Gamma((j+1)/4) for even j (0 for odd j), here summed
    at 30 digits. Every entry is within the summed stated errors."""
    mpmath = pytest.importorskip("mpmath")
    N = 8
    _, setup = quartic_setup
    parts = [setup.handle(i, j).table_with_errors(N) for i in (0, 1) for j in (0, 1)]
    total = sum(t.entries for t, _ in parts)
    err = sum(e for _, e in parts)
    with mpmath.workdps(30):
        def M(j):
            if j % 2:
                return mpmath.mpf(0)
            return 2 * mpmath.power(4, mpmath.mpf(j - 3) / 4) * mpmath.gamma(mpmath.mpf(j + 1) / 4)

        # by k = 120 the terms are below 1e-90 of the sum
        want = [[float(mpmath.fsum(M(n + k) * M(m + k) / mpmath.factorial(k)
                                   for k in range(121)))
                 for m in range(N + 1)] for n in range(N + 1)]
    assert np.all(np.abs(total - np.array(want)) <= err)
