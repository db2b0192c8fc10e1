import cmath
import dataclasses
import math
import signal
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bimoment.errors import DivergentCoupling, DivergentTail
from bimoment.tables import BimomentTable, monic_bops, pair_apply
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
    table = bimoment_table(setup.handle(0, 0), 4)
    want = gaussian_bimoments(2.0, 2.0, 4)
    assert np.max(np.abs(table.entries - want)) <= 1e-8 * want[0, 0]
    assert np.all(table.err >= 0)


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


def test_table_is_deterministic(quartic_setup):
    from bimoment import quadrature

    _, setup = quartic_setup
    h = setup.handle(2, 0)
    t1 = h.table(4)
    quadrature._moment_memo.clear()   # integrate again, not read the memo
    t2 = h.table(4)
    assert t1 is not t2
    assert t1.entries.tobytes() == t2.entries.tobytes()
    assert t1.err.tobytes() == t2.err.tobytes()
    assert t1.entries.shape == t1.err.shape == (5, 5)


def test_handle_keeps_no_table(quartic_setup):
    """Computing a table changes neither the handle's == nor its repr."""
    _, setup = quartic_setup
    h = setup.handle(1, 2)
    fresh = dataclasses.replace(h)
    before = repr(h)
    h.table(3)
    assert h == fresh
    assert repr(h) == before


def test_table_follows_the_tolerance_env(monkeypatch, gauss_setup):
    """A table computed under the default tolerance is not handed back
    after BIMOMENT_TOL changes."""
    _, setup = gauss_setup
    h = setup.handle(0, 0)
    h.table(4)
    monkeypatch.setenv("BIMOMENT_TOL", "1e-4")
    fresh = make_setup(validate_spec(CPoly([0, 2]), ONE, CPoly([0, 2]), ONE)).handle(0, 0)
    want = fresh.table(4)
    got = h.table(4)
    assert got.entries.tobytes() == want.entries.tobytes()
    assert got.err.tobytes() == want.err.tobytes()


def test_quartic_tables_match_real_line_closed_form(quartic_setup):
    """The loops of handles (0,0), (0,1), (1,0), (1,1) add up to the real
    line in both variables, where the e^(xy) series gives the moments."""
    _, setup = quartic_setup
    parts = [setup.handle(i, j).table(8) for i in (0, 1) for j in (0, 1)]
    total = sum(t.entries for t in parts)
    err = sum(t.err for t in parts)
    want = quartic_realline_bimoments(8)
    assert want[0, 0] == pytest.approx(8.3900359466875, rel=1e-13)
    assert np.all(np.abs(total - want) <= err)


@pytest.mark.parametrize("rtol", [1e-8, 1e-10, 1e-12])
def test_gaussian_table_within_stated_error(gauss_setup, rtol):
    _, setup = gauss_setup
    table = bimoment_table(setup.handle(0, 0), 8, rtol=rtol)
    want = gaussian_bimoments(2.0, 2.0, 8)
    assert np.all(np.abs(table.entries - want) <= table.err)


@pytest.mark.parametrize("delta", [1.4, 1.8, 2.2])
@pytest.mark.parametrize("sigma", [1.4, 1.8, 2.2])
def test_gaussian_series_error_covers_the_closed_form(delta, sigma):
    """Every entry's actual error against the closed form is within its
    stated error (at most about 2e-3 of it here)."""
    h = make_setup(validate_spec(CPoly([0, delta]), ONE, CPoly([0, sigma]), ONE)).handle(0, 0)
    for N in (4, 8, 12):
        table = h.table(N)
        assert np.all(np.abs(table.entries - gaussian_bimoments(delta, sigma, N)) <= table.err)


@pytest.mark.parametrize("N", [4, 8])
def test_gaussian_table_near_the_coupling_edge(N):
    """delta = sigma = 1.1, where the terms of the series fall only like
    1.1^(-k): it settles after about 550 (N=4) and 650 (N=8) terms. Each
    entry is measured against its Cauchy-Schwarz scale
    sqrt(mu[2n, 0] mu[0, 2m]), which holds the entries that vanish by
    parity to the same standard."""
    h = make_setup(validate_spec(CPoly([0, 1.1]), ONE, CPoly([0, 1.1]), ONE)).handle(0, 0)
    table = h.table(N)
    full = gaussian_bimoments(1.1, 1.1, 2 * N)
    want = full[: N + 1, : N + 1]
    scale = np.sqrt(np.outer(full[0::2, 0], full[0, 0::2]))
    assert np.max(np.abs(table.entries - want) / scale) <= 1e-8
    assert np.all(np.abs(table.entries - want) <= table.err)


@pytest.mark.parametrize("ds", [1.02, 1.05])
def test_gaussian_table_past_the_series_reach_raises_at_once(ds):
    """Closer to the edge the series would need more than 700 terms; the
    term estimate refuses before any integration."""
    from bimoment.errors import QuadratureStall

    h = make_setup(validate_spec(CPoly([0, ds]), ONE, CPoly([0, ds]), ONE)).handle(0, 0)
    start = time.perf_counter()
    with pytest.raises(QuadratureStall, match="needs more than 700 terms"):
        h.table(4)
    assert time.perf_counter() - start < 1.0


def _count_calls(monkeypatch, names):
    """Replace each named quadrature function by a counting wrapper; returns
    the dict of counts, updated as the wrappers run."""
    from bimoment import quadrature

    calls = {}

    def count(name):
        original = getattr(quadrature, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(quadrature, name, counted)

    for name in names:
        count(name)
    return calls


def _monomials(N):
    """The column function of the monomials x^0..x^N."""
    return lambda x: np.vander(x, N + 1, increasing=True)


def _product_meshes_table(h, N):
    """The product rule's meshes and table (mu, err, mass) of order N."""
    from bimoment import quadrature

    return quadrature._product_meshes(h, _monomials(N), _monomials(N), None)


def test_quartic_series_tables_take_one_integration_per_contour(monkeypatch):
    """The quartic family at N=8 integrates each of its 3 + 3 contours
    once for its one-sided moments: handle (0,0) takes 2 runs, a handle
    that brings a new contour 1, and one on two known contours none. All
    9 handles take 6 integrations, 258 panel evaluations and 12 ray
    truncations."""
    calls = _count_calls(monkeypatch, ("integrate_contour", "_panel_eval", "_truncate_ray"))
    spec = validate_spec(CPoly([0, 0, 0, 1]), ONE, CPoly([0, 0, 0, 1]), ONE)
    seen_x, seen_y = set(), set()
    for h in make_setup(spec).handles:
        before = calls["integrate_contour"]
        bimoment_table(h, 8)
        new = (h.i not in seen_x) + (h.j not in seen_y)
        assert calls["integrate_contour"] == before + new
        seen_x.add(h.i)
        seen_y.add(h.j)
    assert calls == {"integrate_contour": 6, "_panel_eval": 258, "_truncate_ray": 12}


# --- the memo of one-sided runs ------------------------------------------------

@pytest.mark.parametrize("coeffs", [
    ([0, 0, 0, 1], [1], [0, 0, 0, 1], [1]),
    ([0, 0, 0, 1], [1], [1.25, 0, 1], [0, 0.5]),
], ids=["quartic", "pole_loop_1.25"])
def test_memo_served_tables_are_bit_identical_to_cold_ones(coeffs):
    """Every handle's table, with its one-sided runs read from the memo
    (in family order, and once more with both runs known), has the same
    bits as a table computed with an empty memo."""
    from bimoment import quadrature

    spec = validate_spec(*(CPoly(c) for c in coeffs))
    handles = make_setup(spec).handles
    served = [h.table(8) for h in handles]
    again = [h.table(8) for h in handles]
    for h, a, b in zip(handles, served, again):
        quadrature._moment_memo.clear()
        cold = h.table(8)
        for t in (a, b):
            assert t.entries.tobytes() == cold.entries.tobytes()
            assert t.err.tobytes() == cold.err.tobytes()


def test_memo_misses_copies_and_fresh_setups(monkeypatch, quartic_setup):
    """The memo goes by identity: a copy of a contour or of a weight, or
    the same spec's fresh setup, integrates again. A rho of the same
    modulus, with the same series length, does not: the one-sided moments
    do not depend on rho."""
    _, setup = quartic_setup
    calls = _count_calls(monkeypatch, ("integrate_contour",))
    h = setup.handle(1, 2)
    h.table(4)
    assert calls["integrate_contour"] == 2
    for variant, runs in [
        (dataclasses.replace(h, rho=-1.0), 0),
        (dataclasses.replace(h, cx=dataclasses.replace(h.cx)), 1),
        (dataclasses.replace(h, wy=dataclasses.replace(h.wy)), 1),
        (make_setup(validate_spec(CPoly([0, 0, 0, 1]), ONE, CPoly([0, 0, 0, 1]), ONE))
         .handle(1, 2), 2),
    ]:
        before = calls["integrate_contour"]
        variant.table(4)
        assert calls["integrate_contour"] == before + runs


def test_memo_misses_another_resolved_tolerance(monkeypatch, quartic_setup):
    """The key holds rtol as resolved through BIMOMENT_TOL: another rtol
    integrates again, and the same value reached through the environment
    or an argument does not."""
    _, setup = quartic_setup
    calls = _count_calls(monkeypatch, ("integrate_contour",))
    h = setup.handle(0, 0)
    h.table(4)
    h.table(4, rtol=1e-10)
    assert calls["integrate_contour"] == 2
    h.table(4, rtol=1e-8)
    assert calls["integrate_contour"] == 4
    monkeypatch.setenv("BIMOMENT_TOL", "1e-8")
    h.table(4)
    assert calls["integrate_contour"] == 4
    monkeypatch.setenv("BIMOMENT_TOL", "1e-9")
    h.table(4)
    assert calls["integrate_contour"] == 6


def test_memo_keeps_at_most_its_bound():
    """Fresh quartic setups bring 6 new contours each: past the bound the
    oldest runs are evicted, so the memo holds none of the first setup's
    contours and all of the last one's."""
    from bimoment import quadrature

    spec = validate_spec(CPoly([0, 0, 0, 1]), ONE, CPoly([0, 0, 0, 1]), ONE)
    setups = []
    for _ in range(quadrature._MOMENT_MEMO_SIZE // 6 + 2):
        setups.append(make_setup(spec))
        for h in setups[-1].handles:
            h.table(3)
            assert len(quadrature._moment_memo) <= quadrature._MOMENT_MEMO_SIZE
    assert len(quadrature._moment_memo) == quadrature._MOMENT_MEMO_SIZE
    held = {id(e[0]) for e in quadrature._moment_memo.values()}
    assert not held & {id(c) for c in setups[0].contours_x + setups[0].contours_y}
    assert {id(c) for c in setups[-1].contours_x + setups[-1].contours_y} <= held


def test_quartic_tables_panel_budget(monkeypatch):
    """All 9 quartic tables at N=8 once took 390 integrations, 17,600 panel
    evaluations and 780 ray truncations as nested adaptive quadrature. The
    product rule's counts are pinned exactly: 27, 987 and 54 since the
    product rule checks x against the final y rule instead of re-adapting
    x to confirm it (36, 1,314 and 72 before)."""
    calls = _count_calls(monkeypatch, ("integrate_contour", "_panel_eval", "_truncate_ray"))
    spec = validate_spec(CPoly([0, 0, 0, 1]), ONE, CPoly([0, 0, 0, 1]), ONE)
    for h in make_setup(spec).handles:
        _product_meshes_table(h, 8)
    assert calls == {"integrate_contour": 27, "_panel_eval": 987, "_truncate_ray": 54}


def test_quartic_tables_take_three_mesh_adaptations(monkeypatch, quartic_setup):
    """y alone, x against y, y against x: the product rule accepts x
    against the final y rule, so no quartic table re-adapts x."""
    _, setup = quartic_setup
    calls = _count_calls(monkeypatch, ("_adapt_mesh", "_product_rule"))
    for h in setup.handles:
        _product_meshes_table(h, 8)
        assert calls == {"_adapt_mesh": 3, "_product_rule": 1}
        calls.update(_adapt_mesh=0, _product_rule=0)


def test_failed_product_check_re_adapts(monkeypatch):
    """The a = 1.6 pole loop's y mesh is accepted at a stall, and x fails
    the check against it: x and then y are adapted again (5 runs) and the
    product rule is formed once more over the new meshes."""
    h = _pole_loop_handle(1.6)
    calls = _count_calls(monkeypatch, ("_adapt_mesh", "_product_rule"))
    _product_meshes_table(h, 4)
    assert calls == {"_adapt_mesh": 5, "_product_rule": 2}


def test_x_mesh_failing_its_check_floors_the_errors():
    """At a = 1.6 the x mesh of handle (0,0) fails its check against the
    final y rule at N = 8; every stated error of the product rule is at
    least that check's per-entry x error, summed |Kronrod - Gauss| over the
    x panels."""
    from bimoment import quadrature

    h = _pole_loop_handle(1.6)
    powers = _monomials(8)
    rtol = quadrature.default_tolerance()
    mx, my, (_, stated, _) = _product_meshes_table(h, 8)
    _, (total, err, mass) = quadrature._product_rule(mx, my, h.rho, powers(mx.x),
                                                     powers(my.x))
    assert not np.all(err <= quadrature._targets(total, mass, rtol)[1])
    assert np.all(stated >= err)


# the product rule is kept as an independent double-integral oracle for the
# series: (A1, B1, A2, B2) and the handles it is checked on
_ORACLE_SPECS = {
    "quartic": (([0, 0, 0, 1], [1], [0, 0, 0, 1], [1]), None),
    "cubic_quintic": (([0, 0, 1], [1], [0, 0, 0, 0, 1], [1]), None),
    "quartic_pole": (([0.1, -0.2, 0, 1], [1], [0, 0, 0, 1], [1]), None),
    "gaussian": (([0, 2], [1], [0, 2], [1]), None),
    # the handles (i, 0) lie on the radius-0.01 loop about the branch point,
    # where the product rule's own errors are known to be low
    "pole_loop": (([0, 0, 0, 1], [1], [1.25, 0, 1], [0, 0.5]), 1),
}


@pytest.mark.parametrize("N", [4, 8, 12])
@pytest.mark.parametrize("name", sorted(_ORACLE_SPECS))
def test_series_tables_match_the_product_rule(name, N):
    """Every series table lies within the summed stated errors of the
    product rule's bilinear form, whose error is floored at 2e-16
    (n + m + 2) times its summed |terms|, as product-rule tables were."""
    coeffs, column = _ORACLE_SPECS[name]
    setup = make_setup(validate_spec(*(CPoly(c) for c in coeffs)))
    ulps = 2e-16 * (np.add.outer(np.arange(N + 1), np.arange(N + 1)) + 2)
    for h in setup.handles:
        if column is not None and h.j != column:
            continue
        _, _, (mu, err, mass) = _product_meshes_table(h, N)
        table = h.table(N)
        assert np.all(np.abs(table.entries - mu) <= table.err + np.maximum(err, ulps * mass))


@pytest.mark.parametrize("a, N", [(None, 8), (1.25, 6)])
def test_product_check_agrees_with_the_engine(monkeypatch, quartic_setup, a, N):
    """Handle (0,0) of the quartic (a None) or of the pole loop: adapting x
    from scratch against the returned y rule reproduces the x mesh, and its
    values and errors are the product rule's panel sums. Both sum the same
    panels in another order, so they agree to roundoff of the summed
    |panel values| (about 2e-16 of it): Kronrod minus Gauss cancels most
    digits, and the errors differ by up to 2e-4 of themselves."""
    from bimoment import quadrature

    h = quartic_setup[1].handle(0, 0) if a is None else _pole_loop_handle(a)

    def powers(x):
        return np.vander(x, N + 1, increasing=True)

    rtol = quadrature.default_tolerance()
    mx, my, _ = quadrature._product_meshes(h, powers, powers, rtol)
    _, (total, err, mass) = quadrature._product_rule(mx, my, h.rho, powers(mx.x),
                                                     powers(my.x))
    assert np.all(err <= quadrature._targets(total, mass, rtol)[1])
    results = []
    engine = quadrature.integrate_contour

    def recorded(*args, **kwargs):
        results.append(engine(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(quadrature, "integrate_contour", recorded)
    again = quadrature._coupled_mesh(h.cx, h.wx, powers, my, powers, h.rho, rtol)
    (vals, errs), = results
    for name in ("x", "wk", "wg"):
        assert np.array_equal(getattr(again, name), getattr(mx, name))
    roundoff = 2e-15 * mass.ravel()
    assert np.all(np.abs(vals - total.ravel()) <= roundoff)
    assert np.all(np.abs(errs - err.ravel()) <= roundoff)


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


@pytest.mark.parametrize("ds", [1.02, 1.05])
@pytest.mark.parametrize("z, w", [(0.3, -0.2), (0, 0)])
def test_generating_past_the_series_reach_warns_nothing(ds, z, w):
    """Near the coupling edge the e^(xy) series of F would need more than
    700 terms: it raises QuadratureStall at once, and numpy writes no
    warning."""
    import warnings

    from bimoment.errors import QuadratureStall

    h = make_setup(validate_spec(CPoly([0, ds]), ONE, CPoly([0, ds]), ONE)).handle(0, 0)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(QuadratureStall, match="needs more than 700 terms"):
            generating_eval(h, z, w)
    assert [str(m.message) for m in seen] == []


@pytest.mark.parametrize("N", [2, 4, 8])
def test_weight_past_the_double_range_is_named(N):
    """A1 = 0.3 + 0.5x - 0.4x^2 + x^3, B1 = 1 + 0.2x: |W| passes the double
    range near the origin, so every table is refused, and the refusal
    says that the weight, not the integrand's powers, left the range."""
    from bimoment.errors import QuadratureStall

    spec = validate_spec(CPoly([0.3, 0.5, -0.4, 1]), CPoly([1, 0.2]), CPoly([0, 0, 0, 1]), ONE)
    for h in make_setup(spec).handles:
        with pytest.raises(QuadratureStall, match="non-finite weight sample"):
            h.table(N)


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


def test_rho_factorization_quartic(monkeypatch, quartic_setup):
    """All 9 values of the (z, w) grid come from one pair of meshes."""
    _, setup = quartic_setup
    calls = _count_calls(monkeypatch, ("_product_meshes",))
    assert rho_factorization_check(setup.handle(0, 0)) <= 1e-8
    assert calls == {"_product_meshes": 1}


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
    rep = independence_certificate([h.table(3) for h in setup.handles])
    assert rep.rank == 9
    assert rep.passed


def test_independence_duplicate_row_detected(quartic_setup):
    _, setup = quartic_setup
    tables = [h.table(3) for h in setup.handles]
    rep = independence_certificate(tables + [tables[0]])
    assert rep.rank == 9
    assert rep.rank < rep.expected
    assert not rep.passed


def test_independence_gaussian_rank_one(gauss_setup):
    _, setup = gauss_setup
    rep = independence_certificate([h.table(1) for h in setup.handles])
    assert rep.rank == 1 == rep.expected


def test_independence_near_the_top_of_the_double_range(quartic_setup):
    """Tables near 1e225 overflow the plain norm; they are scaled first,
    and read as the same family at unit scale does, with no warning."""
    _, setup = quartic_setup
    tables = [h.table(3) for h in setup.handles]
    big = [BimomentTable(1e225 * t.entries / np.max(np.abs(t.entries))) for t in tables]
    rep, ref = independence_certificate(big), independence_certificate(tables)
    assert rep.rank == 9 and rep.passed
    assert rep.sv_ratio == pytest.approx(ref.sv_ratio, rel=1e-9)


def test_independence_of_an_all_zero_family_is_rank_zero():
    rep = independence_certificate([BimomentTable(np.zeros((4, 4)))] * 3)
    assert (rep.rank, rep.expected, rep.sv_ratio, rep.passed) == (0, 3, 0.0, False)


# --- recurrence residuals at any scale ---------------------------------------

@pytest.fixture(scope="module")
def pole_loop_37():
    """certify's order-4 tables of (x^3, 1; y^2 + 3.7, y/2): on the
    radius-0.01 loop, the handles (i, 1) miss their recurrences by O(1)."""
    spec = validate_spec(CPoly([0, 0, 0, 1]), ONE, CPoly([3.7, 0, 1]), CPoly([0, 0.5]))
    return spec, [h.table(4) for h in make_setup(spec).handles]


def scaled(spec, lam):
    return validate_spec(*(lam * p for p in (spec.A1, spec.B1, spec.A2, spec.B2)))


@pytest.mark.parametrize("lam", [1e-100, 1e-20, 1.0, 1e20, 1e100])
def test_a_spec_scale_does_not_hide_a_recurrence_defect(pole_loop_37, lam):
    """The recurrences are homogeneous in (A_i, B_i), so scaling every
    coefficient leaves the residual, and certify's FAIL above its 1e-6
    default, where they are."""
    spec, tables = pole_loop_37
    want = max(recurrence_residual(spec, t) for t in tables)
    got = max(recurrence_residual(scaled(spec, lam), t) for t in tables)
    assert want > 1e-6
    assert got == pytest.approx(want, rel=1e-9)


def test_one_bad_entry_shows_on_a_scaled_spec(quartic_setup):
    spec, setup = quartic_setup
    table = setup.handles[0].table(4)
    bad = table.entries.copy()
    bad[1, 1] += 1e-3
    small = scaled(spec, 1e-20)
    assert recurrence_residual(small, table) <= 1e-12
    assert recurrence_residual(small, BimomentTable(bad)) > 1e-6


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
    t1 = bimoment_table(h, 3, rtol=1e-9)
    t2 = bimoment_table(h, 3, rtol=1e-11)
    assert np.all(np.abs(t1.entries - t2.entries) <= t1.err + t2.err)


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
    tables = [h.table(3) for h in setup.handles]
    rep = independence_certificate(tables)
    assert rep.rank == 12
    worst = max(recurrence_residual(spec, t) for t in tables)
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
        table = _pole_loop_handle(1.6).table(6)
    assert np.all(np.isfinite(table.entries))
    assert np.all(table.err <= 1e-6 * np.abs(table.entries))


def test_stalled_refinement_out_of_tolerance_raises():
    """The product rule's meshes of the a = 2.2 pole loop at N = 6 stall
    far outside the tolerance (about 160x the target with 152 panels)."""
    from bimoment.errors import QuadratureStall

    with _deadline(30), pytest.raises(QuadratureStall, match="tolerance unreachable"):
        _product_meshes_table(_pole_loop_handle(2.2), 6)


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


def _gaussian_table_call(N=8):
    h = make_setup(validate_spec(CPoly([0, 2]), ONE, CPoly([0, 2]), ONE)).handle(0, 0)
    return lambda: h.table(N), h


def _pole_loop_table_call():
    h = _pole_loop_handle(1.25)
    return lambda: h.table(8), h


def _gaussian_table12_call():
    return _gaussian_table_call(12)


@pytest.mark.parametrize("call, bound_mb", [
    (_gaussian_generating_call, 0.5),
    (_gaussian_table_call, 2.0),
    (_pole_loop_table_call, 2.0),
    (_gaussian_table12_call, 2.5),
])
def test_stacked_passes_keep_memory_flat(call, bound_mb):
    """Peak traced allocation of one warm call: about 0.1, 1.1, 0.8 and
    1.2 MB. The generating function and the tables are the e^(xy) series
    over one-sided moments or transforms, with no coupled kernel: their
    passes hand gfun at most about 2^14 values per call however many
    moments a run integrates."""
    import tracemalloc

    from bimoment import quadrature

    run, _ = call()
    run()
    quadrature._moment_memo.clear()   # the traced call integrates again
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
    parts = [setup.handle(i, j).table(N) for i in (0, 1) for j in (0, 1)]
    total = sum(t.entries for t in parts)
    err = sum(t.err for t in parts)
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
