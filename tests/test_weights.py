import cmath
import math

import numpy as np
import pytest

from bimoment.errors import (
    AssumptionBViolated,
    NotEssential,
    SaddleCollision,
    StokesProximity,
    ZeroB,
)
from bimoment.polycore import CPoly, poly_eval
from bimoment.weights import (
    KIND_ESSENTIAL,
    KIND_INFINITY,
    KIND_LOOP_1A,
    KIND_RAY_1B,
    build_contours,
    build_weight,
    contour_certificate,
    normalize_potential,
    sdc_phase_defect,
    sectors_at,
    trace_sdc,
)

ONE = CPoly.one()
X = CPoly.x()


def w_cubic():
    return build_weight(CPoly([0, 0, 1]), ONE)          # e^(-x^3/3)


def w_gauss_pow(lam):
    return build_weight(CPoly([-1 - lam, -0.0, 1]) + CPoly([0, 0]), CPoly([0, 1]))


def test_build_weight_pure_cubic():
    w = w_cubic()
    assert np.allclose(w.Vplus.coeffs, [0, 0, 0, 1 / 3])
    assert w.d == 2
    assert w.singularities == []
    assert w.s == 2
    assert w.A_total == 0
    assert w.source_class == 2


def test_build_weight_power_gaussian():
    lam = 0.6
    # A = x^2 - lam - 1, B = x  ->  W = x^lam e^(-x^2/2)
    w = build_weight(CPoly([-1 - lam, 0, 1]), X)
    assert np.allclose(w.Vplus.coeffs, [0, 0, 0.5])
    assert len(w.singularities) == 1
    sng = w.singularities[0]
    assert sng.location == pytest.approx(0.0)
    assert sng.g == 0
    assert sng.lam == pytest.approx(lam)
    assert w.s == 2
    assert w.source_class == 2


def test_build_weight_quartic_power():
    lam = 1.3
    # A = x^4 - lam - 1, B = x  ->  W = x^lam e^(-x^4/4)
    w = build_weight(CPoly([-lam - 1, 0, 0, 0, 1]), X)
    assert np.allclose(w.Vplus.coeffs, [0, 0, 0, 0, 0.25])
    assert w.d == 3
    assert w.s == 4 == w.d + 1
    assert w.singularities[0].lam == pytest.approx(lam)


def test_build_weight_essential():
    # A = x^6 + 1, B = x^4: V' = x^2 + 4/x + 1/x^4
    w = build_weight(CPoly([1, 0, 0, 0, 0, 0, 1]), CPoly.monomial(4))
    sng = w.singularities[0]
    assert sng.g == 3
    assert sng.lam == pytest.approx(-4.0)
    assert sng.essential[2] == pytest.approx(1.0 / 3.0)
    assert w.s == 2 + 4 == w.source_class


def test_build_weight_rejects_zero_b():
    with pytest.raises(ZeroB):
        build_weight(X, CPoly.zero())


def test_build_weight_rejects_shared_root():
    with pytest.raises(AssumptionBViolated):
        build_weight(2 * X * CPoly([-1, 1]), CPoly([-1, 1]))


def test_log_derivative_matches_pearson_data():
    """-(log W)' = (A + B')/B at random off-cut points (finite differences)."""
    rng = np.random.default_rng(19)
    A = CPoly([-1, -0.35, 1])
    B = X
    w = build_weight(A, B)
    h = 1e-6
    for _ in range(16):
        x = complex(rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.5))
        num = (w.log_weight_principal(np.array([x + h]))[0]
               - w.log_weight_principal(np.array([x - h]))[0]) / (2 * h)
        want = -(poly_eval(A, x) + poly_eval(B.deriv(), x)) / poly_eval(B, x)
        assert num == pytest.approx(want, rel=1e-8)


def test_sectors_cubic():
    secs = sectors_at(w_cubic(), None)
    centers = sorted(s.center % (2 * math.pi) for s in secs)
    assert np.allclose(centers, [0.0, 2 * math.pi / 3, 4 * math.pi / 3], atol=1e-12)
    assert all(s.half_width == pytest.approx((math.pi / 2 - 0.05) / 3) for s in secs)


def test_sectors_rotated_leading_coefficient():
    # V+ = -x^2/2: sectors rotate by -arg(-1/2)/2 = -pi/2
    w = build_weight(CPoly([0, -1]), ONE)
    secs = sectors_at(w, None)
    assert sorted(s.center for s in secs) == pytest.approx([-math.pi / 2, math.pi / 2])


def test_sectors_essential_count_and_width():
    w = build_weight(CPoly([1, 0, 0, 0, 0, 0, 1]), CPoly.monomial(4))
    secs = sectors_at(w, 0.0)
    assert len(secs) == 3
    assert all(s.half_width == pytest.approx((math.pi / 2 - 0.05) / 3) for s in secs)


def test_sectors_decay_by_sampling():
    """Re V increases toward the anchor inside each sector."""
    w = build_weight(CPoly([1, 0, 0, 0, 0, 0, 1]), CPoly.monomial(4))
    for sec in sectors_at(w, None):
        u = cmath.exp(1j * sec.center)
        v1 = -w.log_weight_principal(np.array([3.0 * u]))[0].real
        v2 = -w.log_weight_principal(np.array([6.0 * u]))[0].real
        assert v2 > v1 > 0
    for sec in sectors_at(w, 0.0):
        u = cmath.exp(1j * sec.center)
        v1 = -w.log_weight_principal(np.array([0.1 * u]))[0].real
        v2 = -w.log_weight_principal(np.array([0.05 * u]))[0].real
        assert v2 > v1


def test_not_essential_raises():
    with pytest.raises(NotEssential):
        sectors_at(w_gauss_lam(), 0.0)


def w_gauss_lam():
    return build_weight(CPoly([-1, -0.5, 1]), X)  # g = 0 singularity


def test_contour_counts_cubic():
    cs = build_contours(w_cubic())
    assert len(cs) == 2
    assert all(c.kind == KIND_INFINITY for c in cs)
    assert all(c.p_flag for c in cs)


def test_contour_counts_quartic_power():
    w = build_weight(CPoly([-2.3, 0, 0, 0, 1]), X)  # lam = 1.3 not integer
    cs = build_contours(w)
    assert len(cs) == 4 == w.s
    kinds = sorted(c.kind for c in cs)
    assert kinds.count(KIND_INFINITY) == 3
    assert kinds.count(KIND_LOOP_1A) == 1


def test_contour_counts_integer_lambda_ray():
    # A = x^4 - lam - 1 with lam = 2: regular point, plain ray
    w = build_weight(CPoly([-3.0, 0, 0, 0, 1]), X)
    cs = build_contours(w)
    kinds = [c.kind for c in cs]
    assert kinds.count(KIND_RAY_1B) == 1
    assert kinds.count(KIND_INFINITY) == 3
    ray = next(c for c in cs if c.kind == KIND_RAY_1B)
    assert not ray.p_flag


def test_contour_counts_essential():
    w = build_weight(CPoly([1, 0, 0, 0, 0, 0, 1]), CPoly.monomial(4))
    cs = build_contours(w)
    assert len(cs) == w.s == 6
    kinds = [c.kind for c in cs]
    assert kinds.count(KIND_ESSENTIAL) == 3
    assert kinds.count(KIND_RAY_1B) == 1   # the connector
    assert kinds.count(KIND_INFINITY) == 2
    assert all(c.p_flag for c in cs if c.kind == KIND_ESSENTIAL)


def test_contour_ray_directions_decay():
    for w in (w_cubic(), build_weight(CPoly([-2.3, 0, 0, 0, 1]), X)):
        secs = sectors_at(w, None)
        for c in build_contours(w):
            assert contour_certificate(w, c)
            for u in c.ray_directions():
                ang = cmath.phase(u)
                assert any(s.contains(ang) for s in secs)


def test_normalize_potential_scaling():
    w = build_weight(CPoly([0, 0, 2]), ONE)  # V+ = 2x^3/3
    wn, mp = normalize_potential(w)
    assert wn.v_top == pytest.approx(1.0 / 3.0)
    assert mp.c == pytest.approx(0.5 ** (1.0 / 3.0))


def test_normalize_potential_identity():
    w = w_cubic()
    wn, mp = normalize_potential(w)
    assert mp.c == 1.0
    assert np.allclose(wn.Vplus.coeffs, w.Vplus.coeffs)


def test_normalize_moves_singularities():
    w = build_weight(CPoly([-2.3, 0, 0, 0, 2]), X)  # leading 2x^4 -> V+ = 2x^5/5?  no:
    # A = 2x^4 - 2.3, B = x: V' = 2x^3 - 2.3/x, V+ = x^4/2
    wn, mp = normalize_potential(w)
    assert wn.v_top == pytest.approx(0.25)
    assert wn.singularities[0].location == pytest.approx(0.0)


def test_trace_sdc_gaussian_is_horizontal_line():
    w = build_weight(X, ONE)  # V+ = x^2/2, d = 1
    z = 1.5
    sdc = trace_sdc(w, z, 0)
    pts = np.array([p.a for p in sdc.pieces] + [sdc.pieces[-1].b])
    assert abs(sdc.meta["saddle"] - z) < 1e-12
    assert np.max(np.abs(pts.imag)) < 1e-9
    assert sdc_phase_defect(w, sdc) < 1e-9


def test_trace_sdc_cubic_phase_invariant():
    w = w_cubic()
    z = 25.0 * cmath.exp(-1j * math.pi / 24)
    for k in (0, 1):
        sdc = trace_sdc(w, z, k)
        crit = sdc.meta["critical_value"]
        assert sdc_phase_defect(w, sdc) <= 1e-12 * (1 + abs(crit))
        # saddles at +- sqrt(z) up to ordering
        want = cmath.sqrt(z) * (1 if k == 0 else -1)
        assert sdc.meta["saddle"] == pytest.approx(want, rel=1e-9)


# the x marginals of the quartic, Gaussian, cubic, quartic-pole and power
# specs, as (A, B) coefficient lists
CERTIFY_WEIGHTS = [([0, 0, 0, 1], [1]), ([0, 2], [1]), ([0.1, 0, 1], [1]),
                   ([0.1, -0.2, 0, 1], [1]), ([-2.3, 0, 0, 0, 1], [0, 1])]


@pytest.mark.parametrize("A, B", CERTIFY_WEIGHTS)
def test_trace_sdc_piece_budget(A, B):
    """The contours certify traces stay short: nodes every 1/4 in u."""
    w, _ = normalize_potential(build_weight(CPoly(A), CPoly(B)))
    for r in (20.0, 30.0, 40.0):
        z = r * cmath.exp(-1j * math.pi / (4 * (w.d + 1)))
        for k in range(w.d):
            sdc = trace_sdc(w, z, k)
            assert len(sdc.pieces) <= 120
            assert sdc_phase_defect(w, sdc) <= 1e-12 * (1 + abs(sdc.meta["critical_value"]))


def test_trace_sdc_critical_value_formula():
    w = w_cubic()
    z = 30.0 * cmath.exp(-1j * 0.1)
    for k in (0, 1):
        sdc = trace_sdc(w, z, k)
        want = -(2.0 / 3.0) * z ** 1.5 * cmath.exp(2j * math.pi / 2) ** k
        assert sdc.meta["critical_value"] == pytest.approx(want, rel=1e-10)


def test_trace_sdc_stokes_guard():
    w = w_cubic()
    with pytest.raises(StokesProximity):
        trace_sdc(w, 25.0 + 0j, 0)   # real axis is a Stokes ray for d = 2


def test_trace_sdc_saddle_collision_near_zero():
    w = w_cubic()
    with pytest.raises(SaddleCollision):
        trace_sdc(w, 1e-12 * cmath.exp(-1j * 0.2), 0)


def test_ray_decay_certificate_monotone():
    """Re V+ grows along every unbounded direction used by the contours."""
    import numpy as np

    from bimoment.polycore import poly_eval

    for w in (w_cubic(), build_weight(CPoly([-2.3, 0, 0, 0, 1]), X)):
        for c in build_contours(w):
            for u in c.ray_directions():
                u = u / abs(u)
                rv = [poly_eval(w.Vplus, r * u).real for r in (3.0, 5.0, 8.0, 13.0)]
                assert all(b > a > 0 for a, b in zip(rv, rv[1:]))
