"""Tests of the benchmark's own reference checks and tracer.

    python -m pytest perfbench/test_checks.py -q
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bimoment as bm  # noqa: E402
import checks  # noqa: E402
import layertrace  # noqa: E402
from bimoment.quadrature import predicted_leading  # noqa: E402

DELTA, SIGMA = 1.7, 2.1


@pytest.fixture(scope="module")
def gaussian_table():
    spec = bm.validate_spec(bm.CPoly([0, DELTA]), bm.CPoly([1]),
                            bm.CPoly([0, SIGMA]), bm.CPoly([1]))
    return spec, bm.make_setup(spec).handle(0, 0).table(4).entries


def test_gaussian_table_passes(gaussian_table):
    _, mu = gaussian_table
    assert checks.gaussian_table_error(DELTA, SIGMA, mu) <= checks.GAUSS_RTOL


def test_gaussian_entry_perturbed_by_1e6_is_flagged(gaussian_table):
    _, mu = gaussian_table
    for n in range(5):
        for m in range(5):
            bad = mu.copy()
            if (n + m) % 2 == 0:
                bad[n, m] *= 1 + 1e-6
            else:  # vanishes by parity: perturb by 1e-6 of the mass
                bad[n, m] += 1e-6 * abs(mu[0, 0])
            assert checks.gaussian_table_error(DELTA, SIGMA, bad) > checks.GAUSS_RTOL, (n, m)


def test_gaussian_expectations_low_orders():
    det = DELTA * SIGMA - 1
    E = checks.gaussian_expectations(DELTA, SIGMA, 4)
    sxx, sxy, syy = SIGMA / det, 1 / det, DELTA / det
    assert E[0, 0] == 1 and E[1, 0] == 0
    assert E[2, 0] == pytest.approx(sxx) and E[1, 1] == pytest.approx(sxy)
    assert E[4, 0] == pytest.approx(3 * sxx ** 2)
    assert E[2, 2] == pytest.approx(sxx * syy + 2 * sxy ** 2)


def test_generating_function_is_mass_at_origin():
    assert checks.gaussian_generating(DELTA, SIGMA, 0, 0) == \
        pytest.approx(2 * math.pi / math.sqrt(DELTA * SIGMA - 1))


def test_airy_series_known_values():
    assert checks.airy_ai(0) == pytest.approx(0.355028053887817, rel=1e-14)
    assert checks.airy_ai(1) == pytest.approx(0.135292416312881, rel=1e-13)
    assert checks.airy_ai(-1) == pytest.approx(0.535560883292352, rel=1e-13)


def test_recurrence_defect_flags_a_perturbed_table(gaussian_table):
    spec, mu = gaussian_table
    coeffs = ([0, DELTA], [1], [0, SIGMA], [1])
    assert checks.recurrence_defect(*coeffs, mu) <= 1e-9
    bad = mu.copy()
    bad[2, 2] *= 1 + 1e-4
    assert checks.recurrence_defect(*coeffs, bad) > checks.RESIDUAL_TOL
    assert checks.recurrence_defect(*coeffs, mu) == \
        pytest.approx(bm.recurrence_residual(spec, bm.BimomentTable(mu)), abs=1e-12)


def test_canonical_recurrence_matches_the_package():
    rng = np.random.default_rng(4)
    N = 5

    def cvec(n):
        return [complex(*rng.uniform(-1, 1, 2)) for _ in range(n)]

    rec = bm.RecurrenceSystem(gamma=[g + 2 for g in cvec(N)],
                              gamma_t=[g + 2 for g in cvec(N)],
                              a=[cvec(n + 1) for n in range(N)],
                              b=[cvec(n + 1) for n in range(N)],
                              pi0=1.3 + 0.2j, sigma0=0.8 - 0.1j)
    want = checks.canonical_recurrence(rec.gamma, rec.gamma_t, rec.a, rec.b,
                                       rec.pi0, rec.sigma0)
    assert checks.recurrence_mismatch(rec.canonical(), want) <= 1e-13
    table = bm.favard_reconstruct(rec, N)
    back = bm.extract_recurrence(table, bm.monic_bops(table, N))
    assert checks.recurrence_mismatch(back, want) <= checks.FAVARD_RTOL
    back.a[3][1] += 1e-6
    assert checks.recurrence_mismatch(back, want) > checks.FAVARD_RTOL


@pytest.mark.parametrize("d", [2, 3])
def test_monomial_leading_term_matches_the_package(d):
    w = bm.build_weight(bm.CPoly([0] * d + [1]), bm.CPoly([1]))
    z = 25 * np.exp(-1j * math.pi / (4 * (d + 1)))
    assert checks.monomial_leading_term(d, z) == pytest.approx(predicted_leading(w, z, 0),
                                                              rel=1e-12)


def test_numerical_rank():
    a = np.arange(9.0).reshape(3, 3) + 1
    assert checks.numerical_rank([a, np.eye(3)]) == 2
    assert checks.numerical_rank([a, 2 * a]) == 1


def test_tracer_counts_and_restores():
    q = bm.quadrature
    original = q.integrate_contour
    original_weight = bm.weights.WeightSpec.__dict__["weight_tracked"]
    tracer = layertrace.Tracer(bm)
    tracer.install()
    try:
        assert q.integrate_contour is not original
        w = bm.build_weight(bm.CPoly([0, 0, 1]), bm.CPoly([1]))
        loop = bm.build_contours(w)[1]
        bm.laplace(loop, w, 0.3, 0)
        with tracer.paused():
            bm.laplace(loop, w, 0.4, 0)
    finally:
        tracer.uninstall()
    assert q.integrate_contour is original
    assert bm.weights.WeightSpec.__dict__["weight_tracked"] is original_weight
    s = tracer.stats
    assert s["quadrature.integrate"].calls == 1
    assert s["quadrature.prepare"].calls == 1
    panels = s["quadrature.panel"].calls
    assert panels > 0 and s["quadrature.panel"].items == 15 * panels
    assert s["weights.weight_tracked"].items == 15 * panels
    assert s["quadrature.integrate"].self_s <= s["quadrature.integrate"].total_s
    assert 0 < tracer.err_over_tol_max <= 1
    assert tracer.fallback_accepts == 0


def test_fallback_detector():
    tracer = layertrace.Tracer(bm)
    args = {"rtol": 1e-10, "atol": 0.0, "max_panels": 4}
    vals, errs = np.array([1.0]), np.array([1e-9])   # err = 5x tol
    tracer._check_tolerance({"panels": 8, "pieces": 2, "args": args}, (vals, errs))
    assert tracer.fallback_accepts == 1
    assert tracer.err_over_tol_max == pytest.approx(5.0)
    tracer._check_tolerance({"panels": 7, "pieces": 2, "args": args}, (vals, errs))
    assert tracer.fallback_accepts == 1
