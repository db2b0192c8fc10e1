"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (run with -s to see them all) and
asserts at the stated tolerance. Everything runs from the public API;
expected values come from independent oracles (closed-form Gaussian
moments, the Airy Maclaurin series, shifted-Gaussian moments).
"""
import cmath
import math
from contextlib import contextmanager

import numpy as np
import pytest

from bimoment.errors import DegenerateQuadratic, DivergentCoupling
from bimoment.favard import favard_reconstruct, leading_minor_prediction
from bimoment.polycore import CPoly
from bimoment.quadrature import (
    asymptotic_check,
    bimoment_table,
    independence_certificate,
    laplace,
    laplace_many,
    make_setup,
    rho_factorization_check,
)
from bimoment.semiclassical import (
    delta_solutions,
    propagate_moments,
    recurrence_residual,
    reduce_to_linear,
    validate_spec,
)
from bimoment.tables import delta, extract_recurrence, monic_bops
from bimoment.weights import build_contours, build_weight, trace_sdc

from oracles import airy_maclaurin, shifted_gaussian_moment
from test_favard import random_system

ONE = CPoly.one()
X = CPoly.x()


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} [FAIL] {name}")
        raise
    print(f"ACCEPTANCE {num:02d} [PASS] {name}")


@pytest.fixture(scope="module")
def gaussian():
    spec = validate_spec(CPoly([0, 2]), ONE, CPoly([0, 2]), ONE)
    return spec, make_setup(spec)


@pytest.fixture(scope="module")
def quartic():
    spec = validate_spec(CPoly([0, 0, 0, 1]), ONE, CPoly([0, 0, 0, 1]), ONE)
    setup = make_setup(spec)
    tables = [h.table(8) for h in setup.handles]
    return spec, setup, tables


def test_01_gaussian_oracle(gaussian):
    with criterion(1, "coupled-Gaussian bimoments match the closed form"):
        _, setup = gaussian
        table = setup.handle(0, 0).table(2)
        mu00 = 2 * math.pi / math.sqrt(3.0)
        assert abs(table[0, 0] - mu00) <= 1e-8 * mu00
        assert abs(table[1, 1] - mu00 / 3.0) <= 1e-8 * abs(mu00 / 3.0)
        assert abs(table[1, 0]) <= 1e-8 * mu00
        assert abs(table[0, 1]) <= 1e-8 * mu00


def test_02_airy_oracle():
    with criterion(2, "cubic-weight loop integral equals 2*pi*i*Ai(0)"):
        w = build_weight(CPoly([0, 0, 1]), ONE)
        loop = build_contours(w)[1]
        got = laplace(loop, w, 0.0, 0)
        want = 2j * math.pi * airy_maclaurin(0.0)
        assert abs(got - want) <= 1e-8 * abs(want)


def test_03_recurrence_residuals(quartic):
    with criterion(3, "all 9 quartic tables satisfy both moment recurrences"):
        spec, _, tables = quartic
        worst = max(recurrence_residual(spec, t) for t in tables)
        assert worst <= 1e-6


def test_04_dimension_independence(quartic):
    with criterion(4, "9 tables: numerical rank 9 with healthy spectrum"):
        spec, _, tables = quartic
        report = independence_certificate(tables)
        assert report.rank == 9 == spec.M
        assert report.sv_ratio > 1e-6


def test_05_favard_roundtrip():
    with criterion(5, "20 random recurrence systems reconstruct and re-extract"):
        for seed in range(20):
            rec = random_system(6, 2000 + seed)
            table = favard_reconstruct(rec, 6)
            back = extract_recurrence(table, monic_bops(table, 6))
            want = rec.canonical()
            for n in range(6):
                assert abs(back.gamma[n] - want.gamma[n]) \
                    <= 1e-8 * max(1.0, abs(want.gamma[n]))
                for j in range(n + 1):
                    assert abs(back.a[n][j] - want.a[n][j]) \
                        <= 1e-8 * max(1.0, abs(want.a[n][j]))
                    assert abs(back.b[n][j] - want.b[n][j]) \
                        <= 1e-8 * max(1.0, abs(want.b[n][j]))
            for n in range(1, 7):
                want_minor = leading_minor_prediction(rec, n)
                assert abs(delta(table, n) - want_minor) <= 1e-8 * abs(want_minor)


def test_06_reduction_consistency():
    with criterion(6, "bilinear mu[n,0] match the reduced 1D moments"):
        spec = validate_spec(CPoly([0, 0, 0, 1]), ONE, CPoly([0, 2]), ONE)
        setup = make_setup(spec)
        A, B = reduce_to_linear(spec)
        assert np.allclose(A.coeffs, [0, -0.5, 0, 1])
        wr = build_weight(A, B)
        contours_r = build_contours(wr)
        for i in range(3):
            bil = setup.handle(i, 0).table(8).entries[:, 0]
            oned = laplace_many(contours_r[i], wr, np.array([0.0]), 8)[0][:, 0]
            # same functional up to one overall normalization
            ratio = bil / oned
            assert np.max(np.abs(ratio / ratio[0] - 1.0)) <= 1e-6


def test_07_propagation_vs_quadrature(quartic):
    with criterion(7, "seeded propagation reproduces every quadrature table"):
        spec, _, tables = quartic
        for table in tables:
            prop = propagate_moments(spec, table.entries[:3, :3], 8)
            scale = np.max(np.abs(table.entries))
            assert np.max(np.abs(prop.entries - table.entries)) <= 1e-6 * scale


def test_08_asymptotics():
    with criterion(8, "steepest-descent integrals match the predicted leading term"):
        w = build_weight(CPoly([0, 0, 1]), ONE)  # e^(-x^3/3), normalized, K = 1
        zs = [r * cmath.exp(-1j * math.pi / 12) for r in (20.0, 30.0, 40.0)]
        report = asymptotic_check(w, 0, zs)
        assert 0.95 <= report.ratios[-1] <= 1.05
        # correction is O(1/z) or faster: log-log decay at least ~ -0.7
        assert report.slope <= -0.7
        assert report.K_settled


def test_09_delta_solutions():
    with criterion(9, "delta-supported solution: c^n * Y_m table solves the system"):
        A1 = 2 * X * CPoly([-1, 1])             # (x-1) * 2x
        spec = validate_spec(A1, CPoly([-1, 1]), CPoly([0, 2]), ONE)
        wy = build_weight(spec.A2, spec.B2)
        cy = build_contours(wy)[0]
        sol = delta_solutions(spec, cy, wy, 0, 8)
        table = sol.bimoments(8)
        # independent oracle for the partner moments at the coupling point
        Y = np.array([shifted_gaussian_moment(p, 1.0) for p in range(9)])
        scale = np.max(np.abs(Y))
        for n in range(9):
            assert np.max(np.abs(table.entries[n] - 1.0 ** n * Y)) <= 1e-8 * scale
        assert recurrence_residual(spec, table) <= 1e-8


def test_10_rho_factorization(gaussian, quartic):
    with criterion(10, "kernel-off double integrals factorize"):
        _, gsetup = gaussian
        _, qsetup, _ = quartic
        assert rho_factorization_check(gsetup.handle(0, 0)) <= 1e-8
        assert rho_factorization_check(qsetup.handle(0, 0)) <= 1e-8


def test_11_degenerate_guard():
    with criterion(11, "degenerate quadratic data rejected, never silently wrong"):
        with pytest.raises(DegenerateQuadratic):
            validate_spec(X, ONE, CPoly([0, 1]), ONE)
        # |delta*sigma| <= 1 but nonzero determinant: caught at quadrature time
        spec = validate_spec(CPoly([0, 1.2]), ONE, CPoly([0, 0.5]), ONE)
        setup = make_setup(spec)
        with pytest.raises(DivergentCoupling):
            bimoment_table(setup.handle(0, 0), 2)
