import math

import numpy as np
import pytest

from bimoment.errors import DegenerateMinor, OutOfRange
from bimoment.polycore import CPoly
from bimoment.tables import (
    BimomentTable,
    delta,
    extract_recurrence,
    monic_bops,
    pair_apply,
)

from oracles import gaussian_bimoments


@pytest.fixture(scope="module")
def gauss_table():
    """Coupled-Gaussian bimoments from the closed-form covariance oracle."""
    return BimomentTable(gaussian_bimoments(2.0, 2.0, 6))


def test_delta_identity():
    t = BimomentTable.identity(5)
    assert delta(t, 4) == pytest.approx(1.0)


def test_delta_rank_one():
    t = BimomentTable(np.ones((3, 3)))
    assert delta(t, 2) == pytest.approx(0.0, abs=1e-14)


def test_delta_convention_and_gaussian(gauss_table):
    assert delta(gauss_table, 0) == 1.0
    assert delta(gauss_table, 1) == pytest.approx(2 * math.pi / math.sqrt(3), rel=1e-12)


def test_delta_out_of_range():
    with pytest.raises(OutOfRange):
        delta(BimomentTable.identity(2), 5)


def test_delta_scaling_property():
    rng = np.random.default_rng(11)
    ent = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    t = BimomentTable(ent)
    for c in (0.5, 2.0 - 1.0j, 3.7):
        tc = BimomentTable(c * ent)
        for n in (1, 2, 4):
            assert delta(tc, n) == pytest.approx(c ** n * delta(t, n), rel=1e-10)


def test_pair_apply_constant(gauss_table):
    one = CPoly.one()
    assert pair_apply(gauss_table, one, one) == pytest.approx(gauss_table[0, 0])


def test_pair_apply_monomials():
    t = BimomentTable.identity(3)
    assert pair_apply(t, CPoly.x(), CPoly.x()) == pytest.approx(1.0)


def test_pair_apply_linearity():
    ent = np.zeros((2, 2), dtype=complex)
    ent[0, 0] = 1.0
    ent[1, 0] = 3.0
    t = BimomentTable(ent)
    assert pair_apply(t, CPoly([-3, 1]), CPoly.one()) == pytest.approx(0.0)


def test_monic_bops_identity_table():
    t = BimomentTable.identity(4)
    bops = monic_bops(t, 4)
    for n in range(5):
        assert bops.p[n] == CPoly.monomial(n)
        assert bops.s[n] == CPoly.monomial(n)
        assert bops.h[n] == pytest.approx(1.0)


def test_monic_bops_two_by_two():
    ent = np.array([[1.0, 0.0], [3.0, 1.0]], dtype=complex)
    bops = monic_bops(BimomentTable(ent), 1)
    assert np.allclose(bops.p[1].coeffs, [-3.0, 1.0])
    assert np.allclose(bops.s[1].coeffs, [0.0, 1.0])
    assert bops.h[1] == pytest.approx(1.0)  # Delta_2/Delta_1 = 1


def test_monic_bops_gaussian_biorthogonality(gauss_table):
    N = 4
    bops = monic_bops(gauss_table, N)
    h0 = abs(bops.h[0])
    for n in range(N + 1):
        for m in range(N + 1):
            if n != m:
                assert abs(pair_apply(gauss_table, bops.p[n], bops.s[m])) / h0 < 1e-8


def test_monic_bops_h_is_minor_ratio(gauss_table):
    N = 5
    bops = monic_bops(gauss_table, N)
    for n in range(N + 1):
        ratio = delta(gauss_table, n + 1) / delta(gauss_table, n)
        assert abs(bops.h[n] - ratio) <= 1e-8 * abs(bops.h[n])


def test_monic_bops_degenerate_minor():
    ent = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(DegenerateMinor):
        monic_bops(BimomentTable(ent), 1)


def test_extract_recurrence_identity_is_shift():
    t = BimomentTable.identity(5)
    rec = extract_recurrence(t, monic_bops(t, 5))
    for n in range(rec.order):
        assert np.allclose(rec.a[n], 0.0, atol=1e-12)
        assert np.allclose(rec.b[n], 0.0, atol=1e-12)
        assert rec.gamma[n] == pytest.approx(1.0)


def test_extract_recurrence_gaussian_banded(gauss_table):
    """Quadratic potentials give banded recurrences: a_j(n) = 0 for j >= 2."""
    N = 4
    bops = monic_bops(gauss_table, N)
    rec = extract_recurrence(gauss_table, bops)
    ahat, bhat, _ = rec.monic_transform()
    for n in range(N):
        for j in range(2, n + 1):
            assert abs(ahat[n][j]) < 1e-8
            assert abs(bhat[n][j]) < 1e-8


def test_csv_roundtrip_exact():
    rng = np.random.default_rng(3)
    ent = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    t = BimomentTable(ent)
    back = BimomentTable.from_csv(t.to_csv())
    assert np.array_equal(back.entries, t.entries)
    text = t.to_csv(err=np.abs(ent), comment="note = 1")
    assert text.splitlines()[:2] == ["# note = 1", "n,m,re,im,err"]
    assert np.array_equal(BimomentTable.from_csv(text).entries, t.entries)


def test_rejects_nonfinite():
    ent = np.ones((2, 2), dtype=complex)
    ent[1, 1] = np.nan
    with pytest.raises(ValueError):
        BimomentTable(ent)


def test_extract_recurrence_roundtrips_named_coefficient():
    """A system built with a_0(1) = 5 comes back with a_0(1) = 5."""
    from bimoment.favard import favard_reconstruct
    from bimoment.tables import RecurrenceSystem

    N = 3
    a = [[0.0], [5.0, 0.0], [0.0, 0.0, 0.0]]
    rec = RecurrenceSystem(gamma=[1.0] * N, gamma_t=[1.0] * N,
                           a=a, b=[[0.0] * (n + 1) for n in range(N)],
                           pi0=1.0, sigma0=1.0)
    table = favard_reconstruct(rec, N)
    back = extract_recurrence(table, monic_bops(table, N))
    assert abs(back.a[1][0] - 5.0) < 1e-10


def test_pair_apply_out_of_range():
    t = BimomentTable.identity(2)
    with pytest.raises(OutOfRange):
        pair_apply(t, CPoly.monomial(5), CPoly.one())
