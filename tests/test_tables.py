import math

import numpy as np
import pytest

from bimoment.errors import DegenerateMinor, OutOfRange
from bimoment.favard import favard_reconstruct
from bimoment.polycore import CPoly
from bimoment.quadrature import make_setup
from bimoment.semiclassical import validate_spec
from bimoment.tables import (
    BimomentTable,
    RecurrenceSystem,
    delta,
    extract_recurrence,
    monic_bops,
    pair_apply,
)

from oracles import gaussian_bimoments, quartic_realline_bimoments


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


@pytest.mark.parametrize("handle", [(0, 0), (0, 1)])
def test_degeneracy_verdict_is_unit_free(handle):
    """Scaling a functional, or measuring x or y in other units, does not
    change whether its BOPs exist, so DegenerateMinor fires at the same
    degree for c*mu, mu[n, m]*c^n and mu[n, m]*c^m. On the quartic handle
    (0, 0) at N = 9, |Delta_n| against row norms fired at n = 4, 6, 7, 9
    for c*mu with c = 1e-3, 1, 10, 1e3."""
    quartic = validate_spec(CPoly([0, 0, 0, 1]), CPoly([1]), CPoly([0, 0, 0, 1]), CPoly([1]))
    mu = make_setup(quartic).handle(*handle).table(9).entries
    powers = 0.25 ** np.arange(10.0), 4.0 ** np.arange(10.0)
    rescaled = [c * mu for c in (1e-3, 1.0, 10.0, 1e3)]
    rescaled += [D[:, None] * mu for D in powers] + [mu * D for D in powers]
    seen = set()
    for entries in rescaled:
        with pytest.raises(DegenerateMinor) as exc:
            monic_bops(BimomentTable(entries), 9)
        seen.add(exc.value.n)
    assert seen == {7}


def test_degenerate_minor_names_first_degenerate_block():
    """mu[:2, :2] is singular to 1e-13 and mu[:3, :3] exactly singular: the
    elimination stops at the first of them."""
    ent = np.array([[1, 1, 0], [1, 1 + 1e-13, 0], [0, 0, 0]], dtype=complex)
    with pytest.raises(DegenerateMinor) as exc:
        monic_bops(BimomentTable(ent), 2)
    assert exc.value.n == 2


def test_bops_and_recurrence_match_mpmath_reference():
    """h_n and the monic recurrence coefficients of the real-line quartic
    table at N = 8 against a 30-digit computation: each p_n, s_n from an
    mpmath LU solve of its orthogonality system, h_n = L(p_n | s_n) and
    ahat_j(n) = L(x p_n | s_(n-j)) / h_(n-j). The tolerance is the double
    precision unit times the 2-norm condition number of the table."""
    mpmath = pytest.importorskip("mpmath")
    N = 8
    mu = quartic_realline_bimoments(N)
    tol = np.finfo(float).eps * np.linalg.cond(mu)
    with mpmath.workdps(30):
        M = mpmath.matrix(mu.tolist())

        def monic(n, transpose):
            if n == 0:
                return [mpmath.mpf(1)]
            A = M[:n, :n].T if transpose else M[:n, :n]
            rhs = -(M[n, :n].T if transpose else M[:n, n])
            c = mpmath.lu_solve(A, rhs)
            return [c[i] for i in range(n)] + [mpmath.mpf(1)]

        p = [monic(n, True) for n in range(N + 1)]
        s = [monic(n, False) for n in range(N + 1)]

        def pair(pn, sm, dx=0, dy=0):
            return mpmath.fsum(a * b * M[i + dx, j + dy]
                               for i, a in enumerate(pn) for j, b in enumerate(sm))

        h = [complex(pair(p[n], s[n])) for n in range(N + 1)]
        ahat = [[complex(pair(p[n], s[n - j], dx=1) / pair(p[n - j], s[n - j]))
                 for j in range(n + 1)] for n in range(N)]
        bhat = [[complex(pair(p[n - j], s[n], dy=1) / pair(p[n - j], s[n - j]))
                 for j in range(n + 1)] for n in range(N)]
    table = BimomentTable(mu)
    bops = monic_bops(table, N)
    got_a, got_b, _ = extract_recurrence(table, bops).monic_transform()
    for n in range(N + 1):
        assert abs(bops.h[n] - h[n]) <= tol * abs(h[n])
    for n in range(N):
        for j in range(n + 1):
            assert abs(got_a[n][j] - ahat[n][j]) <= tol * max(1.0, abs(ahat[n][j]))
            assert abs(got_b[n][j] - bhat[n][j]) <= tol * max(1.0, abs(bhat[n][j]))


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
    assert back.err is None
    text = BimomentTable(ent, err=np.abs(ent)).to_csv(comment="note = 1")
    assert text.splitlines()[:2] == ["# note = 1", "n,m,re,im,err"]
    assert np.array_equal(BimomentTable.from_csv(text).entries, t.entries)


@pytest.mark.parametrize("err", [np.zeros((3, 3)), np.zeros(4), -np.eye(2),
                                 np.full((2, 2), np.nan)], ids=["wide", "flat", "negative", "nan"])
def test_rejects_misshapen_or_negative_errors(err):
    with pytest.raises(ValueError, match="errors must be one >= 0 per entry"):
        BimomentTable(np.ones((2, 2)), err=err)


@pytest.mark.parametrize("prov", [np.zeros((2, 2)), np.full((3, 3), 7)],
                         ids=["misshapen", "unknown-code"])
def test_rejects_misshapen_or_unknown_provenance(prov):
    with pytest.raises(ValueError, match="provenance must be one known code per entry"):
        BimomentTable(np.eye(3), provenance=prov)


@pytest.mark.parametrize("cells", [[(0, 0), (1, 1)],
                                   [(0, 0), (0, 1), (1, 0), (1, 1), (1, 1)],
                                   [(0, 0), (0, 1), (1, 0), (-1, 1)]],
                         ids=["missing", "repeated", "negative"])
def test_from_csv_needs_each_entry_once(cells):
    text = "n,m,re,im\n" + "".join(f"{n},{m},1.0,0.0\n" for n, m in cells)
    with pytest.raises(ValueError, match=r"each \(n, m\) with 0 <= n, m <= 1 once"):
        BimomentTable.from_csv(text)


@pytest.mark.parametrize("build", [
    lambda: monic_bops(BimomentTable.identity(2), -1),
    lambda: favard_reconstruct(RecurrenceSystem([1.0], [1.0], [[0.0]], [[0.0]]), -1),
], ids=["monic_bops", "favard_reconstruct"])
def test_negative_order_rejected(build):
    with pytest.raises(ValueError, match="table order must be >= 0, got -1"):
        build()


def test_rejects_nonfinite():
    ent = np.ones((2, 2), dtype=complex)
    ent[1, 1] = np.nan
    with pytest.raises(ValueError):
        BimomentTable(ent)


def test_extract_recurrence_roundtrips_named_coefficient():
    """A system built with a_0(1) = 5 comes back with a_0(1) = 5."""
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
