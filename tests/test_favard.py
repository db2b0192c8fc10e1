import json
from pathlib import Path

import numpy as np
import pytest

from bimoment.errors import ZeroGamma
from bimoment.favard import (
    favard_reconstruct,
    favard_verify,
    leading_minor_prediction,
    recurrence_from_json_dict,
    recurrence_to_json_dict,
)
from bimoment.tables import (
    BimomentTable,
    RecurrenceSystem,
    delta,
    extract_recurrence,
    monic_bops,
)


def shift_system(N, gamma0=1.0):
    gamma = [1.0 + 0j] * N
    gamma[0] = gamma0
    return RecurrenceSystem(
        gamma=gamma,
        gamma_t=[1.0 + 0j] * N,
        a=[[0.0] * (n + 1) for n in range(N)],
        b=[[0.0] * (n + 1) for n in range(N)],
        pi0=1.0, sigma0=1.0,
    )


def random_system(N, seed, gamma_range=(0.5, 2.0)):
    rng = np.random.default_rng(seed)

    def disk(n):
        return [complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(n)]

    def gammas():
        mags = rng.uniform(*gamma_range, N)
        args = rng.uniform(-np.pi, np.pi, N)
        return [complex(m * np.cos(a), m * np.sin(a)) for m, a in zip(mags, args)]

    return RecurrenceSystem(
        gamma=gammas(), gamma_t=gammas(),
        a=[disk(n + 1) for n in range(N)],
        b=[disk(n + 1) for n in range(N)],
        pi0=complex(*rng.uniform(0.5, 1.5, 2)),
        sigma0=complex(*rng.uniform(0.5, 1.5, 2)),
    )


def test_pure_shift_gives_identity_table():
    table = favard_reconstruct(shift_system(4), 4)
    assert np.allclose(table.entries, np.eye(5), atol=1e-14)


def test_gamma0_scales_corner():
    table = favard_reconstruct(shift_system(3, gamma0=2.0), 3)
    assert table[1, 1] == pytest.approx(2.0)
    assert table[0, 0] == pytest.approx(1.0)
    assert table[1, 0] == pytest.approx(0.0, abs=1e-14)
    assert table[0, 1] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("seed", range(6))
def test_roundtrip_random_systems(seed):
    """reconstruct -> monic_bops -> extract reproduces the canonical form."""
    rec = random_system(6, 100 + seed)
    table = favard_reconstruct(rec, 6)
    back = extract_recurrence(table, monic_bops(table, 6))
    want = rec.canonical()
    for n in range(6):
        assert back.gamma[n] == pytest.approx(want.gamma[n], rel=1e-8, abs=1e-10)
        assert np.allclose(back.a[n], want.a[n], rtol=1e-8, atol=1e-9)
        assert np.allclose(back.b[n], want.b[n], rtol=1e-8, atol=1e-9)
    assert back.pi0 * back.sigma0 == pytest.approx(want.pi0 * want.sigma0, rel=1e-10)


def test_table_roundtrip_through_recurrence():
    """extract -> reconstruct is the identity on tables with good minors."""
    rng = np.random.default_rng(42)
    ent = np.eye(6, dtype=complex) + 0.25 * (rng.normal(size=(6, 6))
                                             + 1j * rng.normal(size=(6, 6)))
    table = BimomentTable(ent)
    rec = extract_recurrence(table, monic_bops(table, 5))
    back = favard_reconstruct(rec, 5)
    assert np.allclose(back.entries, table.entries, rtol=0,
                       atol=1e-10 * np.max(np.abs(ent)))


def test_leading_minor_identity():
    rec = random_system(6, 7)
    table = favard_reconstruct(rec, 6)
    for n in range(1, 7):
        want = leading_minor_prediction(rec, n)
        assert delta(table, n) == pytest.approx(want, rel=1e-8)


def test_verify_identity_is_zero():
    rec = shift_system(4)
    table = favard_reconstruct(rec, 4)
    assert favard_verify(rec, table) < 1e-14


def test_verify_detects_perturbation():
    rec = shift_system(4)
    table = favard_reconstruct(rec, 4)
    ent = table.entries.copy()
    ent[2, 1] += 1e-3
    assert favard_verify(rec, BimomentTable(ent)) >= 1e-4


def test_verify_roundtrip_residual_small():
    rec = random_system(6, 55)
    table = favard_reconstruct(rec, 6)
    assert favard_verify(rec, table) < 1e-9


def test_reconstruct_deterministic():
    rec = random_system(5, 9)
    t1 = favard_reconstruct(rec, 5)
    t2 = favard_reconstruct(rec, 5)
    assert np.array_equal(t1.entries, t2.entries)


def test_zero_gamma_raises():
    rec = shift_system(3)
    rec.gamma[0] = 0.0
    with pytest.raises(ZeroGamma):
        favard_reconstruct(rec, 3)


def test_recurrence_json_roundtrip():
    rec = random_system(4, 77)
    back = recurrence_from_json_dict(recurrence_to_json_dict(rec))
    assert back.gamma == [complex(g) for g in rec.gamma]
    assert back.a == [[complex(v) for v in row] for row in rec.a]
    assert back.pi0 == complex(rec.pi0)


def test_an_ill_conditioned_table_is_accurate_and_still_misses_1e_8():
    """Order-12 recurrence data of the benchmark's algebra workload (seed
    23) whose table reaches |mu| = 1.5e8 against |h| <= 3.3. The table
    lies within 1e-14 of a 60-digit one built from the same factors, entry
    by entry. That 60-digit table, rounded to double, still misses
    favard_verify's 1e-8: the miss comes from the conditioning."""
    mpmath = pytest.importorskip("mpmath")
    path = Path(__file__).with_name("favard_ill_conditioned.json")
    rec = recurrence_from_json_dict(json.loads(path.read_text()))
    N = rec.order
    Cp, h, Cs = rec.factors(N)

    def mp(A):
        return mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in A])

    with mpmath.workdps(60):
        exact = mpmath.inverse(mp(Cp)) * mpmath.diag([mpmath.mpc(complex(z)) for z in h]) \
            * mpmath.inverse(mp(Cs)).T
        want = np.array([[complex(exact[i, j]) for j in range(N + 1)] for i in range(N + 1)])
    got = favard_reconstruct(rec, N).entries
    assert np.max(np.abs(want)) > 1e8
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    assert favard_verify(rec, BimomentTable(want)) > 1e-8
