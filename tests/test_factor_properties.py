"""Property tests of the biorthogonal algebra through the public API: the
Favard round trip on random recurrence data, and biorthogonality of the
monic BOPs of random well-conditioned complex tables."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from bimoment.favard import favard_reconstruct  # noqa: E402
from bimoment.tables import (  # noqa: E402
    BimomentTable,
    RecurrenceSystem,
    extract_recurrence,
    monic_bops,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def box(half_width):
    parts = st.floats(-half_width, half_width)
    return st.builds(complex, parts, parts)


def gammas(n):
    polar = st.tuples(st.floats(0.5, 2.0), st.floats(-np.pi, np.pi))
    return st.lists(polar.map(lambda mp: complex(mp[0] * np.cos(mp[1]), mp[0] * np.sin(mp[1]))),
                    min_size=n, max_size=n)


@st.composite
def recurrence_systems(draw):
    """Gammas of modulus 0.5..2, a and b in a box of half-width 0.7, and
    pi0, sigma0 in [0.5, 1.5]^2: the ranges of the algebra benchmark."""
    N = draw(st.integers(1, 10))
    triangle = st.tuples(*(st.lists(box(0.7), min_size=n + 1, max_size=n + 1)
                           for n in range(N))).map(list)
    near_one = st.builds(complex, st.floats(0.5, 1.5), st.floats(0.5, 1.5))
    return RecurrenceSystem(gamma=draw(gammas(N)), gamma_t=draw(gammas(N)),
                            a=draw(triangle), b=draw(triangle),
                            pi0=draw(near_one), sigma0=draw(near_one))


def relative_gap(got, want):
    return abs(complex(got) - complex(want)) / max(1.0, abs(complex(want)))


@PROPERTY_SETTINGS
@given(recurrence_systems())
def test_favard_roundtrip_recovers_canonical_form(rec):
    N = rec.order
    table = favard_reconstruct(rec, N)
    back = extract_recurrence(table, monic_bops(table, N))
    want = rec.canonical()
    worst = relative_gap(back.pi0 * back.sigma0, want.pi0 * want.sigma0)
    for n in range(N):
        worst = max(worst, relative_gap(back.gamma[n], want.gamma[n]),
                    relative_gap(back.gamma_t[n], want.gamma_t[n]))
        for j in range(n + 1):
            worst = max(worst, relative_gap(back.a[n][j], want.a[n][j]),
                        relative_gap(back.b[n][j], want.b[n][j]))
    assert worst <= 1e-8


@st.composite
def dominant_tables(draw):
    """c * (E + 2(N+1) I) with |Re E|, |Im E| <= 1: strictly diagonally
    dominant, so every leading block is well conditioned, at a scale c of
    1e-6..1e6 with any phase."""
    N = draw(st.integers(0, 12))
    E = draw(arrays(np.complex128, (N + 1, N + 1), elements=box(1.0)))
    c = draw(st.floats(-6, 6))
    phase = draw(st.floats(-np.pi, np.pi))
    return BimomentTable(10.0 ** c * np.exp(1j * phase) * (E + 2 * (N + 1) * np.eye(N + 1)))


@PROPERTY_SETTINGS
@given(dominant_tables())
def test_bops_biorthogonalize_the_table(table):
    N = table.size
    bops = monic_bops(table, N)
    Cp = np.zeros((N + 1, N + 1), dtype=complex)
    Cs = np.zeros((N + 1, N + 1), dtype=complex)
    for n in range(N + 1):
        assert bops.p[n].degree == n and bops.p[n].leading == 1
        assert bops.s[n].degree == n and bops.s[n].leading == 1
        Cp[n, : n + 1] = bops.p[n].coeffs
        Cs[n, : n + 1] = bops.s[n].coeffs
    defect = Cp @ table.entries @ Cs.T - np.diag(bops.h)
    assert np.max(np.abs(defect)) <= 1e-13 * np.max(np.abs(table.entries))
