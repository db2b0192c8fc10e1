"""Property test of poly_roots: multiplicities come back exactly and
locations to 1e-6 relative for well-separated clusters of low order."""
import cmath
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bimoment.polycore import CPoly, poly_roots  # noqa: E402

MAX_DEGREE = 9


def disc(radius):
    polar = st.tuples(st.floats(0.0, radius), st.floats(-math.pi, math.pi))
    return polar.map(lambda ra: ra[0] * cmath.exp(1j * ra[1]))


@st.composite
def root_multisets(draw):
    """1..4 distinct roots with |r| <= 3, pairwise at least 0.2 apart, each
    of multiplicity 1..3, total degree at most MAX_DEGREE."""
    n = draw(st.integers(1, 4))
    roots, mults = [], []
    for i in range(n):
        roots.append(draw(disc(3.0).filter(
            lambda r: all(abs(r - q) >= 0.2 for q in roots))))
        room = MAX_DEGREE - sum(mults) - (n - 1 - i)
        mults.append(draw(st.integers(1, min(3, room))))
    return list(zip(roots, mults))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(root_multisets())
# a double root at ~0 where p has an exact zero: the Newton polish of the
# other double root once jumped there and came back as one 4-fold root
@example([(-0.645209920854405 + 1.9013193296201727j, 2), (1.101301629832387e-296, 2)])
def test_poly_roots_recovers_multiplicities_and_locations(drawn):
    p = CPoly.from_roots([r for r, m in drawn for _ in range(m)])
    found = list(poly_roots(p))
    assert len(found) == len(drawn)
    for r, m in drawn:
        loc, mult = min(found, key=lambda lm: abs(lm[0] - r))
        assert mult == m
        assert abs(loc - r) <= 1e-6 * max(1.0, abs(r))
