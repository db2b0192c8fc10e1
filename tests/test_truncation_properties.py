"""Property tests of ray truncation: the ladder T, T 1.35, ... sampled a
chunk at a time (quadrature._truncate_ray) gives the same length, or the
same DivergentTail, as the one-node-per-step reference
(oracles.truncate_ray_one_node)."""
import cmath
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bimoment import quadrature  # noqa: E402
from bimoment.errors import DivergentTail  # noqa: E402
from bimoment.polycore import CPoly  # noqa: E402
from bimoment.weights import InRay, OutRay, build_contours, build_weight  # noqa: E402

from oracles import truncate_ray_one_node  # noqa: E402


def _rays(A, B, index):
    w = build_weight(CPoly(A), CPoly(B))
    pieces = build_contours(w)[index].pieces
    return w, [p for p in pieces if isinstance(p, (InRay, OutRay))]


# the Airy loop of the transforms benchmark, a quartic infinity loop and the
# loop around the branch point of y^(-2a-1) e^(-y^2), a = 1.25
CONTOURS = {
    "airy": _rays([0, 0, 1], [1], 1),
    "quartic": _rays([0, 0, 0, 1], [1], 0),
    "pole": _rays([1.25, 0, 1], [0, 0.5], 0),
}


def _outcome(truncate, spec, ray, gprobe):
    """The length as float.hex, or the DivergentTail message."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return truncate(spec, ray, gprobe).hex()
        except DivergentTail as exc:
            return f"DivergentTail: {exc}"


def _laplace_probe(z, m):
    """x^j e^(zx), j = 0..m: the probe of laplace_many."""
    def g(x):
        return np.exp(z * x) * x ** np.arange(m + 1)[:, None]
    return g


AIRY_BOX = st.builds(complex, st.floats(-1.5, 2.0), st.floats(-1.5, 1.5))
FAR_OUT = st.builds(cmath.rect, st.floats(20.0, 2000.0), st.floats(-math.pi, math.pi))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(CONTOURS)), st.one_of(AIRY_BOX, FAR_OUT), st.integers(0, 8))
@example("airy", 0j, 0)
@example("airy", 1500 + 0j, 0)
def test_chunked_truncation_matches_the_one_node_ladder(name, z, m):
    spec, rays = CONTOURS[name]
    g = _laplace_probe(z, m)
    for ray in rays:
        assert (_outcome(quadrature._truncate_ray, spec, ray, g)
                == _outcome(truncate_ray_one_node, spec, ray, g))


class _Stub:
    """A stand-in weight with the Airy weight's top term, which the start
    T and the decay test read, and log W = -c |x|^p, so that a decision
    can fall on any rung of the ladder. Counts its weight calls."""

    d = 2
    v_top = 1 / 3 + 0j

    def __init__(self, c, p):
        self.c, self.p, self.calls = c, p, 0

    def log_weight_principal(self, x):
        self.calls += 1
        return -self.c * np.abs(x) ** self.p + 0j


RAY = OutRay(0j, 1 + 0j)


def _power_probe(q):
    return lambda x: np.abs(x) ** q


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(-14.0, 3.0).map(lambda e: 10.0 ** e), st.floats(0.0, 3.0),
       st.floats(0.0, 80.0))
@example(0.0, 1.0, 0.0)    # flat: the ladder runs out
@example(0.0, 1.0, 1.0)    # rising: 61 rises in a row
@example(1e-14, 1.0, 3.0)  # rising, then falling too slowly to stop
def test_stub_decisions_match_the_one_node_ladder(c, p, q):
    """log |W g| = -c |x|^p + q log |x|: a return on any rung, the growth
    refusal after 61 rises and the end of the ladder at 200 rungs."""
    g = _power_probe(q)
    assert (_outcome(quadrature._truncate_ray, _Stub(c, p), RAY, g)
            == _outcome(truncate_ray_one_node, _Stub(c, p), RAY, g))


def test_the_end_of_the_ladder_and_the_growth_refusal():
    """The two refusals of a decaying direction, with their messages."""
    for q, message in ((0.0, "truncation search exhausted"),
                       (1.0, "integrand keeps growing along the ray")):
        with pytest.raises(DivergentTail, match=message):
            quadrature._truncate_ray(_Stub(0.0, 1.0), RAY, _power_probe(q))


def test_a_direction_outside_the_decay_sectors_is_refused():
    """arg u = pi/3 lies between two decay sectors of x^3/3."""
    spec, _ = CONTOURS["airy"]
    ray = OutRay(0j, cmath.exp(1j * math.pi / 3))
    g = _laplace_probe(0.5, 0)
    got = _outcome(quadrature._truncate_ray, spec, ray, g)
    assert got.startswith("DivergentTail: ray direction")
    assert got == _outcome(truncate_ray_one_node, spec, ray, g)


@pytest.mark.parametrize("rung", [1, 7, 8, 23, 24, 55, 56, 119, 120, 199])
def test_a_stop_on_each_rung_takes_one_weight_call_per_chunk(rung):
    """log W = -c |x| falls 46 units below its first value first at the
    given rung. The chunks hold rungs 0-7, 8-23, 24-55, 56-119 and
    120-199, and each takes one weight call."""
    T = [max(1.0, 24.0 ** (1 / 3))]
    for _ in range(199):
        T.append(T[-1] * 1.35)
    # the drop c (T_k - T_0) passes 46 between the rung before and this one
    c = 46.0 / (0.5 * (T[rung - 1] + T[rung]) - T[0])
    stub, ref = _Stub(c, 1.0), _Stub(c, 1.0)
    got = _outcome(quadrature._truncate_ray, stub, RAY, _power_probe(0.0))
    assert got == _outcome(truncate_ray_one_node, ref, RAY, _power_probe(0.0))
    assert got == T[rung].hex()
    assert ref.calls == rung + 1
    assert stub.calls == 1 + sum(rung >= k for k in (8, 24, 56, 120))


@pytest.mark.parametrize("drop", [59, 60, 61])
def test_the_growth_refusal_falls_on_the_61st_rise(drop):
    """|g| rises by e on every rung up to the one before drop and falls by
    e^100 there: 61 rises in a row (rungs 0-60) are refused, 60 are not."""
    T0, step = math.log(24.0 ** (1 / 3)), math.log(1.35)

    def g(x):
        k = np.rint((np.log(np.abs(x)) - T0) / step)
        return np.exp(np.where(k < drop, k, -100.0))

    got = _outcome(quadrature._truncate_ray, _Stub(0.0, 1.0), RAY, g)
    assert got == _outcome(truncate_ray_one_node, _Stub(0.0, 1.0), RAY, g)
    if drop == 61:
        assert got == "DivergentTail: integrand keeps growing along the ray"
    else:
        assert not got.startswith("DivergentTail")
