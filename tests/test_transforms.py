"""One-sided transforms from seeds and the Pearson recurrence, and the
generating function F(z, w) summed from them as the e^(xy) series."""
import cmath
import hashlib
import math

import numpy as np
import pytest

from bimoment import quadrature
from bimoment.polycore import CPoly
from bimoment.quadrature import default_tolerance, generating_eval, laplace, make_setup
from bimoment.semiclassical import validate_spec
from bimoment.weights import build_contours, build_weight, normalize_potential, trace_sdc

from oracles import gaussian_generating

ONE = [1]

# (A, B) ascending: the four bench families (quartic, cubic and quintic,
# the pole of quartic_pole, Gaussian), the a = 1.6 pole loop and an
# essential singularity at 0, W = e^(1/x - x^2/2)
PAIRS = {
    "quartic": ([0.1, -0.2, 0, 1], ONE),
    "cubic": ([0.1, 0.2, 1], ONE),
    "quintic": ([0.1, -0.1, 0.2, 0, 1], ONE),
    "pole_1.25": ([1.25, 0, 1], [0, 0.5]),
    "gaussian": ([0, 1.7], ONE),
    "pole_1.6": ([1.6, 0, 1], [0, 0.5]),
    "essential": ([1, -2, 0, 1], [0, 0, 1]),
}


def _small_pole_loop(contour) -> bool:
    """The radius-0.01 loop around the branch point of y^2 + a over y/2,
    whose integrated moments miss by more than their stated errors."""
    return contour.kind == "loop_1a" and "retracted" not in contour.meta


@pytest.mark.parametrize("name", PAIRS)
def test_pearson_data_reproduces_the_defining_pair(name):
    """(A, B) from the WeightSpec equals the defining pair divided by the
    leading coefficient of its B."""
    A, B = (CPoly(c) for c in PAIRS[name])
    got_A, got_B = quadrature._pearson(build_weight(A, B))
    lead = B.leading
    assert got_B.degree == B.degree and got_A.degree == A.degree
    assert np.allclose(got_B.coeffs, B.coeffs / lead, rtol=0, atol=1e-12)
    assert np.allclose(got_A.coeffs, A.coeffs / lead, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["quartic", "pole_1.25", "essential"])
def test_pearson_identity_holds_for_the_normalized_weight(name):
    """(B W)' = -A W for the Pearson data of a normalized spec, by a
    central difference of B W at points off the singularities."""
    spec, _ = normalize_potential(build_weight(*(CPoly(c) for c in PAIRS[name])))
    A, B = quadrature._pearson(spec)
    x = np.array([0.7 + 0.4j, -0.9 + 0.3j, 1.3 - 0.2j])
    h = 1e-5

    def bw(u):
        return B(u) * np.exp(spec.log_weight_principal(u))

    lhs = (bw(x + h) - bw(x - h)) / (2 * h)
    rhs = -A(x) * np.exp(spec.log_weight_principal(x))
    assert np.all(np.abs(lhs - rhs) <= 1e-8 * np.maximum(1.0, np.abs(rhs)))


@pytest.mark.parametrize("name", PAIRS)
def test_recursion_matches_integrated_transforms(name):
    """On every contour, at z = 0 and 0.3 - 0.2i, the recursion from the
    seeds meets the integrated transforms t_0..t_40 within the summed
    errors. The radius-0.01 pole loops are left out: their integrated
    seeds miss by more than their stated errors, which the series
    refuses (test_the_small_pole_loop_falls_back_to_the_full_run)."""
    w = build_weight(*(CPoly(c) for c in PAIRS[name]))
    rtol = default_tolerance()
    for c in build_contours(w):
        if _small_pole_loop(c):
            continue
        for z in (0.0, 0.3 - 0.2j):
            seeded = quadrature._SeededTransforms(c, w, z, 40, rtol)
            t, e = seeded.upto(40)
            full, ferr = quadrature._transform_run(c, w, z, [(0, 41)], rtol)
            assert np.all(np.abs(t - full) <= e + ferr), (c.kind, z)
            assert seeded.agrees()


@pytest.mark.parametrize("name", ["quartic", "quintic", "gaussian", "pole_1.25"])
def test_a_perturbed_seed_trips_the_check(monkeypatch, name):
    """Scaling one integrated seed by 1 + 1e-6 moves the recursion off its
    check block on every contour the check accepts unperturbed."""
    w = build_weight(*(CPoly(c) for c in PAIRS[name]))
    rtol = default_tolerance()
    z = 0.3 - 0.2j
    original = quadrature._transform_run
    for c in build_contours(w):
        if _small_pole_loop(c):
            continue
        clean = quadrature._SeededTransforms(c, w, z, 40, rtol)
        assert clean.agrees()
        for i in range(clean.p):
            def mutated(*args, i=i):
                vals, errs = original(*args)
                vals = vals.copy()
                vals[i] *= 1 + 1e-6
                return vals, errs

            monkeypatch.setattr(quadrature, "_transform_run", mutated)
            assert not quadrature._SeededTransforms(c, w, z, 40, rtol).agrees(), (c.kind, i)
            monkeypatch.setattr(quadrature, "_transform_run", original)


@pytest.mark.parametrize("delta", [1.05, 1.7, 2.2])
def test_roundoff_term_covers_the_steps_with_exact_seeds(monkeypatch, delta):
    """With exact seeds and no seed errors, e_j is the roundoff of the
    steps alone, and it covers the recursion's error up to j = 700 on the
    Gaussian at z = 0, where t_j = sqrt(2/delta) for even j and 0 for odd
    j."""
    w = build_weight(CPoly([0, delta]), CPoly(ONE))
    exact = np.sqrt(2 / delta)
    monkeypatch.setattr(quadrature, "_transform_run", lambda *args: (
        np.array([exact, 0, exact], dtype=complex), np.zeros(3)))
    t, e = quadrature._SeededTransforms(build_contours(w)[0], w, 0.0, 700,
                                        default_tolerance()).upto(700)
    want = np.where(np.arange(701) % 2, 0.0, exact)
    assert np.all(np.abs(t - want) <= e)


def _runs(monkeypatch):
    """Record the blocks of every _transform_run call."""
    blocks = []
    original = quadrature._transform_run

    def recorded(contour, spec, z, b, rtol):
        blocks.append(b)
        return original(contour, spec, z, b, rtol)

    monkeypatch.setattr(quadrature, "_transform_run", recorded)
    return blocks


@pytest.mark.parametrize("i", [0, 1, 2])
@pytest.mark.parametrize("w, checked", [(-0.2, False), (0.1j, True)])
def test_the_small_pole_loop_falls_back_to_the_full_run(monkeypatch, i, w, checked):
    """On the a = 1.25 pole loop's (i, 0) handles the series from seeds is
    refused, and F is the series over two full-component runs, bit for
    bit. At w = -0.2 the y recursion misses its check block; at w = 0.1i
    it meets it, and F's propagated error refuses the series."""
    h = make_setup(validate_spec(CPoly([0, 0, 0, 1]), CPoly(ONE), CPoly([1.25, 0, 1]),
                                 CPoly([0, 0.5]))).handle(i, 0)
    z = 0.3
    rtol = default_tolerance()
    K0 = quadrature._series_length(h, 0)
    assert quadrature._SeededTransforms(h.cy, h.wy, w, K0, rtol).agrees() == checked
    blocks = _runs(monkeypatch)
    got = generating_eval(h, z, w)
    assert len(blocks) == 4 and blocks[2] == blocks[3] and len(blocks[2]) == 1
    K = blocks[2][0][1] - 1
    want, _, _, _ = quadrature._generating_series(h, K, lambda K: [
        quadrature._transform_run(c, s, zeta, [(0, K + 1)], rtol)
        for c, s, zeta in ((h.cx, h.wx, z), (h.cy, h.wy, w))])
    assert complex(want) == got


@pytest.mark.parametrize("name", ["quartic", "quintic", "pole_1.25", "essential"])
def test_stated_errors_carry_each_seed_error(monkeypatch, name):
    """Moving one integrated seed by its stated error moves no t_j,
    j <= 40, by more than the recursion's stated error e_j: the errors
    follow the seeds through the recursion, also where it amplifies them
    (the essential loop)."""
    w = build_weight(*(CPoly(c) for c in PAIRS[name]))
    rtol = default_tolerance()
    z = 0.3 - 0.2j
    original = quadrature._transform_run
    for c in build_contours(w):
        if _small_pole_loop(c):
            continue
        t, e = quadrature._SeededTransforms(c, w, z, 40, rtol).upto(40)
        for i in range(len(PAIRS[name][0]) - 1):
            def moved(*args, i=i):
                vals, errs = original(*args)
                vals = vals.copy()
                vals[i] += errs[i]
                return vals, errs

            monkeypatch.setattr(quadrature, "_transform_run", moved)
            t2, _ = quadrature._SeededTransforms(c, w, z, 40, rtol).upto(40)
            monkeypatch.setattr(quadrature, "_transform_run", original)
            # up to the rounding of the moved seed itself
            assert np.all(np.abs(t2 - t) <= e + 4e-16 * np.abs(t)), (c.kind, i)


def test_bench_gaussian_takes_two_integrations_when_k_doubles(monkeypatch):
    """The first F of the transforms bench (seed 7) doubles K and still
    integrates once per contour."""
    delta, sigma = 1.809, 2.160
    z, w = -0.569 + 0.718j, -0.301 - 0.123j
    h = make_setup(validate_spec(CPoly([0, delta]), CPoly(ONE), CPoly([0, sigma]),
                                 CPoly(ONE))).handle(0, 0)
    K0 = quadrature._series_length(h, 0)
    lengths = []
    original = quadrature._generating_series

    def recorded(handle, K, transforms):
        out = original(handle, K, transforms)
        lengths.append(out[-1])
        return out

    monkeypatch.setattr(quadrature, "_generating_series", recorded)
    calls = []
    integrate = quadrature.integrate_contour

    def counted(*args, **kwargs):
        calls.append(args[3])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_contour", counted)
    generating_eval(h, z, w)
    assert lengths == [2 * K0]
    assert calls == [3, 3]


@pytest.mark.parametrize("ds", [1.09, 1.1])
def test_generating_near_the_series_reach_takes_the_seeded_series(monkeypatch, ds):
    """At delta = sigma = 1.09 the check block sits at j = 443, far out on
    the rays beyond the seed's mass: the run truncates its rays for every j
    up to the block, so the block matches the recursion, and F comes from
    two integrations within 1e-12 of the closed form (truncated on the
    seed and the block alone, the block was cut short and the full-run
    fallback raised where the product rule returns)."""
    z, w = 0.5 + 0.5j, -0.4 + 0.2j
    h = make_setup(validate_spec(CPoly([0, ds]), CPoly(ONE), CPoly([0, ds]),
                                 CPoly(ONE))).handle(0, 0)
    blocks = _runs(monkeypatch)
    got = generating_eval(h, z, w)
    want = gaussian_generating(ds, ds, z, w)
    assert abs(got - want) <= 1e-12 * abs(want)
    assert len(blocks) == 2


# the product rule's double integral is the oracle for F
ORACLE_SPECS = {
    "quartic": ([0.1, -0.2, 0, 1], ONE, [-0.15, 0.1, 0, 1], ONE),
    "cubic_quintic": ([0.1, 0.2, 1], ONE, [0.1, -0.1, 0.2, 0, 1], ONE),
    "gaussian": ([0, 1.7], ONE, [0, 1.9], ONE),
    "pole_loop": ([0, 0, 0, 1], ONE, [1.25, 0, 1], [0, 0.5]),
}
ORACLE_POINTS = [(0.3, -0.2), (0.2 + 0.3j, 0.1j), (-0.5 + 0.1j, 0.4 - 0.3j), (0, 0)]


@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_generating_matches_the_product_rule(name):
    """F from the series is within 1e-13 max(1, |F|) of the product rule's
    F on every handle (the pole loop's (i, 1) handles) at four points."""
    setup = make_setup(validate_spec(*(CPoly(c) for c in ORACLE_SPECS[name])))
    handles = [h for h in setup.handles if name != "pole_loop" or h.j == 1]
    for h in handles:
        for z, w in ORACLE_POINTS:
            got = generating_eval(h, z, w)
            _, _, (F, _, _) = quadrature._product_meshes(
                h, lambda x: np.exp(z * x)[:, None], lambda y: np.exp(w * y)[:, None], None)
            want = complex(F[0, 0])
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (h.i, h.j, z, w)


# --- the benchmark's contract -------------------------------------------------

def _counted_panels(monkeypatch):
    count = [0]
    original = quadrature._panel_eval

    def counted(*args):
        count[0] += 1
        return original(*args)

    monkeypatch.setattr(quadrature, "_panel_eval", counted)
    return count


def test_a_repeated_call_evaluates_its_panels_again(monkeypatch):
    """laplace and generating_eval keep nothing between calls: the same
    call made twice evaluates as many panels the second time, so no cache
    can answer one transform from another."""
    count = _counted_panels(monkeypatch)
    w = build_weight(CPoly([0, 0, 1]), CPoly(ONE))
    loop = build_contours(w)[1]
    h = make_setup(validate_spec(CPoly([0, 1.8]), CPoly(ONE), CPoly([0, 1.6]),
                                 CPoly(ONE))).handle(0, 0)
    for call in (lambda: laplace(loop, w, 0.4 - 0.3j), lambda: generating_eval(h, 0.3, -0.2)):
        seen = []
        for _ in range(2):
            before = count[0]
            call()
            seen.append(count[0] - before)
        assert seen[0] > 0 and seen[1] == seen[0]


def _hex(v: complex):
    return v.real.hex(), v.imag.hex()


def test_transforms_and_a_table_keep_their_bits(monkeypatch):
    """float.hex of results recorded before the engine's per-call overhead
    was cut (ray probes in chunks, preallocated panel results, segment
    nodes in one pass, scalar Horner in Python complex): the Airy loop at
    four points, one steepest-descent point, one Gaussian F(z, w) and the
    quartic table of order 4, entries and errors as SHA-256 of their
    little-endian bytes."""
    monkeypatch.delenv("BIMOMENT_TOL", raising=False)
    w2 = build_weight(CPoly([0, 0, 1]), CPoly(ONE))
    loop = build_contours(w2)[1]
    airy = {
        0j: ("0x1.0000000000000p-52", "0x1.1d87cf05457a1p+1"),
        1.2 - 0.7j: ("-0x1.1fca1b93ccd5dp-1", "0x1.db2fe836f4387p-2"),
        -1.1 + 0.4j: ("-0x1.501ce4e974ad1p-4", "0x1.d3b933020491fp+1"),
        0.5 + 1.3j: ("0x1.025b505d6d01cp+1", "0x1.1430335d006bcp-1"),
    }
    for z, want in airy.items():
        assert _hex(laplace(loop, w2, z, 0)) == want, z
    w3 = build_weight(CPoly([0, 0, 0, 1]), CPoly(ONE))
    z = 30.0 * cmath.exp(-1j * math.pi / 16)
    assert _hex(laplace(trace_sdc(w3, z, 0), w3, z, 0)) == (
        "0x1.b5a0c40419219p+95", "0x1.d5c56ec826df5p+95")
    h = make_setup(validate_spec(CPoly([0, 1.8]), CPoly(ONE), CPoly([0, 1.6]),
                                 CPoly(ONE))).handle(0, 0)
    assert _hex(generating_eval(h, 0.3 - 0.5j, -0.2 + 0.4j)) == (
        "0x1.159e89a5f0c68p+2", "-0x1.8478b6c1fc14ap-2")
    q = make_setup(validate_spec(CPoly([0, 0, 0, 1]), CPoly(ONE), CPoly([0, 0, 0, 1]),
                                 CPoly(ONE))).handle(0, 0)
    t = q.table(4)
    assert _hex(complex(t.entries[4, 4])) == ("0x1.0765e8c984e8bp+4", "0x1.a52b0035adf2ap-1")
    digest = [hashlib.sha256(a.astype(a.dtype.newbyteorder("<")).tobytes()).hexdigest()
              for a in (t.entries, t.err)]
    assert digest == ["fede4c3acecc479eee91a2d52e284b24a532e7284a27f71ca19939c398a34222",
                      "f37855a76e3c230674f63a064582e4fb8eebd61e6ba3b82c89823976a1f1d5a8"]
