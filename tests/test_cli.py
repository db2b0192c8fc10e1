import json
import math
import time
import warnings

import pytest

from bimoment.cli import main


def write_spec(tmp_path, name, A1, B1, A2, B2):
    def enc(coeffs):
        return [[float(c.real), float(c.imag)] for c in map(complex, coeffs)]

    path = tmp_path / name
    path.write_text(json.dumps(
        {"A1": enc(A1), "B1": enc(B1), "A2": enc(A2), "B2": enc(B2)}))
    return str(path)


@pytest.fixture
def quartic_spec(tmp_path):
    return write_spec(tmp_path, "quartic.json",
                      [0, 0, 0, 1], [1], [0, 0, 0, 1], [1])


@pytest.fixture
def gaussian_spec(tmp_path):
    return write_spec(tmp_path, "gauss.json", [0, 2], [1], [0, 2], [1])


def test_validate_quartic(quartic_spec, capsys):
    assert main(["validate", quartic_spec]) == 0
    out = capsys.readouterr().out
    assert "case BB1" in out
    assert "s1=3 s2=3 M=9" in out


def test_validate_degenerate_exit_3(tmp_path, capsys):
    spec = write_spec(tmp_path, "deg.json", [0, 1], [1], [0, 1], [1])
    assert main(["validate", spec]) == 3
    assert "DegenerateQuadratic" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["moments", "certify"])
def test_reducible_spec_exit_3(tmp_path, capsys, command):
    """A1 = x^2 - x and B1 = x - 1 share the root 1: validate accepts the
    spec, and the commands that build contours refuse it."""
    spec = write_spec(tmp_path, "red.json", [0, -1, 1], [-1, 1], [0, 2], [1])
    assert main(["validate", spec]) == 0
    assert main([command, spec]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "validation failed: AssumptionBViolated: pair shares a factor: "
        "reduce_common_factor / delta_solutions apply"]


def test_validate_malformed_json_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


def test_validate_nan_coefficient_exit_2(tmp_path, capsys):
    """A NaN coefficient once passed with "assumptions: OK"."""
    spec = write_spec(tmp_path, "nan.json", [0, float("nan")], [1], [0, 2], [1])
    assert main(["validate", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: malformed spec file: A1 has a non-finite coefficient"]


def test_moments_gaussian(gaussian_spec, tmp_path, capsys):
    out = tmp_path / "moments.csv"
    rc = main(["moments", gaussian_spec, "--contour-x", "1", "--contour-y", "1",
               "--order", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# recurrence_residual =")
    assert float(lines[0].split("=")[1]) < 1e-6
    header = lines[1]
    assert header == "n,m,re,im,err"
    first = lines[2].split(",")
    assert (int(first[0]), int(first[1])) == (0, 0)
    assert abs(float(first[2]) - 3.6275987284684357) < 1e-7


def test_moments_gaussian_near_the_coupling_edge(tmp_path, capsys):
    """delta = sigma = 1.1 (mu00 = 2 pi / sqrt(0.21)) once wrote two raw
    numpy overflow warnings and exited 5."""
    spec = write_spec(tmp_path, "g.json", [0, 1.1], [1], [0, 1.1], [1])
    out = tmp_path / "m.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["moments", spec, "--order", "4", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    first = out.read_text().splitlines()[2].split(",")
    want = 2 * math.pi / math.sqrt(0.21)
    assert abs(float(first[2]) - want) <= 1e-12 * want


@pytest.mark.parametrize("ds", [1.02, 1.05])
def test_moments_gaussian_past_the_series_reach_exit_5(tmp_path, capsys, ds):
    """Refused within a second, before any quadrature, with one stderr line
    and no numpy warning."""
    spec = write_spec(tmp_path, "g.json", [0, ds], [1], [0, ds], [1])
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["moments", spec, "--order", "4"])
    assert time.perf_counter() - start < 1.0
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "quadrature failure: QuadratureStall: e^(xy) series of the order-4 table "
        "needs more than 700 terms"]


def test_moments_weight_past_the_double_range_exit_5(tmp_path, capsys):
    """A1 = 0.3 + 0.5x - 0.4x^2 + x^3, B1 = 1 + 0.2x: |W| near the origin
    passes the double range, and the refusal names the weight."""
    spec = write_spec(tmp_path, "w.json", [0.3, 0.5, -0.4, 1], [1, 0.2], [0, 0, 0, 1], [1])
    assert main(["moments", spec, "--order", "8"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "quadrature failure: QuadratureStall: non-finite weight sample"]


@pytest.mark.parametrize("argv, order", [
    (["moments", "--order", "6"], 6),
    (["certify", "--order", "4"], 4),
], ids=["moments", "certify"])
def test_moments_past_the_double_range_of_the_series_exit_5(tmp_path, capsys, argv, order):
    """A1 = -0.1715 + 0.0108x, B1 = 1.192 (default_rng(1), spec 126 of a
    random-spec sweep): a weight so wide that the scaled one-sided moments
    a[n+k]/sqrt(k!) of the series pass the double range. Refused with one
    stderr line, where the overflow once ended in raw warnings and an
    uncaught ValueError."""
    spec = write_spec(tmp_path, "wide.json", [-0.1715, 0.0108], [1.192],
                      [-0.800, 1.890, 0.742, -0.329], [-0.113, 0.160])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([argv[0], spec, *argv[1:]])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"quadrature failure: QuadratureStall: moments a[n+k]/sqrt(k!) of the "
        f"order-{order} table with 385 series terms leave the double range"]


def test_moments_whose_table_sums_pass_the_double_range_exit_5(tmp_path, capsys):
    """A_i = 3e-4 x^3, B_i = 1: the one-sided moments stay finite, their
    series sums do not. Refused with one stderr line, where the overflow
    once ended in raw warnings and an uncaught ValueError."""
    spec = write_spec(tmp_path, "wide.json", [0, 0, 0, 3e-4], [1], [0, 0, 0, 3e-4], [1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["moments", spec, "--order", "4"])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "quadrature failure: QuadratureStall: the order-4 table or its error leaves "
        "the double range"]


@pytest.mark.parametrize("argv", [["moments", "--order", "6"], ["certify", "--order", "4"]],
                         ids=["moments", "certify"])
def test_a_weight_that_underflows_everywhere_exit_5(tmp_path, capsys, argv):
    """A1 = -2.02 + 1.87x + 0.87x^2 + 0.66x^3, B1 = -1.62 - 0.025x^2: W
    underflows to 0 at every node, where the table once came out all zero,
    errors and residual included, with exit 0 (and certify crashed on a
    division by zero)."""
    spec = write_spec(tmp_path, "tiny.json", [-2.02, 1.87, 0.87, 0.66], [-1.62, 0, -0.025],
                      [0, 0, 0, 1], [1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([argv[0], spec, *argv[1:]])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "quadrature failure: QuadratureStall: every weight sample is 0"]


# Specs from a seeded random-spec sweep on which the panel bisection once
# asked to split more panels than it had, and raised a broadcast ValueError
# (numpy default_rng(0), spec 124, and default_rng(1), spec 67): removing
# every panel's error left a target unmet.
UNMET_TARGETS = {
    "rng0-124": ([0.4189440674086477, 0.5914798181657097, -0.21275144394597612,
                  -2.309464326331448, -1.188045937272743],
                 [-2.37669350358787, 1.4900956247882555],
                 [-0.2997819302312724, 0.0, -1.1977493393883782], [0.13603239438315368]),
    "rng1-67": ([-0.3836996423895763, 0.0, 0.25417684586906436, -0.6339845117683953,
                 -0.1358189783450904], [-0.03948580667080763],
                [0.0, -0.9681957119118773], [-1.4119273436107618]),
}


@pytest.mark.parametrize("name, argv, code", [
    ("rng0-124", ["moments", "--order", "6"], 0),
    ("rng0-124", ["certify", "--order", "3", "--skip-asymptotics"], 0),
    ("rng1-67", ["certify", "--order", "3", "--skip-asymptotics"], 5),
], ids=["rng0-124-moments", "rng0-124-certify", "rng1-67-certify"])
def test_splitting_every_panel_ends_in_an_exit_code(tmp_path, capsys, name, argv, code):
    """Every panel is split, and the engine's own rules decide: convergence,
    or the stall rule's QuadratureStall (exit 5)."""
    spec = write_spec(tmp_path, "spec.json", *UNMET_TARGETS[name])
    assert main([argv[0], spec, *argv[1:]]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("quadrature failure: QuadratureStall: tolerance unreachable")


def test_moments_order_zero_single_entry(gaussian_spec, tmp_path):
    out = tmp_path / "m0.csv"
    assert main(["moments", gaussian_spec, "--order", "0", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith(("#", "n,"))]
    assert len(rows) == 1


def test_moments_divergent_exit_4(tmp_path):
    spec = write_spec(tmp_path, "div.json", [0, 1.2], [1], [0, 0.5], [1])
    assert main(["moments", spec, "--order", "2", "--out", "-"]) == 4


def test_moments_contour_x_zero_exit_2(quartic_spec, tmp_path, capsys):
    """--contour-x 0 used to wrap round to another functional's table."""
    out = tmp_path / "m.csv"
    assert main(["moments", quartic_spec, "--contour-x", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--contour-x 0" in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_moments_contour_x_too_large_exit_2(quartic_spec, capsys):
    assert main(["moments", quartic_spec, "--contour-x", "4", "--out", "-"]) == 2
    assert "outside 1..3 x 1..3" in capsys.readouterr().err


def test_moments_contour_y_out_of_range_exit_2(quartic_spec, capsys):
    assert main(["moments", quartic_spec, "--contour-y", "4", "--out", "-"]) == 2
    assert main(["moments", quartic_spec, "--contour-y", "0", "--out", "-"]) == 2
    assert capsys.readouterr().out == ""


def test_moments_negative_order_exit_2(gaussian_spec, capsys):
    assert main(["moments", gaussian_spec, "--order", "-1", "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --order must be >= 0, got -1"]


@pytest.mark.parametrize("value", ["abc", "0", "nan"])
def test_bad_tolerance_env_exit_2(gaussian_spec, monkeypatch, capsys, value):
    """BIMOMENT_TOL=nan once ran to exit 0 with a wrong table."""
    monkeypatch.setenv("BIMOMENT_TOL", value)
    assert main(["moments", gaussian_spec, "--order", "2", "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: BIMOMENT_TOL must be a positive finite number, got {value!r}"]


def test_moments_deterministic(gaussian_spec, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["moments", gaussian_spec, "--order", "3", "--out", str(a)])
    main(["moments", gaussian_spec, "--order", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_certify_gaussian(gaussian_spec, capsys):
    rc = main(["certify", gaussian_spec, "--order", "2", "--skip-asymptotics"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rank 1/1" in out
    assert "PASS" in out


def test_certify_gaussian_asymptotics_skip_warns_nothing(gaussian_spec, capsys):
    """The d = 1 asymptotic check overflows e^(xz) far out on the ray; it
    ends in one stdout line and numpy issues no warning for stderr."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["certify", gaussian_spec, "--order", "2"]) == 0
    assert [str(w.message) for w in seen] == []
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-2:] == [
        "asymptotics skipped: QuadratureStall: non-finite integrand sample",
        "certificate: PASS"]


def test_certify_quartic(quartic_spec, capsys):
    rc = main(["certify", quartic_spec, "--order", "3", "--skip-asymptotics"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rank 9/9" in out


def test_certify_integrates_each_contour_once(quartic_spec, monkeypatch, capsys):
    """The 9 quartic tables read the one-sided moments of 3 + 3 contours:
    6 integrations for all tables, whatever the asymptotics take."""
    import sys

    from bimoment import quadrature

    original = quadrature.integrate_contour
    callers = []

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_contour", counted)
    assert main(["certify", quartic_spec, "--order", "4"]) == 0
    assert "rank 9/9" in capsys.readouterr().out
    assert callers.count("_hankel_block") == 6


def test_certify_duplicate_forces_failure(quartic_spec, capsys):
    rc = main(["certify", quartic_spec, "--order", "3", "--skip-asymptotics",
               "--repeat-functional", "0"])
    assert rc != 0
    assert "rank 9/10" in capsys.readouterr().out


def test_certify_builds_each_table_once(quartic_spec, monkeypatch, capsys):
    """The repeated functional reuses its table: 9 builds for 10 rows."""
    from bimoment import quadrature

    build = quadrature.bimoment_table
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(quadrature, "bimoment_table", counted)
    rc = main(["certify", quartic_spec, "--order", "4", "--repeat-functional", "0"])
    assert rc == 5
    assert "rank 9/10" in capsys.readouterr().out
    assert len(calls) == 9


def test_certify_repeat_functional_out_of_range_exit_2(gaussian_spec, capsys):
    rc = main(["certify", gaussian_spec, "--order", "2", "--skip-asymptotics",
               "--repeat-functional", "5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --repeat-functional 5 outside 0..0"]


@pytest.mark.parametrize("order, message", [
    (-1, "error: --order must be >= 0, got -1"),
    (0, "error: --order 0: (N+1)^2 = 1 is less than the 9 functionals"),
    (1, "error: --order 1: (N+1)^2 = 4 is less than the 9 functionals"),
])
def test_certify_order_too_small_exit_2(quartic_spec, capsys, order, message):
    """--order 0 and -1 once ended in a ValueError traceback."""
    assert main(["certify", quartic_spec, "--order", str(order), "--skip-asymptotics"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


def test_certify_order_zero_counts_the_repeated_functional(gaussian_spec, capsys):
    assert main(["certify", gaussian_spec, "--order", "0", "--skip-asymptotics"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "rank 1/1"
    rc = main(["certify", gaussian_spec, "--order", "0", "--skip-asymptotics",
               "--repeat-functional", "0"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --order 0: (N+1)^2 = 1 is less than the 2 functionals"]


@pytest.mark.parametrize("entry", [[1], [1, 0, 7], 1], ids=["short", "long", "scalar"])
@pytest.mark.parametrize("command", ["validate", "moments", "certify", "contours"])
def test_spec_entry_not_a_pair_exit_2(tmp_path, capsys, command, entry):
    """[1] once ended in an IndexError traceback; [1, 0, 7] was accepted
    with its third number dropped."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"A1": [[0, 0], [0, 0], [0, 0], [1, 0]], "B1": [entry],
                                "A2": [[0, 0], [0, 0], [0, 0], [1, 0]], "B2": [[1, 0]]}))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: malformed spec file: entry {entry!r} is not a pair [re, im]"]


@pytest.mark.parametrize("cut", [
    lambda rec: rec["a"][2].__setitem__(1, [1.0, 0.0, 5.0]),
    lambda rec: rec.__setitem__("pi0", [1.0]),
], ids=["a2-three-numbers", "pi0-one-number"])
def test_favard_entry_not_a_pair_exit_2(tmp_path, capsys, cut):
    rec = _order8_recurrence()
    cut(rec)
    path = tmp_path / "rec8.json"
    path.write_text(json.dumps(rec))
    assert main(["favard", str(path), "--order", "8", "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed recurrence file: entry [")


def test_contours_dump_and_reload(quartic_spec, tmp_path):
    out = tmp_path / "contours.json"
    assert main(["contours", quartic_spec, "--marginal", "x",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data) == 3
    assert all(c["kind"] == "infinity_loop_3" for c in data)
    assert all(len(c["points"]) > 10 for c in data)


def test_contours_power_weight_counts(tmp_path):
    spec = write_spec(tmp_path, "pow.json", [-2.3, 0, 0, 0, 1], [0, 1], [0, 2], [1])
    out = tmp_path / "cp.json"
    assert main(["contours", spec, "--marginal", "x", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data) == 4
    kinds = sorted(c["kind"] for c in data)
    assert kinds.count("infinity_loop_3") == 3
    assert kinds.count("loop_1a") == 1


def test_favard_identity(tmp_path, capsys):
    N = 4
    rec = {
        "gamma": [[1.0, 0.0]] * N,
        "gamma_t": [[1.0, 0.0]] * N,
        "a": [[[0.0, 0.0]] * (n + 1) for n in range(N)],
        "b": [[[0.0, 0.0]] * (n + 1) for n in range(N)],
        "pi0": [1.0, 0.0],
        "sigma0": [1.0, 0.0],
    }
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(rec))
    out = tmp_path / "table.csv"
    assert main(["favard", str(path), "--order", str(N), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert float(lines[0].split("=")[1]) < 1e-12
    rows = {}
    for line in lines[2:]:
        n, m, re, im = line.split(",")
        rows[(int(n), int(m))] = float(re)
    assert rows[(2, 2)] == 1.0
    assert rows[(2, 1)] == 0.0


def test_favard_zero_gamma_exit_3(tmp_path, capsys):
    rec = {
        "gamma": [[0.0, 0.0], [1.0, 0.0]],
        "gamma_t": [[1.0, 0.0]] * 2,
        "a": [[[0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "b": [[[0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "pi0": [1.0, 0.0],
        "sigma0": [1.0, 0.0],
    }
    path = tmp_path / "rec0.json"
    path.write_text(json.dumps(rec))
    assert main(["favard", str(path), "--order", "2", "--out", "-"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "validation failed: ZeroGamma: gamma[0] vanishes; reconstruction hypothesis violated"]


def test_favard_order_above_stored_exit_2(tmp_path, capsys):
    rec = {
        "gamma": [[1.0, 0.0]],
        "gamma_t": [[1.0, 0.0]],
        "a": [[[0.0, 0.0]]],
        "b": [[[0.0, 0.0]]],
        "pi0": [1.0, 0.0],
        "sigma0": [1.0, 0.0],
    }
    path = tmp_path / "rec1.json"
    path.write_text(json.dumps(rec))
    assert main(["favard", str(path), "--order", "3", "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: --order 3 outside 0..1, the order of the recurrence data"]


def _order8_recurrence():
    N = 8
    return {
        "gamma": [[1.0, 0.0]] * N,
        "gamma_t": [[1.0, 0.0]] * N,
        "a": [[[0.1, 0.0]] * (n + 1) for n in range(N)],
        "b": [[[0.0, 0.2]] * (n + 1) for n in range(N)],
        "pi0": [1.0, 0.0],
        "sigma0": [1.0, 0.0],
    }


@pytest.mark.parametrize("cut, message", [
    (lambda rec: rec["a"].__setitem__(3, [[0.5, 0.0]]), "a[3] has 1 entries, not 4"),
    (lambda rec: rec["b"][5].pop(), "b[5] has 5 entries, not 6"),
    (lambda rec: rec["a"].pop(), "a has 7 entries, gamma has 8"),
], ids=["a3-one-entry", "b5-one-short", "a-one-row-short"])
def test_favard_misshapen_recurrence_exit_2(tmp_path, capsys, cut, message):
    rec = _order8_recurrence()
    cut(rec)
    path = tmp_path / "rec8.json"
    path.write_text(json.dumps(rec))
    assert main(["favard", str(path), "--order", "8", "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: malformed recurrence file: {message}"]


def test_contours_rays_lie_in_declared_sectors(quartic_spec, tmp_path):
    """Replay the dumped polylines: every unbounded end heads into a decay
    sector of the weight."""
    import cmath

    from bimoment.polycore import CPoly
    from bimoment.weights import build_weight, sectors_at

    out = tmp_path / "c.json"
    main(["contours", quartic_spec, "--marginal", "x", "--out", str(out)])
    data = json.loads(out.read_text())
    w = build_weight(CPoly([0, 0, 0, 1]), CPoly.one())
    sectors = sectors_at(w, None)
    for c in data:
        pts = [complex(p[0], p[1]) for p in c["points"]]
        for end in (pts[0], pts[-1]):
            ang = cmath.phase(end)
            assert any(s.contains(ang) for s in sectors)
