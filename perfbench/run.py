"""bimoment benchmark: one closed-loop client calling the public API.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/`` of
the same tree. With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it wraps the package's layers (see layertrace.py), runs a
fixed, seed-determined set of operations, the quartic N=8 calibration and
the CLI commands, and reports the per-layer metrics. Informational lines
come first; the last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_TRIALS = 5          # in-process set-up plus four fresh interpreters
TAIL_BEYOND = 10          # samples required beyond the tail percentile
ROADMAP_QUARTIC8 = {"integrate_calls": 390, "panel_evals": 17600, "ray_truncations": 780}


def import_bimoment():
    """Import the package from this tree's src/ and nowhere else."""
    pkg = SRC / "bimoment"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: package not found at {pkg}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import bimoment
    import bimoment.cli  # noqa: F401  (loaded before any wrapper is installed)

    if Path(bimoment.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported bimoment from {bimoment.__file__}, not {pkg}")
    return bimoment


def timed_setup(workload, seed, seconds, trace=False):
    """Import the package and build the plan; returns (bm, plan, set-up
    seconds, tracer). Set-up time is the import plus the time spent in the
    package's set-up calls for every input of the run."""
    t0 = time.perf_counter()
    bm = import_bimoment()
    import_s = time.perf_counter() - t0
    import workloads

    tracer = None
    if trace:
        import layertrace

        tracer = layertrace.Tracer(bm)
        tracer.install()
    plan = workloads.build(bm, workload, seed, seconds)
    return bm, plan, import_s + plan.setup_s, tracer


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter, measured in a child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def machine_info(bm) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
            if k in os.environ}
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "bimoment": bm.__version__, "blas_env": blas}


def run_op(op, tracer):
    """Time one op; returns (seconds, completed, problems)."""
    t = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - t, False, [f"{type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t
    with tracer.paused() if tracer else contextlib.nullcontext():
        try:
            problems = op.check(out)
        except Exception as exc:  # a check that cannot run has not passed
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    return dt, True, problems


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_timed(plan, seconds, tracer):
    """Closed loop over the plan. Untraced, it stops at the first group end
    after ``seconds``; traced, it runs the plan's first ``traced_ops`` ops,
    so its counters depend on the seed alone."""
    lat, failures, completed = [], [], 0
    start = time.perf_counter()
    ops = plan.timed[: plan.traced_ops] if tracer else plan.timed
    for op in ops:
        if tracer is None and lat and ops[len(lat) - 1].group_end \
                and time.perf_counter() - start >= seconds:
            break
        dt, ok, problems = run_op(op, tracer)
        lat.append(dt)
        completed += ok
        if problems:
            failures.append((op.label, problems))
    return lat, failures, completed, tracer is None and len(lat) == len(ops)


# --- CLI coverage -------------------------------------------------------------

def cli_commands(bm, workdir: Path):
    """The five commands on fixed inputs: (name, argv, output file or None)."""
    import numpy as np

    import workloads

    def enc(coeffs):
        return [[float(c), 0.0] for c in coeffs]

    quartic = workdir / "quartic.json"
    quartic.write_text(json.dumps({"A1": enc([0, 0, 0, 1]), "B1": enc([1]),
                                   "A2": enc([0, 0, 0, 1]), "B2": enc([1])}))
    rec = workloads.random_recurrence(bm, np.random.default_rng(0), 6)
    rec_path = workdir / "rec.json"
    rec_path.write_text(json.dumps(bm.favard.recurrence_to_json_dict(rec)))
    return [
        ("validate", ["validate", str(quartic)], None),
        ("moments", ["moments", str(quartic), "--order", "8", "--out", "mu.csv"], "mu.csv"),
        ("certify", ["certify", str(quartic), "--order", "4"], None),
        ("contours", ["contours", str(quartic), "--marginal", "x", "--out", "c.json"], "c.json"),
        ("favard", ["favard", str(rec_path), "--order", "6", "--out", "f.csv"], "f.csv"),
    ]


def run_cli(bm):
    """Each command twice in-process; returns ({name: min seconds}, problems)."""
    times, problems = {}, []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        for name, argv, outfile in cli_commands(bm, workdir):
            outputs = []
            samples = []
            for _ in range(2):
                argv_run = [str(workdir / a) if a == outfile else a for a in argv]
                buf = io.StringIO()
                t = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    code = bm.cli.main(argv_run)
                samples.append(time.perf_counter() - t)
                data = buf.getvalue().encode()
                if outfile:
                    data += (workdir / outfile).read_bytes()
                    (workdir / outfile).unlink()
                outputs.append(data)
                if code != 0:
                    problems.append(f"cli {name} exited {code}")
            if outputs[0] != outputs[1]:
                problems.append(f"cli {name}: the two outputs differ")
            times[name] = min(samples)
    return times, problems


def quartic8_counts(bm, tracer):
    """Work counters of all 9 quartic (x^3, 1, y^3, 1) tables at N = 8."""
    before = tracer.snapshot()
    spec = bm.validate_spec(bm.CPoly([0, 0, 0, 1]), bm.CPoly([1]),
                            bm.CPoly([0, 0, 0, 1]), bm.CPoly([1]))
    for h in bm.make_setup(spec).handles:
        h.table(8)
    d = tracer.since(before)
    return {"integrate_calls": d["quadrature.integrate"].calls,
            "panel_evals": d["quadrature.panel"].calls,
            "ray_truncations": d["quadrature.truncate_ray"].calls}


def layer_metrics(setup, ops, err_over_tol_max, cli_times, quartic8, traced_p50):
    """The per-layer metrics, in the order BENCHMARK.json lists them."""
    def s(name):
        return ops[name]

    m = {
        "quadrature.integrate_calls": (s("quadrature.integrate").calls, "count"),
        "quadrature.panel_evals": (s("quadrature.panel").calls, "count"),
        "quadrature.integrand_values": (s("quadrature.panel").items, "count"),
        "quadrature.laplace_calls": (s("quadrature.laplace_many").calls, "count"),
        "quadrature.prepare_calls": (s("quadrature.prepare").calls, "count"),
        "quadrature.ray_truncations": (s("quadrature.truncate_ray").calls, "count"),
        "quadrature.prepare_self_s": (s("quadrature.prepare").self_s, "s"),
        "quadrature.integrate_self_s": (s("quadrature.integrate").self_s, "s"),
        "quadrature.panel_self_s": (s("quadrature.panel").self_s, "s"),
        "quadrature.err_over_tol_max": (err_over_tol_max, "ratio"),
        "quadrature.fallback_accepts": (ops["_fallback_accepts"], "count"),
        "weights.weight_evals": (s("weights.weight_tracked").items, "count"),
        "weights.weight_self_s": (s("weights.weight_tracked").self_s, "s"),
        "weights.log_principal_calls": (s("weights.log_weight_principal").calls, "count"),
        "weights.sdc_traces": (s("weights.trace_sdc").calls, "count"),
        "weights.sdc_s": (s("weights.trace_sdc").total_s, "s"),
        "weights.build_s": (setup["weights.build_weight"].total_s
                            + setup["weights.build_contours"].total_s, "s"),
        "semiclassical.validate_s": (setup["semiclassical.validate_spec"].total_s, "s"),
        "polycore.roots_calls": (setup["polycore.poly_roots"].calls, "count"),
        "polycore.roots_s": (setup["polycore.poly_roots"].total_s, "s"),
        "semiclassical.propagate_s": (s("semiclassical.propagate_moments").total_s, "s"),
        "semiclassical.residual_calls": (s("semiclassical.recurrence_residual").calls, "count"),
        "semiclassical.residual_s": (s("semiclassical.recurrence_residual").total_s, "s"),
        "tables.monic_bops_s": (s("tables.monic_bops").total_s, "s"),
        "tables.extract_s": (s("tables.extract_recurrence").total_s, "s"),
        "tables.delta_calls": (s("tables.delta_scaled").calls, "count"),
        "favard.reconstruct_s": (s("favard.favard_reconstruct").total_s, "s"),
        "favard.verify_s": (s("favard.favard_verify").total_s, "s"),
    }
    for name, sec in cli_times.items():
        m[f"cli.{name}_s"] = (sec, "s")
    for name, count in quartic8.items():
        m[f"quadrature.quartic8_{name}"] = (count, "count")
    m["bench.traced_op_p50_s"] = (traced_p50, "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("tables", "transforms", "algebra"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        _, _, setup_s, _ = timed_setup(args.workload, args.seed, args.seconds)
        print(repr(setup_s))
        return 0

    bm, plan, setup_s, tracer = timed_setup(args.workload, args.seed, args.seconds,
                                            bool(args.trace))
    setup_phase = tracer.snapshot() if tracer else None  # counters start at zero
    info = machine_info(bm)
    print(f"machine: {json.dumps(info, sort_keys=True)}")

    warm_problems = []
    for op in plan.warmup:
        _, _, problems = run_op(op, tracer)
        warm_problems += [f"warm-up {op.label}: {p}" for p in problems]

    if tracer:
        tracer.err_over_tol_max = 0.0
        before_ops = tracer.snapshot()
    lat, failures, completed, exhausted = run_timed(plan, args.seconds, tracer)
    ops_err_over_tol = tracer.err_over_tol_max if tracer else None
    attempted, failed = len(lat), len(failures)
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops, {failed} failed, "
          f"{sum(lat):.3f} s in ops")
    if exhausted:
        print("note: the input pool ran out before the time did")
    for label, problems in (failures + [("", [p]) for p in warm_problems])[:20]:
        print(f"FAILED {label}: {'; '.join(problems)}")
    kinds = {}
    for op, dt in zip(plan.timed, lat):
        kinds.setdefault(re.match(r"\w+", op.label).group(), []).append(dt)
    print("median op time by kind: " + ", ".join(
        f"{k} {statistics.median(v):.4f} s (n={len(v)})" for k, v in kinds.items()))
    p50 = statistics.median(lat)
    tail_v, tail_pct = tail(lat)
    print(f"op_p50_s over {attempted} samples; op_tail_s at p{tail_pct:.1f} "
          f"({attempted} samples, {min(TAIL_BEYOND, attempted - 1)} beyond)")
    correct = not failures and not warm_problems

    if tracer:
        ops_phase = tracer.since(before_ops)
        quartic8 = quartic8_counts(bm, tracer)
        match = quartic8 == ROADMAP_QUARTIC8
        print(f"quartic N=8 calibration: {quartic8}; "
              f"{'matches' if match else 'differs from'} the ROADMAP baseline {ROADMAP_QUARTIC8}")
        with tracer.paused():
            cli_times, cli_problems = run_cli(bm)
        for p in cli_problems:
            print(f"FAILED {p}")
        correct = correct and not cli_problems
        tracer.uninstall()
        metrics = layer_metrics(setup_phase, ops_phase, ops_err_over_tol, cli_times,
                                quartic8, p50)
    else:
        trials = [setup_s] + [setup_probe(args) for _ in range(SETUP_TRIALS - 1)]
        print("setup trials (s): " + " ".join(f"{t:.4f}" for t in trials))
        metrics = {
            "setup_s": (statistics.median(trials), "s"),
            "op_p50_s": (p50, "s"),
            "op_tail_s": (tail_v, "s"),
            "ops_per_s": (completed / sum(lat), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
