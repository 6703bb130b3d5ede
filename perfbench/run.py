"""zetakit benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload continue --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ``src/``.  The
seed generates every input (see workloads.py); each op's result is checked
against the stored references in refs.json (see make_refs.py), and the
check runs outside the timed region.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  Earlier lines state the environment, the tail percentile
and its sample count, the raw (uncalibrated) timings and the defect probe.

Timings are reported at a reference host speed: the run times a fixed
kernel between ops and scales by it (see calib.py).
"""

import os

# one BLAS/OpenMP thread: set before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import itertools
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import calib  # noqa: E402  (after the thread pins)
import workloads  # noqa: E402

SETUP_PROBES = 11
# fixed tail percentile per workload: at the seed commit each run has at
# least ten samples beyond it (see README.md).  cli-tables takes p98, inside
# the exact_sum_rule n = 16 ops (4.5 % of its ops), where p99 would read the
# slowest of them and so the host's noise.
TAIL_PERCENTILE = {"continue": 90.0, "sample-fit": 90.0, "cli-tables": 98.0}
DIGITS_CAP = 15.0
DIGITS_FLOOR = 1e-2     # digits count relative error, with |ref| < 0.01 read as 0.01

# Tolerances, as stated by the test suite for the same quantity.
TOL_CONTINUED = {"riemann": 1e-10, "hurwitz": 1e-10,   # test_riemann_left_values (real s)
                 "airy": 1e-7,                           # test_airy_special_points
                 "pcf": 1e-6, "chf": 1e-6}               # criterion 7 agreement
TOL_CONTINUED_COMPLEX = 1e-7                             # test_r_independence; no test
                                                         # states a tighter one off the axis
TOL_CONTOUR = 1e-6                                       # TestContourZeta
TOL_VALUE_REL, TOL_VALUE_ABS = 1e-10, 1e-12              # criteria 2-6
TOL_SHIFT_REL, TOL_SHIFT_ABS = 1e-9, 1e-12               # TestShift
TOL_SUM_RULE = 1e-9                                      # criterion 9
TOL_VALUES_CHECK = 1e-9                                  # criterion 9, times max(1, |zeta|)
TOL_POLES_CHECK = 1e-3                                   # TestPoles.test_check_flag
# The AAA tests fit 100 points; sample-fit ops fit 32-60, so where the suite
# states two tolerances for a quantity the looser one applies.
TOL_AAA_VALUE = 1e-4                                     # test_against_continued_...
TOL_AAA_MINUS_HALF = 1.5e-3                              # criterion 8 window
TOL_AAA_DERIV = 5e-4                                     # test_zeta_prime_zero_four_digits
TOL_AAA_ZERO, TOL_AAA_POLE = 0.05, 0.11                  # feature windows, test_aaa


class Mismatch(Exception):
    """A result outside its tolerance against the reference."""


def cx(pair):
    return None if pair is None else complex(pair[0], pair[1])


class Checker:
    """Compares one op's outputs with references; tracks the worst digits."""

    def __init__(self):
        self.digits = DIGITS_CAP

    def value(self, what, got, ref, abs_tol=0.0, rel_tol=0.0):
        got, ref = complex(got), complex(ref)
        err = abs(got - ref)
        if not err <= max(abs_tol, rel_tol * abs(ref)):
            raise Mismatch(f"{what}: got {got}, want {ref}, err {err:.3e}")
        rel = err / max(abs(ref), DIGITS_FLOOR)
        self.digits = min(self.digits, DIGITS_CAP if rel == 0 else -math.log10(rel))

    def require(self, what, cond):
        if not cond:
            raise Mismatch(what)


def _model(models, mods, spec):
    key = workloads.spec_key(spec)
    if key not in models:
        models[key] = mods.catalog.model_from_spec(spec)
    return models[key]


def call(op, mods, models):
    """Run one op through the library; returns its raw result."""
    if op.kind in ("continued", "contour"):
        model = _model(models, mods, op.spec)
        fn = mods.evaluate.continued_zeta if op.kind == "continued" else mods.evaluate.contour_zeta
        kw = {"R": op.args["R"]} if "R" in op.args else {}
        return fn(model, complex(*op.args["s"]), **kw)
    if op.kind == "sample_fit":
        np = mods.np
        model = _model(models, mods, op.spec)
        pts = np.linspace(2.0, 8.0, op.args["npoints"])
        samples = np.array([mods.evaluate.zeta_series(model.zeros, s, op.args["n_terms"])
                            for s in pts])
        fit = mods.aaa.aaa_fit(pts, samples, rel_tol=1e-13)
        zeros, poles = mods.aaa.find_real_features(fit, (-3.0, 0.0))
        return {"zeros": [float(z) for z in zeros], "poles": [float(p) for p in poles],
                "zeta1": mods.aaa.bary_eval(fit, 1.0), "zeta0": mods.aaa.bary_eval(fit, 0.0),
                "zeta_minus_half": mods.aaa.bary_eval(fit, -0.5),
                "zeta_prime0": mods.aaa.derivative_at(fit, 0.0)}
    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mods.cli.main(list(op.args["argv"]))
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if op.kind == "sum_rule":
        model = _model(models, mods, op.spec)
        zv = {int(j): cx(v) for j, v in op.args["zeta_values"].items()}
        return mods.series.exact_sum_rule(model.series, op.args["n"], zv)
    raise ValueError(op.kind)


def verify(op, result):
    """Raise Mismatch if the result is wrong; returns the op's digits."""
    ck = Checker()
    if op.kind in ("continued", "contour"):
        tol = TOL_CONTINUED[op.spec["model"]] if op.kind == "continued" else TOL_CONTOUR
        if op.args["s"][1] != 0.0:
            tol = max(tol, TOL_CONTINUED_COMPLEX)
        ck.value(op.label, result, cx(op.ref), abs_tol=tol)
    elif op.kind == "sum_rule":
        ck.value(op.label, result, cx(op.ref), rel_tol=TOL_SUM_RULE)
    elif op.kind == "sample_fit":
        _verify_sample_fit(ck, op, result)
    else:
        _verify_cli(ck, op, result)
    return ck.digits


def _verify_sample_fit(ck, op, got):
    ref = op.ref
    if ref["zeta1"] is not None:
        ck.value("zeta(1)", got["zeta1"], cx(ref["zeta1"]), abs_tol=TOL_AAA_VALUE)
    ck.value("zeta(0)", got["zeta0"], cx(ref["zeta0"]), abs_tol=TOL_AAA_VALUE)
    ck.value("zeta(-1/2)", got["zeta_minus_half"], cx(ref["zeta_minus_half"]),
             abs_tol=TOL_AAA_MINUS_HALF)
    ck.value("zeta'(0)", got["zeta_prime0"], cx(ref["zeta_prime0"]), abs_tol=TOL_AAA_DERIV)
    for kind, tol in (("zeros", TOL_AAA_ZERO), ("poles", TOL_AAA_POLE)):
        for x in ref[kind]:
            near = [y for y in got[kind] if abs(y - x) <= tol]
            ck.require(f"one real {kind[:-1]} within {tol} of {x:.4f}: got {got[kind]}",
                       len(near) == 1)


def _rv(ck, what, got, ref, rel=TOL_VALUE_REL, abs_=TOL_VALUE_ABS):
    ck.value(what, complex(got["re"], got["im"]), cx(ref), abs_tol=abs_, rel_tol=rel)


def _verify_cli(ck, op, res):
    argv = op.args["argv"]
    doc = json.loads(res["stdout"])
    cmd = argv[0]
    ref = op.ref
    if cmd == "catalog":
        ck.require("catalog lists the five models",
                   [e["model"] for e in doc["models"]] == list(workloads.MODELS))
        for e in doc["models"]:
            ck.require(f"catalog spec {e['spec']} is well-formed",
                       e["spec"]["model"] == e["model"])
        return
    if cmd == "values":
        rng = next(a for a in argv if a.startswith("--n="))[4:]
        lo, hi = (int(x) for x in rng.split(".."))
        ck.require("one row per n", [e["n"] for e in doc["results"]] == list(range(lo, hi + 1)))
        for e in doc["results"]:
            want = ref["values"][str(e["n"])]
            if want is None:
                ck.require(f"pole row at n={e['n']}", e["method"] == "pole" and e["order"] == 1)
                _rv(ck, f"residue at {e['n']}", e["residue"], [1.0, 0.0])
                continue
            _rv(ck, f"zeta({e['n']})", e["value"], want)
            if "--check" in argv:
                scale = max(1.0, abs(complex(*want)))
                ck.require(f"check discrepancy at {e['n']}: {e.get('check_discrepancy')}",
                           e.get("check_discrepancy", math.inf) <= TOL_VALUES_CHECK * scale)
        return
    if cmd == "poles":
        want = {round(loc, 9): res_ for loc, res_ in ref["poles"]}
        ck.require("pole locations",
                   sorted(round(p["location"], 9) for p in doc["poles"]) == sorted(want))
        for p in doc["poles"]:
            _rv(ck, f"residue at {p['location']}", p["residue"], want[round(p["location"], 9)])
            ck.require(f"check discrepancy {p['check_discrepancy']:.2e}",
                       p["check_discrepancy"] < TOL_POLES_CHECK)
        _rv(ck, "zeta(0)", doc["zeta0"], ref["zeta0"])
        _rv(ck, "zeta'(0)", doc["zeta_prime0"], ref["zeta_prime0"])
        return
    if cmd == "shift":
        want = {round(loc, 9): res_ for loc, res_ in ref["poles"]}
        got = {round(p["location"], 9): p["residue"] for p in doc["poles"]
               if p["location"] >= min(want) - 1e-9}
        ck.require(f"shifted pole locations {sorted(got)}", sorted(got) == sorted(want))
        for loc, r in got.items():
            _rv(ck, f"shifted residue at {loc}", r, want[loc], TOL_SHIFT_REL, TOL_SHIFT_ABS)
        _rv(ck, "shifted zeta(0)", doc["zeta0"], ref["zeta0"], TOL_SHIFT_REL, TOL_SHIFT_ABS)
        _rv(ck, "shifted zeta'(0)", doc["zeta_prime0"], ref["zeta_prime0"])
        for n, v in ref["values"].items():
            _rv(ck, f"shifted zeta({n})", doc["values"][n], v, TOL_SHIFT_REL, TOL_SHIFT_ABS)
        return
    raise Mismatch(f"unknown command {cmd}")


class Loop:
    """Closed loop over whole decks; records (op, result, error, seconds).

    With a ``calib.Calibration`` the loop times the calibration kernel
    after an op whenever ``calib.EVERY_S`` of op time has passed since the
    last sample; ``run`` leaves the kernel's time out of its totals.
    """

    def __init__(self, mods, models, tracer=None, calibration=None):
        self.mods, self.models, self.tracer = mods, models, tracer
        self.calibration = calibration
        self.records = []

    def run_deck(self, deck):
        zk_error = self.mods.zetakit.ZetakitError
        clock = time.perf_counter
        tracer = self.tracer
        fn = call if tracer is None else tracer.wrap(tracer.OP, call)
        cal = self.calibration
        since = 0.0
        for op in deck:
            if tracer is not None:
                tracer.op_id = len(self.records)
            t0 = clock()
            result, error = None, None
            try:
                result = fn(op, self.mods, self.models)
            except zk_error as exc:
                error = exc
            dt = clock() - t0
            self.records.append((op, result, error, dt))
            since += dt
            if cal is not None and since >= calib.EVERY_S:
                cal.sample()
                since = 0.0

    def run(self, decks, seconds=None, count=None):
        """Run decks until ``seconds`` have passed (or ``count`` decks).

        The op list starts over if a run outlasts it.
        """
        t0, c0 = time.perf_counter(), time.process_time()
        cal = self.calibration
        k0 = len(cal.wall) if cal is not None else 0
        done = 0
        for deck in itertools.cycle(decks):
            self.run_deck(deck)
            done += 1
            if count is not None and done >= count:
                break
            if seconds is not None and time.perf_counter() - t0 >= seconds:
                break
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if cal is not None:
            wall -= sum(cal.wall[k0:])
            cpu -= sum(cal.cpu[k0:])
        return wall, cpu, done


def check_records(records):
    """(failed [(op, reason)], wrong [(op, reason)], min digits over successful ops)."""
    failed, wrong, digits = [], [], []
    for op, result, error, _ in records:
        if error is not None:
            failed.append((op, type(error).__name__))
            continue
        if op.kind == "cli" and result["rc"] != 0:
            # the CLI reports a ZetakitError as exit code 1 with a message
            failed.append((op, f"exit code {result['rc']}"))
            continue
        try:
            digits.append(verify(op, result))
        except Mismatch as exc:
            failed.append((op, "wrong result"))
            wrong.append((op, str(exc)))
        except (KeyError, TypeError, ValueError) as exc:
            failed.append((op, "malformed output"))
            wrong.append((op, repr(exc)))
    return failed, wrong, (min(digits) if digits else 0.0)


def measure_setup(plan_path):
    """Median set-up time over fresh interpreters (import, build, fill)."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), plan_path],
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def probe_defects(seed, mods, models):
    """Run the known-defect ops once, untimed; lines saying how each ends."""
    lines, still = [], 0
    for op in workloads.defect_ops(seed):
        try:
            result = call(op, mods, models)
        except mods.zetakit.ZetakitError as exc:
            still += 1
            lines.append(f"defect: {op.label}: {type(exc).__name__}")
            continue
        try:
            verify(op, result)
            lines.append(f"defect: {op.label}: succeeds and matches the reference")
        except Mismatch as exc:
            still += 1
            lines.append(f"defect: {op.label}: wrong result: {exc}")
    return [f"known defects: {still} of {len(lines)} probe ops still fail"] + lines


def tail_percentile(workload, n):
    p = TAIL_PERCENTILE[workload]
    for q in (p, 98.0, 95.0, 90.0, 75.0, 50.0):
        if q <= p and n * (1.0 - q / 100.0) >= 10:
            return q
    return 50.0


def percentile(values, q):
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment(mods):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": mods.np.__version__, "zetakit": mods.zetakit.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "zetakit", "__init__.py")):
        print(f"error: no zetakit sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)

    decks = workloads.make_decks(args.workload, args.seed)
    plan = workloads.setup_plan(args.workload, decks)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    plan_path = os.path.join(OUT_DIR, f"plan-{tag}.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)

    mods, models = workloads.prepare(plan)
    if not os.path.abspath(mods.zetakit.__file__).startswith(SRC + os.sep):
        print(f"error: zetakit imported from {mods.zetakit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(mods)
    print("env: " + json.dumps(env))

    warm = Loop(mods, models, calibration=calib.Calibration())
    warm.run(decks[:1], count=1)
    if args.trace:
        metrics, loops = run_traced(args, mods, models, decks[1:], tag)
    else:
        metrics, loops = run_plain(args, mods, models, decks[1:], plan_path)
        if args.workload == "continue":
            print("\n".join(probe_defects(args.seed, mods, models)))

    records = [r for loop in loops for r in loop.records]
    failed, wrong, digits = check_records(records)
    wrong += check_records(warm.records)[1]
    if not args.trace:
        metrics["ok_frac"] = {"value": 1.0 - len(failed) / len(records), "unit": "ratio"}
        metrics["digits_min"] = {"value": digits, "unit": "digits"}
    kinds = {}
    for op, reason in failed:
        key = f"{op.kind} {op.spec['model'] if op.spec else ''}: {reason}"
        kinds[key] = kinds.get(key, 0) + 1
    print(f"failed_frac: {len(failed)}/{len(records)} = {len(failed) / len(records):.4f}")
    for key, count in sorted(kinds.items()):
        print(f"failed {count}/{len(records)}: {key}")
    for op, reason in wrong[:20]:
        print(f"WRONG: {op.label}: {reason}", file=sys.stderr)
    result = {"correct": not wrong, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump({"env": env, "args": vars(args), **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_plain(args, mods, models, decks, plan_path):
    cal = calib.Calibration()
    loop = Loop(mods, models, calibration=cal)
    wall, cpu, _ = loop.run(decks, seconds=args.seconds)
    n = len(loop.records)
    lat = [1e3 * r[3] for r in loop.records]
    q = tail_percentile(args.workload, n)
    fw, fc = cal.wall_factor(), cal.cpu_factor()
    setup_med, setup_all = measure_setup(plan_path)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"ops: {n} in {wall:.2f} s wall, {cpu:.2f} s cpu; "
          f"latency_tail_ms is p{q:g} of {n} samples ({n - math.ceil(n * q / 100.0)} beyond)")
    print(f"calibration: {len(cal.wall)} kernel samples, mean {1e3 / fw * calib.REF_S:.4f} ms "
          f"wall; timings scaled by {fw:.4f} (wall) and {fc:.4f} (cpu)")
    print(f"raw: ops_per_s {n / wall:.4f}, latency_p50_ms {percentile(lat, 50.0):.4f}, "
          f"latency_tail_ms {percentile(lat, q):.4f}, cpu_ms_per_op {1e3 * cpu / n:.4f}")
    print("setup_s probes (raw): " + ", ".join(f"{t:.4f}" for t in setup_all))
    metrics = {
        "ops_per_s": {"value": n / (wall * fw), "unit": "1/s"},
        "latency_p50_ms": {"value": fw * percentile(lat, 50.0), "unit": "ms"},
        "latency_tail_ms": {"value": fw * percentile(lat, q), "unit": "ms"},
        "cpu_ms_per_op": {"value": fc * 1e3 * cpu / n, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "setup_s": {"value": fw * setup_med, "unit": "s"},
    }
    return metrics, [loop]


def run_traced(args, mods, models, decks, tag):
    from tracing import Tracer, layer_metrics

    plain = Loop(mods, models)
    wall_plain, _, done = plain.run(decks, seconds=args.seconds / 2.0)
    tracer = Tracer(mods)
    traced_models = tracer.install(models)
    try:
        traced = Loop(mods, traced_models, tracer)
        wall_traced, _, _ = traced.run(decks[:done], count=done)
    finally:
        tracer.uninstall()
    spans_path = os.path.join(OUT_DIR, f"spans-{tag}.csv.gz")
    tracer.write(spans_path)
    n = len(traced.records)
    metrics = layer_metrics(tracer.spans, n)
    rate_plain = len(plain.records) / wall_plain
    rate_traced = n / wall_traced
    metrics["trace.overhead_frac"] = {"value": 1.0 - rate_traced / rate_plain, "unit": "ratio"}
    print(f"traced {n} ops ({len(tracer.spans)} spans -> {os.path.relpath(spans_path, ROOT)}); "
          f"untraced {rate_plain:.3f} ops/s, traced {rate_traced:.3f} ops/s")
    return metrics, [plain, traced]


if __name__ == "__main__":
    sys.exit(main())
