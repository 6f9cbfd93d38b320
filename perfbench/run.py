"""Benchmark of ``pseudoreal analyze --json`` on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload dense-trivial --seed 1 --seconds 55 --trace 0

One closed-loop client in one process and one thread: each map goes to
``pseudoreal.cli.main(["analyze", "--map", expr, "--json"])`` only after the
previous report came back, and every report is checked against the map's
known answer (see ``workloads.py``).  Whole passes over the workload run
while another one still fits in ``--seconds`` of call time; the end-to-end
figures are taken from each slot's median time over those passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every map
twice, untraced and traced by ``layertrace.LayerTrace``, and reports the
per-layer metrics as means per map, plus the tracing overhead.  The last
line of standard output is the result object; the lines before it record
the environment and the full report, including the failure breakdown.
"""

from __future__ import annotations

import os

# pinned before numpy is first imported, so that no BLAS pool starts
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
from collections import Counter  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

SRC = os.path.join(os.getcwd(), "src")
PACKAGE = "pseudoreal"
SANDBOX_LIMITS = "2 cores; no system-wide profiling; no hardware counters"

SETUP_REPS = 21
WARMUP_MAP = "i*((z-1)/(z+1))^3"
DEADLINE_S = 30.0
# a pass in progress is cut once this much call time has been measured
HARD_LIMIT_S = 60.0

END_TO_END = (
    ("maps_per_s", "maps/s"),
    ("verdict_s.p50", "s"),
    ("verdict_s.p90", "s"),
    ("setup_s", "s"),
)

# (metric, layer, statistic); statistics are means per traced map
PER_LAYER = (
    ("polyring.roots_numeric.calls", "polyring.roots_numeric", "calls"),
    ("polyring.roots_numeric.self_s", "polyring.roots_numeric", "self_s"),
    ("polyring.roots_numeric.degree_sum", "polyring.roots_numeric", "extra"),
    ("polyring.squarefree_decomposition.self_s", "polyring.squarefree_decomposition", "self_s"),
    ("polyring.poly_gcd.calls", "polyring.poly_gcd", "calls"),
    ("polyring.poly_gcd.self_s", "polyring.poly_gcd", "self_s"),
    ("ratmap.distinguished_points.calls", "ratmap.distinguished_points", "calls"),
    ("ratmap.distinguished_points.self_s", "ratmap.distinguished_points", "self_s"),
    ("ratmap.distinguished_points.points", "ratmap.distinguished_points", "extra"),
    ("ratmap.is_polynomial_like.self_s", "ratmap.is_polynomial_like", "self_s"),
    ("ratmap.reduce.calls", "ratmap.reduce", "calls"),
    ("ratmap.reduce.self_s", "ratmap.reduce", "self_s"),
    ("ratmap.conjugate_by.calls", "ratmap.conjugate_by", "calls"),
    ("ratmap.conjugate_by.self_s", "ratmap.conjugate_by", "self_s"),
    ("autgrp.search.self_s", "autgrp.search", "self_s"),
    ("autgrp.search.elements", "autgrp.search", "extra"),
    ("autgrp.aut_group_report.self_s", "autgrp.aut_group_report", "self_s"),
    ("autgrp.closure_defect.self_s", "autgrp.closure_defect", "self_s"),
    ("autgrp.classify_group_type.self_s", "autgrp.classify_group_type", "self_s"),
    ("autgrp.certify_element.calls", "autgrp.certify_element", "calls"),
    ("autgrp.certify_element.self_s", "autgrp.certify_element", "self_s"),
    ("autgrp.verify_automorphism_exact.calls", "autgrp.verify_automorphism_exact", "calls"),
    ("autgrp.verify_automorphism_exact.self_s", "autgrp.verify_automorphism_exact", "self_s"),
    ("autgrp.canonicalize_cyclic.self_s", "autgrp.canonicalize_cyclic", "self_s"),
    ("classify.rotation_form_check.self_s", "classify.rotation_form_check", "self_s"),
    ("classify.antipodal_witness.self_s", "classify.antipodal_witness", "self_s"),
    ("classify.classify_map.self_s", "classify.classify_map", "self_s"),
    ("moebius.order.calls", "moebius.order", "calls"),
    ("moebius.order.self_s", "moebius.order", "self_s"),
    ("cli.parse_map_expr.self_s", "cli.parse_map_expr", "self_s"),
    ("cli.render.self_s", "cli.main", "self_s"),
)
UNITS = {"calls": "count/map", "extra": "count/map", "self_s": "s/map"}
# metrics computed from more than one layer statistic
DERIVED = (
    ("autgrp.verify_automorphism_exact.accept_ratio", "ratio"),
    ("cyclotomic.mul.calls", "count/map"),
    ("cyclotomic.inv.calls", "count/map"),
    ("cyclotomic.rebase.calls", "count/map"),
    ("cyclotomic.self_s", "s/map"),
    ("trace.overhead_ratio", "ratio"),
)


class DeadlineExceeded(BaseException):
    """Raised into a map's analysis when its deadline passes.

    A BaseException, so neither ``cli.main``'s handlers nor the library's
    ``except Exception`` clauses can swallow it."""


class Deadline:
    """SIGALRM deadline for one call, in the calling (main) thread.

    ``busy(frame)`` names frames that must not be interrupted (the trace's
    own bookkeeping); the alarm is then retried a millisecond later."""

    RETRY_S = 1e-3

    def __init__(self, seconds: float, busy=None):
        self.seconds = seconds
        self.busy = busy
        self.armed = False

    def _on_alarm(self, signum, frame):
        if not self.armed:
            return
        if self.busy is not None and self.busy(frame):
            signal.setitimer(signal.ITIMER_REAL, self.RETRY_S)
            return
        self.armed = False
        raise DeadlineExceeded()

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False


class Outcome:
    """One analyze call: its wall time and how it compared to the answer."""

    __slots__ = ("elapsed", "status", "certified", "detail")

    def __init__(self, elapsed, status, certified=False, detail=""):
        self.elapsed = elapsed
        self.status = status  # ok | wrong | deadline | exit | raised
        self.certified = certified
        self.detail = detail


def analyze(cli, case, busy=None) -> Outcome:
    """Send one map through the CLI and check the report."""
    out, err = io.StringIO(), io.StringIO()
    # the garbage of earlier maps is not this map's cost; a CLI user starts
    # each map in a fresh process
    gc.collect()
    start = time.perf_counter()
    try:
        with Deadline(DEADLINE_S, busy):
            code = cli.main(["analyze", "--map", case.expr, "--json"], out=out, err=err)
    except DeadlineExceeded:
        return Outcome(DEADLINE_S, "deadline", detail=f"over {DEADLINE_S:g} s")
    except Exception as exc:  # the run goes on; the map counts as failed
        return Outcome(time.perf_counter() - start, "raised",
                       detail=f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    if code != 0:
        return Outcome(elapsed, "exit", detail=f"exit {code}: {err.getvalue().strip()}")
    report = json.loads(out.getvalue())
    verdict = report["classification"]["verdict"]
    holo_type = report["aut"]["holo_type"]
    certified = report["certified"] is True
    if (verdict, holo_type) != (case.verdict, case.holo_type):
        return Outcome(elapsed, "wrong", certified,
                       f"got {verdict}/{holo_type}, expected {case.verdict}/{case.holo_type}")
    return Outcome(elapsed, "ok", certified)


def measure_setup():
    """Median over fresh imports of the package plus its first CLI call.

    numpy is imported once beforehand: a native extension cannot be
    re-imported, and its import is the same at every commit."""
    import numpy  # noqa: F401

    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        raise SystemExit(f"error: no {PACKAGE} sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    times = []
    for _ in range(SETUP_REPS):
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        start = time.perf_counter()
        cli = importlib.import_module(f"{PACKAGE}.cli")
        code = cli.main(["analyze", "--map", WARMUP_MAP, "--json"],
                        out=io.StringIO(), err=io.StringIO())
        times.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"error: warm-up map exited with {code}")
    if not cli.__file__.startswith(SRC + os.sep):
        raise SystemExit(f"error: {PACKAGE} was imported from {cli.__file__}, not {SRC}")
    return statistics.median(times), cli


def _beta_cdf(x, a, b):
    """Regularized incomplete beta function I_x(a, b), by the continued
    fraction of Numerical Recipes (modified Lentz)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _beta_cdf(1.0 - x, b, a)
    tiny = 1e-300
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 500):
        for term in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + term * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + term / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return front * f


def hd_quantile(values, q):
    """Harrell-Davis estimate of the ``q`` quantile of ``values``.

    A mean of all order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
    distribution, instead of the one or two order statistics of the plain
    quantile.  The plain median of a workload's slots is the time of
    whichever slot ranks in the middle, so host noise on that one slot
    moves it in full; here the weight is shared by the neighbouring slots
    as well."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def run_passes(passes, seconds, step):
    """Call ``step(case)`` over whole passes while another pass, at the mean
    pass time so far, still fits in ``seconds`` of call time (as ``step``
    returns it).  The first pass always runs; a pass is cut at HARD_LIMIT_S.
    Returns the number of calls made in each pass, and whether the last
    pass ran to its end."""
    timed = 0.0
    sizes = []
    for cases in passes:
        if sizes and timed * (len(sizes) + 1) / len(sizes) > seconds:
            break
        sizes.append(0)
        for case in cases:
            timed += step(case)
            sizes[-1] += 1
            if timed >= max(HARD_LIMIT_S, seconds):
                return sizes, sizes[-1] == len(cases)
    return sizes, True


def _whole_passes(values, sizes, complete):
    """``values`` split by pass; a cut last pass is dropped unless it is
    the only one, because it lacks some of the slots of a whole pass."""
    per_pass = _split(values, sizes)
    return per_pass if complete or len(per_pass) == 1 else per_pass[:-1]


def _split(values, sizes):
    out, start = [], 0
    for size in sizes:
        out.append(values[start:start + size])
        start += size
    return out


def _summary(cases_outcomes):
    failed = [(c, o) for c, o in cases_outcomes if o.status != "ok"]
    wrong_certified = sum(1 for _, o in failed if o.status == "wrong" and o.certified)
    certified_ok = sum(1 for _, o in cases_outcomes if o.status == "ok" and o.certified)
    for case, o in failed:
        print(f"failed: {case.label} [{case.basis}]: {o.status}: {o.detail}", file=sys.stderr)
    return failed, wrong_certified, certified_ok


def measure_end_to_end(cli, passes, seconds, setup_s):
    log = []

    def step(case):
        outcome = analyze(cli, case)
        log.append((case, outcome))
        return outcome.elapsed

    sizes, complete = run_passes(passes, seconds, step)
    n = len(log)
    failed, wrong_certified, certified_ok = _summary(log)
    # every whole pass has the same slots, one map of each label, so the
    # figures are alike whatever the number of passes a run's time allows; a
    # slot's median over the passes is not moved by a burst of host load
    # during one of its calls
    per_pass = _whole_passes(log, sizes, complete)
    by_slot = {}
    for case, outcome in (entry for entries in per_pass for entry in entries):
        by_slot.setdefault(case.label, []).append(outcome.elapsed)
    slots = [statistics.median(times) for times in by_slot.values()]
    metrics = {
        "maps_per_s": len(slots) / sum(slots),
        "verdict_s.p50": hd_quantile(slots, 0.5),
        "verdict_s.p90": hd_quantile(slots, 0.9),
        "setup_s": setup_s,
    }
    report = dict(metrics)
    report.update({
        # 1.0 on every run of the gated workloads, so it only informs
        "certified_rate": certified_ok / n,
        # the largest candidate array of one map sets it: 0.9 or 1.5 GB on
        # rotation-family, depending on the draw, so it is too unsteady to gate
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_rate": len(failed) / n,
        "certified_wrong_rate": wrong_certified / n,
        "samples": n,
        "passes": len(sizes),
        "timed_passes": len(per_pass),
        "deadline_s": DEADLINE_S,
        "failures": _failure_counts(failed),
    })
    units = dict(END_TO_END)
    return n, len(failed), {k: (v, units[k]) for k, v in metrics.items()}, report


def _failure_counts(failed):
    return dict(Counter(o.status for _, o in failed))


def measure_layers(cli, passes, seconds):
    from layertrace import LayerTrace

    trace = LayerTrace()
    log = []
    plain_s = traced_s = 0.0

    def step(case):
        nonlocal plain_s, traced_s
        runs = {}
        # alternate which call goes first, so warm caches favour neither
        for traced in ((False, True) if len(log) % 2 == 0 else (True, False)):
            if traced:
                self_before, root_before = trace.total_self_s(), trace.root_s()
                trace.install()
                try:
                    runs[traced] = analyze(cli, case, busy=trace.in_bookkeeping)
                finally:
                    trace.uninstall()
                trace.check_map(self_before, root_before, case.label)
            else:
                runs[traced] = analyze(cli, case)
        plain, traced_run = runs[False], runs[True]
        worse = traced_run if plain.status == "ok" else plain
        log.append((case, worse))
        plain_s += plain.elapsed
        traced_s += traced_run.elapsed
        return plain.elapsed + traced_run.elapsed

    sizes, _ = run_passes(passes, seconds, step)
    n = len(log)
    failed, wrong_certified, _ = _summary(log)
    metrics = {}
    for metric, layer, stat in PER_LAYER:
        metrics[metric] = (getattr(trace.stats[layer], stat) / n, UNITS[stat])
    verify = trace.stats["autgrp.verify_automorphism_exact"]
    derived = {
        "autgrp.verify_automorphism_exact.accept_ratio":
            verify.extra / verify.calls if verify.calls else 0.0,
        "cyclotomic.mul.calls": trace.cyclo_calls["mul"] / n,
        "cyclotomic.inv.calls": trace.cyclo_calls["inv"] / n,
        "cyclotomic.rebase.calls": trace.cyclo_calls["rebase"] / n,
        "cyclotomic.self_s": trace.cyclo_self_s / n,
        "trace.overhead_ratio": traced_s / plain_s,
    }
    for metric, unit in DERIVED:
        metrics[metric] = (derived[metric], unit)
    report = {name: value for name, (value, _) in metrics.items()}
    report.update({
        "failed_rate": len(failed) / n,
        "certified_wrong_rate": wrong_certified / n,
        "samples": n,
        "passes": len(sizes),
        "failures": _failure_counts(failed),
    })
    return n, len(failed), metrics, report


def environment(numpy_version):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        **{name: os.environ[name] for name in THREAD_VARIABLES},
        "sandbox": SANDBOX_LIMITS,
        "client": "closed loop, one client, one process, one thread",
    }


def benchmark(passes, seconds, trace, setup_s, cli):
    """Result object and full report for one run over ``passes``."""
    if trace:
        attempted, failed, metrics, report = measure_layers(cli, passes, seconds)
    else:
        attempted, failed, metrics, report = measure_end_to_end(cli, passes, seconds, setup_s)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, report


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("dense-trivial", "rotation-family", "scrambled"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_s, cli = measure_setup()
    import numpy
    import workloads

    print(json.dumps({"environment": environment(numpy.__version__)}))
    passes = workloads.passes(args.workload, args.seed)
    result, report = benchmark(passes, args.seconds, bool(args.trace), setup_s, cli)
    print(json.dumps({"report": {"workload": args.workload, "seed": args.seed, **report}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
