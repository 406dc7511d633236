#!/usr/bin/env python3
"""Benchmark of lagkit, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each a closed loop with one client; see BENCHMARK.json for why):
  suite-n200     run_suite on every catalog entry at N=200, in one warm process
  cli-n20        `python -m lagkit.cli check NAME --json` at the default N=20,
                 one fresh process per catalog entry, one after another
  crosscheck-p5  the work of `lagkit crosscheck`: jet vs finite-difference
                 deviation at orders 1..3, 5 points per entry, warm process

A run warms up, repeats whole passes over the catalog for as long as the next
pass still fits in --seconds (at least one pass), then times set-up in a few
fresh processes for setup_s.  Each pass samples with its own seed derived from
--seed, so no pass re-samples the points of another.  Times are at reference
speed (see SpeedProbe), as medians per catalog entry over the passes:
points_per_s is the points of one pass over the sum of those medians, and
check_ms.p50/.p90 are quantiles over the entries.  The process and its
children stay on one CPU.

Every output is checked: verdicts must equal CatalogEntry.expects,
`lagkit check` must exit 1 exactly when an expectation is False and print
strict JSON, crosscheck deviations must stay within the CLI's tolerances, and
any exception is a failure.

With --trace 1 the run instead makes passes for half of --seconds untraced, in
a process that never installs the tracer, then the same passes with the tracer
of tracing.py.  It reports per-layer metrics of traced pass 0 and the tracing
overhead over all passes; the spans go to bench/out/.  Traced and untraced
verdicts must agree.  Call counts are exact: two traced runs with one seed
print the same counts.

Human-readable lines come first.  The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("suite-n200", "cli-n20", "crosscheck-p5")
POINTS = {"suite-n200": 200, "cli-n20": 20, "crosscheck-p5": 5}
# steps and tolerances `lagkit crosscheck` documents for orders 1..3
CROSSCHECK_STEP = {1: 1e-4, 2: 1e-4, 3: 1e-2}
CROSSCHECK_TOL = {1: 1e-6, 2: 1e-6, 3: 1e-3}
# warm-up points per entry; 8 is enough for every quadric fit in the catalog
WARMUP_POINTS = {"suite-n200": 8, "crosscheck-p5": 1}
SETUP_SAMPLES = 3
# A shared machine's speed can swing by a factor of two within seconds, for
# lagkit and any fixed work alike.  While a run measures, a timer signal every
# PROBE_PERIOD_S times a short reference snippet on the same CPU, and each
# operation's wall time is reported at reference speed: multiplied by
# REFERENCE_S over the median snippet time during the operation.  REFERENCE_S
# is the median snippet time on the machine of baseline.json when it runs fast.
PROBE_PERIOD_S = 0.02
REFERENCE_S = 0.0006
CHILD_TIMEOUT_S = 120
# no pass starts that would end later than this after process start, so a run
# with a long --seconds still ends within three minutes
RUN_BUDGET_S = 150.0


@dataclass
class Op:
    """One timed operation: one catalog entry through the workload."""

    entry: str
    wall_s: float
    points: int
    error: str | None
    verdicts: object = None
    start_s: float = 0.0
    reference_s: float = REFERENCE_S

    @property
    def scaled_s(self) -> float:
        """Wall time at reference speed."""
        return self.wall_s * REFERENCE_S / self.reference_s


def pass_seed(seed: int, index: int) -> int:
    """Sampling seed of pass `index` (-1 for warm-up), derived from --seed."""
    digest = hashlib.blake2b(f"lagkit-bench:{seed}:{index}".encode(), digest_size=4)
    return int.from_bytes(digest.digest(), "big")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_lagkit() -> dict[str, float]:
    """Import numpy, then lagkit from this checkout; return both import times."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import lagkit
    import lagkit.cli  # noqa: F401

    t2 = time.perf_counter()
    if Path(lagkit.__file__).resolve().parent != SRC / "lagkit":
        raise SystemExit(f"bench: imported lagkit from {lagkit.__file__}, not {SRC}")
    return {"numpy_s": t1 - t0, "lagkit_s": t2 - t1}


def select_entries(names: str | None):
    from lagkit.catalog import catalog_entry, catalog_names

    wanted = names.split(",") if names else catalog_names()
    return [catalog_entry(name) for name in wanted]


def expectation_error(entry, verdicts: dict) -> str | None:
    """First difference between a report's verdicts and entry.expects."""
    for check, expected in entry.expects.items():
        got = verdicts.get(check, ("missing", None))[1]
        if got is not expected:
            return f"{check}: expected {expected}, got {got}"
    return None


def reference_snippet():
    """Fixed interpreter and small-array numpy work, calling no lagkit code.

    It allocates Python objects and 3-vectors to 3x3x3 arrays much as jet
    arithmetic does, so load on the machine slows it about as much as lagkit.
    """
    import numpy

    g = numpy.linspace(0.1, 0.3, 3)
    h = numpy.outer(g, g)
    t = h[:, :, None] * g
    recent = []
    for i in range(40):
        v = 0.5 * i
        g2 = v * g + 2.0 * g
        h2 = v * h + numpy.outer(g, g2) + numpy.outer(g2, g)
        base = h2[:, :, None] * g[None, None, :]
        t2 = v * t + base + base.transpose(0, 2, 1)
        recent.append({"g": g2, "h": h2, "t": t2, "v": complex(v, v)})


class SpeedProbe:
    """Times reference_snippet on a timer signal while the `with` block runs."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_snippet()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.durations.append(t1 - t0)

    def scale(self, ops: list[Op]):
        """Give each op the median snippet time within a period of its span."""
        for op in ops:
            lo = bisect.bisect_left(self.times, op.start_s - PROBE_PERIOD_S)
            hi = bisect.bisect_right(self.times, op.start_s + op.wall_s + PROBE_PERIOD_S)
            op.reference_s = statistics.median(self.durations[lo:hi] or self.durations[-1:])


def reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


# -- workloads ----------------------------------------------------------------


class InProcess:
    """Pass loop shared by the workloads that run inside this process."""

    def __init__(self, name, entries, points):
        self.name, self.entries, self.points = name, entries, points

    def run_pass(self, seed, tracer=None, op_base=0) -> list[Op]:
        ops = []
        for k, entry in enumerate(self.entries):
            if tracer is not None:
                tracer.op = op_base + k
            t0 = time.perf_counter()
            try:
                result = self.operation(entry, seed, self.points)
                wall = time.perf_counter() - t0
                verdicts, error = self.verify(entry, result)
            except Exception as exc:  # any exception is a failed operation
                wall = time.perf_counter() - t0
                verdicts, error = None, f"{type(exc).__name__}: {exc}"
            ops.append(
                Op(entry.name, wall, self.points * self.orders, error, verdicts, t0)
            )
        return ops

    def warm_up(self, seed):
        for entry in self.entries:
            self.operation(entry, seed, min(self.points, WARMUP_POINTS[self.name]))


class Suite(InProcess):
    orders = 1

    def operation(self, entry, seed, points):
        from lagkit import checks

        cfg = checks.SampleConfig(num_points=points, seed=seed)
        return checks.run_suite(entry.spec, cfg, quadric=entry.quadric)

    def verify(self, entry, report):
        verdicts = {n: (e.status, e.passed) for n, e in report.checks.items()}
        return verdicts, expectation_error(entry, verdicts)


class Crosscheck(InProcess):
    # a point counts once per derivative order it is cross-checked at
    orders = len(CROSSCHECK_STEP)

    def operation(self, entry, seed, points):
        from lagkit import findiff, sampling

        worst = {}
        for order, step in CROSSCHECK_STEP.items():
            pts = sampling.sample_points(
                entry.spec, points, seed, extra_margin=2.0 * order * step * 1.01
            )
            worst[order] = max(
                findiff.jet_fd_deviation(entry.spec, pt, order, step)[order] for pt in pts
            )
        return worst

    def verify(self, entry, worst):
        verdicts = {order: dev <= CROSSCHECK_TOL[order] for order, dev in worst.items()}
        bad = [f"order {o}: {worst[o]:.3e}" for o, ok in verdicts.items() if not ok]
        return verdicts, ("deviation above tolerance: " + ", ".join(bad)) if bad else None


class Cli:
    """`lagkit check` in a fresh process per catalog entry."""

    def __init__(self, entries, points):
        self.entries, self.points = entries, points
        self.child_spans: list[list] = []
        self.child_counts: dict[str, int] = {}
        self.child_imports: list[dict] = []
        self.missing: list[str] = []

    def argv(self, entry, seed, traced):
        head = (
            [sys.executable, str(BENCH_DIR / "traced_cli.py")]
            if traced
            else [sys.executable, "-m", "lagkit.cli"]
        )
        return head + [
            "check", entry.name, "--json", "--seed", str(seed), "--samples", str(self.points)
        ]

    def run_pass(self, seed, traced=False, op_base=0) -> list[Op]:
        ops = []
        env = child_env()
        for k, entry in enumerate(self.entries):
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    self.argv(entry, seed, traced),
                    capture_output=True,
                    text=True,
                    env=env,
                    cwd=ROOT,
                    timeout=CHILD_TIMEOUT_S,
                )
                wall = time.perf_counter() - t0
                verdicts, error = self.verify(entry, proc)
                if traced:
                    self.collect(proc.stderr, op_base + k)
            except Exception as exc:  # any exception is a failed operation
                wall = time.perf_counter() - t0
                verdicts, error = None, f"{type(exc).__name__}: {exc}"
            ops.append(Op(entry.name, wall, self.points, error, verdicts, t0))
        return ops

    def verify(self, entry, proc):
        expected_rc = 1 if False in entry.expects.values() else 0
        if proc.returncode != expected_rc:
            tail = proc.stderr.strip().splitlines()[-1:] if proc.returncode not in (0, 1) else []
            return None, f"exit {proc.returncode}, expected {expected_rc} {tail}"
        doc = json.loads(proc.stdout, parse_constant=reject_constant)
        verdicts = {n: (c["status"], c["pass"]) for n, c in doc["checks"].items()}
        return verdicts, expectation_error(entry, verdicts)

    def collect(self, stderr: str, op: int):
        record = json.loads(stderr.strip().splitlines()[-1])
        tracing.merge_spans(self.child_spans, record["spans"], op)
        for name, n in record["counts"].items():
            self.child_counts[name] = self.child_counts.get(name, 0) + n
        self.child_imports.append(record["imports"])
        self.missing = record["missing"]

    def take(self):
        spans, counts, imports = self.child_spans, self.child_counts, self.child_imports
        self.child_spans, self.child_counts, self.child_imports = [], {}, []
        return spans, counts, imports


def make_workload(name, entries, points):
    if name == "cli-n20":
        return Cli(entries, points)
    cls = Suite if name == "suite-n200" else Crosscheck
    return cls(name, entries, points)


# -- measurement --------------------------------------------------------------


def child_args(args, *extra) -> list[str]:
    out = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed)]
    if args.points is not None:
        out += ["--points", str(args.points)]
    if args.entries:
        out += ["--entries", args.entries]
    return out + list(extra)


def measure_setup(args) -> list[Op]:
    """Fresh processes from start to the end of set-up, one op each."""
    probes = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            child_args(args, "--setup-only"), check=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S
        )
        probes.append(Op("setup", time.perf_counter() - t0, 0, None, start_s=t0))
    return probes


def run_passes(workload, seed, seconds, start) -> list[list[Op]]:
    """Whole passes that fit in `seconds`, judged by the last pass; at least one."""
    passes = []
    t_begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass(pass_seed(seed, len(passes))))
        now = time.perf_counter()
        last = now - t0
        if now + last - t_begin > seconds or now + last - start > RUN_BUDGET_S:
            return passes


def entry_medians(ops, scaled=True) -> list[float]:
    """Median time of each catalog entry over the passes of a run."""
    times: dict[str, list[float]] = {}
    for op in ops:
        times.setdefault(op.entry, []).append(op.scaled_s if scaled else op.wall_s)
    return [statistics.median(t) for t in times.values()]


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def verdict_digest(ops) -> str:
    """Digest of the verdicts of a pass; equal after a JSON round trip."""
    doc = {op.entry: op.verdicts for op in ops}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def machine() -> str:
    import numpy

    return (
        f"nproc={os.cpu_count()} arch={platform.machine()} "
        f"python={platform.python_version()} numpy={numpy.__version__}"
    )


def report(metrics, ops, ok, notes):
    """Print metrics by name with units, then the result line."""
    failed = sum(op.error is not None for op in ops)
    for op in ops:
        if op.error is not None:
            print(f"FAILED {op.entry}: {op.error}")
    for note in notes:
        print(f"# {note}")
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"{'failed_ratio':<{width}}  {failed / len(ops):.6g} ratio ({failed}/{len(ops)})")
    result = {
        "correct": ok and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


def end_to_end(args, workload, start):
    if isinstance(workload, InProcess):
        workload.warm_up(pass_seed(args.seed, -1))
    with SpeedProbe() as probe:
        passes = run_passes(workload, args.seed, args.seconds, start)
        # ru_maxrss is in KiB on Linux; for children, the largest one reaped so
        # far, so it is read before the set-up probes run
        usage = resource.RUSAGE_CHILDREN if isinstance(workload, Cli) else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
        probes = measure_setup(args)
    ops = [op for p in passes for op in p]
    probe.scale(ops + probes)
    # per-entry medians over the passes keep a burst of load from moving the
    # figures; quantiles are over catalog entries
    typical = entry_medians(ops)
    pass_points = sum(op.points for op in passes[0])
    metrics = {
        "points_per_s": {"value": pass_points / sum(typical), "unit": "1/s"},
        "check_ms.p50": {"value": 1e3 * quantile(typical, 50), "unit": "ms"},
        "check_ms.p90": {"value": 1e3 * quantile(typical, 90), "unit": "ms"},
        "setup_s": {"value": statistics.median(p.scaled_s for p in probes), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    wall = entry_medians(ops, scaled=False)
    speed = statistics.median(op.reference_s for op in ops) / REFERENCE_S
    notes = [
        f"{len(passes)} passes, {len(ops)} operations; pass seeds from --seed "
        f"{args.seed}: {[pass_seed(args.seed, i) for i in range(min(len(passes), 4))]}"
        + (" ..." if len(passes) > 4 else ""),
        f"times at reference speed; the reference snippet took {speed:.3f} x "
        f"{REFERENCE_S} s.  Unscaled: points_per_s {pass_points / sum(wall):.6g}, "
        f"check_ms.p50 {1e3 * quantile(wall, 50):.6g}, check_ms.p90 "
        f"{1e3 * quantile(wall, 90):.6g}, setup_s "
        f"{statistics.median(p.wall_s for p in probes):.6g}",
        f"check_ms quantiles over {len(typical)} entries' median times",
        f"verdicts of pass 0: sha256 {verdict_digest(passes[0])}",
    ]
    report(metrics, ops, True, notes)


def traced(args, workload, import_s, start):
    """Untraced passes, then the same passes traced; layers from traced pass 0."""
    half = args.seconds / 2  # the untraced passes set how many traced ones follow
    n = len(workload.entries)
    probe = SpeedProbe()
    if isinstance(workload, Cli):
        with probe:
            reference = run_passes(workload, args.seed, half, start)
        probe.scale([op for p in reference for op in p])

        def traced_pass(i):
            ops = workload.run_pass(pass_seed(args.seed, i), traced=True, op_base=i * n)
            return (ops, *workload.take())
    else:
        proc = subprocess.run(
            child_args(args, "--reference", "--seconds", str(half)),
            capture_output=True, text=True, check=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
        reference = [[Op(**op) for op in p] for p in json.loads(proc.stdout.splitlines()[-1])]
        workload.warm_up(pass_seed(args.seed, -1))
        tracer = tracing.Tracer()
        missing = tracer.install()

        def traced_pass(i):
            ops = workload.run_pass(pass_seed(args.seed, i), tracer, op_base=i * n)
            return (ops, *tracer.take(), [])

    passes, spans = [], []
    with probe:
        for i in range(len(reference)):
            ops, pass_spans, pass_counts, imports = traced_pass(i)
            if i == 0:
                stats, counts = tracing.layer_stats(pass_spans), pass_counts
                if imports:
                    import_s = {k: statistics.median(d[k] for d in imports) for k in import_s}
            passes.append(ops)
            tracing.merge_spans(spans, pass_spans)
    probe.scale([op for p in passes for op in p])
    same_verdicts = [verdict_digest(p) for p in passes] == [verdict_digest(p) for p in reference]
    if isinstance(workload, Cli):
        missing = workload.missing

    metrics = {}
    for name in tracing.SPAN_NAMES:
        for key, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s")):
            metrics[f"{name}.{key}"] = {"value": stats[name][key], "unit": unit}
    for name in tracing.COUNT_NAMES:
        metrics[f"{name}.calls"] = {"value": counts.get(name, 0), "unit": "count"}
    points = sum(op.points for op in passes[0])
    metrics["import.numpy_s"] = {"value": import_s["numpy_s"], "unit": "s"}
    metrics["import.lagkit_s"] = {"value": import_s["lagkit_s"], "unit": "s"}
    metrics["checks.map_evals_per_point"] = {
        "value": stats["dsl.evaluate_map_jets"]["calls"] / points, "unit": "evals/point"
    }
    traced_ops = [op for p in passes for op in p]
    reference_ops = [op for p in reference for op in p]
    metrics["trace.overhead"] = {
        "value": sum(op.scaled_s for op in traced_ops) / sum(op.scaled_s for op in reference_ops),
        "unit": "ratio",
    }

    spans_path = OUT_DIR / f"spans-{args.workload}.jsonl"
    tracing.write_spans(spans_path, spans)
    notes = [
        f"{len(passes)} passes untraced, in a process that never installed the tracer, "
        f"then traced; per-layer figures are of traced pass 0 (seed "
        f"{pass_seed(args.seed, 0)}, {points} points)",
        f"verdicts of pass 0: sha256 {verdict_digest(passes[0])}; traced == untraced: "
        f"{same_verdicts}",
        f"{len(spans)} spans of all traced passes in {spans_path.relative_to(ROOT)}",
    ]
    if missing:
        notes.append(f"not traced (absent in this lagkit): {', '.join(missing)}")
    report(metrics, reference_ops + traced_ops, same_verdicts, notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--points", type=int, help="points per entry (tests: tiny sizes)")
    parser.add_argument("--entries", help="comma-separated catalog subset (tests)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    # one CPU for this process and every child it starts, so the reference
    # loop runs where the work runs; the cores of a shared machine can be
    # loaded differently
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "lagkit" / "__init__.py").is_file():
        print(f"bench: no lagkit sources under {SRC}", file=sys.stderr)
        return 2
    points = args.points if args.points is not None else POINTS[args.workload]
    import_s = import_lagkit()
    workload = make_workload(args.workload, select_entries(args.entries), points)

    if args.setup_only:
        if isinstance(workload, InProcess):
            workload.warm_up(pass_seed(args.seed, -1))
        return 0
    if args.reference:
        workload.warm_up(pass_seed(args.seed, -1))
        with SpeedProbe() as probe:
            passes = run_passes(workload, args.seed, args.seconds, start)
        probe.scale([op for p in passes for op in p])
        print(json.dumps([[op.__dict__ for op in p] for p in passes]))
        return 0

    print(f"# lagkit benchmark: workload {args.workload}, seed {args.seed}, "
          f"{points} points per entry, trace {args.trace}")
    print(f"# {machine()}")
    if args.trace:
        traced(args, workload, import_s, start)
    else:
        end_to_end(args, workload, start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
