"""nashcone benchmark: the CLI as users run it, end to end and per layer.

    python3 perfbench/run.py --workload families --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One process, one closed-loop client: each ``nashcone.cli.main``
call starts when the previous one has returned, and its output is checked
after it returns, outside the timed region.

``--trace 0`` runs whole passes of the workload until ``--seconds`` have
passed and prints the end-to-end metrics. ``--trace 1`` runs pass 0 three
times, traced, untraced, traced, and prints the per-layer metrics of one
traced pass; a fixed amount of work keeps its counts exact. Times in both
are scaled to a nominal machine speed (see ``Speed``). The last line of
stdout is the result object, the line before it the run metadata. See
README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import workloads as wl
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
EXPECTED = os.path.join(HERE, "expected.json")

# fixed per workload so that the metric keeps its meaning across commits;
# each is the highest of 50/90/99/99.9 with >= 10 samples beyond it at the
# seed commit (families has 10 calls per pass, so only the median qualifies),
# except enum_dense: its p99 line latency spread by 31% over 10 runs, since
# millisecond stalls of the shared machine decide the top 1% of 2 ms lines
TAIL_PERCENTILE = {"families": 50, "enum_dense": 90, "enum_sparse": 90, "queries": 90}
SETUP_REPEATS = 5
REF_UNITS = 25
REF_EVERY_S = 0.125
REF_NOMINAL = 4000.0
REF_WINDOW_S = 0.25

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")  # names and units of the metrics
OUTPUT_COUNTS = (  # read from the checked outputs, not from the tracer
    "cone.fundamental_cycle.steps", "conditions.pairs_decided",
    "conditions.pairs_failed", "conditions.witness_max_bits",
)
GENERATOR_SPAN = "classify.enumerate_graphs.next"


class Capture(io.StringIO):
    """Stand-in for stdout that timestamps each write (one per click.echo)."""

    def __init__(self):
        super().__init__()
        self.times: list[float] = []

    def write(self, s: str) -> int:
        if s:  # click also writes "" and b"" to probe the stream's type
            self.times.append(perf_counter())
        return super().write(s)


@dataclass
class Stats:
    calls: int = 0
    graphs: int = 0
    failed: int = 0
    stdout_bytes: int = 0
    # (start, end) of each latency sample: a call, or an emitted enumerate line
    samples: list[tuple[float, float]] = field(default_factory=list)
    spans: list[tuple[float, float]] = field(default_factory=list)  # (start, end) of each call


class Speed:
    """Machine speed, probed every REF_EVERY_S with a fixed kernel.

    The shared machine's speed drifts by up to 2x over tens of seconds, far
    more than a run can average out. While running, a timer signal
    interrupts the main thread every REF_EVERY_S, calls included, and times
    REF_UNITS units of a pure-Python kernel that the program under test
    never runs. A measured interval, less the probes that ran inside it, is
    scaled by the mean probed rate from REF_WINDOW_S before it to
    REF_WINDOW_S after it, relative to REF_NOMINAL: the result is its
    length at a fixed nominal machine speed.
    """

    def __init__(self):
        self.points: list[tuple[float, float, float]] = []  # (start, end, units per second)
        self.on_probe = None  # called with each probe's duration
        self._running = False
        self._saved = None

    def probe(self, *_signal) -> None:
        start = perf_counter()
        for _ in range(REF_UNITS):
            _ref_unit()
        end = perf_counter()
        self.points.append((start, end, REF_UNITS / (end - start)))
        if self.on_probe is not None:
            self.on_probe(end - start)
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S)

    def __enter__(self) -> "Speed":
        self._saved = signal.signal(signal.SIGALRM, self.probe)
        self._running = True
        self.probe()
        return self

    def __exit__(self, *exc) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL if self._saved is None else self._saved)
        self.probe()

    def busy(self, start: float, end: float) -> float:
        """The interval's length less the probes that ran inside it."""
        lo = bisect.bisect_left(self.points, (start,))
        hi = bisect.bisect_right(self.points, (end,))
        return end - start - sum(b - a for a, b, _ in self.points[lo:hi] if b <= end)

    def nominal(self, start: float, end: float) -> float:
        """The interval's length at nominal machine speed, probes excluded."""
        pts = self.points
        lo = bisect.bisect_left(pts, (start - REF_WINDOW_S,))
        hi = bisect.bisect_right(pts, (end + REF_WINDOW_S,))
        near = pts[lo:hi] or [min(pts, key=lambda p: abs(p[0] - start))]
        return self.busy(start, end) * statistics.fmean(r for _, _, r in near) / REF_NOMINAL


def _ref_unit() -> None:
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(i, i + 1)
    json.dumps({"a": [list(range(8))] * 8, "b": str(s)})


def import_program():
    """nashcone.cli.main from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    import nashcone.cli

    if not os.path.abspath(nashcone.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"nashcone was found at {nashcone.cli.__file__}")
    return nashcone.cli.main


@dataclass
class Call:
    rc: int | None
    out: str
    err: str
    start: float
    end: float
    line_times: list[float]


def call(cli_main, argv) -> Call:
    """One CLI call with stdout and stderr captured."""
    out, err = Capture(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = perf_counter()
    try:
        rc = cli_main(list(argv))
    except Exception:  # a crash is a failed call; keep measuring
        rc = None
        traceback.print_exc()
    finally:
        end = perf_counter()
        sys.stdout, sys.stderr = saved
    return Call(rc, out.getvalue(), err.getvalue(), start, end, out.times)


def run_pass(cli_main, ops, expected, stats: Stats, counters: Counter | None = None) -> str:
    """Run and check one pass; returns the digest of its outputs in order."""
    whole = hashlib.sha256()
    for op in ops:
        c = call(cli_main, op.argv)
        stats.spans.append((c.start, c.end))
        stats.calls += 1
        stats.stdout_bytes += len(c.out.encode("utf-8"))
        if op.verb == "enumerate":  # one latency per emitted line
            stats.graphs += c.out.count("\n")
            stats.samples += list(zip([c.start] + c.line_times, c.line_times))
        else:
            stats.graphs += 1
            stats.samples.append((c.start, c.end))
        problem = f"exit code {c.rc}: {c.err.strip()}" if c.rc != 0 else None
        problem = problem or wl.check_output(op, c.out, expected)
        if problem:
            stats.failed += 1
            print(f"perfbench: {' '.join(op.argv[:1] + op.argv[2:])}: {problem}", file=sys.stderr)
        elif counters is not None:
            wl.count_output(op, c.out, counters)
        whole.update(c.out.encode("utf-8") + b"\0")
    return whole.hexdigest()


def check_pass_digest(workload, seed, k, got, expected, stats: Stats) -> None:
    pinned = expected["queries_seed0_passes"]
    if workload == "queries" and seed == 0 and k < len(pinned) and got != pinned[k]:
        stats.failed += 1
        print(f"perfbench: queries pass {k}: stdout digest differs from the pinned one", file=sys.stderr)


def percentile(sorted_values, p) -> tuple[float, int]:
    """Percentile by linear interpolation between the closest ranks, and the
    number of samples above it. Interpolating keeps the median steady when
    it falls between two clusters of equal-cost samples."""
    pos = p / 100 * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    value = sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)
    return value, len(sorted_values) - bisect.bisect_right(sorted_values, value)


def measure(args, cli_main, files, expected) -> tuple[Stats, dict, dict]:
    stats = Stats()
    k = 0
    with Speed() as speed:
        begin = perf_counter()
        while k == 0 or perf_counter() - begin < args.seconds:
            ops = wl.pass_ops(args.workload, args.seed, k, files, expected)
            digest = run_pass(cli_main, ops, expected, stats)
            check_pass_digest(args.workload, args.seed, k, digest, expected, stats)
            if k == 0:  # memory grows slowly with more passes; one pass is the unit
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            k += 1
    busy = sum(speed.nominal(a, b) for a, b in stats.spans)
    lat = sorted(speed.nominal(a, b) for a, b in stats.samples)
    raw = sorted(speed.busy(a, b) for a, b in stats.samples)
    raw_busy = sum(speed.busy(a, b) for a, b in stats.spans)
    p50, p50_beyond = percentile(lat, 50)
    tail_p = TAIL_PERCENTILE[args.workload]
    tail, tail_beyond = percentile(lat, tail_p)
    setup = setup_samples(args, speed)
    metrics = {
        "graphs_per_s": stats.graphs / busy,
        "queries_per_s": stats.calls / busy,
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }
    meta = {
        "passes": k,
        "calls": stats.calls,
        "graphs": stats.graphs,
        "busy_s": raw_busy,
        "nominal_busy_s": busy,
        "fail_ratio": stats.failed / stats.calls,
        "latency_samples": len(lat),
        "latency_p50_beyond": p50_beyond,
        "latency_tail_percentile": tail_p,
        "latency_tail_beyond": tail_beyond,
        "raw": {
            "graphs_per_s": stats.graphs / raw_busy,
            "latency_p50_ms": percentile(raw, 50)[0] * 1e3,
            "latency_tail_ms": percentile(raw, tail_p)[0] * 1e3,
        },
        "speed_probes": len(speed.points),
        "speed_rate_min_max": [min(p[2] for p in speed.points), max(p[2] for p in speed.points)],
        "setup_samples_s": setup,
    }
    return stats, metrics, meta


def setup_samples(args, speed: Speed) -> list[float]:
    """Set-up time of fresh processes, from spawn to where the first call
    would start, scaled by the machine speed probed around each."""
    samples = []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        start = perf_counter()
        probe = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        ready = float(probe.stdout.split()[-1])
        speed.probe()
        samples.append(speed.nominal(start, ready))
    return samples


def traced(args, cli_main, files, expected, names) -> tuple[Stats, dict, dict]:
    ops = wl.pass_ops(args.workload, args.seed, 0, files, expected)
    stats = Stats()
    passes = []
    with Speed() as speed:
        for trace_on in (True, False, True):
            one, counters, tracer = Stats(), Counter({k: 0 for k in OUTPUT_COUNTS}), Tracer()
            if trace_on:
                tracer.install()
                speed.on_probe = tracer.exclude
            try:
                entry = tracer.span("cli", cli_main) if trace_on else cli_main
                check_pass_digest(args.workload, args.seed, 0,
                                  run_pass(entry, ops, expected, one, counters), expected, one)
            finally:
                speed.on_probe = None
                tracer.uninstall()
            counters["cli.stdout_bytes"] = one.stdout_bytes
            if trace_on:
                counters.update({f"{name}.calls": n for name, n in tracer.calls.items()})
                counters["classify.enumerate_graphs.yielded"] = tracer.yielded[GENERATOR_SPAN]
            passes.append((one, counters, tracer))
            stats.calls += one.calls
            stats.failed += one.failed
    (t1, c1, tr1), (u, cu, _), (t2, c2, tr2) = passes
    repeat = c1 == c2 and all(cu[k] == c1[k] for k in cu)
    if not repeat:
        stats.failed += 1
        print(f"perfbench: exact counters differ between passes: {c1} {cu} {c2}", file=sys.stderr)

    def nominal(one: Stats) -> float:
        return sum(speed.nominal(a, b) for a, b in one.spans)

    # span self times exclude the probes; scale them like their pass
    scale1 = nominal(t1) / sum(speed.busy(a, b) for a, b in t1.spans)
    scale2 = nominal(t2) / sum(speed.busy(a, b) for a, b in t2.spans)

    def self_s(span):
        return (tr1.self_s[span] * scale1 + tr2.self_s[span] * scale2) / 2

    traced_s = (nominal(t1) + nominal(t2)) / 2
    values = {
        "classify.enumerate_graphs.next_s": self_s(GENERATOR_SPAN),
        "trace.traced_wall_s": traced_s,
        "trace.untraced_wall_s": nominal(u),
        "trace.overhead_s": traced_s - nominal(u),
    }
    metrics = {}
    for name in names:  # "<span>.self_s", "<span>.calls" or a count from the outputs
        if name in values:
            metrics[name] = values[name]
        elif name.endswith(".self_s"):
            metrics[name] = self_s(name[: -len(".self_s")])
        else:
            metrics[name] = c1[name]
    meta = {
        "passes": 3,
        "pass_nominal_s": [nominal(t1), nominal(u), nominal(t2)],
        "calls": stats.calls,
        "fail_ratio": stats.failed / stats.calls,
        "counters_repeat": repeat,
        "span_self_sum_s": sum(self_s(n) for n in set(tr1.self_s) | set(tr2.self_s)),
    }
    return stats, metrics, meta


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "nashcone")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli_main = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import nashcone from {SRC}: {exc}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        files = wl.write_files(args.workload, workdir)
        if args.setup_probe:
            print(repr(perf_counter()), flush=True)
            return 0
        with open(EXPECTED, encoding="utf-8") as fh:
            expected = json.load(fh)
        with open(BENCHMARK, encoding="utf-8") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
        if args.trace:
            stats, metrics, meta = traced(args, cli_main, files, expected, list(units))
        else:
            stats, metrics, meta = measure(args, cli_main, files, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is still using it
    meta.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    })
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.calls,
        "failed": stats.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
