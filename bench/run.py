"""Benchmark of grassmult on four seeded workloads.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from
its src/ directory.  Each workload is a closed loop: one client in one
process, the next query sent when the previous one returns.  With
--trace 0 the run times queries for --seconds seconds and reports the
end-to-end metrics, scaled to a reference machine speed by a frozen copy
of the library (see CAL_EVERY).  With --trace 1 it runs a fixed number of queries
twice, untraced and then traced, and reports the per-layer metrics and
the tracing overhead.  Every answer is checked.  The last line of
standard output is one JSON object; the exit code is 1 if any answer
was wrong and 2 if the library cannot be imported.  --workload all runs
each workload in its own process and prints a table.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from itertools import chain, islice
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE / "seedlib"))

from tracer import Tracer  # noqa: E402
from workloads import BLOCK, WORKLOADS, Failure  # noqa: E402

SETUPS = 5  # set-ups per run; setup_s is their median
WARMUP = 2  # warm-up queries per set-up, from a stream fixed across seeds
MIN_QUERIES = 100  # the p90 needs ten samples beyond it

# The shared machine this was built on drifts in speed by a third over
# seconds to minutes, and every timing moves with it.  seedlib/ holds a
# frozen copy of grassmult as it was when the benchmark was defined.
# Every CAL_EVERY seconds of the timed loop, with its clock stopped, the
# frozen copy runs one calibration unit: the first `calibration` queries
# of the workload's "calibration" stream.  Each timing is then scaled by
# calibration_ref_s / (median unit time), which reports it at the speed
# at which the frozen copy takes calibration_ref_s per unit.  The frozen
# copy slows down with the machine as the live library does, so the
# scaled timings keep what the library changed and drop what the machine
# did.  The raw timings are in the run's context.
CAL_EVERY = 0.5

END_TO_END = {
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Wrapped functions and the statistics reported for each.  Per-point
# helpers (sign, prec, depth, trianglelefteq_pt) stay unwrapped: they run
# millions of times and their cost shows in the self time of the caller.
LAYERS = {
    "multiplicity.multiplicity": ("calls",),
    "multiplicity.count_families": ("calls", "self_s"),
    "multiplicity.enumerate_paths": ("calls", "self_s", "paths_out"),
    "multiplicity.maximal_bounded_subsets": ("self_s",),
    "chains.chain_bounded": ("calls", "self_s", "hit_frac"),
    "chains.canonicalize": ("calls", "self_s"),
    "grassmannian.build_bound_multisets": ("calls", "self_s"),
    "groebner.verify_groebner": ("self_s",),
    "groebner.count_monomials_outside_initial": ("self_s",),
    "groebner.count_standard_monomials": ("self_s",),
    "groebner.bounded_multisets_of_degree": ("calls", "self_s", "multisets_out"),
    "groebner.dimension_and_degree": ("self_s",),
    "brsk.brsk": ("calls", "self_s"),
    "brsk.brsk_negative": ("calls", "self_s"),
    "brsk.rbrsk": ("calls", "self_s"),
    "brsk.multiset_bounded_by": ("calls", "self_s", "hit_frac"),
    "tableaux.bounded_insert": ("calls", "self_s"),
    "tableaux.reverse_bounded_insert": ("calls", "self_s"),
    "tableaux.bitableau_bounded_by": ("calls", "self_s"),
    "multisets.termwise_leq": ("calls", "self_s"),
    "multisets.formal_diff_leq": ("calls", "self_s"),
    "multisets.multiset_order_leq": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "hit_frac": "frac", "paths_out": "count", "multisets_out": "count"}
OVERHEAD = "trace.overhead_frac"


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {"%s.%s" % (fn, s): STAT_UNITS[s] for fn, stats in LAYERS.items() for s in stats}
    units[OVERHEAD] = "frac"
    return units


def percentile(samples, p):
    """Nearest-rank p-th percentile; refused unless at least ten samples
    lie beyond it."""
    xs = sorted(samples)
    rank = ceil(p / 100 * len(xs))
    if len(xs) - rank < 10:
        raise ValueError("p%g needs ten samples beyond it; got %d samples" % (p, len(xs)))
    return xs[rank - 1]


class Library:
    """The modules of a grassmult package that a query calls through:
    the live one under src/, or the frozen copy under seedlib/.
    Attributes are read at call time, so a Tracer's rebinding is seen."""

    def __init__(self, package="grassmult", home=ROOT / "src"):
        # Drop earlier imports so that every set-up pays for the import.
        for name in [k for k in sys.modules if k == package or k.startswith(package + ".")]:
            del sys.modules[name]
        self.pkg = importlib.import_module(package)
        if not Path(self.pkg.__file__).resolve().is_relative_to(home):
            raise ImportError("%s imported from %s, not from %s" % (package, self.pkg.__file__, home))
        self.cli = importlib.import_module(package + ".cli")
        self.tableaux = sys.modules[package + ".tableaux"]
        self.multisets = sys.modules[package + ".multisets"]


def run_query(workload, lib, q):
    try:
        return workload.run(lib, q)
    except Exception as exc:  # a failed query is counted, not fatal
        return Failure(exc)


def setup(workload, seedlib, unit):
    """Import the library, generate inputs and warm up, SETUPS times, and
    time a calibration unit after each set-up.  Returns (library,
    pre-generated queries, rest of the stream, set-up times, unit times)."""
    times, units = [], []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        lib = Library()
        stream = workload.queries(workload.seed)
        pregen = list(islice(stream, workload.pregen))
        for q in islice(workload.queries("warm-up"), WARMUP):
            run_query(workload, lib, q)
        times.append(time.perf_counter() - t0)
        units.append(calibration_unit(workload, seedlib, unit))
    return lib, pregen, stream, times, units


class Verdicts:
    """Answer checks of one pass, made a block at a time so that memory
    does not grow with the number of queries."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = self.frozen_checked = 0

    def add(self, position, block):
        ok, frozen = self.workload.verify(position, block)
        self.attempted += len(block)
        self.failed += ok.count(False)
        self.frozen_checked += frozen
        for (q, out), good in zip(block, ok):
            if not good:
                print("wrong answer: %r -> %r" % (q, out), file=sys.stderr)


def calibration_unit(workload, seedlib, queries):
    """Seconds the frozen copy takes for one calibration unit."""
    t0 = time.perf_counter()
    for q in queries:
        workload.run(seedlib, q)
    return time.perf_counter() - t0


def timed_pass(workload, lib, queries, seconds=None, count=None, tracer=None, seedlib=None, unit=()):
    """Closed loop over queries, until `seconds` of it have passed and at
    least MIN_QUERIES are done, or until `count` are done.  Answers are
    checked every BLOCK queries, and with `seedlib` the calibration
    `unit` is timed every CAL_EVERY seconds, with the clock stopped.
    Returns (latencies, elapsed seconds, verdicts, unit times)."""
    lat = array("d")
    verdicts = Verdicts(workload)
    block = []
    elapsed = since_unit = 0.0
    units = [] if seedlib is None else [calibration_unit(workload, seedlib, unit)]
    clock = time.perf_counter
    mark = clock()
    for q in queries:
        if count is not None:
            if len(lat) >= count:
                break
        elif elapsed >= seconds and len(lat) >= MIN_QUERIES:
            break
        if tracer is not None:
            tracer.query_id = len(lat)
        t0 = clock()
        out = run_query(workload, lib, q)
        t1 = clock()
        lat.append(t1 - t0)
        elapsed += t1 - mark
        since_unit += t1 - mark
        block.append((q, out))
        if len(block) == BLOCK:
            verdicts.add(len(lat) - BLOCK, block)
            block = []
        if seedlib is not None and since_unit >= CAL_EVERY:
            units.append(calibration_unit(workload, seedlib, unit))
            since_unit = 0.0
        mark = clock()
    if block:
        verdicts.add(len(lat) - len(block), block)
    return lat, elapsed, verdicts, units


def git_commit():
    """The commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def emit(metrics, units, attempted, failed):
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name](seed)
    seedlib = Library("grassmult_seed", HERE / "seedlib")
    unit = list(islice(workload.queries("calibration"), workload.calibration))
    lib, pregen, stream, setup_times, setup_units = setup(workload, seedlib, unit)
    context = {
        "workload": name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "grassmult_commit": git_commit(),
        "loop": "closed, 1 client, 1 process",
    }
    if trace:
        queries = pregen[: workload.trace_queries]
        calibrated = dict(count=len(queries), seedlib=seedlib, unit=unit)
        _, untraced_s, untraced, untraced_units = timed_pass(workload, lib, queries, **calibrated)
        with Tracer({fn: any(s.endswith("_out") for s in st) for fn, st in LAYERS.items()}) as tracer:
            _, traced_s, traced, traced_units = timed_pass(workload, lib, queries, tracer=tracer, **calibrated)
        metrics = layer_metrics(tracer)
        metrics[OVERHEAD] = 1 - (untraced_s / statistics.median(untraced_units)) / (
            traced_s / statistics.median(traced_units)
        )
        context.update(untraced_s=untraced_s, traced_s=traced_s, self_share=self_shares(tracer))
        units = per_layer_units()
        write_spans(tracer, name, seed)
        passes = [untraced, traced]
    else:
        lat, elapsed, verdicts, cal_units = timed_pass(
            workload, lib, chain(pregen, stream), seconds=seconds, seedlib=seedlib, unit=unit
        )
        scale = workload.calibration_ref_s / statistics.median(cal_units)
        raw = {
            "queries_per_s": len(lat) / elapsed,
            "query_p50_ms": 1e3 * statistics.median(lat),
            "query_p90_ms": 1e3 * percentile(lat, 90),
            "setup_s": statistics.median(setup_times),
        }
        metrics = {
            "queries_per_s": raw["queries_per_s"] / scale,
            "query_p50_ms": raw["query_p50_ms"] * scale,
            "query_p90_ms": raw["query_p90_ms"] * scale,
            # each set-up is scaled by the unit timed right after it
            "setup_s": statistics.median(
                t * workload.calibration_ref_s / u for t, u in zip(setup_times, setup_units)
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        context.update(raw=raw, speed_scale=scale, calibration_units=len(cal_units), timed_s=elapsed, setup_times_s=setup_times)
        units = END_TO_END
        passes = [verdicts]
    attempted = sum(v.attempted for v in passes)
    failed = sum(v.failed for v in passes)
    context.update(
        queries=attempted,
        frozen_checked=sum(v.frozen_checked for v in passes),
        inputs={"first_queries": len(pregen), **workload.properties(pregen)},
    )
    print("context " + json.dumps(context))
    for k, unit in units.items():
        print("%-48s %14.6g %s" % (k, metrics[k], unit))
    print("%-48s %14.6g %s" % ("error_frac", failed / attempted, "frac"))
    emit(metrics, units, attempted, failed)
    return 1 if failed else 0


def layer_metrics(tracer):
    metrics = {}
    for fn, stats in LAYERS.items():
        st = tracer.stats[fn]
        values = {
            "calls": st.calls,
            "self_s": st.self_s,
            "hit_frac": st.hits / st.calls if st.calls else 0.0,
            "paths_out": st.out,
            "multisets_out": st.out,
        }
        for s in stats:
            metrics["%s.%s" % (fn, s)] = values[s]
    return metrics


def self_shares(tracer):
    """Each wrapped function's share of all traced self time."""
    total = sum(st.self_s for st in tracer.stats.values()) or 1.0
    return {fn: round(st.self_s / total, 4) for fn, st in tracer.stats.items() if st.calls}


def write_spans(tracer, name, seed):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / ("spans-%s-%s.jsonl" % (name, seed)), "w") as fh:
        for span_id, fn, start, end, parent, query in tracer.spans:
            fh.write(json.dumps({"id": span_id, "name": fn, "start": start, "end": end, "parent": parent, "query": query}) + "\n")


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    merged, attempted, failed, code = {}, 0, 0, 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            print("%s: no result (exit %d)" % (name, proc.returncode), file=sys.stderr)
            return 2
        print("== %s" % name)
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        code = max(code, proc.returncode)
        merged.update({"%s.%s" % (name, k): v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": merged}))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "grassmult" / "__init__.py").is_file():
        print("error: no grassmult sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
