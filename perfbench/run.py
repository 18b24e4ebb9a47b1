#!/usr/bin/env python3
"""The repository benchmark: seeded workloads against the public API of
``grassmann``, in one process, with one caller in a closed loop (each
operation starts after the previous one returns; no threads).

    python3 perfbench/run.py --workload verify_gf7 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

A run imports the library from ``src/`` of the checkout it sits in, sets up
(import, seeded inputs, warm-up) several times and keeps the last set-up,
then measures whole cycles of operations until the timed wall time reaches
``--seconds``.  Every output is checked outside the timed region.  Human-
readable lines go first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Each run is also appended to the result file (``--out``),
which ``--compare`` reads.  The exit code is nonzero when any operation
failed, and when the library cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUPS = 5  # set-ups per run; setup_s is their median
TAIL_BEYOND = 10  # samples beyond the reported tail percentile

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- set-up -------------------------------------------------------------------

def import_library():
    """Import ``grassmann`` afresh from the checkout's ``src/``, never from
    anywhere else on the path."""
    for name in [n for n in sys.modules if n == "grassmann" or n.startswith("grassmann.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mod = importlib.import_module("grassmann")
    origin = Path(mod.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"grassmann was imported from {origin}, not from {SRC}")
    return mod


def set_up(cls, seed):
    times = []
    workload = None
    for _ in range(SETUPS):
        t0 = perf_counter()
        import_library()
        workload = cls(seed)
        workload.warm_up()
        times.append(perf_counter() - t0)
    return workload, times


# -- measurement ----------------------------------------------------------------

class Run:
    def __init__(self):
        self.cycles = []  # seconds per operation, one list per cycle
        self.timed = 0.0
        self.attempted = 0
        self.failures = []

    def op(self, workload, inp, tracer=None):
        """Prepare, time and check one operation; trace only its timed part."""
        obj = workload.prepare(inp)
        error = None
        if tracer is not None:
            tracer.install()
        t0 = perf_counter()
        try:
            out = workload.run(obj)
        except Exception:
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        finally:
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.remove()
        self.attempted += 1
        self.cycles[-1].append(dt)
        self.timed += dt
        if error is None:
            try:
                error = workload.check(obj, out)
            except Exception:
                error = "check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        if error is not None:
            self.failures.append(error)


def measure(workload, seconds, tracer=None):
    """Whole cycles until the timed wall time reaches ``seconds``.  With a
    tracer, each operation runs untraced, then traced on the same input, so
    the overhead compares identical work; returns (untraced, traced)."""
    plain = Run()
    traced = Run() if tracer is not None else None
    runs = [r for r in (plain, traced) if r is not None]
    c = 0
    while c == 0 or sum(r.timed for r in runs) < seconds:
        for r in runs:
            r.cycles.append([])
        for inp in workload.cycle(c):
            plain.op(workload, inp)
            if traced is not None:
                traced.op(workload, inp, tracer)
        c += 1
    return plain, traced


def tail(latencies):
    """The highest percentile with TAIL_BEYOND samples beyond it: the
    (TAIL_BEYOND+1)-th largest sample; in a run too short for that to lie
    above the median, the median."""
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_BEYOND - 1, len(ordered) // 2)
    pct = 100.0 * (k + 1) / len(ordered)
    return ordered[k], pct, len(ordered) - 1 - k


def median_latency(cycles):
    """The median over cycles of each cycle's median operation time.

    A cycle holds one operation of each kind.  Where the kinds split into two
    equal halves (the twelve verify suites), the median of all operations
    falls in the gap between the halves and is set by the two samples at its
    edges; the median of cycle medians places it mid-gap, from every cycle.
    """
    return statistics.median(statistics.median(c) for c in cycles)


def end_to_end(run, setup_times):
    latencies = [t for c in run.cycles for t in c]
    value, pct, beyond = tail(latencies)
    correct = run.attempted - len(run.failures)
    return {
        "ops_per_s": (correct / run.timed, "1/s", ""),
        "latency_p50_ms": (1e3 * median_latency(run.cycles), "ms",
                           f"median of {len(run.cycles)} cycle medians"),
        "latency_tail_ms": (1e3 * value, "ms",
                            f"p{pct:.2f}, n={len(latencies)}, {beyond} beyond"),
        "failed_ratio": (len(run.failures) / run.attempted, "ratio",
                         f"{len(run.failures)}/{run.attempted}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", ""),
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)}"),
    }


PER_OP = ("calls", "self_ms", "incl_ms")


def per_layer(spec, plain, traced, tracer):
    """Per-layer values per traced operation (per call for verify suites)."""
    ops = traced.attempted
    out = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        layer, _, field = name.rpartition(".")
        if name == "trace.overhead_ratio":
            value = traced.timed / plain.timed
        elif name in tracer.counters:
            value = tracer.counters[name] / ops
        elif field == "yield":
            pairs = tracer.counters[layer + ".pairs"]
            value = tracer.counters[layer + ".terms_out"] / pairs if pairs else 0.0
        elif layer.startswith("verify.suite."):
            st = tracer.stats.get(layer)
            value = 1e3 * st.incl / st.calls if st else 0.0
        elif field in PER_OP:
            st = tracer.stats.get(layer)
            if st is None:
                value = 0.0
            elif field == "calls":
                value = st.calls / ops
            else:
                value = 1e3 * (st.self_time if field == "self_ms" else st.incl) / ops
        else:
            raise KeyError(f"no measurement for per-layer metric {name}")
        out[name] = (value, entry["unit"], "")
    return out


# -- output ---------------------------------------------------------------------

def environment(cls):
    n = cls.n if isinstance(cls.n, int) else list(cls.n)
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "field": cls.field, "n": n}


def print_metrics(metrics):
    for name, (value, unit, note) in metrics.items():
        extra = f"  ({note})" if note else ""
        print(f"  {name:34s} {value:14.6g} {unit}{extra}")


def append_result(path, record):
    path.parent.mkdir(parents=True, exist_ok=True)
    data = json.loads(path.read_text()) if path.exists() else {"runs": []}
    data["runs"].append(record)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1))
    tmp.replace(path)


def write_spans(path, tracer):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump({"fields": ["id", "name", "start_s", "end_s", "parent_id"],
                   "spans": tracer.spans}, fh)


def run_workload(args):
    spec = load_spec()
    cls = wl.WORKLOADS[args.workload]
    try:
        workload, setup_times = set_up(cls, args.seed)
    except ImportError as err:
        print(f"error: cannot import the library from {SRC}: {err}", file=sys.stderr)
        return 2
    env = environment(cls)
    print(f"workload {cls.name}: n={env['n']} field={cls.field} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} python={env['python']} "
          f"nproc={env['nproc']}")
    if args.trace:
        tracer = Tracer()
        plain, traced = measure(workload, args.seconds, tracer)
        runs = (plain, traced)
        metrics = per_layer(spec, plain, traced, tracer)
        spans_path = OUT_DIR / f"spans-{cls.name}-seed{args.seed}.json"
        write_spans(spans_path, tracer)
        print(f"per-layer metrics over {traced.attempted} traced operations "
              f"({len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}):")
        wanted = [e["name"] for e in spec["per_layer"]]
    else:
        run, _ = measure(workload, args.seconds)
        runs = (run,)
        metrics = end_to_end(run, setup_times)
        print("end-to-end metrics:")
        wanted = [e["name"] for e in spec["end_to_end"]]
    print_metrics(metrics)
    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    for reason in failures[:5]:
        print(f"FAILED: {reason}")
    append_result(Path(args.out), {
        "workload": cls.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u, "note": note}
                    for k, (v, u, note) in metrics.items()}})
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in wanted}}))
    return 1 if failures else 0


# -- compare ----------------------------------------------------------------------

def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(old_path, new_path):
    """Median of each end-to-end metric per workload, old against new, with
    the ratio new/old and each side's spread.  A metric worse than its bound
    is flagged; one whose spread exceeds its bound is unresolved unless every
    new run reads better than every old one."""
    spec = load_spec()
    old = json.loads(Path(old_path).read_text())["runs"]
    new = json.loads(Path(new_path).read_text())["runs"]
    flagged = 0
    for w in spec["workloads"]:
        name = w["name"]
        a = [r for r in old if r["workload"] == name and not r["trace"]]
        b = [r for r in new if r["workload"] == name and not r["trace"]]
        if not a or not b:
            print(f"{name}: no untraced runs in both files")
            continue
        print(f"{name}: {len(a)} old runs, {len(b)} new runs (medians; spread = IQR/median)")
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a]
            vb = [r["metrics"][m["name"]]["value"] for r in b]
            ratio = statistics.median(vb) / statistics.median(va)
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            widest = max(spread(va), spread(vb))
            all_better = (max(vb) < min(va) if m["better"] == "lower"
                          else min(vb) > max(va))
            flag = ""
            if worse > m["bound"]:
                flag = f"  WORSE beyond bound {m['bound']:g}"
                flagged += 1
            elif widest > m["bound"] and not all_better:
                flag = f"  unresolved: spread above bound {m['bound']:g}"
            print(f"  {m['name']:18s} {statistics.median(va):12.6g} -> "
                  f"{statistics.median(vb):12.6g} {m['unit']:5s} ratio {ratio:.4f} "
                  f"spread {spread(va):.3f}/{spread(vb):.3f} "
                  f"({m['better']} is better){flag}")
    return 1 if flagged else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(OUT_DIR / "results.json"),
                        help="result file each run is appended to")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two result files and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
