#!/usr/bin/env python3
"""neveukit benchmark: four workloads, end-to-end timings and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload {gallery,large-d,stochastic,flow} \\
        --seed N --seconds S --trace {0,1}

Each workload is a closed loop with one client: this process runs the items
back to back, a whole pass at a time, until ``--seconds`` have passed (at
least one pass).  Every item is checked after it ran, outside its timing.
``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` prints its per-layer metrics, taken from a separate traced
build and fixed number of traced passes.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``.  A results file with
the environment, quartiles, sample counts and the full span table goes to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("gallery", "large-d", "stochastic", "flow")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on the 2-vCPU reference VM a second OpenBLAS thread made
# flow items about 3x and large-d items about 15% slower, and both noisier.
# A fixed hash seed keeps dict and set layouts the same in every run; with a
# random one the gallery figure spread 12% between runs, with seed 0 3%.
BLAS_THREADS = 1
# setup_s is the median of this many cold set-ups: this process plus fresh
# interpreters, since import and lazy initialisation happen once per process.
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120
# Traced passes are a fixed count so that span call counts repeat exactly.
TRACED_PASSES = {"gallery": 3, "large-d": 2, "stochastic": 3, "flow": 2}


def bootstrap():
    """Fix the hash seed and BLAS threads; import the package from this checkout.

    Both are read when the interpreter and numpy start, so the process
    re-executes itself once with them set.
    """
    if not os.path.isfile(os.path.join(SRC, "neveukit", "__init__.py")):
        raise SystemExit(f"error: no neveukit sources under {SRC}")
    fixed = {var: str(BLAS_THREADS) for var in THREAD_VARS}
    fixed["PYTHONHASHSEED"] = "0"
    if any(os.environ.get(k) != v for k, v in fixed.items()):
        os.environ.update(fixed)
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path[:0] = [SRC, HERE]


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "env_vars": {var: os.environ[var] for var in THREAD_VARS + ("PYTHONHASHSEED",)},
        "loop": "closed, one client, items back to back",
        "clock": "time.perf_counter",
        "note": "CPUs are not pinned and their frequency is not fixed; "
        "compare medians and quartiles, not single runs",
    }


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, what, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages += [f"{what}: {f}" for f in failures]


def run_pass(wl, tally):
    """One pass over the items; returns per-item latencies."""
    latencies = []
    for item in wl.items:
        t0 = time.perf_counter()
        try:
            output = wl.run_item(item)
        except Exception:
            latencies.append(time.perf_counter() - t0)
            tally.record(repr(item[0]), [traceback.format_exc(limit=3)])
            continue
        latencies.append(time.perf_counter() - t0)
        try:
            failures = wl.check_item(item, output)
        except Exception:
            failures = [traceback.format_exc(limit=3)]
        tally.record(repr(item[0]), failures)
    return latencies


def build(wl, tally):
    failures = wl.build()
    if failures:
        tally.record("set-up", failures)


def set_up(args, workdir, tally):
    """Import, build every input and run one warm-up pass; returns (wl, s)."""
    t0 = time.perf_counter()
    import neveukit

    if not os.path.abspath(neveukit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: neveukit imported from {neveukit.__file__}")
    import workloads

    wl = workloads.WORKLOAD_CLASSES[args.workload](
        args.seed, workdir, workloads.load_reference()
    )
    build(wl, tally)
    built = time.perf_counter() - t0
    return wl, built + sum(run_pass(wl, tally))


def probe_setup(args):
    """Time one cold set-up in a fresh interpreter."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def pass_walls(passes):
    """Wall time of each pass: the sum of its item latencies."""
    return [sum(p) for p in passes]


def item_p90(passes):
    """90th percentile over every item latency of every pass."""
    latencies = [t for p in passes for t in p]
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=10, method="inclusive")[-1]


def measure(wl, seconds, tally):
    """Whole passes until ``seconds`` have passed; per-item latencies."""
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(wl, tally))
    return passes


def traced_run(wl, n_passes, passes, tally):
    from tracer import Tracer

    with Tracer() as tracer:
        build(wl, tally)
        traced = [run_pass(wl, tally) for _ in range(n_passes)]
    table = tracer.metrics()
    table["trace.overhead_frac"] = (
        statistics.median(pass_walls(traced)) / statistics.median(pass_walls(passes)) - 1
    )
    return table, tracer.stats, traced


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    bootstrap()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        if args.setup_probe:
            _, setup_s = set_up(args, workdir, tally)
            print(json.dumps({"setup_s": setup_s, "attempted": tally.attempted,
                              "failed": tally.failed, "messages": tally.messages}))
            return 0
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe = probe_setup(args)
                setups.append(probe["setup_s"])
                tally.attempted += probe["attempted"]
                tally.failed += probe["failed"]
                tally.messages += probe["messages"]
        wl, setup_s = set_up(args, workdir, tally)
        setups.append(setup_s)
        passes = measure(wl, args.seconds, tally)
        result = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": environment(),
            "samples": {"setup_s": setups, "item_s_per_pass": passes},
        }
        if args.trace:
            table, stats, traced = traced_run(
                wl, TRACED_PASSES[args.workload], passes, tally
            )
            wanted = [m["name"] for m in spec["per_layer"]]
            result["samples"]["traced_item_s_per_pass"] = traced
            result["spans"] = {
                name: {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s}
                for name, st in stats.items()
            }
        else:
            table = {
                "setup_s": statistics.median(setups),
                "pass_s": statistics.median(pass_walls(passes)),
                "item_p90_s": item_p90(passes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            wanted = [m["name"] for m in spec["end_to_end"]]
        result["quartiles"] = {
            "setup_s": summary(setups),
            "pass_wall_s": summary(pass_walls(passes)),
            "item_s": summary([t for p in passes for t in p]),
        }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": table[name], "unit": units[name]} for name in wanted}
    result.update(
        attempted=tally.attempted, failed=tally.failed,
        failed_fraction=tally.failed / max(tally.attempted, 1),
        failures=tally.messages[:20], metrics=metrics, all_metrics=table,
    )
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    for msg in tally.messages[:5]:
        print(f"FAILED {msg}", file=sys.stderr)
    for name, q in result["quartiles"].items():
        print(f"{name:12s} median {q['median']:.6f} s  q1 {q['q1']:.6f}  "
              f"q3 {q['q3']:.6f}  n {q['n']}")
    for name, st in result.get("spans", {}).items():
        print(f"span {name:40s} calls {st['calls']:8d}  self {st['self_s']:.6f} s  "
              f"total {st['total_s']:.6f} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_fraction = {result['failed_fraction']:.6g} "
          f"({tally.failed} of {tally.attempted} items); results in {path}")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
