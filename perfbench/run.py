"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Workloads: exact, corner, sweep (see workloads.py and README.md).  With
--trace 0 the result holds the end-to-end metrics; with --trace 1 the
library's public functions are wrapped in spans and the result holds the
per-layer metrics instead.  The library is imported from src/ of the
checkout this file sits in; without it the run fails with exit code 2.
Outputs (stores, figures, trace.json) go to perfbench_out/ in the checkout.
"""
import os
import sys
import time

# One BLAS/OpenMP thread: on a 2-core host a second thread adds contention
# and steal, not speed.  Must be set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench_out")
WORKLOAD_NAMES = ("exact", "corner", "sweep")


def process_age():
    """Seconds since this process started (start known to one clock tick)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


def cpu_seconds():
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def wrapper_cost(spans_module, calls=20000):
    """Seconds one traced call adds over a plain call, measured here."""
    tracer = spans_module.Tracer()
    tracer.active = True

    def noop():
        return None

    traced = tracer.wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - t0 - plain, 0.0) / calls


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "catlattice", "__init__.py")):
        print("perfbench: no catlattice package under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import catlattice
    if not os.path.abspath(catlattice.__file__).startswith(SRC + os.sep):
        print("perfbench: catlattice came from %s, not %s"
              % (catlattice.__file__, SRC), file=sys.stderr)
        return 2
    import checks
    import layers
    import spans
    import workloads

    outdir = os.path.join(OUT, "%s-seed%d-trace%d"
                          % (args.workload, args.seed, args.trace))
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    tracer = spans.Tracer()
    missing = layers.install(tracer) if args.trace else []
    for name in missing:
        print("perfbench: traced name not found: %s" % name, file=sys.stderr)
    work = workloads.WORKLOADS[args.workload](args.seed, outdir, tracer)
    setup_s = process_age()
    print("perfbench: %s seed %d inputs %s"
          % (args.workload, args.seed, json.dumps(work.inputs)),
          file=sys.stderr)

    rounds = max(1, round(args.seconds / work.ROUND_SECONDS))
    attempted = failed = 0
    correct = True
    cpu, wall, rss, per_layer = [], [], [], []
    for k in range(rounds):
        tracer.spans.clear()
        c0, t0 = cpu_seconds(), time.perf_counter()
        tracer.active = bool(args.trace)
        n, bad, out = work.run_round(k)
        tracer.active = False
        wall.append(time.perf_counter() - t0)
        cpu.append(cpu_seconds() - c0)
        rss.append(peak_rss_mb())
        attempted += n
        failed += bad
        if args.trace:
            per_layer.append(dict(layers.layer_metrics(tracer.spans),
                                  **{"trace.spans": len(tracer.spans)}))
        try:
            work.check(out)
        except checks.CheckFailed as e:
            correct = False
            print("perfbench: CHECK FAILED: %s" % e, file=sys.stderr)
        except Exception:               # a check that crashes proves nothing
            correct = False
            traceback.print_exc()
        print("perfbench: round %d: %d points, %d failed, %.2f s CPU, "
              "%.2f s wall" % (k, n, bad, cpu[-1], wall[-1]), file=sys.stderr)

    if args.trace:
        metrics = {name: statistics.median(m[name] for m in per_layer)
                   for name in per_layer[0]}
        metrics["trace.wall_s"] = statistics.median(wall)
        metrics["trace.overhead_s"] = (metrics["trace.spans"]
                                       * wrapper_cost(spans))
        metrics["trace.missing"] = len(missing)
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        with open(os.path.join(outdir, "trace.json"), "w") as fh:
            json.dump({"inputs": work.inputs, "missing": missing,
                       "metrics": metrics}, fh, indent=2)
            fh.write("\n")
    else:
        metrics = {"setup_s": setup_s, "cpu_s": statistics.median(cpu),
                   "wall_s": statistics.median(wall),
                   "peak_rss_mb": max(rss)}
        units = {"setup_s": "s", "cpu_s": "s", "wall_s": "s",
                 "peak_rss_mb": "MB"}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
