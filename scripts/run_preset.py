#!/usr/bin/env python
"""Run one preset end to end: sweep every (size, G) point, then the
finite-size-scaling analysis over the resulting store.

The sweep resumes from an existing store, so re-running after an
interruption (or after widening the G grid in a derived config) only
computes the missing points.

    python scripts/run_preset.py fig2
    python scripts/run_preset.py fig4 --out-dir /data/runs --skip-analysis
"""
import argparse
import os
import sys

from catlattice.analyze import AnalysisError, analyze_rows
from catlattice.config import load_preset, preset_names
from catlattice.store import read_rows
from catlattice.sweep import run_sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("preset", choices=preset_names())
    ap.add_argument("--out-dir", help="output directory (default: config, "
                    "then $CATLATTICE_OUTDIR, then ./runs)")
    ap.add_argument("--skip-analysis", action="store_true",
                    help="sweep only, no scaling report")
    args = ap.parse_args()

    cfg = load_preset(args.preset)
    if args.out_dir:
        cfg.output_dir = args.out_dir

    store = run_sweep(cfg, log=lambda msg: print(msg, flush=True))
    res = store.last_sweep
    print("sweep done: %d new, %d resumed, %d failed"
          % (res["n_new"], res["n_skipped"], res["n_failed"]))
    print("store: %s" % res["store_path"])
    if args.skip_analysis:
        return 1 if res["n_failed"] else 0

    outdir = os.path.join(os.path.dirname(res["store_path"]),
                          cfg.label + "_analysis")
    try:
        out = analyze_rows(read_rows(res["store_path"]), outdir)
    except (AnalysisError, RuntimeError, ValueError) as e:
        print("analysis failed: %s" % e, file=sys.stderr)
        return 1
    cr = out["collapse_result"]
    print("G_c/gamma = %s" % cr.estimate(4))
    if "entropy_peak" in out:
        print("entropy peak exponent kappa = %.4f"
              % out["entropy_peak"].kappa)
    print("report: %s" % outdir)
    return 1 if res["n_failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
