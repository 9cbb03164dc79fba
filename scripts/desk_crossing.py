#!/usr/bin/env python
"""Desk-scale crossing experiment on small 1D chains.

Sweeps N in {2..5} at reduced Fock truncation over a wide drive grid and
locates the rescaled-parity crossing with 2D-Ising exponents (beta = 1/8,
nu = 1).  At these sizes the apparent crossing sits well above the
thermodynamic transition region: the interaction energy per site is still
dominated by the U/N blockade, which delays the parity drop.  The point of
the script is to measure that finite-size location and check it is stable
against the truncation, not to reproduce the large-lattice value.

    python scripts/desk_crossing.py
    python scripts/desk_crossing.py --n-max 5 --out-dir /tmp/desk
"""
import argparse
import os
import sys

from catlattice.analyze import analyze_rows
from catlattice.config import RunConfig
from catlattice.store import read_rows
from catlattice.sweep import run_sweep

G_GRID = [1.2, 1.8, 2.4, 3.0, 4.0, 4.5, 5.0, 5.5, 6.0, 7.0, 8.0]


def desk_config(n_max, out_dir):
    return RunConfig.from_dict({
        "label": "desk_n%d" % n_max,
        "u": 100.0,
        "j_hop": 50.0,
        "sizes": [2, 3, 4, 5],
        "n_max": n_max,
        "g_values": G_GRID,
        "solver": {"method": "auto", "exact_dim_cap": 100},
        "corner": {"m_list": [48, 64], "drift_tol": 1e-3},
        "output_dir": out_dir,
    })


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-max", type=int, default=4,
                    help="Fock truncation (default 4)")
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args()

    cfg = desk_config(args.n_max, args.out_dir)
    store = run_sweep(cfg, log=lambda msg: print(msg, flush=True))
    res = store.last_sweep
    rows = read_rows(res["store_path"])
    outdir = os.path.join(os.path.dirname(res["store_path"]),
                          cfg.label + "_analysis")
    out = analyze_rows(rows, outdir, dimensionality=1)
    cr = out["collapse_result"]
    print("apparent crossing: G_c/gamma = %s (pairs: %s)"
          % (cr.estimate(3),
             ", ".join("%s/%s at %.2f" % c for c in cr.crossings)))
    print("figure: %s" % out["collapse_svg"])
    print("collapse: %s" % out["collapse_json"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
