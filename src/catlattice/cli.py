"""Command-line surface: solve, sweep, analyze, validate, map-spin.

Configs are JSON documents (see config.RunConfig); the named presets
fig2/fig3/fig4 ship with the package.  The default output directory is
./runs, overridable with the CATLATTICE_OUTDIR environment variable or
per-config output_dir.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .analyze import AnalysisError, analyze_rows
from .config import ENV_OUTPUT_DIR, ConfigError, RunConfig, load_preset, \
    preset_names
from .fock import DimensionCapError
from .lattice import geometry_from_size
from .store import read_rows
from .sweep import run_sweep, solve_point


def _checked(cast, ok, rule):
    """An argparse type: the text cast, if ok accepts it; else exit code 2
    and "must be <rule>" on stderr."""
    def parse(text):
        try:
            value = cast(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError("must be %s, not %r" % (rule, text))
    return parse


_finite = _checked(float, math.isfinite, "a finite number")
_nonnegative = _checked(float, lambda x: math.isfinite(x) and x >= 0,
                        "a finite number >= 0")
_positive = _checked(float, lambda x: math.isfinite(x) and x > 0,
                     "a finite number > 0")
_count = _checked(int, lambda n: n >= 1, "an integer >= 1")


def _size(text):
    """An argparse type: the lattice of a size, e.g. 4 or 2x2."""
    try:
        return geometry_from_size(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError("bad size %r: %s" % (text, e))


def _load_config(args):
    if args.config:
        return RunConfig.load(args.config)
    if args.preset:
        return load_preset(args.preset)
    raise SystemExit("one of --config or --preset is required "
                     "(presets: %s)" % ", ".join(preset_names()))


def _add_config_args(p):
    p.add_argument("--config", "-c", help="path to a RunConfig JSON file")
    p.add_argument("--preset", "-p",
                   help="named preset (%s)" % ", ".join(preset_names()))


def cmd_solve(args):
    cfg = _load_config(args)
    geom = args.size or cfg.geometries()[0]
    g = args.g if args.g is not None else cfg.g_values[0]
    rec = solve_point(cfg, geom, g)
    rec.update({"size": geom.label, "G_over_gamma": g,
                "config_hash": cfg.config_hash()})
    text = json.dumps(rec, indent=2, sort_keys=True, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def cmd_sweep(args):
    cfg = _load_config(args)
    if args.out_dir:
        cfg.output_dir = args.out_dir
    store = run_sweep(cfg, store_path=args.store,
                      log=lambda msg: print(msg, flush=True))
    res = store.last_sweep
    print("points: %d new, %d resumed, %d failed"
          % (res["n_new"], res["n_skipped"], res["n_failed"]))
    print("store: %s" % res["store_path"])
    print("csv:   %s" % res["csv_path"])
    return 0 if res["n_failed"] == 0 else 1


def cmd_analyze(args):
    outdir = args.out_dir or os.path.join(
        os.path.dirname(os.path.abspath(args.store)), "analysis")
    try:
        rows = read_rows(args.store)
        out = analyze_rows(rows, outdir, dimensionality=args.dim,
                           beta=args.beta, nu=args.nu,
                           include_unconverged=args.include_unconverged)
    except (AnalysisError, ValueError, RuntimeError, OSError) as e:
        print("analysis failed: %s" % e, file=sys.stderr)
        return 1
    res = out["collapse_result"]
    print("G_c/gamma = %s (residual %s, %d crossings)"
          % (res.estimate(4),
             "n/a" if res.residual is None else "%.3e" % res.residual,
             len(res.crossings)))
    if "entropy_peak" in out:
        pk = out["entropy_peak"]
        print("entropy peak: kappa = %.4f (r2 = %.4f%s)"
              % (pk.kappa, pk.r_squared,
                 ", under-determined" if pk.underdetermined else ""))
    for key in ("collapse_json", "rescaled_csv", "entropy_peak_json",
                "entropy_svg", "parity_svg", "collapse_svg"):
        if key in out:
            print("%s: %s" % (key, out[key]))
    return 0


def cmd_validate(args):
    from .validate import validate_suite
    rep = validate_suite()
    for name, g in rep["groups"].items():
        worst = max((c["value"] for c in g["checks"]), default=0.0)
        print("%-18s %s (worst %.3e over %d checks)"
              % (name, "PASS" if g["passed"] else "FAIL", worst,
                 len(g["checks"])))
        if not g["passed"]:
            for c in g["checks"]:
                if not c["passed"]:
                    print("    %s: %.3e > %.0e"
                          % (c["name"], c["value"], c["tol"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rep, fh, indent=2)
            fh.write("\n")
        print("report: %s" % args.out)
    print("suite: %s" % ("PASS" if rep["passed"] else "FAIL"))
    return 0 if rep["passed"] else 1


def cmd_map_spin(args):
    from .fock import FockSpace
    from .lattice import ModelParams, chain
    from .spinmap import (SpinModelCoefficients, estimate_alpha,
                          required_n_max, validate_mapping)
    params = ModelParams(delta=(-abs(args.j) if args.delta is None
                                else args.delta),
                         u=args.u, g=args.g, j_hop=args.j,
                         eta=args.eta if args.eta is not None else 1.0)
    if args.alpha_sq is not None:
        alpha = complex(np.sqrt(args.alpha_sq))
    else:
        fock = FockSpace(max(required_n_max(2.0), 20))
        alpha = estimate_alpha(params, fock)
    geom = chain(args.n_sites)
    coeffs = SpinModelCoefficients.from_params(alpha, params, geom)
    out = {
        "alpha": {"re": alpha.real, "im": alpha.imag,
                  "abs_sq": abs(alpha) ** 2},
        "coefficients": {
            "b_x": coeffs.b_x, "b_y": coeffs.b_y,
            "a_plus": coeffs.a_plus, "a_minus": coeffs.a_minus,
            "h_z": coeffs.h_z, "c_xx": coeffs.c_xx, "c_yy": coeffs.c_yy,
        },
        "identity_scalars": coeffs.identity_scalars(params),
    }
    if abs(alpha.imag) < 1e-12 and alpha.real > 0:
        fock = FockSpace(required_n_max(alpha) + 6)
        out["mapping_deviation"] = validate_mapping(alpha.real, params,
                                                    geom, fock)
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="catlattice",
        description="Steady states of the quadratically driven-dissipative "
                    "Bose-Hubbard lattice: exact and corner-space solvers, "
                    "parity/entropy sweeps, finite-size scaling, and the "
                    "cat-basis spin mapping.",
        epilog="Default output directory: $%s or ./runs." % ENV_OUTPUT_DIR)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a single (size, G) point")
    _add_config_args(p)
    p.add_argument("--size", type=_size, help="size, e.g. 4 or 2x2 "
                                              "(default: first in config)")
    p.add_argument("--g", type=_nonnegative,
                   help="drive G/gamma (default: first in config)")
    p.add_argument("--out", help="also write the record JSON here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="run a full sweep with resume")
    _add_config_args(p)
    p.add_argument("--store", help="JSONL store path "
                                   "(default: <outdir>/<label>.jsonl)")
    p.add_argument("--out-dir", help="output directory override")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="finite-size scaling over a store")
    p.add_argument("--store", required=True, help="JSONL or CSV store")
    p.add_argument("--out-dir", help="report directory "
                                     "(default: <store dir>/analysis)")
    p.add_argument("--dim", type=int, choices=(1, 2),
                   help="lattice dimensionality (default: inferred)")
    p.add_argument("--beta", type=_finite, help="override exponent beta")
    p.add_argument("--nu", type=_finite, help="override exponent nu")
    p.add_argument("--include-unconverged", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("validate", help="cross-module validation suite")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("map-spin", help="cat-basis spin-model report")
    p.add_argument("--u", type=_nonnegative, required=True)
    p.add_argument("--j", type=_finite, required=True)
    p.add_argument("--g", type=_nonnegative, default=1.0)
    p.add_argument("--delta", type=_finite,
                   help="detuning (default: -|J|)")
    p.add_argument("--eta", type=_nonnegative,
                   help="two-photon loss (default 1)")
    p.add_argument("--alpha-sq", type=_positive,
                   help="use this |alpha|^2 instead of estimating")
    p.add_argument("--n-sites", type=_count, default=2)
    p.add_argument("--out", help="write the report JSON here")
    p.set_defaults(func=cmd_map_spin)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DimensionCapError) as e:
        print(str(e), file=sys.stderr)
        return 2
    except KeyError as e:
        # unknown preset name and similar lookup misses
        print(e.args[0] if e.args else str(e), file=sys.stderr)
        return 2
    except MemoryError as e:
        # a point that fails the corner's memory pre-flight
        print(str(e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
