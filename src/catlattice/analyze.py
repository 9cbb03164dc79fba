"""Turn a sweep store into scaling reports and figures.

Writes the crossing/collapse result as JSON, the rescaled data as CSV,
the entropy-peak fit as JSON, and three SVG panels: entropy vs G, parity
vs G, and the rescaled-parity crossing plot.
"""
from __future__ import annotations

import csv
import json
import os

from .lattice import geometry_from_size
from .scaling import ScalingDataset, find_crossing, fit_entropy_peak, rescale
from .svgplot import SvgFigure


class AnalysisError(ValueError):
    pass


def infer_dimensionality(rows):
    """The largest lattice dimensionality among the rows' sizes, at least 1.

    A 1 x L or L x 1 size is a ring, so a store of them alone is 1D.
    """
    return max([1] + [geometry_from_size(label).dimensionality
                      for label in {str(r["size"]) for r in rows}])


def _usable_rows(rows):
    out = []
    for r in rows:
        if r.get("parity") in (None, ""):
            continue
        out.append(r)
    return out


def analyze_rows(rows, outdir, dimensionality=None, beta=None, nu=None,
                 include_unconverged=False):
    """Full analysis pass over store rows; returns {name: path or result}.

    Raises AnalysisError with a list of everything missing when the rows
    cannot support the pipeline (empty store, single size, too few points).
    """
    rows = _usable_rows(rows)
    problems = []
    if not rows:
        problems.append("store has no usable records (no sweep run yet?)")
    else:
        sizes = {str(r["size"]) for r in rows}
        if len(sizes) < 2:
            problems.append("need >= 2 lattice sizes, store has %d"
                            % len(sizes))
    if problems:
        raise AnalysisError("cannot analyze:\n  - " + "\n  - ".join(problems))

    if dimensionality is None:
        dimensionality = infer_dimensionality(rows)
    ds = ScalingDataset(rows, dimensionality, beta, nu,
                        include_unconverged=include_unconverged)
    os.makedirs(outdir, exist_ok=True)
    out = {"dimensionality": dimensionality,
           "exponents": (ds.beta, ds.nu)}

    result = find_crossing(ds)
    out["collapse_result"] = result
    path = os.path.join(outdir, "collapse.json")
    with open(path, "w") as fh:
        json.dump(result.to_dict(), fh, indent=2)
        fh.write("\n")
    out["collapse_json"] = path

    path = os.path.join(outdir, "rescaled.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("x", "y", "size"))
        for label, (x, y, L) in rescale(ds, result.g_c).items():
            for xi, yi in zip(x, y):
                w.writerow((repr(float(xi)), repr(float(yi)), label))
    out["rescaled_csv"] = path

    try:
        peak = fit_entropy_peak(ds)
        out["entropy_peak"] = peak
        path = os.path.join(outdir, "entropy_peak.json")
        with open(path, "w") as fh:
            json.dump(peak.to_dict(), fh, indent=2)
            fh.write("\n")
        out["entropy_peak_json"] = path
    except ValueError as e:
        out["entropy_peak_error"] = str(e)

    out.update(_figures(ds, result, outdir))
    return out


def _figures(ds, result, outdir):
    curves = ds.curves
    paths = {}

    fig = SvgFigure(title="entropy vs drive", xlabel="G/gamma",
                    ylabel="S")
    for label, (L, gs, _, ent) in curves.items():
        fig.add_series(gs, ent, label=label)
    paths["entropy_svg"] = fig.write(os.path.join(outdir, "entropy_vs_g.svg"))

    fig = SvgFigure(title="parity vs drive", xlabel="G/gamma",
                    ylabel="parity")
    for label, (L, gs, par, _) in curves.items():
        fig.add_series(gs, par, label=label)
    paths["parity_svg"] = fig.write(os.path.join(outdir, "parity_vs_g.svg"))

    fig = SvgFigure(title="rescaled parity crossing", xlabel="G/gamma",
                    ylabel="parity * L^(beta/nu)")
    for label, (L, gs, par, _) in curves.items():
        fig.add_series(gs, par * L ** (ds.beta / ds.nu), label=label)
    fig.add_vline(result.g_c, label="G_c=%.3f" % result.g_c)
    paths["collapse_svg"] = fig.write(os.path.join(outdir, "collapse.svg"))
    return paths
