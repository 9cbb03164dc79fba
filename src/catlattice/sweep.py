"""Sweep execution: route each (size, G) point to a solver and persist it.

Every point is a corner convergence sweep (catlattice.corner), routed by
Hilbert dimension.  A lattice within the exact cap is solved exactly, as
one run at M = D whose one leaf is the whole lattice: the lattice model
solved by liouville's matrix-free kernel with no merge, recorded with
method "direct".  Larger lattices, and every lattice under method corner,
run over the configured M list.  Both give one record shape: the final
block's GMRES iterations and nonnormality, the convergence report (for an
exact point one entry, drift null, exact true) and the merge steps (none
for an exact point).  Failures, a block the corner's memory pre-flight
refuses among them, are recorded per point; the sweep fails only when
every point does.
"""
from __future__ import annotations

import os
import time

from .corner import convergence_sweep
from .fock import FockSpace
from .observables import expectation, parity_expectation, von_neumann_entropy
from .store import SweepStore


def _record(run, n_sites, report):
    """Record body of a corner run and its convergence report."""
    res = run.result
    return {
        "parity": parity_expectation(res.rho, run.parity),
        "entropy": von_neumann_entropy(res.rho),
        "n_per_site": expectation(res.rho, run.n_op).real / n_sites,
        "method": res.method,
        "M": res.rho.dim,
        "residual": res.residual,
        "converged": "HIGH_RESIDUAL" not in res.flags and run.converged,
        "flags": list(res.flags),
        "iterations": res.iterations,
        "nonnormality": res.diagnostics["nonnormality"],
        "corner_report": report,
        "steps": run.steps,
    }


def solve_point(cfg, geom, g):
    """One (geometry, G) point routed per config; returns the record body."""
    fock = FockSpace(cfg.n_max)
    params = cfg.model_params(g)
    dim = fock.dim ** geom.n_sites
    t0 = time.time()
    if cfg.solver.method == "corner" or (cfg.solver.method == "auto"
                                         and dim > cfg.solver.exact_dim_cap):
        m_list, leaf_sites_max = cfg.corner.m_list, cfg.corner.leaf_sites_max
    else:
        m_list, leaf_sites_max = [dim], geom.n_sites
    run, report = convergence_sweep(geom, params, fock, m_list,
                                    tol=cfg.corner.drift_tol,
                                    leaf_sites_max=leaf_sites_max)
    body = _record(run, geom.n_sites, report)
    body["wall_time"] = time.time() - t0
    body["hilbert_dim"] = dim
    return body


def run_sweep(cfg, store_path=None, log=None):
    """Execute every (size, G) point of the config, resuming from the store.

    Completed points (matched by config hash, size and G) are skipped.  A
    point that raises is recorded with converged false and empty
    observables; the sweep raises only if no point at all succeeded.
    """
    if store_path is None:
        outdir = cfg.resolved_output_dir()
        store_path = os.path.join(outdir, cfg.label + ".jsonl")
    store = SweepStore(store_path)
    chash = cfg.config_hash()
    n_done = 0
    n_new = 0
    n_failed = 0
    for geom in cfg.geometries():
        for g in cfg.g_values:
            if store.has_point(chash, geom.label, g):
                n_done += 1
                continue
            rec = {
                "config_hash": chash,
                "size": geom.label,
                "G_over_gamma": g,
                "label": cfg.label,
            }
            try:
                rec.update(solve_point(cfg, geom, g))
                n_new += 1
            except Exception as e:         # per-point failure, keep sweeping
                rec.update({
                    "parity": None, "entropy": None, "n_per_site": None,
                    "method": "failed", "M": 0, "residual": None,
                    "converged": False, "error": "%s: %s"
                    % (type(e).__name__, e),
                })
                n_failed += 1
            store.append(rec)
            if log is not None:
                log("%s size=%s G=%.4g -> %s"
                    % (cfg.label, geom.label, g,
                       "FAILED" if rec["method"] == "failed" else
                       "parity=%.4f entropy=%.4f (%s, %.1fs)"
                       % (rec["parity"], rec["entropy"], rec["method"],
                          rec["wall_time"])))
    if n_new == 0 and n_failed > 0 and n_done == 0:
        raise RuntimeError("every sweep point failed; see store records")
    csv_path = store.to_csv()
    store.last_sweep = {
        "store_path": store.path,
        "csv_path": csv_path,
        "n_new": n_new,
        "n_skipped": n_done,
        "n_failed": n_failed,
    }
    return store
