"""Sweep execution: route each (size, G) point to a solver and persist it.

Routing is by Hilbert dimension: lattices within the exact cap go to the
full-space solver, everything larger goes to the corner method with the
configured corner dimensions.  Under method auto or direct the full-space
route runs liouville's matrix-free kernel, as every corner block does; its
records carry method "direct" and the kernel's GMRES iteration count.
Failures are recorded per point and the sweep only fails when every point
does.
"""
from __future__ import annotations

import os
import time

import numpy as np

from .corner import convergence_sweep, corner_steady_state
from .fock import FockSpace, embed_site_op, number_op, parity_op
from .lattice import build_hamiltonian, build_jump_operators
from .liouville import solve_steady_state
from .observables import (parity_expectation, site_density,
                          von_neumann_entropy)
from .store import SweepStore


def _record(res, parity_op, n_ops):
    """Record body of one steady-state result: observables and solve fields."""
    return {
        "parity": parity_expectation(res.rho, parity_op),
        "entropy": von_neumann_entropy(res.rho),
        "n_per_site": float(np.mean(site_density(res.rho, n_ops))),
        "method": res.method,
        "M": res.rho.dim,
        "residual": res.residual,
        "converged": "HIGH_RESIDUAL" not in res.flags,
        "flags": list(res.flags),
        "iterations": res.iterations,
    }


def _exact_point(cfg, geom, params, fock):
    h = build_hamiltonian(params, geom, fock)
    jumps = build_jump_operators(params, geom, fock)
    method = cfg.solver.method if cfg.solver.method in ("direct", "eigen",
                                                        "time") else "auto"
    kw = {"tol": cfg.solver.tol} if method != "time" else {}
    if method == "eigen":
        kw["seed"] = cfg.solver.seed
    if method == "time":
        kw["t_final"] = cfg.solver.time_t_final
    pi = parity_op(fock, geom.n_sites)
    res = solve_steady_state(h, jumps, method=method, parity=pi, **kw)
    n_ops = [embed_site_op(number_op(fock), j, geom.n_sites)
             for j in range(geom.n_sites)]
    body = _record(res, pi, n_ops)
    body["nonnormality"] = res.diagnostics.get("nonnormality")
    return body


def _corner_point(cfg, geom, params, fock):
    run, report = convergence_sweep(
        geom, params, fock, list(cfg.corner.m_list),
        tol=cfg.corner.drift_tol,
        leaf_sites_max=cfg.corner.leaf_sites_max,
    )
    body = _record(run.result, run.parity_op, run.n_ops)
    body["converged"] = body["converged"] and run.converged
    body["corner_report"] = report
    body["steps"] = run.steps
    return body


def available_memory():
    """Bytes the OS reports as available (MemAvailable, else physical RAM)."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_exact_memory(dim, n_jumps):
    """Raise MemoryError when an exact solve at dimension dim would not fit.

    The kernel holds D x D complex matrices of 16 D^2 bytes: GMRES's 41
    Krylov vectors (restart 40), four per jump operator (the jump, its
    adjoint and two batched products) and about a dozen work arrays.
    """
    need = (41 + 4 * n_jumps + 12) * 16 * dim ** 2
    have = available_memory()
    if need > have:
        raise MemoryError("exact solve at D=%d needs about %.1f GB of memory, "
                          "%.1f GB available" % (dim, need / 2**30,
                                                 have / 2**30))


def solve_point(cfg, geom, g):
    """One (geometry, G) point routed per config; returns the record body.

    An exact point is checked against the memory the OS reports before any
    operator is built; one that would not fit raises MemoryError, which
    run_sweep records as a failed point.
    """
    fock = FockSpace(cfg.n_max)
    params = cfg.model_params(g)
    dim = fock.dim ** geom.n_sites
    t0 = time.time()
    if cfg.solver.method == "corner" or (cfg.solver.method == "auto"
                                         and dim > cfg.solver.exact_dim_cap):
        body = _corner_point(cfg, geom, params, fock)
    else:
        # one-photon loss on every site, plus two-photon loss if eta > 0
        _check_exact_memory(dim, geom.n_sites * (2 if params.eta > 0 else 1))
        body = _exact_point(cfg, geom, params, fock)
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
