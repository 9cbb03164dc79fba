"""Sweep execution: route each (size, G) point to a solver and persist it.

Every point is a corner convergence sweep (catlattice.corner), routed by
Hilbert dimension.  A lattice within the exact cap is solved exactly, as
one run at M = D whose one leaf is the whole lattice: the lattice model
solved by liouville's matrix-free kernel with no merge, recorded with
method "direct".  Larger lattices, and every lattice under method corner,
run over the configured M list.  Both give one record shape: the final
block's GMRES iterations and nonnormality, the convergence report (for an
exact point one entry, drift null, exact true) and the merge steps (none
for an exact point).  Failures are recorded per point and the sweep only
fails when every point does.
"""
from __future__ import annotations

import os
import time

from .corner import convergence_sweep
from .fock import FockSpace
from .liouville import GMRES_RESTART
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


def _exact_memory(fock, n_sites, n_jumps):
    """Bytes an exact solve of n_sites sites with n_jumps jumps holds.

    The kernel keeps rho as its two parity sectors, De and Do states, in
    arrays of 16 (De^2 + Do^2) bytes: GMRES's GMRES_RESTART + 1 Krylov
    vectors, seven per-sector Schur factors and preconditioner arrays and
    about a dozen work arrays.  Two D x D arrays stay full size (the leaf's dense
    H and the returned rho), and each jump (a_j or a_j^2, at most D
    nonzeros) is held four times in sparse form at 20 bytes a nonzero.
    """
    dim = fock.dim ** n_sites
    trace = 1 - fock.n_max % 2         # tr(Pi) = (sum_n (-1)^n)^n_sites
    even, odd = (dim + trace) // 2, (dim - trace) // 2
    return (16 * ((GMRES_RESTART + 1 + 7 + 12) * (even ** 2 + odd ** 2)
                  + 2 * dim ** 2)
            + 4 * 20 * dim * n_jumps)


def _check_exact_memory(fock, n_sites, n_jumps):
    """Raise MemoryError when an exact solve would not fit in the memory
    the OS reports available (see _exact_memory)."""
    need = _exact_memory(fock, n_sites, n_jumps)
    have = available_memory()
    if need > have:
        raise MemoryError("exact solve at D=%d needs about %.1f GB of memory, "
                          "%.1f GB available" % (fock.dim ** n_sites,
                                                 need / 2**30, have / 2**30))


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
        m_list, leaf_sites_max = cfg.corner.m_list, cfg.corner.leaf_sites_max
    else:
        # one-photon loss on every site, plus two-photon loss if eta > 0
        _check_exact_memory(fock, geom.n_sites,
                            geom.n_sites * (2 if params.eta > 0 else 1))
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
