"""The benchmark's workloads: inputs from a seed, the timed calls, the checks.

Each workload class has three steps, called in this order by run.py:

    w = Workload(seed, outdir, tracer)   # set-up: configs, geometries, drives
    out = w.run_round(k)         # timed: library calls only
    w.check(out)                 # untimed: raises checks.CheckFailed

run_round returns (attempted, failed, outputs).  Library functions are
looked up through their modules at call time, so the traced run sees them.
The model is the desk-scale one used by the repository's criterion 7:
U = 100, J = 50, gamma = eta = 1, Delta = -|J|.
"""
import hashlib
import json
import math
import os

import numpy as np

import catlattice.analyze as analyze
import catlattice.config as config
import catlattice.corner as corner
import catlattice.fock as fock
import catlattice.lattice as lattice
import catlattice.liouville as liouville
import catlattice.observables as observables
import catlattice.store as store
import catlattice.sweep as sweep

import checks
import layers
from checks import require

U = 100.0
J = 50.0


def _stratified(rng, lo, hi, n):
    """n drives, one drawn uniformly from each of n equal sub-windows."""
    edges = np.linspace(lo, hi, n + 1)
    return [round(float(rng.uniform(a, b)), 6)
            for a, b in zip(edges[:-1], edges[1:])]


def planted_dataset(rng):
    """A G_c drawn from [1.5, 3.0] and chains N = 2..5 that cross exactly
    there under the 1D scaling form (see checks.synthetic_rows)."""
    g_c = round(float(rng.uniform(1.5, 3.0)), 6)
    grid = [round(x, 6) for x in np.linspace(0.5, 4.0, 41)]
    return g_c, checks.synthetic_rows(g_c, [2, 3, 4, 5], grid)


def check_planted(g_planted, analysis, tag):
    g_c = analysis["collapse_result"].g_c
    require(abs(g_c - g_planted) <= 0.01,
            "%s: planted G_c %.6f, analyze_rows found %.6f"
            % (tag, g_planted, g_c))


class Probe:
    """A small fixed pipeline pass that opens every round of exact and corner.

    run_sweep over chains N = 2, 3 at n_max 1 (N = 2 exact, N = 3 corner)
    into a fresh store, a resume pass, and analyze_rows on a dataset with a
    planted G_c.  It costs about 0.2 s and makes every layer run in every
    workload, so no per-layer figure is a zero that was never measured.
    """

    G_VALUES = [1.0, 2.0, 3.0, 4.0]

    def __init__(self, seed, outdir, tracer):
        self.g_planted, self.rows = planted_dataset(
            np.random.default_rng(seed))
        self.outdir = outdir
        self.tracer = tracer
        self.cfg = config.RunConfig.from_dict({
            "label": "bench_probe", "u": U, "j_hop": J, "sizes": [2, 3],
            "n_max": 1, "g_values": self.G_VALUES,
            "solver": {"method": "auto", "exact_dim_cap": 4},
            "corner": {"m_list": [4, 6], "drift_tol": 1e-3},
            "output_dir": outdir})
        self.grid = [(geom.label, g) for geom in self.cfg.geometries()
                     for g in self.G_VALUES]

    def run(self, k):
        """Returns (attempted, failed, outputs)."""
        path = os.path.join(self.outdir, "probe%d" % k, "probe.jsonl")
        try:
            first = sweep.run_sweep(self.cfg, store_path=path).last_sweep
            with self.tracer.span(layers.RESUME_SPAN):
                resumed = sweep.run_sweep(self.cfg, store_path=path).last_sweep
            analysis = analyze.analyze_rows(
                self.rows, os.path.join(self.outdir, "probe%d" % k, "analysis"))
        except Exception as e:          # the probe is lost as a whole
            return len(self.grid), len(self.grid), {
                "error": "%s: %s" % (type(e).__name__, e)}
        return len(self.grid), first["n_failed"], {
            "path": path, "resumed": resumed, "analysis": analysis}

    def check(self, out):
        if "error" in out:
            return
        checks.check_store(out["path"], self.grid, "probe")
        require(out["resumed"]["n_new"] == 0
                and out["resumed"]["n_skipped"] == len(self.grid),
                "probe: resume pass computed points: %s" % out["resumed"])
        check_planted(self.g_planted, out["analysis"], "probe")


class Exact:
    """Full-space route only: dense lstsq (D^2 <= 4096) and sparse LU."""

    WINDOW = (1.0, 3.0)
    # (tag, ring sites, n_max); the two 2-rings share one drive
    SYSTEMS = (("ring2_nmax5", 2, 5), ("ring2_nmax8", 2, 8),
               ("ring4_nmax2", 4, 2))
    ROUND_SECONDS = 36.0

    def __init__(self, seed, outdir, tracer):
        rng = np.random.default_rng(seed)
        g_pair, g_ring4 = (round(float(g), 6)
                           for g in rng.uniform(*self.WINDOW, size=2))
        self.points = []
        for tag, n_sites, n_max in self.SYSTEMS:
            g = g_ring4 if n_sites == 4 else g_pair
            self.points.append((tag, n_sites, n_max, g, lattice.chain(n_sites),
                                fock.FockSpace(n_max),
                                lattice.ModelParams.resonant(U, J, g)))
        self.inputs = {tag: {"sites": n, "n_max": m, "G": g}
                       for tag, n, m, g, *_ in self.points}
        self.probe = Probe(seed, outdir, tracer)

    def run_round(self, k):
        n_probe, failed, probe = self.probe.run(k)
        out = {"probe": probe}
        for tag, n_sites, n_max, g, geom, space, params in self.points:
            try:
                h = lattice.build_hamiltonian(params, geom, space)
                jumps = lattice.build_jump_operators(params, geom, space)
                res = liouville.solve_steady_state(h, jumps)
                pi = fock.parity_op(space, n_sites)
                out[tag] = {
                    "rho": res.rho.mat, "flags": res.flags,
                    "parity": observables.parity_expectation(res.rho, pi),
                    "entropy": observables.von_neumann_entropy(res.rho)}
            except Exception as e:      # one failed point, keep going
                out[tag] = {"error": "%s: %s" % (type(e).__name__, e)}
                failed += 1
        return len(self.points) + n_probe, failed, out

    def check(self, out):
        self.probe.check(out["probe"])
        done = {}
        for tag, n_sites, n_max, g, *_ in self.points:
            rec = out[tag]
            if "error" in rec:
                continue
            h, jumps, parity = checks.ring_model(n_sites, n_max, U, J, g)
            rho = rec["rho"]
            require("HIGH_RESIDUAL" not in rec["flags"],
                    "%s: solver flagged HIGH_RESIDUAL" % tag)
            checks.check_density_matrix(rho, parity, tag)
            checks.check_steady(rho, h, jumps, tag)
            checks.check_observables(rho, parity, rec["parity"],
                                     rec["entropy"], tag)
            done[tag] = (rec["parity"], checks.cutoff_weight(rho, n_sites,
                                                             n_max))
        if "ring2_nmax5" in done and "ring2_nmax8" in done:
            (p_low, w_low), (p_high, _) = done["ring2_nmax5"], done["ring2_nmax8"]
            checks.check_cutoff_agreement(p_low, p_high, w_low, 2,
                                          "2-ring n_max 5 vs 8")


class Corner:
    """Corner route only: 2x2 torus and 4-ring, which are one lattice."""

    WINDOW = (4.5, 6.0)
    N_MAX = 4
    DRIFT_TOL = 1e-3
    ROUND_SECONDS = 23.0

    def __init__(self, seed, outdir, tracer):
        rng = np.random.default_rng(seed)
        self.g = round(float(rng.uniform(*self.WINDOW)), 6)
        self.space = fock.FockSpace(self.N_MAX)
        self.params = lattice.ModelParams.resonant(U, J, self.g)
        # (tag, geometry, M list)
        self.systems = [("torus2x2", lattice.rectangle(2, 2), [48, 64]),
                        ("ring4", lattice.chain(4), [32, 48])]
        self.inputs = {"G": self.g, "n_max": self.N_MAX,
                       "m_lists": {t: m for t, _, m in self.systems}}
        self.probe = Probe(seed, outdir, tracer)

    def run_round(self, k):
        n_probe, failed, probe = self.probe.run(k)
        out = {"probe": probe}
        for tag, geom, m_list in self.systems:
            try:
                run, report = corner.convergence_sweep(
                    geom, self.params, self.space, m_list, tol=self.DRIFT_TOL)
                out[tag] = {
                    "rho": run.result.rho.mat, "parity_op": run.parity_op,
                    "converged": run.converged, "flags": run.result.flags,
                    "report": report,
                    "parity": observables.parity_expectation(run.result.rho,
                                                             run.parity_op),
                    "entropy": observables.von_neumann_entropy(run.result.rho)}
            except Exception as e:      # one failed point, keep going
                out[tag] = {"error": "%s: %s" % (type(e).__name__, e)}
                failed += 1
        return len(self.systems) + n_probe, failed, out

    def check(self, out):
        self.probe.check(out["probe"])
        ok = [tag for tag, *_ in self.systems if "error" not in out[tag]]
        for tag in ok:
            rec = out[tag]
            parity = np.asarray(rec["parity_op"])
            require(rec["converged"] and "UNCONVERGED" not in rec["flags"],
                    "%s: corner did not converge: %s" % (tag, rec["report"]))
            require(rec["report"][-1]["drift"] <= self.DRIFT_TOL,
                    "%s: final drift %s above %g"
                    % (tag, rec["report"][-1]["drift"], self.DRIFT_TOL))
            invol = float(np.abs(parity @ parity - np.eye(len(parity))).max())
            require(invol <= 1e-8, "%s: corner parity is no involution "
                    "(max|Pi^2 - 1| = %.3g)" % (tag, invol))
            checks.check_density_matrix(rec["rho"], parity, tag)
            checks.check_observables(rec["rho"], parity, rec["parity"],
                                     rec["entropy"], tag)
        if len(ok) == 2:
            a, b = (out[t] for t in ok)
            for key in ("parity", "entropy"):
                require(abs(a[key] - b[key]) <= self.DRIFT_TOL,
                        "torus2x2 and ring4 %s differ by %.3g, above the "
                        "drift tolerance %g"
                        % (key, abs(a[key] - b[key]), self.DRIFT_TOL))


class Sweep:
    """run_sweep over chains N = 2..5, a resume pass, then analyze_rows."""

    N_MAX = 2
    SIZES = [2, 3, 4, 5]
    EXACT_DIM_CAP = 27          # N <= 3 exact, N >= 4 corner
    M_LIST = [24, 32, 48]
    DRIFT_TOL = 1e-3
    # N = 5 corners converge at M = 32 below G = 3.2 and need M = 48 above
    # it; N = 4 converges at M = 32 throughout.  Windows keep clear of the
    # switch, so every seed does the same corner work.
    LOW_WINDOW, N_LOW = (1.5, 2.6), 4
    HIGH_WINDOW, N_HIGH = (3.9, 5.9), 3
    ROUND_SECONDS = 28.0

    def __init__(self, seed, outdir, tracer):
        rng = np.random.default_rng(seed)
        self.g_values = (_stratified(rng, *self.LOW_WINDOW, self.N_LOW)
                         + _stratified(rng, *self.HIGH_WINDOW, self.N_HIGH))
        self.g_planted, self.planted_rows = planted_dataset(rng)
        self.outdir = outdir
        self.tracer = tracer
        self.cfg = config.RunConfig.from_dict({
            "label": "bench_sweep", "u": U, "j_hop": J,
            "sizes": self.SIZES, "n_max": self.N_MAX,
            "g_values": self.g_values,
            "solver": {"method": "auto", "exact_dim_cap": self.EXACT_DIM_CAP},
            "corner": {"m_list": self.M_LIST, "drift_tol": self.DRIFT_TOL},
            "output_dir": outdir})
        self.grid = [(geom.label, g) for geom in self.cfg.geometries()
                     for g in self.g_values]
        self.inputs = {"G": self.g_values, "sizes": self.SIZES,
                       "n_max": self.N_MAX, "m_list": self.M_LIST,
                       "G_c_planted": self.g_planted}

    def run_round(self, k):
        path = os.path.join(self.outdir, "round%d" % k, "sweep.jsonl")
        try:
            first = sweep.run_sweep(self.cfg, store_path=path).last_sweep
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            with self.tracer.span(layers.RESUME_SPAN):
                resumed = sweep.run_sweep(self.cfg, store_path=path).last_sweep
            rows = store.read_rows(path)
            analysis = analyze.analyze_rows(
                rows, os.path.join(self.outdir, "round%d" % k, "analysis"))
        except Exception as e:          # the round is lost as a whole
            return len(self.grid), len(self.grid), {
                "error": "%s: %s" % (type(e).__name__, e)}
        out = {"path": path, "first": first, "resumed": resumed,
               "digest": digest, "analysis": analysis}
        return len(self.grid), first["n_failed"], out

    def check(self, out):
        """A failed point also fails the store and resume checks: the store
        must hold every point once, and a resume retries failed points."""
        if "error" in out:
            return
        tag = "sweep"
        n = len(self.grid)
        first, resumed = out["first"], out["resumed"]
        require(first["n_new"] + first["n_failed"] == n,
                "%s: first pass did %d of %d points"
                % (tag, first["n_new"] + first["n_failed"], n))
        require(resumed["n_new"] == 0 and resumed["n_failed"] == 0
                and resumed["n_skipped"] == n,
                "%s: resume pass computed points: %s" % (tag, resumed))
        with open(out["path"], "rb") as fh:
            require(hashlib.sha256(fh.read()).hexdigest() == out["digest"],
                    "%s: resume pass changed the store" % tag)
        checks.check_store(out["path"], self.grid, tag)
        records = {(r["size"], round(float(r["G_over_gamma"]), 12)): r
                   for r in checks.read_store(out["path"])}
        for (size, g), rec in records.items():
            dim = (self.N_MAX + 1) ** int(size)
            want = "direct" if dim <= self.EXACT_DIM_CAP else "corner"
            require(rec["method"] == want, "%s: N=%s routed to %s, not %s"
                    % (tag, size, rec["method"], want))
            require(0.0 <= rec["entropy"] <= math.log(rec["M"]) + 1e-9
                    and -1.0 <= rec["parity"] <= 1.0,
                    "%s: N=%s G=%s observables out of range" % (tag, size, g))
            if want == "direct":
                require(rec["residual"] <= 1e-8, "%s: N=%s G=%s residual %.3g"
                        % (tag, size, g, rec["residual"]))
        self._check_corner_matches_exact(records)
        self._check_analysis(out["analysis"])
        self._check_planted_crossing()

    def _check_corner_matches_exact(self, records):
        """The N = 3 point at the first high drive, re-solved by the corner
        route at full M, equals its exact record."""
        g = self.g_values[self.N_LOW]
        rec = records[("3", round(g, 12))]
        space = fock.FockSpace(self.N_MAX)
        full = space.dim ** 3
        run, _ = corner.convergence_sweep(
            lattice.chain(3), self.cfg.model_params(g), space, [full],
            tol=self.DRIFT_TOL)
        par = observables.parity_expectation(run.result.rho, run.parity_op)
        ent = observables.von_neumann_entropy(run.result.rho)
        require(abs(par - rec["parity"]) <= 1e-8
                and abs(ent - rec["entropy"]) <= 1e-8,
                "sweep: N=3 G=%g corner at M=%d gives (%.10f, %.10f), exact "
                "record (%.10f, %.10f)" % (g, full, par, ent, rec["parity"],
                                           rec["entropy"]))

    def _check_analysis(self, analysis):
        g_c = analysis["collapse_result"].g_c
        lo, hi = min(self.g_values), max(self.g_values)
        require(math.isfinite(g_c) and lo <= g_c <= hi,
                "sweep: G_c = %r outside the drive window [%g, %g]"
                % (g_c, lo, hi))
        with open(analysis["collapse_json"]) as fh:
            require(abs(json.load(fh)["g_c"] - g_c) <= 1e-12,
                    "sweep: collapse.json disagrees with the returned G_c")
        for key in ("entropy_svg", "parity_svg", "collapse_svg"):
            with open(analysis[key]) as fh:
                require("<svg" in fh.read(), "sweep: %s is no SVG" % key)

    def _check_planted_crossing(self):
        """A dataset with a planted G_c must come back out with that G_c."""
        analysis = analyze.analyze_rows(
            self.planted_rows, os.path.join(self.outdir, "synthetic"))
        check_planted(self.g_planted, analysis, "sweep")

WORKLOADS = {"exact": Exact, "corner": Corner, "sweep": Sweep}
