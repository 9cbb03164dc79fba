import hashlib
import json
import math
import os

import numpy as np
import pytest
import scipy.sparse as sp

import catlattice.corner as corner
import catlattice.liouville as liouville
from catlattice.analyze import AnalysisError, analyze_rows, infer_dimensionality
from catlattice.config import RunConfig
from catlattice.fock import (FockSpace, embed_site_op, number_op, parity_op,
                             total_number_diagonal)
from catlattice.lattice import build_hamiltonian, build_jump_operators
from catlattice.liouville import steady_state_direct
from catlattice.observables import (expectation, parity_expectation,
                                    site_density, von_neumann_entropy)
from catlattice.store import CSV_COLUMNS, SweepStore, read_rows
from catlattice.sweep import run_sweep, solve_point

MINI = {
    "label": "mini",
    "u": 40.0,
    "j_hop": 20.0,
    "sizes": [1, [1, 2]],
    "n_max": 3,
    "g_values": [0.0, 2.0],
    "solver": {"method": "direct"},
}


def mini_cfg(tmp_path, **over):
    d = dict(MINI, output_dir=str(tmp_path))
    d.update(over)
    return RunConfig.from_dict(d)


def test_solve_point_record_schema(tmp_path):
    cfg = mini_cfg(tmp_path)
    geom = cfg.geometries()[0]
    body = solve_point(cfg, geom, 2.0)
    for key in ("parity", "entropy", "n_per_site", "method", "M",
                "residual", "converged", "wall_time", "hilbert_dim",
                "flags", "iterations", "nonnormality", "corner_report",
                "steps"):
        assert key in body
    assert body["method"] == "direct"
    # single site, Fock levels 0..n_max
    assert body["M"] == body["hilbert_dim"] == 4
    assert -1.0 <= body["parity"] <= 1.0
    assert body["converged"]
    # an exact point is one corner run at M = D with no merge
    (entry,) = body["corner_report"]
    assert entry["drift"] is None and entry["exact"]
    assert entry["m"] == entry["m_used"] == 4
    assert entry["parity"] == body["parity"]
    assert body["steps"] == []


def test_run_sweep_writes_store_and_csv(tmp_path):
    cfg = mini_cfg(tmp_path)
    store = run_sweep(cfg)
    store_path = store.last_sweep["store_path"]
    csv_path = store.last_sweep["csv_path"]
    assert os.path.exists(store_path) and os.path.exists(csv_path)
    rows = read_rows(store_path)
    assert len(rows) == 4                # 2 sizes x 2 couplings
    assert {r["size"] for r in rows} == {"1", "1x2"}
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
    assert header == list(CSV_COLUMNS)
    # G = 0 points are pure vacuum: parity 1, entropy 0
    for r in rows:
        if r["G_over_gamma"] == 0.0:
            assert r["parity"] == pytest.approx(1.0, abs=1e-9)
            assert r["entropy"] == pytest.approx(0.0, abs=1e-9)


def test_corner_record_holds_its_steps(tmp_path):
    # n_max 2: at n_max 1 the two-photon drive vanishes and every block
    # is the vacuum, a one-state corner that needs no GMRES iteration
    cfg = mini_cfg(tmp_path, sizes=[3], n_max=2, g_values=[2.0],
                   solver={"method": "corner"},
                   corner={"m_list": [4, 6], "drift_tol": 1e-3})
    path = run_sweep(cfg).last_sweep["store_path"]
    with open(path) as fh:
        (rec,) = [json.loads(line) for line in fh]
    assert rec["method"] == "corner"
    assert rec["steps"]
    # the final block's kernel diagnostics, as in an exact record
    assert rec["nonnormality"] == rec["steps"][-1]["nonnormality"]
    assert [e["m"] for e in rec["corner_report"]] == [4, 6][
        :len(rec["corner_report"])]
    for step in rec["steps"]:
        assert step["m"] >= 1 and 0.0 < step["kept_weight"] <= 1.0
        assert step["residual"] >= 0.0 and step["wall"] >= 0.0
        assert step["iterations"] >= 1
        assert math.isfinite(step["nonnormality"])
        assert step["nonnormality"] >= 0.0
    # the run's total also counts the leaf solves
    assert rec["iterations"] > sum(s["iterations"] for s in rec["steps"])


def test_n_per_site_is_the_mean_site_density(tmp_path):
    # records take Tr(rho N) / n_sites from one total-number operator; on
    # the 3-ring the exact and the full-M corner record both equal the mean
    # density of the embedded site operators
    cfg = mini_cfg(tmp_path, sizes=[3], n_max=2, g_values=[2.0])
    geom = cfg.geometries()[0]
    f = FockSpace(2)
    params = cfg.model_params(2.0)
    rho = steady_state_direct(build_hamiltonian(params, geom, f),
                              build_jump_operators(params, geom, f),
                              parity=parity_op(f, 3).diagonal().real).rho
    ref = np.mean(site_density(rho, [embed_site_op(number_op(f), j, 3)
                                     for j in range(3)]))
    assert ref > 0.01                    # the drive populates the ring
    corner_cfg = mini_cfg(tmp_path, sizes=[3], n_max=2, g_values=[2.0],
                          solver={"method": "corner"},
                          corner={"m_list": [27]})
    for c in (cfg, corner_cfg):
        rec = solve_point(c, geom, 2.0)
        assert rec["M"] == 27
        assert abs(rec["n_per_site"] - ref) <= 1e-12


def test_exact_record_holds_its_iterations(tmp_path):
    cfg = mini_cfg(tmp_path, sizes=[[1, 2]], g_values=[2.0],
                   solver={"method": "auto"})
    path = run_sweep(cfg).last_sweep["store_path"]
    with open(path) as fh:
        (rec,) = [json.loads(line) for line in fh]
    assert rec["method"] == "direct"
    assert rec["iterations"] > 0
    assert math.isfinite(rec["nonnormality"]) and rec["nonnormality"] >= 0.0


@pytest.mark.parametrize("size,n_max", [(2, 4), ([2, 2], 2)],
                         ids=["2-ring", "2x2"])
def test_exact_record_is_the_full_space_kernel(tmp_path, size, n_max):
    # an exact point is solved as the whole-lattice corner leaf; its record
    # is that of the kernel on the lattice builders' H and jumps
    cfg = mini_cfg(tmp_path, sizes=[size], n_max=n_max, g_values=[2.0])
    geom = cfg.geometries()[0]
    f = FockSpace(n_max)
    params = cfg.model_params(2.0)
    pi = parity_op(f, geom.n_sites)
    res = steady_state_direct(build_hamiltonian(params, geom, f),
                              build_jump_operators(params, geom, f),
                              parity=pi.diagonal().real)
    n_op = sp.diags(total_number_diagonal(f, geom.n_sites))
    ref = {"parity": parity_expectation(res.rho, pi),
           "entropy": von_neumann_entropy(res.rho),
           "n_per_site": expectation(res.rho, n_op).real / geom.n_sites,
           "residual": res.residual,
           "nonnormality": res.diagnostics["nonnormality"]}
    rec = solve_point(cfg, geom, 2.0)
    for key, val in ref.items():
        assert abs(rec[key] - val) <= 1e-12, key
    assert rec["iterations"] == res.iterations > 0
    assert rec["method"] == "direct" and rec["M"] == f.dim ** geom.n_sites
    assert rec["flags"] == list(res.flags) == [] and rec["converged"]


def test_exact_memory_budgets_parity_sectors():
    # the 4-ring at n_max 4 (D = 625, K = 8 sparse jumps): sectors of 313
    # and 312 states.  A traced build and solve of that leaf peaks at
    # 172 MiB of arrays, against 200 MiB estimated.  The block's own jumps
    # are the ones solve_bytes counts as handed over, so it adds h and n_op
    kernel = liouville.solve_bytes((313, 312), 0, 8 * 625)
    assert kernel == (16 * (59 * (313**2 + 312**2) + 40 * 41 + 2 * 625**2)
                      + 80 * 8 * 625)
    params = RunConfig.from_dict(dict(MINI)).model_params(2.0)
    need = corner._block_bytes((313, 312), 4, False, params)
    assert need == kernel + 32 * 625**2
    assert need == 209_801_712
    # at odd n_max the sectors are equal: 128 and 128 states of D = 256
    assert liouville.solve_bytes((128, 128), 0, 4 * 256) \
        == 16 * (59 * 2 * 128**2 + 40 * 41 + 2 * 256**2) + 80 * 256 * 4
    # a merge holds its jumps dense: each as given (D x D) and its sector
    # blocks three times (rotated, adjoint, and one matvec product)
    assert liouville.solve_bytes((132, 124), 8, 0) \
        == 16 * ((59 + 3 * 8) * (132**2 + 124**2) + 40 * 41 + 10 * 256**2)


def test_exact_point_beyond_memory_fails_alone(tmp_path, monkeypatch):
    # a 4-ring at n_max 8 (D = 6561) would need about 21 GB; the pre-flight
    # records it as failed before any operator is built, and the small point
    # still solves.  Available memory is pinned so that the outcome does not
    # depend on the host.
    assert liouville.available_memory() > 0
    monkeypatch.setattr(corner, "available_memory", lambda: 8 * 2**30)
    built = []
    real = corner._build_leaf

    def spy(region, geom, params, fock):
        built.append(geom.n_sites)
        return real(region, geom, params, fock)

    monkeypatch.setattr(corner, "_build_leaf", spy)
    cfg = mini_cfg(tmp_path, sizes=[1, 4], n_max=8, g_values=[2.0],
                   solver={"method": "auto", "exact_dim_cap": 10**5})
    last = run_sweep(cfg).last_sweep
    assert last["n_new"] == 1 and last["n_failed"] == 1
    assert built == [1]
    small, big = read_rows(last["store_path"])
    assert small["size"] == "1" and small["converged"]
    assert big["size"] == "4" and big["method"] == "failed"
    assert "memory" in big["error"] and not big["converged"]


def test_corner_merge_beyond_memory_fails_alone(tmp_path, monkeypatch):
    # the 3-chain's merge keeps all 125 products and needs about 12 MB; the
    # 4-chain's keeps all 625 (about 0.33 GB) and is refused once
    # merge_spaces has fixed its M, before any operator is projected.  Its
    # leaves fit, so they are built and solved first.
    monkeypatch.setattr(corner, "available_memory", lambda: 100 * 2**20)
    projected = []
    real = corner.project_pair

    def spy(op_a, op_b, basis):
        projected.append(basis.m)
        return real(op_a, op_b, basis)

    monkeypatch.setattr(corner, "project_pair", spy)
    cfg = mini_cfg(tmp_path, sizes=[3, 4], n_max=4, g_values=[2.0],
                   solver={"method": "corner"},
                   corner={"m_list": [625], "drift_tol": 1e-3})
    last = run_sweep(cfg).last_sweep
    assert last["n_new"] == 1 and last["n_failed"] == 1
    assert projected and set(projected) == {125}
    small, big = read_rows(last["store_path"])
    assert small["size"] == "3" and small["converged"]
    assert small["steps"][-1]["m"] == 125
    assert big["size"] == "4" and big["method"] == "failed"
    assert "625 states" in big["error"] and "memory" in big["error"]


def test_run_sweep_resume_skips_done_points(tmp_path):
    cfg = mini_cfg(tmp_path)
    first = run_sweep(cfg).last_sweep
    assert first["n_new"] == 4 and first["n_skipped"] == 0
    second = run_sweep(cfg).last_sweep
    assert second["n_new"] == 0 and second["n_skipped"] == 4
    assert len(read_rows(second["store_path"])) == 4


def test_run_sweep_extends_existing_store(tmp_path):
    cfg = mini_cfg(tmp_path)
    run_sweep(cfg)
    wider = mini_cfg(tmp_path, g_values=[0.0, 2.0, 4.0])
    res = run_sweep(wider, store_path=os.path.join(str(tmp_path),
                                                   "mini.jsonl")).last_sweep
    # the schedule does not enter the hash; only new G points get solved
    assert res["n_new"] == 2


def test_run_sweep_records_per_point_failure(tmp_path, monkeypatch):
    cfg = mini_cfg(tmp_path)

    import catlattice.sweep as sweep_mod
    real = sweep_mod.solve_point

    def flaky(cfg_, geom, g):
        if geom.n_sites == 2 and g == 2.0:
            raise RuntimeError("synthetic point failure")
        return real(cfg_, geom, g)

    monkeypatch.setattr(sweep_mod, "solve_point", flaky)
    res = run_sweep(cfg).last_sweep
    rows = read_rows(res["store_path"])
    failed = [r for r in rows if r["method"] == "failed"]
    assert len(failed) == 1
    assert failed[0]["size"] == "1x2"
    assert not failed[0]["converged"]
    assert "synthetic point failure" in failed[0]["error"]
    # failed point is retried on resume, not treated as done
    monkeypatch.setattr(sweep_mod, "solve_point", real)
    res2 = run_sweep(cfg).last_sweep
    assert res2["n_new"] == 1
    rows2 = read_rows(res2["store_path"])
    fixed = [r for r in rows2 if r["size"] == "1x2"
             and r["G_over_gamma"] == 2.0]
    assert any(r["method"] != "failed" for r in fixed)


def test_run_sweep_raises_when_everything_fails(tmp_path, monkeypatch):
    cfg = mini_cfg(tmp_path)
    import catlattice.sweep as sweep_mod

    def broken(cfg_, geom, g):
        raise RuntimeError("nope")

    monkeypatch.setattr(sweep_mod, "solve_point", broken)
    with pytest.raises(RuntimeError):
        run_sweep(cfg)


def test_infer_dimensionality():
    assert infer_dimensionality([{"size": "3"}, {"size": "4"}]) == 1
    assert infer_dimensionality([{"size": "3"}, {"size": "2x2"}]) == 2


def test_one_by_l_sizes_are_rings():
    # a 1 x L lattice is the L-site ring: a store of them alone is 1D, and
    # one 2x2 among them makes it 2D
    assert infer_dimensionality([{"size": "1x4"}, {"size": "1x6"}]) == 1
    assert infer_dimensionality([{"size": "1x2"}, {"size": "2x2"}]) == 2


def test_analyze_one_by_l_store_as_1d(tmp_path):
    # planted 1D scaling form, Pi L^(beta/nu) = f((G - G_c) L^(1/nu)), L = N
    rows = []
    for n in (4, 6, 8):
        for g in np.linspace(0.5, 3.0, 41):
            x = (g - 1.7) * n
            rows.append({"size": "1x%d" % n, "G_over_gamma": g,
                         "parity": n ** -0.125 * (1.0 - np.tanh(0.8 * x)),
                         "entropy": 0.1 * n, "converged": True})
    out = analyze_rows(rows, str(tmp_path))
    assert out["dimensionality"] == 1
    assert out["exponents"] == (0.125, 1.0)
    assert out["collapse_result"].g_c == pytest.approx(1.7, abs=1e-2)


def synthetic_store_rows():
    rows = []
    gs = np.linspace(0.6, 1.8, 15)
    for lab, n in (("2x2", 4), ("3x3", 9), ("4x4", 16)):
        L = np.sqrt(n)
        for g in gs:
            x = (g - 1.2) * L ** (1.0 / 0.62997)
            par = (0.8 / (1.0 + np.exp(1.5 * x)) + 0.1) \
                * L ** (-0.32642 / 0.62997)
            ent = 0.7 * n ** 0.29 - 0.5 * (g - 1.2) ** 2
            rows.append({"size": lab, "G_over_gamma": float(g),
                         "parity": float(par), "entropy": float(ent),
                         "n_per_site": 0.5, "method": "direct", "M": 0,
                         "residual": 0.0, "converged": True})
    return rows


def test_analyze_rows_outputs(tmp_path):
    out = analyze_rows(synthetic_store_rows(), str(tmp_path))
    res = out["collapse_result"]
    assert abs(res.g_c - 1.2) < 0.01
    fit = out["entropy_peak"]
    assert abs(fit.kappa - 0.29) < 0.005
    for key in ("collapse_json", "rescaled_csv", "entropy_peak_json"):
        assert os.path.exists(out[key])
    for key in ("entropy_svg", "parity_svg", "collapse_svg"):
        assert os.path.exists(out[key])
        with open(out[key]) as fh:
            assert "<svg" in fh.read()
    with open(out["collapse_json"]) as fh:
        blob = json.load(fh)
    assert blob["g_c"] == pytest.approx(res.g_c)
    assert blob["dimensionality"] == 2
    # the bytes that np.median, np.percentile and np.unique(np.quantile)
    # wrote before find_crossing and collapse_quality sorted in their place
    with open(out["collapse_json"], "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == (
            "d270ed716ef43291b4d96942831466a84b0376183629405c90b4521732c6d88e")


def test_analyze_rows_complains_usefully(tmp_path):
    with pytest.raises(AnalysisError) as err:
        analyze_rows([], str(tmp_path))
    assert "no usable records" in str(err.value)
    one_size = [r for r in synthetic_store_rows() if r["size"] == "2x2"]
    with pytest.raises(AnalysisError) as err:
        analyze_rows(one_size, str(tmp_path))
    assert "size" in str(err.value).lower()


def test_analyze_rows_skips_failed_points(tmp_path):
    rows = synthetic_store_rows()
    rows.append({"size": "2x2", "G_over_gamma": 9.9, "parity": None,
                 "entropy": None, "n_per_site": None, "method": "failed",
                 "M": 0, "residual": None, "converged": False,
                 "error": "boom"})
    out = analyze_rows(rows, str(tmp_path))
    assert abs(out["collapse_result"].g_c - 1.2) < 0.01
