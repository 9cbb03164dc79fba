"""End-to-end acceptance checks, one numbered criterion per test.

Every test records a one-line verdict through the record_criterion
fixture; the lines are printed together at the end of the pytest run.
Criterion 7 is a qualitative desk-scale trend check: its verdict is
recorded (and at these lattice sizes it measures the apparent crossing
far above the window the rescaling targets) but it never fails the
suite.  Everything else asserts.

This file favors end-to-end paths (presets, sweep harness, validation
suite) over unit shortcuts, so a pass here means the shipped pipeline
produces the numbers, not just the library internals.
"""
import math
import os

import numpy as np
import pytest

import catlattice.validate as validate
from catlattice.config import RunConfig, load_preset, preset_names
from catlattice.corner import convergence_sweep
from catlattice.fock import FockSpace, parity_op, site_annihilators
from catlattice.lattice import (ModelParams, build_hamiltonian,
                                build_jump_operators, chain, rectangle)
from catlattice.liouville import (solve_steady_state, steady_state_eigen,
                                 vectorize_lindbladian)
from catlattice.observables import parity_expectation, von_neumann_entropy
from catlattice.scaling import ScalingDataset, collapse_quality, find_crossing
from catlattice.store import read_rows
from catlattice.sweep import run_sweep
from catlattice.validate import (AGREEMENT_POINTS, mapping_group,
                                 solver_agreement_group, spin_identity_group,
                                 steady_symmetry_group)

LOG2 = math.log(2.0)

# steady states solved along the way, checked again under criterion 8:
# entries (tag, rho, parity operator); STEADY_ROWS holds the sweep
# records from criterion 7 for the same bound checks
STEADY_STATES = []
STEADY_ROWS = []


def exact_state(params, geom, n_max):
    fock = FockSpace(n_max)
    h = build_hamiltonian(params, geom, fock)
    jumps = build_jump_operators(params, geom, fock)
    res = solve_steady_state(h, jumps)
    pi = parity_op(fock, geom.n_sites)
    return res.rho, pi


def smallest_multisite(cfg):
    geoms = [g for g in cfg.geometries() if g.n_sites >= 2]
    return min(geoms, key=lambda g: g.n_sites)


def test_criterion_1_preset_limits(record_criterion):
    details = []
    ok = True
    for name in preset_names():
        cfg = load_preset(name)
        geom = smallest_multisite(cfg)
        for g, is_zero in ((0.0, True), (max(cfg.g_values), False)):
            rho, pi = exact_state(cfg.model_params(g), geom, cfg.n_max)
            STEADY_STATES.append(("%s %s G=%g" % (name, geom.label, g),
                                  rho, pi))
            par = parity_expectation(rho, pi)
            ent = von_neumann_entropy(rho)
            if is_zero:
                ok &= abs(par - 1.0) <= 1e-6 and ent <= 1e-6
                assert abs(par - 1.0) <= 1e-6, name
                assert ent <= 1e-6, name
            else:
                ok &= abs(ent - LOG2) <= 0.1 and abs(par) <= 0.1
                assert abs(ent - LOG2) <= 0.1, name
                assert abs(par) <= 0.1, name
                details.append("%s G=%g: Pi=%.3f S=%.3f"
                               % (name, g, par, ent))
    record_criterion(1, "vacuum and strong-drive limits per preset", ok,
                     "; ".join(details))


def test_criterion_2_solver_agreement(record_criterion):
    group = solver_agreement_group()
    n_points = len(AGREEMENT_POINTS)
    worst = max(c["value"] for c in group["checks"])
    passed = group["passed"] and n_points >= 10
    record_criterion(2, "direct/eigen/time pairwise trace distance <= 1e-5",
                     passed, "%d points, worst %.2e" % (n_points, worst))
    assert n_points >= 10
    assert group["passed"], group


def test_criterion_3_corner_exactness(record_criterion):
    params = ModelParams.resonant(u=40.0, j_hop=20.0, g=1.8)
    fock = FockSpace(2)
    details = []
    ok = True
    for label, geom in (("1D N=4", chain(4)), ("2x2", rectangle(2, 2))):
        # the corner solves its blocks with the exact route's kernel, so the
        # reference comes from the independent eigen oracle
        h = build_hamiltonian(params, geom, fock)
        jumps = build_jump_operators(params, geom, fock)
        pi = parity_op(fock, geom.n_sites)
        rho = steady_state_eigen(vectorize_lindbladian(h, jumps),
                                 parity=pi.diagonal().real).rho
        STEADY_STATES.append(("corner ref %s" % label, rho, pi))
        pi_ex = parity_expectation(rho, pi)
        s_ex = von_neumann_entropy(rho)

        # full corner dimension: the merge keeps every product state
        run_f, rep_f = convergence_sweep(geom, params, fock, [81])
        d_full = max(abs(rep_f[-1]["parity"] - pi_ex),
                     abs(rep_f[-1]["entropy"] - s_ex))
        ok &= d_full <= 1e-7
        assert d_full <= 1e-7, (label, d_full)

        # truncated corner dimensions under the drift criterion
        run_t, rep_t = convergence_sweep(geom, params, fock,
                                         [16, 24, 32, 48], tol=1e-3)
        drift = rep_t[-1]["drift"]
        d_tr = max(abs(rep_t[-1]["parity"] - pi_ex),
                   abs(rep_t[-1]["entropy"] - s_ex))
        ok &= run_t.converged and drift <= 1e-3 and d_tr <= 2e-3
        assert run_t.converged, label
        assert drift <= 1e-3, (label, drift)
        assert d_tr <= 2e-3, (label, d_tr)
        details.append("%s: full-M %.1e, truncated M=%d err %.1e"
                       % (label, d_full, rep_t[-1]["m_used"], d_tr))
    record_criterion(3, "corner reproduces exact steady states", ok,
                     "; ".join(details))


def test_criterion_4_spin_identities(record_criterion):
    group = spin_identity_group()
    worst_id, worst_mat = (c["value"] for c in group["checks"])
    record_criterion(4, "spin-mapping coefficient identities",
                     group["passed"], "identities %.1e, a-matrix %.1e"
                     % (worst_id, worst_mat))
    assert group["passed"], group


def test_criterion_5_mapping_validation(record_criterion):
    group = mapping_group()
    worst = max(c["value"] for c in group["checks"])
    record_criterion(5, "bosonic -> XY spin mapping deviation <= 1e-8",
                     group["passed"], "worst %.1e" % worst)
    assert len(group["checks"]) == 9
    assert group["passed"], group


def _synthetic_rows(g_c=1.2, beta=0.32642, nu=0.62997):
    rows = []
    for lab, n in (("2x2", 4), ("3x3", 9), ("4x4", 16), ("5x5", 25)):
        L = np.sqrt(n)
        for g in np.linspace(0.6, 1.8, 25):
            x = (g - g_c) * L ** (1.0 / nu)
            par = (0.85 / (1.0 + np.exp(1.6 * x)) + 0.05) * L ** (-beta / nu)
            rows.append({"size": lab, "G_over_gamma": float(g),
                         "parity": float(par), "entropy": 0.0,
                         "converged": True})
    return rows


def test_criterion_6_scaling_oracles(record_criterion):
    ds = ScalingDataset(_synthetic_rows(), dimensionality=2)
    res = find_crossing(ds)
    d_gc = abs(res.g_c - 1.2)

    q_true = collapse_quality(ds, g_c=1.2)
    ds_bad = ScalingDataset(_synthetic_rows(), dimensionality=2,
                            beta=2 * 0.32642, nu=0.62997)
    ratio = collapse_quality(ds_bad, g_c=1.2) / max(q_true, 1e-300)

    from catlattice.scaling import fit_entropy_peak
    kappa_err = 0.0
    for kappa in (0.29, 0.44, 0.80):
        rows = []
        for lab, n in (("2x2", 4), ("3x3", 9), ("4x4", 16), ("5x5", 25)):
            for g in np.linspace(0.8, 1.6, 17):
                rows.append({"size": lab, "G_over_gamma": float(g),
                             "parity": 0.5, "converged": True,
                             "entropy": 0.7 * n ** kappa
                             - 0.6 * (g - 1.2) ** 2})
        fit = fit_entropy_peak(ScalingDataset(rows, dimensionality=2))
        kappa_err = max(kappa_err, abs(fit.kappa - kappa))

    passed = d_gc <= 0.01 and ratio >= 10.0 and kappa_err <= 0.005
    record_criterion(6, "scaling engine on planted synthetic criticality",
                     passed, "dG_c %.1e, quality ratio %.0f, dkappa %.1e"
                     % (d_gc, ratio, kappa_err))
    assert d_gc <= 0.01
    assert ratio >= 10.0
    assert kappa_err <= 0.005


def test_criterion_7_desk_scale_trend(record_criterion, tmp_path):
    # Qualitative, non-binding: at N <= 5 the finite-size crossing of the
    # rescaled parity sits far above the large-lattice transition window,
    # because the per-site blockade U/N still suppresses pair activation.
    # The verdict line reports the measured location; no assertion ties it
    # to the thermodynamic window.
    cfg = RunConfig.from_dict({
        "label": "desk_trend",
        "u": 100.0, "j_hop": 50.0,
        "sizes": [2, 3, 4, 5],
        "n_max": 4,
        "g_values": [1.2, 1.8, 2.4, 3.0, 4.0, 4.5, 5.0, 5.5, 6.0, 7.0, 8.0],
        "solver": {"method": "auto", "exact_dim_cap": 100},
        "corner": {"m_list": [48, 64], "drift_tol": 1e-3},
        "output_dir": str(tmp_path),
    })
    store = run_sweep(cfg)
    rows = read_rows(store.last_sweep["store_path"])
    assert store.last_sweep["n_failed"] == 0
    for r in rows:
        STEADY_ROWS.append(r)

    ds = ScalingDataset(rows, dimensionality=1)
    try:
        res = find_crossing(ds)
        in_window = 1.2 <= res.g_c <= 2.4
        detail = ("measured G_c=%s, window [1.2, 2.4]" % res.estimate(2))
    except RuntimeError:
        in_window = False
        detail = "no crossing on the sampled grid, window [1.2, 2.4]"
    record_criterion(7, "desk-scale crossing trend (non-binding)",
                     in_window, detail)


def test_criterion_8_symmetry_properties(record_criterion):
    # fresh solves through the validation suite plus every steady state
    # and sweep record produced by the criteria above
    group = steady_symmetry_group()
    worst_comm = max(c["value"] for c in group["checks"]
                     if "[rho,Pi]" in c["name"])
    n_states = 0
    n_solved = sum("[rho,Pi]" in c["name"] for c in group["checks"])
    for tag, rho, pi in STEADY_STATES:
        m, p = rho.mat, np.diag(pi.diagonal())
        comm = np.max(np.abs(m @ p - p @ m))
        worst_comm = max(worst_comm, float(comm))
        par = parity_expectation(rho, pi)
        ent = von_neumann_entropy(rho)
        assert -1.0 - 1e-9 <= par <= 1.0 + 1e-9, tag
        assert -1e-9 <= ent <= math.log(m.shape[0]) + 1e-9, tag
        n_states += 1
    for r in STEADY_ROWS:
        if r.get("parity") is None:
            continue
        assert -1.0 <= float(r["parity"]) <= 1.0
        m_dim = int(r["M"])
        assert -1e-9 <= float(r["entropy"]) <= math.log(m_dim) + 1e-9
    passed = group["passed"] and worst_comm <= 1e-6
    record_criterion(8, "steady-state parity symmetry and bounds", passed,
                     "%d states + %d sweep records, worst [rho,Pi] %.1e"
                     % (n_states + n_solved, len(STEADY_ROWS), worst_comm))
    assert group["passed"]
    assert worst_comm <= 1e-6


def test_symmetry_group_fails_on_a_linear_drive(monkeypatch):
    # a linear drive F (a_0 + a_0^dag) on one site breaks parity: criterion
    # 8's group must see it in the states of both solvers
    real = validate.build_hamiltonian

    def driven(params, geom, fock):
        a = site_annihilators(fock, geom.n_sites)[0]
        return real(params, geom, fock) + 2.0 * (a + a.conj().T)

    monkeypatch.setattr(validate, "build_hamiltonian", driven)
    group = steady_symmetry_group()
    comm = {c["name"]: c for c in group["checks"] if "[rho,Pi]" in c["name"]}
    assert len(comm) == 4 and not group["passed"]
    assert not any(c["passed"] for c in comm.values()), comm
