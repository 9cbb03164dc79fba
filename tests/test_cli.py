import dataclasses
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import catlattice
import catlattice.validate as validate
from catlattice.cli import main

MINI = {
    "label": "cli_mini",
    "u": 40.0,
    "j_hop": 20.0,
    "sizes": [1, [1, 2]],
    "n_max": 3,
    "g_values": [0.0, 2.0],
    "solver": {"method": "direct"},
}


@pytest.fixture
def mini_config(tmp_path):
    d = dict(MINI, output_dir=str(tmp_path / "runs"))
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(d))
    return str(path)


def test_no_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_solve_prints_record(mini_config, capsys, tmp_path):
    out = str(tmp_path / "rec.json")
    rc = main(["solve", "-c", mini_config, "--size", "1", "--g", "2.0",
               "--out", out])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["size"] == "1"
    assert rec["G_over_gamma"] == 2.0
    assert -1.0 <= rec["parity"] <= 1.0
    assert json.load(open(out))["parity"] == rec["parity"]


def test_solve_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"label": "x", "u": 1.0}))
    rc = main(["solve", "-c", str(bad)])
    assert rc == 2
    assert "missing required field" in capsys.readouterr().err


def test_unknown_solver_field_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(MINI, solver={"bogus": 1})))
    rc = main(["solve", "-c", str(bad)])
    assert rc == 2
    assert "unknown field 'solver.bogus'" in capsys.readouterr().err


def test_mistyped_config_value_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(MINI, corner={"m_list": 5})))
    rc = main(["solve", "-c", str(bad)])
    assert rc == 2
    assert "corner.m_list must be a list of integers" in capsys.readouterr().err


def test_mistyped_sweep_field_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(MINI, g_values=2.0)))
    rc = main(["solve", "-c", str(bad)])
    assert rc == 2
    assert "g_values must be a list of numbers" in capsys.readouterr().err


def test_bad_size_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(MINI, sizes=[1, [2, 2.7]])))
    rc = main(["solve", "-c", str(bad)])
    assert rc == 2
    assert "bad size [2, 2.7]" in capsys.readouterr().err


def test_solve_beyond_memory_exits_1(tmp_path, capsys):
    # the exact 8-ring at n_max 4 fails the memory pre-flight (tens of
    # thousands of GB) before anything is allocated: one line, no traceback
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(dict(MINI, sizes=[8], n_max=4)))
    rc = main(["solve", "-c", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "needs about" in err and "Traceback" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", [None, "{not json", "5", "[]"],
                         ids=["missing", "malformed", "number", "list"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, text):
    # a config file that is absent, is no JSON or holds no JSON object is
    # one line on stderr and exit code 2, not a traceback
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    rc = main(["solve", "-c", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and err.count("\n") == 1


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(MINI, gamma=float("nan"))))
    rc = main(["solve", "-c", str(bad)])
    assert rc == 2
    assert "gamma must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, complaint", [
    (["solve", "--size", "0"], "argument --size: bad size '0'"),
    (["solve", "--size", "2y2"], "argument --size: bad size '2y2'"),
    (["solve", "--g", "nan"], "argument --g: must be a finite number >= 0"),
    (["solve", "--g", "-1"], "argument --g: must be a finite number >= 0"),
    (["map-spin", "--u", "-5", "--j", "1"],
     "argument --u: must be a finite number >= 0"),
    (["map-spin", "--u", "5", "--j", "1", "--n-sites", "0"],
     "argument --n-sites: must be an integer >= 1"),
    (["map-spin", "--u", "5", "--j", "1", "--alpha-sq", "-1"],
     "argument --alpha-sq: must be a finite number > 0"),
    (["map-spin", "--u", "5", "--j", "1", "--alpha-sq", "0"],
     "argument --alpha-sq: must be a finite number > 0"),
], ids=["size_zero", "size_malformed", "g_nan", "g_negative", "u_negative",
        "n_sites_zero", "alpha_sq_negative", "alpha_sq_zero"])
def test_bad_cli_argument_exits_2(mini_config, capsys, argv, complaint):
    # a bad argument gets the checks a config value gets: exit code 2 and
    # the complaint on stderr, before anything is solved
    if argv[0] == "solve":
        argv = argv + ["-c", mini_config]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    out = capsys.readouterr()
    assert complaint in out.err and out.out == ""


def test_unknown_preset_exits_2(capsys):
    rc = main(["solve", "-p", "fig9"])
    assert rc == 2
    assert "unknown preset" in capsys.readouterr().err


def test_sweep_then_analyze_round_trip(mini_config, tmp_path, capsys):
    store = str(tmp_path / "runs" / "cli_mini.jsonl")
    rc = main(["sweep", "-c", mini_config])
    assert rc == 0
    out1 = capsys.readouterr().out
    assert "4 new" in out1
    assert os.path.exists(store)
    # resumed run does nothing new
    rc = main(["sweep", "-c", mini_config])
    assert rc == 0
    assert "0 new, 4 resumed" in capsys.readouterr().out
    # analysis of a two-size store runs end to end
    rc = main(["analyze", "--store", store, "--dim", "1"])
    out2 = capsys.readouterr()
    assert rc in (0, 1)   # tiny demo store may not produce a crossing
    if rc == 1:
        assert "analysis failed" in out2.err


def test_analyze_synthetic_store(tmp_path, capsys):
    # synthetic two-size store with a planted crossing at G_c = 1.2
    store = tmp_path / "syn.jsonl"
    rows = []
    for lab, n in (("2", 2), ("4", 4)):
        for g in np.linspace(0.6, 1.8, 13):
            x = (g - 1.2) * n
            par = (0.8 / (1.0 + np.exp(1.5 * x)) + 0.1) * n ** (-0.125)
            rows.append({"config_hash": "s", "size": lab,
                         "G_over_gamma": float(g), "parity": float(par),
                         "entropy": 0.3, "n_per_site": 0.5,
                         "method": "direct", "M": 0, "residual": 0.0,
                         "converged": True})
    with open(store, "w") as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")
    outdir = str(tmp_path / "report")
    rc = main(["analyze", "--store", str(store), "--out-dir", outdir])
    assert rc == 0
    out = capsys.readouterr().out
    assert "G_c/gamma = 1.2" in out
    assert "+- undefined (one crossing)" in out       # one size pair
    with open(os.path.join(outdir, "collapse.json")) as fh:
        assert json.load(fh)["uncertainty"] is None
    assert os.path.exists(os.path.join(outdir, "collapse.svg"))


def test_analyze_missing_store_fails_cleanly(tmp_path, capsys):
    rc = main(["analyze", "--store", str(tmp_path / "none.jsonl")])
    assert rc == 1
    assert "analysis failed" in capsys.readouterr().err


def test_map_spin_report(capsys, tmp_path):
    out = str(tmp_path / "spin.json")
    rc = main(["map-spin", "--u", "100", "--j", "50", "--g", "1.0",
               "--alpha-sq", "1.0", "--out", out])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    co = rep["coefficients"]
    assert co["b_x"] == pytest.approx(2.018571, abs=1e-5)
    assert co["b_y"] == pytest.approx(-0.273184, abs=1e-5)
    assert rep["identity_scalars"]["kerr"] == pytest.approx(50.0)
    assert rep["mapping_deviation"] < 1e-8
    assert json.load(open(out))["coefficients"]["b_x"] == co["b_x"]


def test_validate_suite_smoke(capsys, tmp_path, monkeypatch):
    # criterion 2 runs all twelve agreement points; here two cheap ones
    # keep the suite's own path covered.  A broken group must exit 1: the
    # B_x coefficient the identity group checks is biased by 1e-6
    points = {p[0]: p for p in validate.AGREEMENT_POINTS}
    monkeypatch.setattr(validate, "AGREEMENT_POINTS",
                        (points["site-d0-u10-g2"], points["chain3-u20-g1.5"]))
    real = validate.SpinModelCoefficients

    def biased(alpha):
        c = real.from_alpha(alpha)
        return dataclasses.replace(c, b_x=c.b_x + 1e-6)

    monkeypatch.setattr(validate, "SpinModelCoefficients",
                        types.SimpleNamespace(from_alpha=biased))
    out = str(tmp_path / "val.json")
    rc = main(["validate", "--out", out])
    assert rc == 1
    rep = json.load(open(out))
    assert not rep["passed"]
    groups = rep["groups"]
    assert not groups["spin_identities"]["passed"]
    # the broken coefficient must not contaminate unrelated groups
    assert groups["solver_agreement"]["n_points"] == 2
    for name, group in groups.items():
        if name != "spin_identities":
            assert group["passed"], name


def test_map_spin_beyond_dimension_cap_exits_2(capsys):
    # 30 sites at n_max 21 is 22^30 states; the cap is checked before the
    # dense cat isometry (108 GiB at six sites of its build) is formed
    rc = main(["map-spin", "--u", "5", "--j", "1", "--alpha-sq", "1",
               "--n-sites", "30"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "exceeds the hard cap" in err and "Traceback" not in err


SOLVE_PATH = """
import json, sys
import numpy as np
baseline = set(sys.modules)
import catlattice
package = sorted(set(sys.modules) - baseline)
import catlattice.cli
from catlattice import fock, lattice, liouville, observables


def one_pass(outdir):
    # an exact point of 36 states, as the benchmark's exact workload solves
    # it, then a sweep of an exact point (9 states) and a corner point whose
    # blocks all hold at most 100 states, then the scaling analysis
    geom, space = lattice.chain(2), fock.FockSpace(5)
    params = lattice.ModelParams.resonant(100.0, 50.0, 2.0)
    res = liouville.solve_steady_state(
        lattice.build_hamiltonian(params, geom, space),
        lattice.build_jump_operators(params, geom, space))
    assert not res.flags
    observables.parity_expectation(res.rho, fock.parity_op(space, 2))
    observables.von_neumann_entropy(res.rho)
    cfg = catlattice.RunConfig.from_dict({
        "label": "footprint", "u": 100.0, "j_hop": 50.0, "sizes": [2, 3],
        "n_max": 2, "g_values": [1.0, 2.0],
        "solver": {"method": "auto", "exact_dim_cap": 9},
        "corner": {"m_list": [16, 24], "drift_tol": 1e-3},
        "output_dir": outdir})
    assert catlattice.run_sweep(cfg).last_sweep["n_failed"] == 0
    rows = [{"size": str(n), "G_over_gamma": g, "entropy": 0.1,
             "parity": 0.5 / (1.0 + np.exp((g - 2.0) * n)) * n ** -0.125}
            for n in (2, 3, 4) for g in np.linspace(1.0, 3.0, 9)]
    catlattice.analyze_rows(rows, outdir + "/analysis")
    return set(sys.modules)


imported = set(sys.modules)
first = one_pass(sys.argv[1] + "/first")
second = one_pass(sys.argv[1] + "/second")
print(json.dumps({"package": package,
                  "scipy": sorted(m for m in second if m.startswith("scipy")),
                  "first": sorted(first - imported),
                  "second": sorted(second - first)}))
"""

# what `import catlattice` must not load: xml (an SVG escape pulled in
# urllib.request, http.client, email and ssl), numpy.ma (np.median,
# np.percentile and np.unique load it), and the modules that only the CLI's
# validate and map-spin commands call
UNLOADED = ("xml", "urllib.request", "http.client", "email", "ssl",
            "numpy.ma", "catlattice.spinmap", "catlattice.validate",
            "catlattice.cli")


def test_solve_path_loads_no_scipy(tmp_path):
    # dense operators up to 100 states, the numpy Schur basis and the numpy
    # scaling helpers: an exact point, a corner sweep and the analysis load
    # no scipy module, and neither the first pass nor a second one imports
    # a module that `import catlattice` and the CLI did not, so no lazy
    # import lands inside a timed pass.  `import catlattice` is measured
    # against `import numpy`, since a site hook may preload other modules
    src = os.path.dirname(os.path.dirname(catlattice.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", SOLVE_PATH, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout.splitlines()[-1])
    package = loaded.pop("package")
    assert "catlattice.sweep" in package
    assert [m for m in package for name in UNLOADED
            if m == name or m.startswith(name + ".")] == []
    assert loaded == {"scipy": [], "first": [], "second": []}
