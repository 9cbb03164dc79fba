import csv
import json
import os

import pytest

from catlattice.config import (ENV_OUTPUT_DIR, ConfigError, RunConfig,
                               load_preset, preset_names)
from catlattice.store import CSV_COLUMNS, SweepStore, point_key, read_rows

MINIMAL = {
    "label": "demo",
    "u": 40.0,
    "j_hop": 20.0,
    "sizes": [[1, 2], 3],
    "n_max": 4,
    "g_values": [0.0, 1.0, 2.0],
}


def test_from_dict_round_trip(tmp_path):
    cfg = RunConfig.from_dict(dict(MINIMAL))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg.to_dict()))
    back = RunConfig.load(path)
    assert back.to_dict() == cfg.to_dict()
    assert back.config_hash() == cfg.config_hash()


def test_missing_and_unknown_fields_aggregated():
    bad = {"label": "x", "u": 1.0, "typo_field": 3, "another": 4}
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(bad)
    msg = str(err.value)
    # one exception carries every complaint
    assert "j_hop" in msg and "sizes" in msg and "n_max" in msg
    assert "typo_field" in msg and "another" in msg


def test_validate_aggregates_value_errors():
    d = dict(MINIMAL, gamma=-1.0, n_max=0, g_values=[-3.0])
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(d)
    assert len(err.value.problems) >= 3


def test_unknown_solver_and_corner_fields_are_config_errors():
    # tol, seed and time_t_final were solver fields once; an old config
    # that still holds them gets a complaint naming each, not a TypeError
    d = dict(MINIMAL, solver={"method": "auto", "tol": 1e-10, "seed": 7,
                              "time_t_final": 60.0},
             corner={"m_list": [8], "bogus": 1})
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(d)
    assert sorted(err.value.problems) == [
        "unknown field 'corner.bogus'", "unknown field 'solver.seed'",
        "unknown field 'solver.time_t_final'", "unknown field 'solver.tol'"]


@pytest.mark.parametrize("extra, problem", [
    ({"solver": 5}, "solver must be an object"),
    ({"corner": {"m_list": 5}}, "corner.m_list must be a list of integers"),
    ({"corner": {"m_list": [8.5]}}, "corner.m_list must be a list of integers"),
    ({"solver": {"exact_dim_cap": "big"}},
     "solver.exact_dim_cap must be an integer"),
    ({"corner": {"drift_tol": "x"}}, "corner.drift_tol must be a number"),
    ({"n_max": 2.7}, "n_max must be an integer"),
    ({"resonant_convention": "no"}, "resonant_convention must be true or false"),
    ({"sizes": 5}, "sizes must be a list"),
    ({"g_values": 2.0}, "g_values must be a list of numbers"),
    ({"g_values": ["a"]}, "g_values must be a list of numbers"),
    ({"g_values": [1.0, True]}, "g_values must be a list of numbers"),
    ({"label": 5}, "label must be a string"),
], ids=["solver_scalar", "m_list_scalar", "m_list_float", "dim_cap_string",
        "drift_tol_string", "n_max_float", "convention_string",
        "sizes_scalar", "g_values_scalar", "g_values_string", "g_values_bool",
        "label_int"])
def test_value_types_are_config_errors(extra, problem):
    # a wrong JSON type is one complaint naming the field, not a TypeError
    # later or a silent cast (n_max 2.7 would run at 2, the string "no"
    # would switch the resonant convention on, and label 5 would become "5")
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(dict(MINIMAL, **extra))
    assert err.value.problems == [problem]


def test_eta_and_delta_rejected_under_resonant_convention():
    # the convention derives eta = gamma and delta = -|J|; a config that
    # also gives them would otherwise run with neither
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(dict(MINIMAL, eta=0.5, delta=3.0))
    assert err.value.problems == [
        "eta cannot be set while resonant_convention is on",
        "delta cannot be set while resonant_convention is on"]
    cfg = RunConfig.from_dict(dict(MINIMAL, eta=None, delta=None))
    assert cfg.config_hash() == RunConfig.from_dict(MINIMAL).config_hash()


def test_leaf_sites_max_must_be_positive():
    # leaf_sites_max 0 would make every corner point recurse without end
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(dict(MINIMAL, corner={"leaf_sites_max": 0}))
    assert err.value.problems == ["corner.leaf_sites_max must be >= 1"]
    cfg = RunConfig.from_dict(dict(MINIMAL, corner={"leaf_sites_max": 1}))
    assert cfg.corner.leaf_sites_max == 1


@pytest.mark.parametrize("size", [True, [2, 2.7], [2, True], [2, "3"],
                                  2.0, "2x", "two", [2, 3, 4]],
                         ids=["bool", "pair_float", "pair_bool",
                              "pair_string", "float", "half_string",
                              "word", "triple"])
def test_size_specs_are_ints_strings_or_int_pairs(size):
    # a size is an int >= 1, an "LxW" string or a pair of ints; true would
    # be a 1-site lattice labelled "True" and [2, 2.7] a silent 2x2
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(dict(MINIMAL, sizes=[3, size]))
    (problem,) = err.value.problems
    assert problem.startswith("bad size %r:" % (size,))


@pytest.mark.parametrize("section, field", [("corner", "drift_tol"),
                                            ("solver", "exact_dim_cap")])
def test_negative_tolerances_are_config_errors(section, field):
    # at drift_tol -1.0 no point could converge short of the last M
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(dict(MINIMAL, **{section: {field: -1}}))
    assert err.value.problems == ["%s.%s must be >= 0" % (section, field)]
    cfg = RunConfig.from_dict(dict(MINIMAL, **{section: {field: 0}}))
    assert getattr(getattr(cfg, section), field) == 0


@pytest.mark.parametrize("extra, problems", [
    ({"g_values": [1.0, float("nan")]}, ["g_values must be finite"]),
    ({"gamma": float("nan")}, ["gamma must be finite"]),
    ({"u": float("inf"), "corner": {"drift_tol": float("nan")}},
     ["u must be finite", "corner.drift_tol must be finite"]),
    ({"j_hop": float("-inf")}, ["j_hop must be finite"]),
    ({"resonant_convention": False, "delta": float("nan"),
      "eta": float("inf")}, ["eta must be finite", "delta must be finite"]),
], ids=["g_values_nan", "gamma_nan", "u_inf_drift_tol_nan", "j_hop_inf",
        "eta_delta"])
def test_non_finite_numbers_are_config_errors(tmp_path, extra, problems):
    # json.load parses NaN and Infinity; each is a complaint naming its
    # field, not a parity error from the solver later
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(MINIMAL, **extra)))
    with pytest.raises(ConfigError) as err:
        RunConfig.load(path)
    assert err.value.problems == problems


@pytest.mark.parametrize("m_list", [[16, 16], [16, 32, 32], [32, 16]],
                         ids=["repeated", "repeated_last", "descending"])
def test_m_list_must_be_strictly_ascending(m_list):
    # a repeated M repeats its corner run and fakes a drift of 0.0
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(dict(MINIMAL, corner={"m_list": m_list}))
    assert err.value.problems == ["corner.m_list must be strictly ascending"]


def test_resonant_convention_derived_parameters():
    cfg = RunConfig.from_dict(dict(MINIMAL))
    assert cfg.effective_delta() == -20.0
    assert cfg.effective_eta() == 1.0
    p = cfg.model_params(2.0)
    assert p.g == 2.0 and p.u == 40.0 and p.delta == -20.0 and p.eta == 1.0
    explicit = RunConfig.from_dict(dict(MINIMAL, resonant_convention=False,
                                        delta=0.0, eta=0.5))
    assert explicit.effective_delta() == 0.0
    assert explicit.effective_eta() == 0.5


def test_convention_requires_values_when_disabled():
    with pytest.raises(ConfigError):
        RunConfig.from_dict(dict(MINIMAL, resonant_convention=False))


def test_geometries_follow_size_specs():
    cfg = RunConfig.from_dict(dict(MINIMAL))
    geoms = cfg.geometries()
    labels = [g.label for g in geoms]
    assert labels == ["1x2", "3"]
    assert geoms[0].n_sites == 2
    assert geoms[1].n_sites == 3


def test_config_hash_ignores_label_and_output_dir():
    a = RunConfig.from_dict(dict(MINIMAL))
    b = RunConfig.from_dict(dict(MINIMAL, label="other",
                                 output_dir="/tmp/elsewhere"))
    assert a.config_hash() == b.config_hash()
    c = RunConfig.from_dict(dict(MINIMAL, u=41.0))
    assert c.config_hash() != a.config_hash()


def test_output_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    cfg = RunConfig.from_dict(dict(MINIMAL))
    assert str(cfg.resolved_output_dir()).endswith("runs")
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "envdir"))
    assert str(cfg.resolved_output_dir()) == str(tmp_path / "envdir")
    cfg2 = RunConfig.from_dict(dict(MINIMAL, output_dir=str(tmp_path / "ex")))
    assert str(cfg2.resolved_output_dir()) == str(tmp_path / "ex")


def test_presets_load_and_validate():
    names = preset_names()
    assert set(names) == {"fig2", "fig3", "fig4"}
    for name in names:
        cfg = load_preset(name)
        assert cfg.g_values[0] == 0.0
        assert cfg.gamma == 1.0
    with pytest.raises(KeyError):
        load_preset("fig9")


# -- sweep store ------------------------------------------------------


def make_rec(size="1x2", g=1.0, **kw):
    rec = {"size": size, "G_over_gamma": g, "parity": 0.5, "entropy": 0.3,
           "n_per_site": 0.7, "method": "direct", "M": 81,
           "residual": 1e-12, "converged": True, "config_hash": "c0ffee"}
    rec.update(kw)
    return rec


def test_store_append_and_reload(tmp_path):
    path = tmp_path / "sweep.jsonl"
    store = SweepStore(path)
    store.append(make_rec(g=0.0))
    store.append(make_rec(g=1.0))
    assert len(store) == 2
    again = SweepStore(path)
    assert len(again) == 2
    assert again.has_point("c0ffee", "1x2", 1.0)
    assert not again.has_point("c0ffee", "1x2", 2.0)
    assert not again.has_point("deadbf", "1x2", 1.0)


def test_store_rejects_incomplete_record(tmp_path):
    store = SweepStore(tmp_path / "s.jsonl")
    bad = make_rec()
    del bad["entropy"]
    with pytest.raises(ValueError):
        store.append(bad)
    bad2 = make_rec()
    del bad2["config_hash"]
    with pytest.raises(ValueError):
        store.append(bad2)


def test_csv_column_order(tmp_path):
    store = SweepStore(tmp_path / "s.jsonl")
    store.append(make_rec(g=0.0))
    csv_path = store.to_csv()
    with open(csv_path, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == list(CSV_COLUMNS)
    assert CSV_COLUMNS == ("size", "G_over_gamma", "parity", "entropy",
                           "n_per_site", "method", "M", "residual",
                           "converged")


def test_read_rows_csv_and_jsonl_agree(tmp_path):
    store = SweepStore(tmp_path / "s.jsonl")
    store.append(make_rec(g=0.0, parity=1.0))
    store.append(make_rec(g=2.5, parity=0.25))
    csv_path = store.to_csv()
    jl = read_rows(tmp_path / "s.jsonl")
    cs = read_rows(csv_path)
    assert len(jl) == len(cs) == 2
    for a, b in zip(jl, cs):
        assert a["size"] == b["size"]
        assert float(a["parity"]) == float(b["parity"])
        assert float(a["G_over_gamma"]) == float(b["G_over_gamma"])


def test_store_drops_torn_last_line(tmp_path):
    path = tmp_path / "s.jsonl"
    store = SweepStore(path)
    store.append(make_rec(g=0.0))
    store.append(make_rec(g=1.0))
    data = path.read_bytes()
    path.write_bytes(data[:-25])          # a kill mid-append tears line 2
    torn = SweepStore(path)
    assert len(torn) == 1 and len(read_rows(path)) == 1
    assert not torn.has_point("c0ffee", "1x2", 1.0)
    torn.append(make_rec(g=1.0))          # the resumed point, on its own line
    assert path.read_bytes() == data
    assert len(SweepStore(path)) == 2


def test_store_appends_after_unterminated_last_line(tmp_path):
    path = tmp_path / "s.jsonl"
    SweepStore(path).append(make_rec(g=0.0))
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    store = SweepStore(path)
    assert len(store) == 1                # a whole record stays a record
    store.append(make_rec(g=1.0))
    assert [r["G_over_gamma"] for r in read_rows(path)] == [0.0, 1.0]


def test_store_corrupt_middle_line_raises(tmp_path):
    path = tmp_path / "s.jsonl"
    store = SweepStore(path)
    store.append(make_rec(g=0.0))
    store.append(make_rec(g=1.0))
    lines = path.read_bytes().split(b"\n")
    lines[0] = lines[0][:-25]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(json.JSONDecodeError):
        SweepStore(path)
    with pytest.raises(json.JSONDecodeError):
        read_rows(path)

def test_point_key_tolerant_to_float_noise():
    k1 = point_key("h", "2x2", 0.1 + 0.2)
    k2 = point_key("h", "2x2", 0.3)
    assert k1 == k2
    assert point_key("h", "2x2", 0.3) != point_key("h", "2x2", 0.31)
