"""The scripts under scripts/ load against the current library, build their
configs from the current fields, and the mapping table runs end to end."""
import importlib.util
import os
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["desk_crossing", "mapping_table",
                                  "run_preset"])
def test_script_loads(name):
    assert callable(load_script(name).main)


def test_desk_crossing_config_builds(tmp_path):
    desk = load_script("desk_crossing")
    cfg = desk.desk_config(4, str(tmp_path))
    assert cfg.label == "desk_n4" and cfg.n_max == 4
    assert [g.n_sites for g in cfg.geometries()] == [2, 3, 4, 5]
    assert cfg.solver.exact_dim_cap == 100
    assert cfg.resolved_output_dir() == str(tmp_path)


def test_mapping_table_runs(monkeypatch, capsys):
    # the one caller of build_hamiltonian at D = 15625 (3 sites, n_max 24),
    # through spinmap.validate_mapping
    monkeypatch.setattr(sys, "argv", ["mapping_table.py"])
    assert load_script("mapping_table").main() == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("worst:") and float(last.split()[1]) <= 1e-8
