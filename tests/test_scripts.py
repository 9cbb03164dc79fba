"""The scripts under scripts/ build their configs from the current fields."""
import importlib.util
import os

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_desk_crossing_config_builds(tmp_path):
    desk = load_script("desk_crossing")
    cfg = desk.desk_config(4, str(tmp_path))
    assert cfg.label == "desk_n4" and cfg.n_max == 4
    assert [g.n_sites for g in cfg.geometries()] == [2, 3, 4, 5]
    assert cfg.solver.exact_dim_cap == 100
    assert cfg.resolved_output_dir() == str(tmp_path)
