"""Self-tests of the benchmark's checks and tracer (no library needed).

    python3 -m pytest -q perfbench
"""
import json
import types

import numpy as np
import pytest

import checks
import layers
import spans
from checks import CheckFailed


def _steady_state(h, jumps):
    """Kernel of the dense vectorised generator (row-major vec)."""
    d = h.shape[0]
    eye = np.eye(d)
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for lk in jumps:
        ldl = lk.conj().T @ lk
        sup += (np.kron(lk, lk.conj()) - 0.5 * np.kron(ldl, eye)
                - 0.5 * np.kron(eye, ldl.T))
    _, _, vh = np.linalg.svd(sup)
    rho = vh[-1].conj().reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


@pytest.fixture(scope="module")
def model():
    h, jumps, parity = checks.ring_model(2, 3, 10.0, 5.0, 2.0)
    return h, jumps, parity, _steady_state(h, jumps)


def test_steady_state_passes_every_check(model):
    h, jumps, parity, rho = model
    checks.check_density_matrix(rho, parity, "steady")
    assert checks.check_steady(rho, h, jumps, "steady") < 1e-12


def test_residual_check_rejects_state_off_steady(model):
    h, jumps, parity, rho = model
    vacuum = np.zeros_like(rho)
    vacuum[0, 0] = 1.0
    moved = 0.99 * rho + 0.01 * vacuum
    checks.check_density_matrix(moved, parity, "moved")   # still a state
    with pytest.raises(CheckFailed, match="L\\(rho\\)"):
        checks.check_steady(moved, h, jumps, "moved")


def test_parity_check_rejects_parity_mixed_state(model):
    h, jumps, parity, rho = model
    odd = int(np.flatnonzero(np.real(np.diag(parity)) < 0)[0])
    mixed = rho.copy()
    mixed[0, odd] += 1e-3
    mixed[odd, 0] += 1e-3
    with pytest.raises(CheckFailed, match="\\[rho, Pi\\]"):
        checks.check_parity_symmetric(mixed, parity, "mixed")


def test_observable_check_rejects_wrong_parity(model):
    _, _, parity, rho = model
    p, s = checks.parity_of(rho, parity), checks.entropy_of(rho)
    checks.check_observables(rho, parity, p, s, "ok")
    with pytest.raises(CheckFailed, match="parity"):
        checks.check_observables(rho, parity, p + 1e-6, s, "bad")


def test_ring_model_links():
    assert checks.ring_links(2) == [(0, 1), (1, 0)]
    assert checks.ring_links(4) == [(0, 1), (1, 2), (2, 3), (3, 0)]
    h, jumps, parity = checks.ring_model(3, 2, 1.0, 1.0, 0.5)
    assert h.shape == (27, 27) and len(jumps) == 6
    assert np.allclose(h, h.conj().T)
    assert np.allclose(parity @ parity, np.eye(27))


def test_cutoff_check_rejects_large_difference():
    checks.check_cutoff_agreement(0.5, 0.5 + 1e-8, 1e-11, 2, "close")
    with pytest.raises(CheckFailed, match="across the cutoff"):
        checks.check_cutoff_agreement(0.5, 0.51, 1e-11, 2, "far")


def _write_store(path, keys):
    with open(path, "w") as fh:
        for size, g in keys:
            fh.write(json.dumps({"size": size, "G_over_gamma": g,
                                 "method": "direct", "converged": True})
                     + "\n")


def test_store_check_rejects_missing_and_repeated_points(tmp_path):
    grid = [(str(n), g) for n in (2, 3) for g in (1.0, 2.5)]
    path = str(tmp_path / "s.jsonl")
    _write_store(path, grid)
    checks.check_store(path, grid, "whole")
    _write_store(path, grid[:-1])
    with pytest.raises(CheckFailed, match="lacks"):
        checks.check_store(path, grid, "missing")
    _write_store(path, grid + grid[:1])
    with pytest.raises(CheckFailed, match="more than once"):
        checks.check_store(path, grid, "twice")


def test_synthetic_rows_collapse_at_planted_point():
    rows = checks.synthetic_rows(2.0, [2, 3, 4], [1.0, 2.0, 3.0])
    at_gc = {r["size"]: r["parity"] * int(r["size"]) ** 0.125
             for r in rows if r["G_over_gamma"] == 2.0}
    assert np.allclose(list(at_gc.values()), 0.5)


def test_self_times_on_hand_built_tree():
    # root [0,10]; A [1,4] holds A1 [2,3]; B [3,6] overlaps A; C [8,12]
    # runs past root's end and is clipped to [8,10]
    S = spans.Span
    tree = [S("root", None, 0.0, 10.0), S("A", 0, 1.0, 4.0),
            S("A1", 1, 2.0, 3.0), S("B", 0, 3.0, 6.0),
            S("C", 0, 8.0, 12.0)]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tracer_nesting_patching_and_hooks():
    mod = types.ModuleType("fake")
    other = types.ModuleType("fake_user")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    other.inner = inner                    # imported by name elsewhere
    tracer = spans.Tracer(clock=_Clock())
    assert tracer.patch(mod, "inner", "fake.inner",
                        hook=lambda a, k, r: {"result": r},
                        rebind_in=[mod, other])
    assert tracer.patch(mod, "outer", "fake.outer", rebind_in=[mod])
    assert not tracer.patch(mod, "absent", "fake.absent")
    assert other.inner is mod.inner is not inner

    assert mod.outer(1) == 4 and tracer.spans == []    # inactive: no spans
    tracer.active = True
    assert mod.outer(1) == 4
    outer_span, inner_span = tracer.spans
    assert (outer_span.name, outer_span.parent) == ("fake.outer", None)
    assert (inner_span.name, inner_span.parent) == ("fake.inner", 0)
    assert inner_span.counts == {"result": 2}
    # clock ticks: outer opens 1, inner 2..3, outer closes 4
    assert spans.self_times(tracer.spans) == [2.0, 1.0]

    tracer.unpatch()
    assert mod.inner is inner and other.inner is inner and mod.outer is outer


def test_layer_metrics_count_entries_and_ratios():
    S = spans.Span
    tree = [S("corner.convergence_sweep", None, 0.0, 10.0),
            S("corner.corner_steady_state", 0, 0.0, 4.0),
            S("fock.parity_op", 1, 0.5, 1.0),
            S("fock.embed_site_op", 2, 0.6, 0.7),
            S("corner.merge_spaces", 1, 1.0, 2.0, {"m": 10}),
            S("corner.corner_steady_state", 0, 4.0, 9.0),
            S("corner.merge_spaces", 5, 5.0, 6.0, {"m": 20})]
    m = layers.layer_metrics(tree)
    assert m["lattice.build_calls"] == 1          # the nested call is no entry
    assert m["lattice.build_s"] == pytest.approx(0.5)
    assert m["corner.runs_per_point"] == 2.0
    assert m["corner.merges"] == 2 and m["corner.m_max"] == 20
    assert m["corner.superop_bytes"] == 16 * (10 ** 4 + 20 ** 4)
    assert m["corner.block_solve_s"] == pytest.approx(2.5 + 4.0)
    assert set(m) | {"trace.wall_s", "trace.overhead_s", "trace.spans",
                     "trace.missing"} == set(layers.PER_LAYER)
