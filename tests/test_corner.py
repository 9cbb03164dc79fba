import gc
import weakref

import numpy as np
import pytest

import catlattice.corner as corner
from catlattice.corner import (convergence_sweep, corner_steady_state,
                               merge_spaces, project_pair)
from catlattice.fock import FockSpace, annihilation_op, number_op, parity_op
from catlattice.lattice import (ModelParams, build_hamiltonian,
                                build_jump_operators, chain, rectangle)
from catlattice.liouville import (DensityMatrix, steady_state_direct,
                                  steady_state_eigen, vectorize_lindbladian)
from catlattice.observables import (parity_expectation, trace_distance,
                                    von_neumann_entropy)


def test_merge_keeps_most_probable_products():
    rho_a = DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
    rho_b = DensityMatrix(np.diag([0.8, 0.2]).astype(complex))
    basis = merge_spaces(rho_a, rho_b, 2)
    # product weights: 0.72, 0.18, 0.08, 0.02 -> keep (0,0) and (0,1)
    assert basis.m == 2
    assert basis.weights[0] == pytest.approx(0.72)
    assert basis.weights[1] == pytest.approx(0.18)


def test_merge_tie_expansion():
    # degenerate second/third weights: truncating at m=2 must widen to 3
    rho_a = DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
    rho_b = DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
    basis = merge_spaces(rho_a, rho_b, 2)
    assert basis.m == 3
    assert basis.weights[1] == pytest.approx(basis.weights[2])


def test_full_merge_is_exact_projection():
    rng = np.random.default_rng(5)

    def random_rho(d):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        r = m @ m.conj().T
        return DensityMatrix(r / r.trace())

    rho_a, rho_b = random_rho(3), random_rho(4)
    basis = merge_spaces(rho_a, rho_b, 12)
    assert basis.m == 12
    assert basis.kept_weight == pytest.approx(1.0)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    # pair projection of X (x) Y must equal the full Kronecker product
    # sandwiched by the explicit kept-product isometry
    pair = project_pair(x, y, basis)
    iso = np.zeros((12, 12), dtype=complex)
    for k in range(basis.m):
        iso[:, k] = np.kron(basis.vecs_a[:, basis.idx_a[k]],
                            basis.vecs_b[:, basis.idx_b[k]])
    ref = iso.conj().T @ np.kron(x, y) @ iso
    assert np.abs(pair - ref).max() < 1e-12


def test_merge_never_keeps_zero_weight_products():
    # a pure block's other eigenvectors are arbitrary: a truncated corner
    # keeps only the one product of positive weight, even when more are
    # asked for, and noise-level weights count as zero
    rho_a = DensityMatrix(np.diag([1.0, 1e-15, 0.0]).astype(complex))
    rho_b = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    basis = merge_spaces(rho_a, rho_b, 4)
    assert basis.m == 1
    assert basis.kept_weight == pytest.approx(1.0)
    # the full product basis is exact, so it is kept whole
    assert merge_spaces(rho_a, rho_b, 6).m == 6
    rho_b = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
    assert merge_spaces(rho_a, rho_b, 4).m == 2


def test_merge_keeps_parity_sectors_apart():
    # each kept product is an eigenvector of the blocks' parity, with the
    # +-1 eigenvalue recorded in basis.parity
    par = np.array([1.0, -1.0, 1.0])
    rho = DensityMatrix(np.array([[0.4, 0.0, 0.1], [0.0, 0.2, 0.0],
                                  [0.1, 0.0, 0.4]], dtype=complex))
    basis = merge_spaces(rho, rho, 9, parity_a=par, parity_b=par)
    pi = np.kron(par, par)
    for k in range(basis.m):
        v = np.kron(basis.vecs_a[:, basis.idx_a[k]],
                    basis.vecs_b[:, basis.idx_b[k]])
        assert np.array_equal(pi * v, basis.parity[k] * v)
    with pytest.raises(ValueError):
        merge_spaces(rho, rho, 2, parity_a=np.array([1.0, 0.0, 1.0]))


def test_pair_projection_beats_product_of_projections():
    # with a truncated basis, P(X (x) Y) != P(X (x) I) P(I (x) Y); the pair
    # projector is the one that matches the isometry sandwich
    rng = np.random.default_rng(9)
    rho_a = DensityMatrix(np.diag([0.6, 0.3, 0.1]).astype(complex))
    rho_b = DensityMatrix(np.diag([0.7, 0.2, 0.1]).astype(complex))
    basis = merge_spaces(rho_a, rho_b, 4)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    pair = project_pair(x, y, basis)
    xa = project_pair(x, np.eye(3), basis)
    yb = project_pair(np.eye(3), y, basis)
    iso = np.zeros((9, basis.m), dtype=complex)
    for k in range(basis.m):
        iso[:, k] = np.kron(basis.vecs_a[:, basis.idx_a[k]],
                            basis.vecs_b[:, basis.idx_b[k]])
    ref = iso.conj().T @ np.kron(x, y) @ iso
    assert np.abs(pair - ref).max() < 1e-12
    assert np.abs(xa @ yb - ref).max() > 1e-3


def test_schedule_shapes(monkeypatch):
    # the 2x2 torus bisects into two equal 2-site leaves, solved once, and
    # one merge; the 4-ring into two 2-site leaves and one merge
    f = FockSpace(2)
    p = ModelParams.resonant(u=40.0, j_hop=20.0, g=1.5)
    seen = solved_blocks(monkeypatch)
    for geom in (rectangle(2, 2), chain(4)):
        del seen[:]
        run = corner_steady_state(geom, p, f, 16, leaf_sites_max=2)
        assert [h.shape[0] for h, _ in seen[:-1]] == [f.dim ** 2]
        assert len(run.steps) == 1 and seen[-1][0].shape[0] == run.steps[0]["m"]


def test_corner_full_m_matches_exact_two_site():
    f = FockSpace(3)
    p = ModelParams.resonant(u=40.0, j_hop=20.0, g=1.5)
    geom = chain(2)
    full = f.dim ** 2
    run = corner_steady_state(geom, p, f, full, leaf_sites_max=1)
    h = build_hamiltonian(p, geom, f)
    jumps = build_jump_operators(p, geom, f)
    pi = parity_op(f, 2)
    exact = steady_state_eigen(vectorize_lindbladian(h, jumps), parity=pi)
    d_pi = abs(parity_expectation(run.result.rho, run.parity_op)
               - parity_expectation(exact.rho, pi))
    d_s = abs(von_neumann_entropy(run.result.rho)
              - von_neumann_entropy(exact.rho))
    assert d_pi < 1e-7
    assert d_s < 1e-7


def test_corner_full_m_matches_exact_2x2_torus_from_single_sites():
    # single-site leaves: two 1+1 merges (the second reused) and the 2x2
    # merge, a tree criterion 3 does not run.  n_max 2 so the two-photon
    # drive is on (at n_max 1 the state is the vacuum); the eigen oracle
    # takes 20 s at D = 81, so the reference is the full-space kernel
    f = FockSpace(2)
    p = ModelParams.resonant(u=10.0, j_hop=5.0, g=0.8)
    geom = rectangle(2, 2)
    run = corner_steady_state(geom, p, f, f.dim ** 4, leaf_sites_max=1)
    pi = parity_op(f, 4)
    exact = steady_state_direct(build_hamiltonian(p, geom, f),
                                build_jump_operators(p, geom, f), parity=pi)
    s = von_neumann_entropy(exact.rho)
    assert s > 0.1
    assert abs(parity_expectation(run.result.rho, run.parity_op)
               - parity_expectation(exact.rho, pi)) < 1e-7
    assert abs(von_neumann_entropy(run.result.rho) - s) < 1e-7


def solved_blocks(monkeypatch):
    """(h, parity) of every block the corner run hands to the kernel."""
    seen = []
    real = corner.steady_state_direct

    def spy(h, jumps, **kw):
        seen.append((h, kw["parity"]))
        return real(h, jumps, **kw)

    monkeypatch.setattr(corner, "steady_state_direct", spy)
    return seen


def test_leaf_is_the_lattice_hamiltonian():
    # one formula: a leaf spanning the whole lattice is build_hamiltonian
    p = ModelParams.resonant(u=40.0, j_hop=20.0, g=1.5)
    for geom, n_max in ((chain(3), 2), (rectangle(2, 2), 1),
                        (rectangle(2, 3), 1)):
        f = FockSpace(n_max)
        region = corner.Region(0, 0, *corner._full_extents(geom))
        leaf = corner._build_leaf(region, geom, p, f)
        assert np.array_equal(leaf.h, build_hamiltonian(p, geom, f).to_dense())


def full_m_corner_with_exact_spectrum(monkeypatch, geom, p, f):
    """Corner run at full M whose final Hamiltonian has the exact spectrum."""
    seen = solved_blocks(monkeypatch)
    run = corner_steady_state(geom, p, f, f.dim ** geom.n_sites)
    h = build_hamiltonian(p, geom, f).to_dense()
    assert np.abs(np.linalg.eigvalsh(seen[-1][0])
                  - np.linalg.eigvalsh(h)).max() < 1e-10
    return run


@pytest.mark.parametrize("geom", [rectangle(2, 3), chain(5)],
                         ids=["2x3", "5-ring"])
def test_full_m_corner_closes_periodic_axes(monkeypatch, geom):
    # a periodic axis of extent >= 3 closes in the final merge, as a seam
    # bond.  At n_max 1 the two-photon drive vanishes and the state is the
    # vacuum, so it is the corner Hamiltonian's spectrum that shows a
    # dropped or doubled seam bond
    f = FockSpace(1)
    p = ModelParams.resonant(u=10.0, j_hop=5.0, g=0.8)
    run = full_m_corner_with_exact_spectrum(monkeypatch, geom, p, f)
    pi = parity_op(f, geom.n_sites)
    exact = steady_state_eigen(vectorize_lindbladian(
        build_hamiltonian(p, geom, f), build_jump_operators(p, geom, f)),
        parity=pi)
    assert abs(parity_expectation(run.result.rho, run.parity_op)
               - parity_expectation(exact.rho, pi)) < 1e-8
    assert abs(von_neumann_entropy(run.result.rho)
               - von_neumann_entropy(exact.rho)) < 1e-8


def test_reused_block_keeps_its_site_order(monkeypatch):
    # the 4x2 torus solves one 2x2 block and reuses it for the other half;
    # a merged block's sites are not in region order, so the reused copy
    # must shift the source's labels, or the seams join the wrong sites
    f = FockSpace(1)
    p = ModelParams.resonant(u=10.0, j_hop=5.0, g=0.8)
    run = full_m_corner_with_exact_spectrum(monkeypatch, rectangle(4, 2), p, f)
    assert [st["cached"] for st in run.steps] == [False, True, False]


def test_corner_parity_is_exactly_diagonal_on_the_3x3_torus(monkeypatch):
    # corner vectors come from one eigh per parity sector, so every block's
    # parity is diagonal +-1 and an exact symmetry of its Liouvillian; a
    # parity-mixed corner here was off-diagonal by 1e-3 and, at M=256, made
    # the kernel's parity step turn a correct state into HIGH_RESIDUAL
    p = ModelParams.resonant(u=100.0, j_hop=50.0, g=5.0)
    seen = solved_blocks(monkeypatch)
    run = corner_steady_state(rectangle(3, 3), p, FockSpace(4), 128)
    for _, par in seen + [(None, run.parity_op)]:
        assert np.array_equal(par, np.diag(np.diag(par)))
        assert set(np.diag(par)) <= {1.0, -1.0}
    rho = run.result.rho.mat
    assert np.abs(rho @ run.parity_op - run.parity_op @ rho).max() <= 1e-12
    assert "HIGH_RESIDUAL" not in run.result.flags


def test_convergence_sweep_exact_shortcut():
    f = FockSpace(2)
    p = ModelParams.resonant(u=20.0, j_hop=10.0, g=1.0)
    run, report = convergence_sweep(chain(2), p, f, [f.dim ** 2],
                                    leaf_sites_max=1)
    assert run.converged
    assert report[0]["exact"]


def test_convergence_sweep_flags_unconverged():
    f = FockSpace(2)
    p = ModelParams.resonant(u=20.0, j_hop=10.0, g=1.5)
    run, report = convergence_sweep(chain(3), p, f, [1],
                                    leaf_sites_max=1)
    assert not run.converged
    assert "UNCONVERGED" in run.result.flags


def test_convergence_sweep_rejects_unsorted():
    f = FockSpace(2)
    p = ModelParams.resonant(u=20.0, j_hop=10.0, g=1.0)
    with pytest.raises(ValueError):
        convergence_sweep(chain(2), p, f, [8, 4])


def test_truncated_corner_tracks_exact_three_site():
    f = FockSpace(2)
    p = ModelParams.resonant(u=100.0, j_hop=50.0, g=1.8)
    geom = chain(3)
    run, _ = convergence_sweep(geom, p, f, [6, 12, 18],
                               leaf_sites_max=1)
    h = build_hamiltonian(p, geom, f)
    jumps = build_jump_operators(p, geom, f)
    pi = parity_op(f, 3)
    exact = steady_state_eigen(vectorize_lindbladian(h, jumps), parity=pi)
    d_pi = abs(parity_expectation(run.result.rho, run.parity_op)
               - parity_expectation(exact.rho, pi))
    assert d_pi < 2e-3


def test_convergence_sweep_reuses_blocks_across_m(monkeypatch):
    # the 5-ring bisects into (2 + 1) + 2 sites.  Leaves do not depend on
    # M, nor does the 2+1 merge once M covers its 27 products: they are
    # solved once for the whole M list, with the same report as runs that
    # share nothing
    f = FockSpace(2)
    p = ModelParams.resonant(u=100.0, j_hop=50.0, g=4.5)
    leaves = []
    real_leaf = corner._build_leaf

    def leaf_spy(*args):
        leaves.append(args[0])
        return real_leaf(*args)

    monkeypatch.setattr(corner, "_build_leaf", leaf_spy)
    seen = solved_blocks(monkeypatch)
    _, report = convergence_sweep(chain(5), p, f, [24, 32, 48])
    assert [r["m"] for r in report] == [24, 32, 48]
    assert len(leaves) == 2
    assert [h.shape[0] for h, _ in seen].count(27) == 1

    real_run = corner.corner_steady_state
    monkeypatch.setattr(corner, "corner_steady_state",
                        lambda *a, blocks=None, **kw: real_run(*a, **kw))
    _, separate = convergence_sweep(chain(5), p, f, [24, 32, 48])
    assert len(leaves) == 2 + 6
    assert report == separate


def test_convergence_sweep_frees_its_blocks(monkeypatch):
    # blocks die with the sweep by reference counting alone: a reference
    # cycle (such as a recursive nested closure) would keep every block of
    # a point alive until the next full collection
    built = []

    class Tracked(corner.Block):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            built.append(weakref.ref(self))

    monkeypatch.setattr(corner, "Block", Tracked)
    p = ModelParams.resonant(u=100.0, j_hop=50.0, g=4.5)
    gc.disable()
    try:
        convergence_sweep(chain(5), p, FockSpace(2), [24, 32])
        assert built and all(ref() is None for ref in built)
    finally:
        gc.enable()
