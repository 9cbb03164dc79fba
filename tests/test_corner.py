import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import catlattice.corner as corner
from catlattice.corner import (convergence_sweep, corner_steady_state,
                               merge_spaces, project_pair)
from catlattice.fock import (FockSpace, annihilation_op, embed_site_op,
                             number_op, parity_op, total_number_diagonal)
from catlattice.lattice import (ModelParams, build_hamiltonian,
                                build_jump_operators, chain, jump_operators,
                                lattice_hamiltonian, rectangle)
from catlattice.liouville import (DensityMatrix, steady_state_direct,
                                  steady_state_eigen, vectorize_lindbladian)
from catlattice.observables import (parity_expectation, trace_distance,
                                    von_neumann_entropy)


def _even(d):
    # the parity of d basis states that are all even
    return np.ones(d)


def _kept_pairs(basis):
    # (i, j) of each kept product |phi_i>_A (x) |psi_j>_B, the blocks'
    # eigenvectors counted from the most probable
    return [(int(i), int(j)) for i, j in zip(basis.idx_a, basis.idx_b)]


def test_merge_keeps_most_probable_products():
    rho_a = DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
    rho_b = DensityMatrix(np.diag([0.8, 0.2]).astype(complex))
    basis = merge_spaces(rho_a, rho_b, 2, _even(2), _even(2))
    # product weights: 0.72, 0.18, 0.08, 0.02 -> keep (0,0) and (0,1)
    assert basis.m == 2
    assert _kept_pairs(basis) == [(0, 0), (0, 1)]
    assert basis.kept_weight == pytest.approx(0.72 + 0.18)


def test_merge_tie_expansion():
    # degenerate second/third weights: truncating at m=2 must widen to 3
    rho_a = DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
    rho_b = DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
    basis = merge_spaces(rho_a, rho_b, 2, _even(2), _even(2))
    assert basis.m == 3
    assert _kept_pairs(basis)[0] == (0, 0)
    assert sorted(_kept_pairs(basis)[1:]) == [(0, 1), (1, 0)]
    assert basis.kept_weight == pytest.approx(0.81 + 2 * 0.09)


def test_full_merge_is_exact_projection():
    rng = np.random.default_rng(5)

    def random_rho(d):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        r = m @ m.conj().T
        return DensityMatrix(r / r.trace())

    rho_a, rho_b = random_rho(3), random_rho(4)
    basis = merge_spaces(rho_a, rho_b, 12, _even(3), _even(4))
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
    basis = merge_spaces(rho_a, rho_b, 4, _even(3), _even(2))
    assert basis.m == 1
    assert basis.kept_weight == pytest.approx(1.0)
    # the full product basis is exact, so it is kept whole
    assert merge_spaces(rho_a, rho_b, 6, _even(3), _even(2)).m == 6
    rho_b = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
    assert merge_spaces(rho_a, rho_b, 4, _even(3), _even(2)).m == 2


def test_merge_keeps_parity_sectors_apart():
    # each kept product is an eigenvector of the blocks' parity, with the
    # +-1 eigenvalue recorded in basis.parity
    par = np.array([1.0, -1.0, 1.0])
    rho = DensityMatrix(np.array([[0.4, 0.0, 0.1], [0.0, 0.2, 0.0],
                                  [0.1, 0.0, 0.4]], dtype=complex))
    basis = merge_spaces(rho, rho, 9, par, par)
    pi = np.kron(par, par)
    for k in range(basis.m):
        v = np.kron(basis.vecs_a[:, basis.idx_a[k]],
                    basis.vecs_b[:, basis.idx_b[k]])
        assert np.array_equal(pi * v, basis.parity[k] * v)
    with pytest.raises(ValueError):
        merge_spaces(rho, rho, 2, np.array([1.0, 0.0, 1.0]), par)


def test_pair_projection_beats_product_of_projections():
    # with a truncated basis, P(X (x) Y) != P(X (x) I) P(I (x) Y); the pair
    # projector is the one that matches the isometry sandwich
    rng = np.random.default_rng(9)
    rho_a = DensityMatrix(np.diag([0.6, 0.3, 0.1]).astype(complex))
    rho_b = DensityMatrix(np.diag([0.7, 0.2, 0.1]).astype(complex))
    basis = merge_spaces(rho_a, rho_b, 4, _even(3), _even(3))
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    pair = project_pair(x, y, basis)
    iso = np.zeros((9, basis.m), dtype=complex)
    for k in range(basis.m):
        iso[:, k] = np.kron(basis.vecs_a[:, basis.idx_a[k]],
                            basis.vecs_b[:, basis.idx_b[k]])
    ref = iso.conj().T @ np.kron(x, y) @ iso
    assert np.abs(pair - ref).max() < 1e-12
    # an identity factor, as a matrix or as None (the delta of the kept
    # indices on its side), projects like the sandwich of X (x) I
    for eye in (np.eye(3), None):
        xa = project_pair(x, eye, basis)
        yb = project_pair(eye, y, basis)
        assert np.abs(xa - iso.conj().T @ np.kron(x, np.eye(3)) @ iso).max() \
            < 1e-12
        assert np.abs(yb - iso.conj().T @ np.kron(np.eye(3), y) @ iso).max() \
            < 1e-12
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
    exact = steady_state_eigen(vectorize_lindbladian(h, jumps),
                                parity=pi.diagonal().real)
    d_pi = abs(parity_expectation(run.result.rho, run.parity_op)
               - parity_expectation(exact.rho, pi))
    d_s = abs(von_neumann_entropy(run.result.rho)
              - von_neumann_entropy(exact.rho))
    assert d_pi < 1e-7
    assert d_s < 1e-7


@pytest.mark.parametrize("geom,gamma,eta", [
    (chain(3), 2.0, 0.5), (chain(3), 1.0, 0.0), (rectangle(2, 2), 0.5, 2.0)],
    ids=["3-ring-gamma2", "3-ring-eta0", "2x2-gamma0.5"])
def test_full_m_corner_matches_eigen_off_unit_rates(geom, gamma, eta):
    # a block holds sqrt(gamma) a_j, so its seams divide the hop by gamma,
    # and at eta = 0 it holds no a_j^2 at all; single-site leaves put every
    # bond on a seam.  The 2x2 torus's eigen reference (D = 81) takes about
    # 13 s and 470 MB
    f = FockSpace(2)
    p = ModelParams(delta=-10.0, u=20.0, g=1.5, j_hop=10.0, gamma=gamma,
                    eta=eta)
    n = geom.n_sites
    run = corner_steady_state(geom, p, f, f.dim ** n, leaf_sites_max=1)
    assert len(run.steps) == n - 1 and all(st["exact"] for st in run.steps)
    pi = parity_op(f, n).diagonal().real
    exact = steady_state_eigen(vectorize_lindbladian(
        build_hamiltonian(p, geom, f), build_jump_operators(p, geom, f)),
        parity=pi)
    assert not run.result.flags and not exact.flags
    assert abs(parity_expectation(run.result.rho, run.parity)
               - parity_expectation(exact.rho, pi)) < 1e-8
    assert abs(von_neumann_entropy(run.result.rho)
               - von_neumann_entropy(exact.rho)) < 1e-8


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
                                build_jump_operators(p, geom, f),
                                parity=pi.diagonal().real)
    s = von_neumann_entropy(exact.rho)
    assert s > 0.1
    assert abs(parity_expectation(run.result.rho, run.parity_op)
               - parity_expectation(exact.rho, pi)) < 1e-7
    assert abs(von_neumann_entropy(run.result.rho) - s) < 1e-7


def dense(op):
    return op.toarray() if sp.issparse(op) else op


def solved_blocks(monkeypatch):
    """(h, parity) of every block the corner run hands to the kernel."""
    seen = []
    real = corner.steady_state_direct

    def spy(h, jumps, **kw):
        seen.append((h, kw["parity"]))
        return real(h, jumps, **kw)

    monkeypatch.setattr(corner, "steady_state_direct", spy)
    return seen


def test_leaf_is_the_lattice_hamiltonian(monkeypatch):
    # one formula: the run whose one leaf spans the whole lattice (the
    # exact route) hands the kernel build_hamiltonian, build_jump_operators
    # (sqrt(gamma) a_j, then sqrt(eta) a_j^2) and the parity of parity_op,
    # and records with the number diagonal of total_number_diagonal; the
    # 3-ring at n_max 4 (D = 125) is built from sparse site operators, the
    # other leaves from dense ones (fock.DENSE_LEAF_DIM), as the builders
    p = ModelParams.resonant(u=40.0, j_hop=20.0, g=1.5)
    seen = []
    real = corner.steady_state_direct

    def spy(h, jumps, **kw):
        seen.append((h, jumps, kw["parity"]))
        return real(h, jumps, **kw)

    monkeypatch.setattr(corner, "steady_state_direct", spy)
    for geom, n_max in ((chain(3), 2), (rectangle(2, 2), 1),
                        (rectangle(2, 3), 1), (chain(3), 4)):
        f = FockSpace(n_max)
        n = geom.n_sites
        run = corner_steady_state(geom, p, f, f.dim ** n, leaf_sites_max=n)
        (h, jumps, parity), = seen
        seen.clear()
        assert np.array_equal(h, dense(build_hamiltonian(p, geom, f)))
        ref = build_jump_operators(p, geom, f)
        assert len(jumps) == len(ref) == 2 * n
        for g, r in zip(jumps, ref):
            assert sp.issparse(g) == sp.issparse(r) == (
                f.dim ** n > corner.DENSE_LEAF_DIM)
            assert np.array_equal(dense(g), dense(r))
        assert np.array_equal(parity, parity_op(f, n).diagonal().real)
        assert np.array_equal(run.n_op.diagonal(),
                              total_number_diagonal(f, n))
        assert run.result.method == "direct" and run.steps == []


LEAF_PARAMS = [ModelParams.resonant(u=100.0, j_hop=50.0, g=5.0),
               ModelParams(delta=-3.0, u=20.0, g=1.5 - 0.7j, j_hop=10.0,
                           gamma=2.0, eta=0.5)]


@pytest.mark.parametrize("params", LEAF_PARAMS)
@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
@pytest.mark.parametrize("geom", [chain(1), chain(2), chain(3), chain(4),
                                  rectangle(2, 2)])
def test_dense_leaf_equals_sparse_embedded_build(geom, n_max, params):
    # a leaf of up to DENSE_LEAF_DIM states is built from np.kron site
    # operators; it must equal, bit for bit, the same leaf built from
    # fock.embed_site_op's CSR site operators made dense
    f = FockSpace(n_max)
    n = geom.n_sites
    blk = corner._build_leaf(corner.Region(0, 0, *geom.extents), geom,
                             params, f)
    a_ops = [embed_site_op(annihilation_op(f), k, n) for k in range(n)]
    if f.dim ** n <= corner.DENSE_LEAF_DIM:
        a_ops = [a.toarray() for a in a_ops]
    h = lattice_hamiltonian(params, a_ops, [(b.i, b.j, b.weight)
                                            for b in geom.bonds],
                            geom.dimensionality)
    assert np.array_equal(blk.h, h.toarray() if sp.issparse(h) else h)
    ref = jump_operators(params, a_ops)
    assert len(blk.jumps) == len(ref)
    for g, r in zip(blk.jumps, ref):
        assert sp.issparse(g) == sp.issparse(r)
        assert np.array_equal(g.toarray() if sp.issparse(g) else g,
                              r.toarray() if sp.issparse(r) else r)
    n_diag = total_number_diagonal(f, n)
    assert sp.issparse(blk.n_op) == (f.dim ** n > corner.DENSE_LEAF_DIM)
    assert np.array_equal(dense(blk.n_op), np.diag(n_diag))
    assert np.array_equal(blk.parity, (-1.0) ** n_diag)


def test_kernel_takes_each_blocks_own_jumps(monkeypatch):
    # one operator list per block: the kernel is handed the block's jumps
    # themselves, not a rescaled copy
    p = ModelParams.resonant(u=40.0, j_hop=20.0, g=1.5)
    f = FockSpace(2)
    handed = []
    real = corner.steady_state_direct

    def spy(h, jumps, **kw):
        handed.append(jumps)
        return real(h, jumps, **kw)

    monkeypatch.setattr(corner, "steady_state_direct", spy)
    blocks = {}
    corner_steady_state(rectangle(2, 2), p, f, f.dim ** 4, leaf_sites_max=1,
                        blocks=blocks)
    assert len(blocks) == len(handed) == 3     # a leaf and two merges
    for blk in blocks.values():
        assert any(blk.jumps is jumps for jumps in handed)


def full_m_corner_with_exact_spectrum(monkeypatch, geom, p, f):
    """Corner run at full M whose final Hamiltonian has the exact spectrum."""
    seen = solved_blocks(monkeypatch)
    run = corner_steady_state(geom, p, f, f.dim ** geom.n_sites)
    h = dense(build_hamiltonian(p, geom, f))
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
        parity=pi.diagonal().real)
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
    for _, par in seen:
        assert par.ndim == 1 and set(par) <= {1.0, -1.0}
    assert np.array_equal(run.parity_op, np.diag(np.diag(run.parity_op)))
    assert set(np.diag(run.parity_op)) <= {1.0, -1.0}
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


def test_tie_repeat_is_not_a_convergence_step():
    # at M = 48 the cut of the 2x2 torus's one merge falls inside a
    # degenerate run and expands to 49 states, so M = 49 repeats that
    # corner; its drift of 0.0 is no evidence of convergence
    p = ModelParams.resonant(u=100.0, j_hop=50.0, g=5.0)
    run, report = convergence_sweep(rectangle(2, 2), p, FockSpace(4),
                                    [48, 49])
    assert [r["m_used"] for r in report] == [49, 49]
    assert report[1]["drift"] is None
    assert not run.converged and "UNCONVERGED" in run.result.flags


def test_saturated_corner_converges_at_first_m():
    # undriven, every block is the vacuum: each truncated merge keeps its
    # one positive weight, below M, and no larger M can change the corner
    p = ModelParams.resonant(u=100.0, j_hop=50.0, g=0.0)
    run, report = convergence_sweep(chain(4), p, FockSpace(3), [16, 32, 64])
    assert run.converged and not run.result.flags
    (entry,) = report
    assert entry["m"] == 16 and entry["m_used"] == 1
    assert entry["saturated"] and not entry["exact"]
    assert entry["drift"] is None


def test_hopeless_corner_is_flagged_too_small():
    # a strongly driven two-site chain at M = 1: the one merge keeps 0.468
    # of the probability weight, less than 1 - DISCARD_BOUND; at full M it
    # keeps all of it
    p = ModelParams.resonant(u=5.0, j_hop=2.0, g=10.0)
    f = FockSpace(3)
    run = corner_steady_state(chain(2), p, f, 1, leaf_sites_max=1)
    (step,) = run.steps
    assert step["kept_weight"] < 1.0 - corner.DISCARD_BOUND
    assert "CORNER_TOO_SMALL" in run.result.flags
    full = corner_steady_state(chain(2), p, f, f.dim ** 2, leaf_sites_max=1)
    assert "CORNER_TOO_SMALL" not in full.result.flags


def test_convergence_sweep_rejects_unsorted():
    f = FockSpace(2)
    p = ModelParams.resonant(u=20.0, j_hop=10.0, g=1.0)
    with pytest.raises(ValueError):
        convergence_sweep(chain(2), p, f, [8, 4])
    # no M means no run to return: a ValueError, not an UnboundLocalError
    with pytest.raises(ValueError, match="nonempty"):
        convergence_sweep(chain(2), p, f, [])


@pytest.mark.parametrize("m_list", [[16, 16], [16, 32, 32]],
                         ids=["repeated", "repeated_last"])
def test_convergence_sweep_rejects_repeated_m(m_list):
    # a repeated M repeats its run, and the drift of 0.0 between the two
    # would read as converged; this model settles only at M=64
    f = FockSpace(3)
    p = ModelParams.resonant(u=100.0, j_hop=50.0, g=4.0)
    with pytest.raises(ValueError, match="strictly ascending"):
        convergence_sweep(chain(4), p, f, m_list)
    run, report = convergence_sweep(chain(4), p, f, [16, 32, 64])
    assert run.converged and report[1]["drift"] > 1e-3
    assert report[-1]["m"] == 64


def test_truncated_corner_tracks_exact_three_site():
    f = FockSpace(2)
    p = ModelParams.resonant(u=100.0, j_hop=50.0, g=1.8)
    geom = chain(3)
    run, _ = convergence_sweep(geom, p, f, [6, 12, 18],
                               leaf_sites_max=1)
    h = build_hamiltonian(p, geom, f)
    jumps = build_jump_operators(p, geom, f)
    pi = parity_op(f, 3)
    exact = steady_state_eigen(vectorize_lindbladian(h, jumps),
                                parity=pi.diagonal().real)
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
