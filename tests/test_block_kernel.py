"""The matrix-free steady-state kernel against a dense np.kron oracle."""
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import catlattice.corner as corner
import catlattice.liouville as liouville
from catlattice.corner import convergence_sweep, corner_steady_state
from catlattice.fock import FockSpace, parity_op
from catlattice.lattice import (ModelParams, build_hamiltonian,
                                build_jump_operators, chain, rectangle)
from catlattice.liouville import steady_state_direct

DESK = dict(u=100.0, j_hop=50.0)


def kron_liouvillian(h, jumps):
    """Row-major vec(rho) superoperator, built densely from Kronecker products."""
    m = h.shape[0]
    eye = np.eye(m)
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for g in jumps:
        gdg = g.conj().T @ g
        sup += (np.kron(g, g.conj()) - 0.5 * np.kron(gdg, eye)
                - 0.5 * np.kron(eye, gdg.T))
    return sup


def dense_steady_state(h, jumps):
    """Unit-trace right null vector of the kron Liouvillian, by SVD."""
    m = h.shape[0]
    _, s, vh = np.linalg.svd(kron_liouvillian(h, jumps))
    assert s[-2] > 1e-10 * s[0]          # the kernel is one-dimensional
    rho = vh[-1].conj().reshape(m, m)
    return rho / rho.trace()


def lindblad_rhs(h, jumps, rho):
    """-i[H, rho] + sum_k (g rho g^dag - {g^dag g, rho} / 2), term by term."""
    out = -1j * (h @ rho - rho @ h)
    for g in jumps:
        gdg = g.conj().T @ g
        out += g @ rho @ g.conj().T - 0.5 * (gdg @ rho + rho @ gdg)
    return out


def operator_scale(h, jumps):
    return 2.0 * np.linalg.norm(h) + sum(np.linalg.norm(g) ** 2 for g in jumps)


def random_lindbladian(m, n_jumps, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    h = 0.5 * (x + x.conj().T)
    jumps = [0.4 * (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
             for _ in range(n_jumps)]
    return h, jumps


def random_parity_lindbladian(m, n_jumps, seed):
    """H and jumps that conserve a random +-1 parity, and that parity.

    H is block-diagonal in the two sectors; the first jump flips parity,
    so the sectors are coupled, and each other jump keeps or flips it at
    random.  The sectors are interleaved, not contiguous.
    """
    rng = np.random.default_rng(seed)
    parity = rng.permutation(np.resize([1.0, -1.0], m))
    same = parity[:, None] == parity[None, :]
    x = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    h = np.where(same, 0.5 * (x + x.conj().T), 0.0)
    jumps = []
    for k in range(n_jumps):
        g = 0.4 * (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        flip = k == 0 or rng.random() < 0.5
        jumps.append(np.where(same != flip, g, 0.0))
    return h, jumps, parity


def corner_blocks(monkeypatch, geom, params, fock, m):
    """(h, jumps, kernel result) of every block the corner run solves."""
    seen = []
    real = corner.steady_state_direct

    def spy(h, jumps, **kw):
        out = real(h, jumps, **kw)
        seen.append((h, jumps, out))
        return out

    monkeypatch.setattr(corner, "steady_state_direct", spy)
    run = corner_steady_state(geom, params, fock, m)
    return seen, run


@pytest.mark.parametrize("m,n_jumps,seed", [(2, 1, 0), (5, 2, 1), (8, 3, 2),
                                            (12, 2, 3)])
def test_random_lindbladian_matches_kron_oracle(m, n_jumps, seed):
    h, jumps = random_lindbladian(m, n_jumps, seed)
    out = steady_state_direct(h, jumps)
    rho = out.rho.mat
    assert "HIGH_RESIDUAL" not in out.flags and out.iterations > 0
    assert out.method == "direct"
    assert np.abs(rho - dense_steady_state(h, jumps)).max() < 1e-10
    assert abs(rho.trace() - 1.0) < 1e-12
    # the reported residual is ||L(rho)||_F
    ref = np.linalg.norm(kron_liouvillian(h, jumps) @ rho.reshape(-1))
    assert out.residual == pytest.approx(ref, rel=1e-6, abs=1e-14)


@pytest.mark.parametrize("form", ["dense", "csr"])
@pytest.mark.parametrize("m,n_jumps,seed", [(2, 1, 0), (5, 2, 1), (8, 3, 2),
                                            (12, 4, 3)])
def test_parity_sectors_match_kron_oracle(m, n_jumps, seed, form):
    # rho is solved as its two sector blocks; the oracle solves the full
    # D^2 x D^2 superoperator
    h, jumps, parity = random_parity_lindbladian(m, n_jumps, seed)
    given = jumps if form == "dense" else [sp.csr_matrix(g) for g in jumps]
    out = steady_state_direct(h, given, parity=parity)
    rho = out.rho.mat
    assert "HIGH_RESIDUAL" not in out.flags and out.iterations > 0
    assert np.abs(rho - dense_steady_state(h, jumps)).max() < 1e-10
    assert np.all(rho[parity[:, None] != parity[None, :]] == 0.0)
    ref = np.linalg.norm(kron_liouvillian(h, jumps) @ rho.reshape(-1))
    assert out.residual == pytest.approx(ref, rel=1e-6, abs=1e-14)


@pytest.mark.parametrize("sectors", [True, False])
def test_dense_and_sparse_jumps_give_one_state(sectors):
    # the 3-ring at n_max 3 (D = 64): the builders' dense operators against
    # their CSR copies, one path for both forms, in the parity sectors and
    # in one sector of every state
    params = ModelParams.resonant(g=2.0, **DESK)
    geom, fock = chain(3), FockSpace(3)
    h = build_hamiltonian(params, geom, fock)
    jumps = build_jump_operators(params, geom, fock)
    parity = (parity_op(fock, 3).diagonal().real if sectors
              else np.ones(h.shape[0]))
    sparse = steady_state_direct(sp.csr_matrix(h),
                                 [sp.csr_matrix(g) for g in jumps],
                                 parity=parity)
    dense = steady_state_direct(h, jumps, parity=parity)
    assert not sparse.flags and not dense.flags
    assert np.abs(sparse.rho.mat - dense.rho.mat).max() <= 1e-12
    assert sparse.iterations == dense.iterations > 0


@pytest.mark.parametrize("form", ["dense", "csr"])
def test_broken_parity_raises(form):
    h, jumps, parity = random_parity_lindbladian(6, 2, 7)
    cast = (lambda x: x) if form == "dense" else sp.csr_matrix
    even, odd = np.flatnonzero(parity > 0)[0], np.flatnonzero(parity < 0)[0]
    h_bad = h.copy()
    h_bad[even, odd] = h_bad[odd, even] = 0.3
    with pytest.raises(ValueError, match="couples states of opposite parity"):
        steady_state_direct(cast(h_bad), [cast(g) for g in jumps],
                            parity=parity)
    mixed = jumps[0] + np.where(parity[:, None] == parity[None, :], 0.1, 0.0)
    with pytest.raises(ValueError, match="jump 2 both keeps and flips"):
        steady_state_direct(cast(h), [cast(g) for g in jumps + [mixed]],
                            parity=parity)
    with pytest.raises(ValueError, match="parity must be"):
        steady_state_direct(h, jumps, parity=np.zeros(6))


# at G = 1e-3 the leaf has three weights above the noise floor
# (corner.WEIGHT_FLOOR), so the merged corner holds their 9 products
@pytest.mark.parametrize("g,m_merged", [(1e-3, 9), (1.5, 24), (5.0, 24)])
def test_corner_blocks_match_kron_oracle(monkeypatch, g, m_merged):
    params = ModelParams.resonant(g=g, **DESK)
    blocks, run = corner_blocks(monkeypatch, chain(4), params, FockSpace(3),
                                24)
    assert len(blocks) == 2                      # the 2-site leaf, one merge
    assert blocks[-1][0].shape[0] >= m_merged
    for h, jumps, out in blocks:
        assert "HIGH_RESIDUAL" not in out.flags
        assert out.residual <= 1e-10 * operator_scale(h, jumps)
        assert np.abs(out.rho.mat - dense_steady_state(h, jumps)).max() < 1e-9
    assert "HIGH_RESIDUAL" not in run.result.flags


def test_torus_block_beyond_dense_reach(monkeypatch):
    # M = 128 on the 2x2 torus at n_max 4: the dense superoperator would
    # take 4.3 GB; the kernel keeps only M x M matrices
    params = ModelParams.resonant(g=5.0, **DESK)
    seen, run = corner_blocks(monkeypatch, rectangle(2, 2), params,
                              FockSpace(4), 128)
    h, jumps, out = seen[-1]
    rho = out.rho.mat
    assert h.shape[0] >= 128 and "HIGH_RESIDUAL" not in out.flags
    assert "HIGH_RESIDUAL" not in run.result.flags
    assert run.result.iterations == sum(o.iterations for _, _, o in seen)
    assert np.linalg.norm(lindblad_rhs(h, jumps, rho)) \
        <= 1e-10 * operator_scale(h, jumps)
    assert np.abs(rho - rho.conj().T).max() < 1e-14
    assert np.linalg.eigvalsh(rho).min() > -1e-10
    final = run.result.rho.mat
    assert np.abs(final @ run.parity_op - run.parity_op @ final).max() < 1e-10


def exceptional_point_lindbladian(m, seed):
    """Lindbladian whose H_eff is defective on levels 0 and 1.

    Level 0 decays at rate 2 (jumps |0><0| and |2><0|) and is coupled by 0.5
    to level 1, which does not decay, so H_eff holds the Jordan block
    [[-i, 0.5], [0.5, 0]]; a random Hermitian block sits on levels 2..m-1,
    and weak jumps |1><k| make the steady state unique.
    """
    rng = np.random.default_rng(seed)
    h = np.zeros((m, m), dtype=complex)
    h[0, 1] = h[1, 0] = 0.5
    x = rng.normal(size=(m - 2, m - 2)) + 1j * rng.normal(size=(m - 2, m - 2))
    h[2:, 2:] = 0.5 * (x + x.conj().T)

    def ket_bra(i, j):
        out = np.zeros((m, m), dtype=complex)
        out[i, j] = 1.0
        return out

    jumps = [ket_bra(0, 0), ket_bra(2, 0)]
    jumps += [np.sqrt(1e-3) * ket_bra(1, k) for k in range(2, m)]
    return h, jumps


@pytest.mark.parametrize("m", [4, 40])
def test_kernel_solves_at_an_exceptional_point(m):
    # the eigenvectors of H_eff are parallel here, so a preconditioner in
    # its eigenbasis misses the residual bound; the unitary Schur basis must
    # not.  The model conserves the parity that is even on levels 0 and 1
    # and odd on the rest, so with that parity the Jordan block sits in one
    # sector
    h, jumps = exceptional_point_lindbladian(m, seed=5)
    heff = h - 0.5j * sum(g.conj().T @ g for g in jumps)
    lam = np.linalg.eigvals(heff[:2, :2])
    assert abs(lam[0] - lam[1]) < 1e-7
    for parity in (None, np.where(np.arange(m) < 2, 1.0, -1.0)):
        out = steady_state_direct(h, jumps, parity=parity)
        assert "HIGH_RESIDUAL" not in out.flags
        assert np.linalg.norm(lindblad_rhs(h, jumps, out.rho.mat)) \
            <= 1e-10 * operator_scale(h, jumps)
        assert out.diagnostics["nonnormality"] > 0.0


@pytest.mark.parametrize("kappa", [1.0, 4.0, 0.1])
def test_kernel_at_a_defective_two_level_h_eff(kappa):
    # H = c (|0><1| + h.c.) and the jump sqrt(kappa) |0><1| give
    # H_eff = [[0, c], [c, -i kappa / 2]], whose two eigenvalues meet at
    # c = kappa / 4: one eigenvector, and np.linalg.eig returns two columns
    # parallel to rounding.  Their QR factor is still unitary
    c = kappa / 4
    h = np.array([[0.0, c], [c, 0.0]], dtype=complex)
    jumps = [np.sqrt(kappa) * np.array([[0.0, 1.0], [0.0, 0.0]],
                                       dtype=complex)]
    heff = h - 0.5j * jumps[0].conj().T @ jumps[0]
    vecs = np.linalg.eig(heff)[1]
    assert abs(np.vdot(vecs[:, 0], vecs[:, 1])) > 1 - 1e-6
    out = steady_state_direct(h, jumps)
    assert not out.flags
    ref = liouville.steady_state_eigen(
        liouville.vectorize_lindbladian(h, jumps))
    assert np.abs(out.rho.mat - ref.rho.mat).max() <= 1e-10


def test_zero_jump_block_raises():
    h, _ = random_lindbladian(6, 0, 4)
    with pytest.raises(ValueError, match="zero-jump"):
        steady_state_direct(h, [])
    with pytest.raises(ValueError, match="zero-jump"):
        steady_state_direct(h, [np.zeros((6, 6))])


def test_one_state_block_is_trivially_steady():
    out = steady_state_direct(np.array([[2.0 + 0j]]), [np.zeros((1, 1))])
    assert out.rho.mat.tolist() == [[1.0]] and out.residual == 0.0
    assert not out.flags


def test_undriven_torus_is_the_vacuum():
    # at G = 0 every block relaxes to the vacuum; product states of zero
    # weight have arbitrary eigenvectors and must not enter the corner, where
    # they would make the steady state non-unique
    params = ModelParams.resonant(g=0.0, **DESK)
    run, report = convergence_sweep(rectangle(2, 2), params, FockSpace(4),
                                    [48, 64])
    assert run.converged and not run.result.flags
    for rec in report:
        assert rec["m_used"] == 1
        assert rec["parity"] == pytest.approx(1.0, abs=1e-12)
        assert abs(rec["entropy"]) <= 1e-9


def test_failed_block_flags_the_run(monkeypatch):
    # no solve reaches a residual bound below rounding; the run must say
    # so rather than return the state as if it were steady
    monkeypatch.setattr(liouville, "RESIDUAL_TOL", 1e-30)
    params = ModelParams.resonant(g=1.5, **DESK)
    run = corner_steady_state(chain(4), params, FockSpace(2), 12)
    assert "HIGH_RESIDUAL" in run.result.flags


def scipy_gmres(a, p, b, rtol, restart, maxiter=10):
    x, _ = spla.gmres(a, b, M=p, rtol=rtol, atol=0.0, restart=restart,
                      maxiter=maxiter)
    return x


def gmres_system(case):
    """(A, P, b, restart) of a small complex system for case."""
    rng = np.random.default_rng(0)
    n = 30
    a = np.eye(n) + 0.3 * (rng.normal(size=(n, n))
                           + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    if case == "rescaled":
        # rows scaled over 1e3: the first cycle meets its preconditioned
        # tolerance but not the true residual, so it restarts
        a = np.logspace(0, 3, n)[:, None] * a
    if case == "invariant":
        # b on two eigenvectors of a diagonal A, no preconditioner: the
        # second Krylov vector completes an invariant subspace that holds
        # the solution
        a = np.diag(np.arange(1.0, n + 1)).astype(complex)
        b = np.zeros(n, dtype=complex)
        b[:2] = 1.0, 2.0j
        return a, np.eye(n), b, 40
    return a, np.diag(1.0 / np.diag(a)), b, 5 if case == "short" else 40


@pytest.mark.parametrize("case", ["random", "rescaled", "short",
                                  "invariant"])
def test_gmres_matches_scipy(case):
    a, p, b, restart = gmres_system(case)
    rtol = 1e-12
    x, iterations = liouville._gmres(lambda v: a @ v, lambda v: p @ v, b,
                                     rtol, restart, 10)
    ref = scipy_gmres(a, p, b, rtol, restart)
    for y in (x, ref):
        assert np.linalg.norm(b - a @ y) <= rtol * np.linalg.norm(b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    first, first_iterations = liouville._gmres(
        lambda v: a @ v, lambda v: p @ v, b, rtol, restart, 1)
    if case == "invariant":
        assert iterations == 2
    elif case in ("rescaled", "short"):
        assert iterations > first_iterations
        assert np.linalg.norm(b - a @ first) > rtol * np.linalg.norm(b)
        if case == "rescaled":
            assert first_iterations < restart


def test_residual_comes_from_the_operators_as_given(monkeypatch):
    # a dense block like a merge's, both parity sectors, 5 jumps and a far
    # from normal H_eff, so that the Schur basis the kernel iterates in is
    # far from any eigenbasis
    h, jumps, parity = random_parity_lindbladian(16, 5, 5)
    assert set(parity) == {1.0, -1.0}
    out = steady_state_direct(h, jumps, parity=parity)
    assert not out.flags and out.diagnostics["nonnormality"] >= 0.05
    sup = liouville.vectorize_lindbladian(h, jumps).sup.toarray()
    _, s, vh = np.linalg.svd(sup)
    assert s[-2] > 1e-10 * s[0]
    ref = vh[-1].conj().reshape(16, 16)
    ref /= ref.trace()
    assert np.abs(out.rho.mat - ref).max() < 1e-10
    assert out.residual == pytest.approx(
        np.linalg.norm(sup @ out.rho.mat.reshape(-1)), rel=1e-6)
    # with Schur vectors off by 1e-6 the iteration solves another problem;
    # the residual, taken from h and the jumps, must say so
    real = liouville._schur_basis
    rng = np.random.default_rng(1)

    def perturbed(a):
        t, u = real(a)
        return t, u + 1e-6 * rng.normal(size=u.shape)

    monkeypatch.setattr(liouville, "_schur_basis", perturbed)
    bad = steady_state_direct(h, jumps, parity=parity)
    assert bad.flags == ("HIGH_RESIDUAL",)
    assert bad.residual == pytest.approx(
        np.linalg.norm(sup @ bad.rho.mat.reshape(-1)), rel=1e-6)


def found_and_oracles(h, jumps):
    """The kernel in the sectors it finds, in one sector of every state,
    and the eigen oracle on the full superoperator."""
    found = steady_state_direct(h, jumps)
    one = steady_state_direct(h, jumps, parity=np.ones(h.shape[0]))
    eigen = liouville.steady_state_eigen(
        liouville.vectorize_lindbladian(h, jumps))
    assert not found.flags and not one.flags
    return found, one.rho.mat, eigen.rho.mat


def test_found_sectors_merge_two_sources_of_one_image():
    # the first jump maps |1> and |2>, sectors of H of their own, both into
    # |0>: g^dag g couples them inside H_eff, so they must be one sector.
    # The kernel's own residual comes from the split blocks, so only the
    # oracle sees a dropped coupling
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    ket_bra = np.eye(3, dtype=complex)
    jumps = [np.outer(ket_bra[0], ket_bra[1] + ket_bra[2]),
             np.outer(ket_bra[1], ket_bra[0]),
             np.outer(ket_bra[2], ket_bra[0])]
    found, _, eigen = found_and_oracles(h, jumps)
    assert found.diagnostics["sectors"] == [1, 2]
    assert np.abs(found.rho.mat - eigen).max() <= 1e-10


@pytest.mark.parametrize("geom,n_max,params,sizes", [
    (chain(2), 3, ModelParams.resonant(g=0.0, **DESK),
     [1, 2, 3, 4, 3, 2, 1]),
    (chain(3), 2, ModelParams(delta=-5.0, u=100.0, g=2.0, j_hop=0.0),
     [8, 4, 4, 2, 4, 2, 2, 1])], ids=["2-ring-G0", "3-chain-J0"])
def test_found_sectors_finer_than_parity(geom, n_max, params, sizes):
    # undriven, H and the jumps keep the photon number: 7 number sectors;
    # without hopping each site keeps its own parity: 8 site-parity sectors
    fock = FockSpace(n_max)
    h = build_hamiltonian(params, geom, fock)
    jumps = build_jump_operators(params, geom, fock)
    found, one, eigen = found_and_oracles(h, jumps)
    assert found.diagnostics["sectors"] == sizes
    assert np.abs(found.rho.mat - one).max() <= 1e-10
    assert np.abs(found.rho.mat - eigen).max() <= 1e-10


def found_labels(h, jumps):
    return liouville._find_sectors(
        h.shape[0], [liouville._pattern(x) for x in [h, *jumps]])


@pytest.mark.parametrize("geom,n_max", [
    (chain(2), 2), (chain(2), 3), (chain(2), 4), (chain(3), 2),
    (chain(3), 3), (chain(3), 4), (chain(4), 2), (rectangle(2, 2), 2)])
def test_found_sectors_are_parity_on_the_desk_model(geom, n_max):
    # the two-photon drive mixes photon numbers two apart and the loss a_j
    # links the two parities: what is left is parity, even first (the
    # vacuum is state 0), for dense and sparse builds alike (D <= 125)
    params = ModelParams.resonant(g=2.0, **DESK)
    fock = FockSpace(n_max)
    h = build_hamiltonian(params, geom, fock)
    jumps = build_jump_operators(params, geom, fock)
    parity = parity_op(fock, geom.n_sites).diagonal().real
    assert np.array_equal(found_labels(h, jumps), (parity < 0).astype(int))


@pytest.mark.parametrize("geom,sizes", [
    (rectangle(2, 2), [1, 4, 6, 4, 1]),
    (rectangle(2, 3), [1, 6, 15, 20, 15, 6, 1])], ids=["2x2", "2x3"])
def test_found_sectors_at_n_max_1_are_number_sectors(geom, sizes):
    # at n_max 1 the site drive a_j^dag2 is zero, so H keeps the photon
    # number, and the jumps take each number sector into the next one down
    params = ModelParams.resonant(g=2.0, **DESK)
    fock = FockSpace(1)
    h = build_hamiltonian(params, geom, fock)
    jumps = build_jump_operators(params, geom, fock)
    found = steady_state_direct(h, jumps)
    one = steady_state_direct(h, jumps, parity=np.ones(h.shape[0]))
    assert not found.flags and not one.flags
    assert found.diagnostics["sectors"] == sizes
    assert np.abs(found.rho.mat - one.rho.mat).max() <= 1e-10


def test_diagnostics_list_the_sectors_solved_in():
    # the 4-ring at n_max 2 (D = 81): found, the parity sectors; given,
    # whatever was given
    params = ModelParams.resonant(g=2.0, **DESK)
    fock = FockSpace(2)
    h = build_hamiltonian(params, chain(4), fock)
    jumps = build_jump_operators(params, chain(4), fock)
    parity = parity_op(fock, 4).diagonal().real
    assert steady_state_direct(h, jumps).diagnostics["sectors"] == [41, 40]
    for given, sizes in ((parity, [41, 40]), (np.ones(81), [81])):
        out = steady_state_direct(h, jumps, parity=given)
        assert out.diagnostics["sectors"] == sizes
    one = steady_state_direct(np.ones((1, 1)), [np.zeros((1, 1))])
    assert one.diagnostics["sectors"] == [1]
