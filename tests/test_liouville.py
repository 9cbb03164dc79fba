import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from catlattice.fock import FockSpace, annihilation_op, parity_op
from catlattice.lattice import (ModelParams, build_hamiltonian,
                                build_jump_operators, chain)
from catlattice.liouville import (solve_steady_state, spectral_radius_bound,
                                  steady_state_direct, steady_state_eigen,
                                  steady_state_time, time_evolve,
                                  vectorize_lindbladian)
from catlattice.observables import trace_distance


def _random_lindblad(dim, n_jumps, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H = sp.csr_matrix(0.5 * (m + m.conj().T))
    jumps = []
    for _ in range(n_jumps):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        jumps.append(sp.csr_matrix(0.4 * g))
    return H, jumps


def _assert_density_matrix(rho):
    # Hermitian, unit trace and positive semidefinite
    mat = rho.mat
    assert np.abs(mat - mat.conj().T).max() <= 1e-10
    assert abs(mat.trace() - 1.0) <= 1e-10
    assert rho.eigenvalues().min() >= -1e-8


def _master_rhs(H, jumps, rho):
    h = H.toarray()
    out = -1j * (h @ rho - rho @ h)
    for j in jumps:
        g = j.toarray()
        gd = g.conj().T
        out += g @ rho @ gd - 0.5 * (gd @ g @ rho + rho @ gd @ g)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vectorization_matches_master_equation(seed):
    # row-major convention: L @ rho.reshape(-1) == vec(master RHS)
    dim = 4
    H, jumps = _random_lindblad(dim, 2, seed)
    liou = vectorize_lindbladian(H, jumps)
    rng = np.random.default_rng(100 + seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= rho.trace()
    lhs = (liou.sup @ rho.reshape(-1)).reshape(dim, dim)
    rhs = _master_rhs(H, jumps, rho)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_vectorization_preserves_trace():
    H, jumps = _random_lindblad(5, 3, 11)
    liou = vectorize_lindbladian(H, jumps)
    t = np.eye(5, dtype=complex).reshape(-1)
    assert np.abs(t @ liou.sup).max() < 1e-12


def test_driven_cavity_coherent_steady_state():
    # linear drive eps(a + a^dag) with single-photon loss settles into the
    # coherent state alpha = -2i eps / gamma
    f = FockSpace(12)
    eps, gamma = 0.2, 1.0
    a = annihilation_op(f)
    H = eps * (a + a.conj().T)
    jumps = [np.sqrt(gamma) * a]
    res = steady_state_direct(H, jumps)
    alpha = -2j * eps / gamma
    a_mean = complex((a.toarray() @ res.rho.mat).trace())
    assert abs(a_mean - alpha) < 1e-8
    purity = float(np.real((res.rho.mat @ res.rho.mat).trace()))
    assert purity > 1.0 - 1e-8


def test_direct_eigen_time_agree():
    f = FockSpace(6)
    p = ModelParams(delta=-5.0, u=10.0, g=2.0, j_hop=0.0)
    h = build_hamiltonian(p, chain(1), f)
    jumps = build_jump_operators(p, chain(1), f)
    liou = vectorize_lindbladian(h, jumps)
    r1 = steady_state_direct(h, jumps)
    r2 = steady_state_eigen(liou)
    r3 = steady_state_time(liou)
    assert trace_distance(r1.rho, r2.rho) < 1e-8
    assert trace_distance(r1.rho, r3.rho) < 1e-6
    for r in (r1, r2, r3):
        _assert_density_matrix(r.rho)


def test_steady_state_residual_and_flags():
    f = FockSpace(5)
    p = ModelParams(delta=0.0, u=4.0, g=1.0, j_hop=0.0)
    h = build_hamiltonian(p, chain(1), f)
    jumps = build_jump_operators(p, chain(1), f)
    res = solve_steady_state(h, jumps)
    assert res.residual < 1e-9
    assert res.method == "direct"
    assert "HIGH_RESIDUAL" not in res.flags


def test_degenerate_kernel_flagged():
    # pure two-photon loss conserves parity blockwise: the kernel of L is
    # degenerate and eigen must say so instead of silently picking a vector
    f = FockSpace(7)
    a = annihilation_op(f)
    h = sp.csr_matrix((f.dim, f.dim), dtype=complex)
    liou = vectorize_lindbladian(h, [a @ a])
    res = steady_state_eigen(liou, parity=parity_op(f, 1).diagonal().real)
    assert "DEGENERATE" in res.flags
    _assert_density_matrix(res.rho)


@pytest.mark.parametrize("n_sites, n_max", [(3, 2), (2, 5)],
                         ids=["ring3-nmax2", "ring2-nmax5"])
def test_eigen_factorization_matches_colamd(n_sites, n_max):
    # the oracle's own minimum-degree factorization of L - sigma I against
    # eigs factoring it with its default COLAMD ordering, from the same
    # start vector, on Liouvillians of 729 and 1,296 rows where the two
    # orderings still fill differently (COLAMD 166k and 412k nonzeros,
    # minimum degree 108k and 291k) and COLAMD stays cheap
    geom = chain(n_sites)
    params = ModelParams.resonant(u=40.0, j_hop=20.0, g=1.8)
    fock = FockSpace(n_max)
    liou = vectorize_lindbladian(build_hamiltonian(params, geom, fock),
                                 build_jump_operators(params, geom, fock))
    got = steady_state_eigen(liou).rho.mat
    n = liou.dim ** 2
    rng = np.random.default_rng(7)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    vals, vecs = spla.eigs(liou.sup, k=2, sigma=1e-6, which="LM", v0=v0,
                           tol=1e-10)
    ref = vecs[:, np.argmin(np.abs(vals))].reshape(liou.dim, liou.dim)
    ref = 0.5 * (ref + ref.conj().T)
    ref /= ref.trace().real
    assert np.abs(got - ref).max() <= 1e-10


def test_eigen_requires_jumps():
    f = FockSpace(3)
    p = ModelParams(delta=1.0, u=2.0, g=0.5, j_hop=0.0)
    h = build_hamiltonian(p, chain(1), f)
    with pytest.raises(ValueError):
        steady_state_eigen(vectorize_lindbladian(h, []))


def test_spectral_radius_bounds_eigenvalues():
    H, jumps = _random_lindblad(4, 2, 3)
    liou = vectorize_lindbladian(H, jumps)
    bound = spectral_radius_bound(liou)
    eigs = np.linalg.eigvals(liou.sup.toarray())
    assert bound >= np.abs(eigs).max()


def test_time_evolve_keeps_trace():
    f = FockSpace(4)
    p = ModelParams(delta=-2.0, u=4.0, g=1.0, j_hop=0.0)
    h = build_hamiltonian(p, chain(1), f)
    jumps = build_jump_operators(p, chain(1), f)
    liou = vectorize_lindbladian(h, jumps)
    rho0 = np.zeros((f.dim, f.dim), dtype=complex)
    rho0[0, 0] = 1.0
    out = time_evolve(rho0, liou, 3.0)
    assert abs(out.mat.trace() - 1.0) < 1e-8


def test_solve_router_methods():
    # solve_steady_state is the kernel; the oracles are called by name on
    # the vectorized Liouvillian, and every route gives a valid state
    f = FockSpace(4)
    p = ModelParams(delta=-2.0, u=4.0, g=1.0, j_hop=0.0)
    h = build_hamiltonian(p, chain(1), f)
    jumps = build_jump_operators(p, chain(1), f)
    liou = vectorize_lindbladian(h, jumps)
    res = solve_steady_state(h, jumps)
    assert res.method == "direct"
    np.testing.assert_array_equal(res.rho.mat,
                                  steady_state_direct(h, jumps).rho.mat)
    for res in (res, steady_state_eigen(liou), steady_state_time(liou)):
        _assert_density_matrix(res.rho)


def test_three_ring_beyond_sparse_lu_reach():
    # D = 125 is beyond a sparse factorization of the D^2 x D^2
    # superoperator (148 s, 1.8 GB); the kernel holds only D x D matrices
    f = FockSpace(4)
    geom = chain(3)
    p = ModelParams.resonant(u=100.0, j_hop=50.0, g=2.0)
    h = build_hamiltonian(p, geom, f)
    jumps = build_jump_operators(p, geom, f)
    pi = parity_op(f, 3).toarray()
    res = steady_state_direct(h, jumps, parity=np.diag(pi).real)
    rho = res.rho.mat
    assert rho.shape == (125, 125)
    assert res.method == "direct" and "HIGH_RESIDUAL" not in res.flags
    scale = 2.0 * np.linalg.norm(h.toarray(), 2) + 2.0 * sum(
        np.linalg.norm(j.toarray(), 2) ** 2 for j in jumps)
    assert np.linalg.norm(_master_rhs(h, jumps, rho)) \
        <= 1e-10 * scale * np.linalg.norm(rho)
    assert abs(rho.trace() - 1.0) < 1e-12
    assert np.abs(rho - rho.conj().T).max() < 1e-14
    assert np.linalg.eigvalsh(rho).min() > -1e-10
    assert np.abs(rho @ pi - pi @ rho).max() < 1e-10
