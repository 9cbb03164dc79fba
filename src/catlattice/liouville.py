"""Lindbladian steady states: one matrix-free kernel and two sparse oracles.

The master equation d rho/dt = L[rho] reads

    L(rho) = -i (H_eff rho - rho H_eff^dag) + sum_k g_k rho g_k^dag,
    H_eff = H - (i/2) sum_k g_k^dag g_k.

steady_state_direct is the steady-state kernel of every corner block
(catlattice.corner), the whole-lattice leaf of the exact route among them:
GMRES on L(rho) = 0 at unit trace, with a Schur-diagonal Sylvester
preconditioner.  H_eff and a_j^2 keep photon-number parity and a_j flips
it, so the steady state is block-diagonal in the two parity sectors; rho
is stored and iterated as those two blocks, De^2 + Do^2 entries instead of
D^2, and a parity that H or a jump breaks is a ValueError.  Jumps are
applied in the form they are given: dense ones as batched matmuls on their
sector blocks, scipy sparse ones as sparse x dense products, never
densified.  An iteration costs O((De^3 + Do^3) + nnz D) with sparse jumps,
O(K (De^3 + Do^3)) with K dense ones, and the solve holds O(De^2 + Do^2)
memory; the D^2 x D^2 superoperator is never formed.  Without a parity
vector the kernel runs the same code on one sector of all D states.
solve_bytes prices that layout and available_memory what the OS can give;
the corner pass checks every block against the two before building it.

The two independent oracles do build it, vectorized with row-major (C-order)
stacking, vec(rho)[i*D + j] = rho[i, j], under which

    L = -i (H (x) I - I (x) H^T)
        + sum_k [ Gamma_k (x) Gamma_k^* - 1/2 (Gamma_k^dag Gamma_k (x) I)
                                        - 1/2 (I (x) (Gamma_k^dag Gamma_k)^T) ]

since vec(A X B) = (A (x) B^T) vec(X) in this convention: a shift-inverted
Arnoldi eigensolve targeting the zero eigenvalue, and brute-force RK4 time
integration.  There is no method dispatch: solve_steady_state(H, jumps) is
the kernel, and the oracles are called by name.
"""

import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# A steady state is accepted when ||L(rho)||_F <= RESIDUAL_TOL times the
# operator scale (see steady_state_direct).
RESIDUAL_TOL = 1e-10

# Krylov vectors GMRES keeps between restarts in steady_state_direct;
# solve_bytes counts them.
GMRES_RESTART = 40


@dataclass
class Liouvillian:
    sup: sp.csr_matrix
    dim: int                 # Hilbert dimension D; sup is D^2 x D^2
    jumps: tuple = ()

    @property
    def n_rows(self):
        return self.sup.shape[0]


@dataclass
class DensityMatrix:
    """Dense Hermitian unit-trace matrix."""

    mat: np.ndarray
    _eigs: np.ndarray = field(default=None, repr=False)

    @property
    def dim(self):
        return self.mat.shape[0]

    def eigenvalues(self):
        if self._eigs is None:
            self._eigs = np.linalg.eigvalsh(self.mat)
        return self._eigs


@dataclass
class SteadyStateResult:
    rho: DensityMatrix
    residual: float
    method: str
    iterations: int = 0
    wall_time: float = 0.0
    flags: tuple = ()
    diagnostics: dict = field(default_factory=dict)


def vectorize_lindbladian(H, jumps):
    """Build the D^2 x D^2 superoperator for Hamiltonian H and jump list."""
    Hm = sp.csr_matrix(H)
    D = Hm.shape[0]
    I = sp.identity(D, dtype=complex, format="csr")
    L = -1j * (sp.kron(Hm, I, format="csr") - sp.kron(I, Hm.T, format="csr"))
    for j in jumps:
        g = sp.csr_matrix(j)
        if g.shape[0] != D:
            raise ValueError("jump dimension %d != %d" % (g.shape[0], D))
        gdg = (g.getH() @ g).tocsr()
        L = L + sp.kron(g, g.conj(), format="csr") \
              - 0.5 * sp.kron(gdg, I, format="csr") \
              - 0.5 * sp.kron(I, gdg.T, format="csr")
    return Liouvillian(sup=L.tocsr(), dim=D, jumps=tuple(jumps))


def _finalize(x, D):
    rho = x.reshape(D, D)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / rho.trace().real
    return rho


def _parity_symmetric(rho, parity):
    """(rho + Pi rho Pi) / 2 for Pi = diag(parity), parity a +-1 vector: rho
    with its entries between states of opposite parity set to zero."""
    return np.where(parity[:, None] == parity[None, :], rho, 0.0)


def _residual(liou, rho):
    return float(np.linalg.norm(liou.sup @ rho.reshape(-1)))


def _sector_blocks(op, order, cuts):
    """{(s, t): block of op from sector t to sector s} in op's own form,
    CSR or dense, for the sectors op[order][:, order] holds between cuts."""
    if sp.issparse(op):
        op = sp.csr_matrix(op, dtype=complex)[order][:, order]
    else:
        op = np.asarray(op, dtype=complex).take(order, 0).take(order, 1)
    return {(s, t): op[a:b, c:d] for s, (a, b) in enumerate(cuts)
            for t, (c, d) in enumerate(cuts)}


def _nonzero(block):
    return block.count_nonzero() > 0 if sp.issparse(block) else block.any()


def _dense(block):
    return block.toarray() if sp.issparse(block) else block


def _sector_split(H, jumps, sectors):
    """H's diagonal sector blocks, dense, and the jumps' nonzero sector
    blocks as (s, t, stack of the dense ones, list of the sparse ones) for
    each pair of sectors a jump takes t to s.  Raises ValueError when H
    couples two sectors or a jump both keeps and flips the sector."""
    order = np.concatenate(sectors)
    dims = [i.size for i in sectors]
    ends = np.cumsum(dims)
    cuts = list(zip(ends - dims, ends))
    hb = _sector_blocks(H, order, cuts)
    if any(s != t and _nonzero(x) for (s, t), x in hb.items()):
        raise ValueError("H couples states of opposite parity")
    links = {}
    for k, g in enumerate(jumps):
        if g.shape != H.shape:
            raise ValueError("jump dimension does not match H (%d)"
                             % H.shape[0])
        nz = {st: x for st, x in _sector_blocks(g, order, cuts).items()
              if _nonzero(x)}
        if len({s == t for s, t in nz}) > 1:
            raise ValueError("jump %d both keeps and flips parity" % k)
        for st, x in nz.items():
            links.setdefault(st, []).append(x)
    return ([_dense(hb[s, s]) for s in range(len(sectors))],
            [(s, t, np.array([x for x in xs if not sp.issparse(x)],
                             dtype=complex).reshape(-1, dims[s], dims[t]),
              [x for x in xs if sp.issparse(x)])
             for (s, t), xs in links.items()])


def available_memory():
    """Bytes the OS reports as available (MemAvailable, else physical RAM)."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def solve_bytes(dims, n_dense, sparse_nnz):
    """Peak bytes of steady_state_direct on parity sectors of dims states
    with n_dense dense D x D jumps and sparse ones of sparse_nnz entries in
    all: 16 (De^2 + Do^2) bytes for each of GMRES_RESTART + 1 Krylov
    vectors, 7 Schur and preconditioner arrays and 12 work arrays; GMRES's
    Hessenberg matrix; 16 D^2 bytes for H in sector order, the returned rho
    and three copies of each dense jump (as given, a corner block's own
    list; in sector order; as sector blocks with adjoints); 80 bytes a
    sparse entry, the jumps as given included."""
    d = sum(dims)
    return (16 * ((GMRES_RESTART + 1 + 7 + 12) * sum(x * x for x in dims)
                  + GMRES_RESTART * (GMRES_RESTART + 1)
                  + (2 + 3 * n_dense) * d * d)
            + 80 * sparse_nnz)


def steady_state_direct(H, jumps, parity=None):
    """Steady state of H and jumps by preconditioned GMRES, matrix-free.

    H and the jumps are scipy sparse matrices or dense arrays; parity is
    the +-1 photon-number parity of each basis state (None: one sector of
    every state).  H_eff and a_j^2 keep the parity of a state and a_j flips
    it, so the steady state is block-diagonal in the parity sectors, and rho
    is stored and iterated as its sector blocks: GMRES vectors hold De^2 +
    Do^2 entries, not D^2.  A parity vector that H couples across, or a jump
    that both keeps and flips, raises ValueError before any iteration.  Each
    jump keeps only its nonzero sector blocks, in the form it was handed
    over: dense blocks are applied as batched matmuls, sparse ones as
    sparse x dense products, never densified.

    Solves L(rho) + w tr(rho) I = w I with L(rho) as in the module
    docstring.  The preconditioner inverts the Sylvester part S(rho) = -i
    (H_eff rho - rho H_eff^dag) sector by sector on the diagonal lam of the
    Schur form H_eff = U T U^dag, as U (U^dag (i R) U / (lam_i - lam_j^*))
    U^dag, with a Sherman-Morrison term for w tr(rho) I; GMRES handles the
    rest of T, whose share ||strict_upper(T)||_F / ||T||_F, pooled over the
    sectors, is diagnostics["nonnormality"].  S is damped by sigma = 1e-3
    of the mean decay rate: a dark state of H_eff (a real eigenvalue, such
    as an undriven vacuum) makes S singular and stalls GMRES on an already
    accurate state.

    The solve is judged by the true residual ||L(rho)||_F of the returned
    state (L of a block-diagonal rho has no cross-sector blocks) against
    RESIDUAL_TOL times the operator scale 2 ||H_eff||_F + sum_k ||g_k||_F^2,
    not by GMRES's exit code; a miss is flagged HIGH_RESIDUAL.  The
    result's residual is the absolute ||L(rho)||_F and its iterations the
    GMRES count.  Its method is "direct", the name of the full-space route
    in sweep records, although nothing is factorized.  A 1 x 1 system has
    the one state [[1]].  A larger one without a nonzero jump raises
    ValueError: then every function of H is steady and the steady state is
    not unique.
    """
    t0 = time.time()
    m = H.shape[0]
    if m == 1:
        return SteadyStateResult(
            rho=DensityMatrix(np.ones((1, 1), dtype=complex)), residual=0.0,
            method="direct", diagnostics={"nonnormality": 0.0})
    sectors = ([np.arange(m)] if parity is None else
               [np.flatnonzero(np.asarray(parity) == s) for s in (1, -1)])
    sectors = [i for i in sectors if i.size]
    if sum(i.size for i in sectors) != m:
        raise ValueError("parity must be +-1 on each of the %d states" % m)
    heff, links = _sector_split(H, jumps, sectors)
    if not links:
        raise ValueError("zero-jump Liouvillian: every function of H is "
                         "steady, no unique steady state")
    rates = 0.0
    terms = []          # (s, t, dense stack, its adjoint, sparse pairs)
    for s, t, g, sparse in links:
        for x in [*g, *sparse]:   # block by block: both forms round alike
            heff[t] = heff[t] - 0.5j * _dense(x.conj().T @ x)
            rates += np.linalg.norm(x.data if sp.issparse(x) else x) ** 2
        terms.append((s, t, g, g.conj().transpose(0, 2, 1),
                      [(x, x.conj()) for x in sparse]))
    scale = 2.0 * np.sqrt(sum(np.linalg.norm(x) ** 2 for x in heff)) + rates
    w = scale / m        # the trace term's eigenvalue w D is then ~ ||L||
    sigma = 1e-3 * rates / m
    pre = []            # per sector: U, U^dag, i / (lam_i - lam_j^*)
    upper = total = 0.0
    for x in heff:
        t, u = scipy.linalg.schur(x, output="complex")
        upper += np.linalg.norm(np.triu(t, 1)) ** 2
        total += np.linalg.norm(t) ** 2
        lam = np.diag(t) - 0.5j * sigma       # S - sigma: H_eff - i sigma / 2
        pre.append((u, u.conj().T, 1j / (lam[:, None] - lam.conj()[None, :])))
    nonnormality = float(np.sqrt(upper / total))
    gen = [-1j * x for x in heff]         # S(rho) = gen rho + rho gen^dag
    gen_h = [x.conj().T for x in gen]

    dims = [i.size for i in sectors]
    offs = np.cumsum([0] + [d * d for d in dims])
    diag = np.concatenate([o + np.arange(d) * (d + 1)
                           for o, d in zip(offs, dims)])

    def unpack(x):
        return [x[a:b].reshape(d, d) for a, b, d in zip(offs, offs[1:], dims)]

    def pack(blocks):
        return np.concatenate([y.reshape(-1) for y in blocks])

    def lindblad(rhos):
        out = [x @ r + r @ xh for x, xh, r in zip(gen, gen_h, rhos)]
        for s, t, g, gh, sparse in terms:
            r = rhos[t]
            out[s] += (g @ r @ gh).sum(axis=0)
            for x, xc in sparse:             # x r x^dag = (x^* (x r)^T)^T
                out[s] += (xc @ (x @ r).T).T
        return out

    def matvec(x):
        out = pack(lindblad(unpack(x)))
        out[diag] += w * x[diag].sum()
        return out

    def sylvester_inv(rs):
        return [u @ ((uh @ r @ u) * inv) @ uh
                for (u, uh, inv), r in zip(pre, rs)]

    z = pack(sylvester_inv([np.eye(d, dtype=complex) for d in dims]))
    denom = 1.0 + w * z[diag].sum()

    def psolve(x):
        y = pack(sylvester_inv(unpack(x)))
        y -= z * (w * y[diag].sum() / denom)
        return y

    n = int(offs[-1])
    b = np.zeros(n, dtype=complex)
    b[diag] = w
    norms = []                # GMRES's preconditioned residual per iteration

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=complex)
    prec = spla.LinearOperator((n, n), matvec=psolve, dtype=complex)
    # GMRES's exit code is not consulted: near-singular preconditioners
    # (G -> 0) can stall its preconditioned residual on an accurate state,
    # so the true residual below decides
    x, _ = spla.gmres(op, b, M=prec, rtol=0.01 * RESIDUAL_TOL, atol=0.0,
                      restart=GMRES_RESTART, maxiter=10,
                      callback=norms.append, callback_type="pr_norm")
    rhos = [0.5 * (r + r.conj().T) for r in unpack(x)]
    trace = sum(r.trace().real for r in rhos)
    rhos = [r / trace for r in rhos]
    residual = float(np.linalg.norm(pack(lindblad(rhos))))
    rho = np.zeros((m, m), dtype=complex)
    for i, r in zip(sectors, rhos):
        rho[np.ix_(i, i)] = r
    flags = () if residual <= RESIDUAL_TOL * scale else ("HIGH_RESIDUAL",)
    return SteadyStateResult(
        rho=DensityMatrix(rho), residual=residual, method="direct",
        iterations=len(norms), wall_time=time.time() - t0, flags=flags,
        diagnostics={"nonnormality": nonnormality})


def steady_state_eigen(liou, parity=None):
    """Steady state as the eigenvector of L with smallest |eigenvalue|.

    Uses shift-inverted Arnoldi (sigma ~ 0, tolerance 1e-10, a fixed random
    start vector) with k=2 so the gap to the next mode is monitored: if the
    two smallest magnitudes fall within 1e-9 the parity-symmetric part of
    the candidate is returned (parity: the +-1 parity of each basis state,
    as for steady_state_direct) and the result is flagged DEGENERATE (near
    a symmetry-breaking point the finite-size steady state is unique only
    up to numerical precision).
    """
    t0 = time.time()
    D = liou.dim
    n = D * D
    if not liou.jumps:
        raise ValueError("zero-jump Liouvillian: every Hamiltonian "
                         "eigenprojector is steady, no unique steady state")
    rng = np.random.default_rng(7)
    flags = []
    if D <= 12:
        # dense eigendecomposition is cheaper and more robust than Arnoldi here
        vals, vecs = np.linalg.eig(liou.sup.toarray())
        order = np.argsort(np.abs(vals))
        lam0, lam1 = vals[order[0]], vals[order[1]]
        x = vecs[:, order[0]]
        iters = 1
    else:
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sigma = 1e-6
        vals, vecs = spla.eigs(liou.sup, k=2, sigma=sigma, which="LM", v0=v0,
                               tol=1e-10)
        order = np.argsort(np.abs(vals))
        lam0, lam1 = vals[order[0]], vals[order[1]]
        x = vecs[:, order[0]]
        iters = -1  # ARPACK does not report its iteration count
    if abs(lam1) - abs(lam0) < 1e-9:
        flags.append("DEGENERATE")
    rho = _finalize(x, D)
    if "DEGENERATE" in flags and parity is not None:
        rho = _finalize(_parity_symmetric(rho, parity), D)
    res = _residual(liou, rho)
    return SteadyStateResult(
        rho=DensityMatrix(rho), residual=res, method="eigen", iterations=iters,
        wall_time=time.time() - t0, flags=tuple(flags),
        diagnostics={"lambda0": complex(lam0), "lambda1": complex(lam1)})


def spectral_radius_bound(liou):
    """Cheap upper bound max_i sum_j |L_ij| (Gershgorin row sums)."""
    absL = abs(liou.sup)
    return float(absL.sum(axis=1).max())


def time_evolve(rho0, liou, t_final):
    """Fixed-step RK4 integration of d rho/dt = L[rho] from the array rho0.

    The step is 2.0 / bound(spectral radius), shortened to divide t_final
    evenly, inside RK4's stability region.  Trace drift beyond 1e-8 aborts:
    that signals an unstable step, not a tolerable inaccuracy.
    """
    D = liou.dim
    if rho0.shape != (D, D):
        raise ValueError("rho0 dimension mismatch")
    radius = spectral_radius_bound(liou)
    if radius == 0.0:
        return DensityMatrix(rho0.copy())
    dt = 2.0 / radius
    L = liou.sup
    x = rho0.reshape(-1).astype(complex)
    n_steps = int(np.ceil(t_final / dt))
    dt = t_final / n_steps
    check_every = max(1, n_steps // 64)
    for step in range(n_steps):
        k1 = L @ x
        k2 = L @ (x + 0.5 * dt * k1)
        k3 = L @ (x + 0.5 * dt * k2)
        k4 = L @ (x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % check_every == 0 or step == n_steps - 1:
            drift = abs(x[:: D + 1].sum() - 1.0)
            if drift > 1e-8:
                raise RuntimeError("trace drift %.3g exceeds 1e-8 at step "
                                   "%d/%d" % (drift, step + 1, n_steps))
    return DensityMatrix(_finalize(x, D))


def steady_state_time(liou):
    """RK4 evolution from the vacuum |0><0| to t = 60, packaged as a
    SteadyStateResult (oracle use)."""
    t0 = time.time()
    D = liou.dim
    rho0 = np.zeros((D, D), dtype=complex)
    rho0[0, 0] = 1.0
    rho = time_evolve(rho0, liou, 60.0)
    res = _residual(liou, rho.mat)
    return SteadyStateResult(rho=rho, residual=res, method="time",
                             wall_time=time.time() - t0)


def solve_steady_state(H, jumps):
    """Steady state of H and jumps by the kernel steady_state_direct on one
    sector of every state; the oracles are called by name."""
    return steady_state_direct(H, jumps)
