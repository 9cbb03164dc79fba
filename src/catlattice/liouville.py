"""Lindbladian steady states: one matrix-free kernel and two sparse oracles.

The master equation d rho/dt = L[rho] reads

    L(rho) = -i (H_eff rho - rho H_eff^dag) + sum_k g_k rho g_k^dag,
    H_eff = H - (i/2) sum_k g_k^dag g_k.

steady_state_direct is the steady-state kernel of both the exact route and
every corner block (catlattice.corner): GMRES on L(rho) = 0 at unit trace,
with L applied as D x D matmuls and a Schur-diagonal Sylvester
preconditioner.  An iteration costs O(K D^3) for K jump operators and the
solve holds O(D^2) memory; the D^2 x D^2 superoperator is never formed.

The two independent oracles do build it, vectorized with row-major (C-order)
stacking, vec(rho)[i*D + j] = rho[i, j], under which

    L = -i (H (x) I - I (x) H^T)
        + sum_k [ Gamma_k (x) Gamma_k^* - 1/2 (Gamma_k^dag Gamma_k (x) I)
                                        - 1/2 (I (x) (Gamma_k^dag Gamma_k)^T) ]

since vec(A X B) = (A (x) B^T) vec(X) in this convention: a shift-inverted
Arnoldi eigensolve targeting the zero eigenvalue, and brute-force RK4 time
integration.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fock import SparseOperator

# A steady state is accepted when ||L(rho)||_F <= RESIDUAL_TOL times the
# operator scale (see steady_state_direct).
RESIDUAL_TOL = 1e-10


@dataclass
class Liouvillian:
    sup: sp.csr_matrix
    dim: int                 # Hilbert dimension D; sup is D^2 x D^2
    H: object = None         # the SparseOperator inputs, kept for reference
    jumps: tuple = ()

    @property
    def n_rows(self):
        return self.sup.shape[0]


@dataclass
class DensityMatrix:
    """Dense Hermitian unit-trace matrix over an explicit basis."""

    mat: np.ndarray
    basis: str = "fock"
    _eigs: np.ndarray = field(default=None, repr=False)

    @property
    def dim(self):
        return self.mat.shape[0]

    def eigenvalues(self):
        if self._eigs is None:
            self._eigs = np.linalg.eigvalsh(self.mat)
        return self._eigs

    def validate(self, herm_tol=1e-10, trace_tol=1e-10, psd_tol=-1e-8):
        dev = np.abs(self.mat - self.mat.conj().T).max()
        if dev > herm_tol:
            raise ValueError("not Hermitian: max|rho - rho^dag| = %g" % dev)
        tr = self.mat.trace()
        if abs(tr - 1.0) > trace_tol:
            raise ValueError("trace deviates from 1 by %g" % abs(tr - 1.0))
        if self.eigenvalues().min() < psd_tol:
            raise ValueError("negative eigenvalue %g" % self.eigenvalues().min())
        return self


@dataclass
class SteadyStateResult:
    rho: DensityMatrix
    residual: float
    method: str
    iterations: int = 0
    wall_time: float = 0.0
    flags: tuple = ()
    diagnostics: dict = field(default_factory=dict)


def _as_csr(op):
    return op.mat if isinstance(op, SparseOperator) else sp.csr_matrix(op)


def vectorize_lindbladian(H, jumps):
    """Build the D^2 x D^2 superoperator for Hamiltonian H and jump list."""
    Hm = _as_csr(H)
    D = Hm.shape[0]
    I = sp.identity(D, dtype=complex, format="csr")
    L = -1j * (sp.kron(Hm, I, format="csr") - sp.kron(I, Hm.T, format="csr"))
    for j in jumps:
        g = _as_csr(j)
        if g.shape[0] != D:
            raise ValueError("jump dimension %d != %d" % (g.shape[0], D))
        gdg = (g.getH() @ g).tocsr()
        L = L + sp.kron(g, g.conj(), format="csr") \
              - 0.5 * sp.kron(gdg, I, format="csr") \
              - 0.5 * sp.kron(I, gdg.T, format="csr")
    return Liouvillian(sup=L.tocsr(), dim=D, H=H, jumps=tuple(jumps))


def _as_dense(op):
    if isinstance(op, SparseOperator):
        op = op.mat
    return op.toarray() if sp.issparse(op) else np.asarray(op, dtype=complex)


def _finalize(x, D):
    rho = x.reshape(D, D)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / rho.trace().real
    return rho


def _residual(liou, rho):
    return float(np.linalg.norm(liou.sup @ rho.reshape(-1)))


def steady_state_direct(H, jumps, tol=None, parity=None):
    """Steady state of H and jumps by preconditioned GMRES, matrix-free.

    H, the jumps and parity are SparseOperators or dense arrays.  Solves
    L(rho) + w tr(rho) I = w I with L(rho) as in the module docstring,
    applied as D x D matmuls: O(K D^3) per application and O(D^2) memory.

    The preconditioner inverts the Sylvester part S(rho) = -i (H_eff rho -
    rho H_eff^dag) on the diagonal lam of the Schur form H_eff = U T U^dag,
    as U (U^dag (i R) U / (lam_i - lam_j^*)) U^dag, with a Sherman-Morrison
    term for w tr(rho) I; GMRES handles the rest of T, whose share
    ||strict_upper(T)||_F / ||T||_F is diagnostics["nonnormality"].  S is
    damped by sigma = 1e-3 of the mean decay rate: a dark state of H_eff (a
    real eigenvalue, such as an undriven vacuum) makes S singular and stalls
    GMRES on an already accurate state.

    With a parity operator, a state whose commutator with it exceeds 1e-10
    is replaced by its parity-symmetric part (rho + Pi rho Pi) / 2.  The
    solve is judged by the true residual ||L(rho)||_F of the returned state
    against tol (default RESIDUAL_TOL) times the operator scale
    2 ||H_eff||_F + sum_k ||g_k||_F^2, not by GMRES's exit code; a miss is
    flagged HIGH_RESIDUAL.  The result's residual is the absolute
    ||L(rho)||_F and its iterations the GMRES count.  Its method is
    "direct", the name of the full-space route in sweep records, although
    nothing is factorized.  A 1 x 1 system has the one state [[1]].  A
    larger one without a nonzero jump raises ValueError: then every
    function of H is steady and the steady state is not unique.
    """
    t0 = time.time()
    if tol is None:
        tol = RESIDUAL_TOL
    h = _as_dense(H)
    m = h.shape[0]
    if m == 1:
        return SteadyStateResult(
            rho=DensityMatrix(np.ones((1, 1), dtype=complex)), residual=0.0,
            method="direct", diagnostics={"nonnormality": 0.0})
    g = [_as_dense(j) for j in jumps]
    if any(x.shape != h.shape for x in g):
        raise ValueError("jump dimension does not match H (%d)" % m)
    g = np.array(g, dtype=complex).reshape(-1, m, m)
    if not np.any(g):
        raise ValueError("zero-jump Liouvillian: every function of H is "
                         "steady, no unique steady state")
    gh = g.conj().transpose(0, 2, 1)
    heff = h - 0.5j * (gh @ g).sum(axis=0)
    heff_h = heff.conj().T
    rates = float((np.abs(g) ** 2).sum())
    scale = 2.0 * np.linalg.norm(heff) + rates
    w = scale / m        # the trace term's eigenvalue w D is then ~ ||L||
    sigma = 1e-3 * rates / m
    diag = np.arange(m) * (m + 1)

    def lindblad(rho):
        return -1j * (heff @ rho - rho @ heff_h) + (g @ rho @ gh).sum(axis=0)

    def matvec(x):
        rho = x.reshape(m, m)
        out = lindblad(rho).reshape(-1)
        out[diag] += w * rho.trace()
        return out

    t, u = scipy.linalg.schur(heff, output="complex")
    uh = u.conj().T
    lam = np.diag(t) - 0.5j * sigma           # S - sigma: H_eff - i sigma / 2
    den = lam[:, None] - lam.conj()[None, :]
    nonnormality = float(np.linalg.norm(np.triu(t, 1)) / np.linalg.norm(t))

    def sylvester_inv(r):
        return u @ ((uh @ (1j * r) @ u) / den) @ uh

    z = sylvester_inv(np.eye(m, dtype=complex))
    denom = 1.0 + w * z.trace()

    def psolve(x):
        y = sylvester_inv(x.reshape(m, m))
        y -= z * (w * y.trace() / denom)
        return y.reshape(-1)

    n = m * m
    b = np.zeros(n, dtype=complex)
    b[diag] = w
    norms = []                # GMRES's preconditioned residual per iteration

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=complex)
    prec = spla.LinearOperator((n, n), matvec=psolve, dtype=complex)
    # GMRES's exit code is not consulted: near-singular preconditioners
    # (G -> 0) can stall its preconditioned residual on an accurate state,
    # so the true residual below decides
    x, _ = spla.gmres(op, b, M=prec, rtol=0.01 * tol, atol=0.0,
                      restart=40, maxiter=10, callback=norms.append,
                      callback_type="pr_norm")
    rho = _finalize(x, m)
    if parity is not None:
        p = _as_dense(parity)
        if np.abs(rho @ p - p @ rho).max() > 1e-10:
            rho = _finalize(0.5 * (rho + p @ rho @ p), m)
    residual = float(np.linalg.norm(lindblad(rho)))
    flags = () if residual <= tol * scale else ("HIGH_RESIDUAL",)
    return SteadyStateResult(
        rho=DensityMatrix(rho), residual=residual, method="direct",
        iterations=len(norms), wall_time=time.time() - t0, flags=flags,
        diagnostics={"nonnormality": nonnormality})


def steady_state_eigen(liou, tol=1e-10, max_iter=None, seed=7, parity=None,
                       degeneracy_tol=1e-9):
    """Steady state as the eigenvector of L with smallest |eigenvalue|.

    Uses shift-inverted Arnoldi (sigma ~ 0) with k=2 so the gap to the next
    mode is monitored: if the two smallest magnitudes fall within
    degeneracy_tol the parity-even projection of the candidate is returned
    and the result is flagged DEGENERATE (near a symmetry-breaking point the
    finite-size steady state is unique only up to numerical precision).
    """
    t0 = time.time()
    D = liou.dim
    n = D * D
    if not liou.jumps:
        raise ValueError("zero-jump Liouvillian: every Hamiltonian "
                         "eigenprojector is steady, no unique steady state")
    rng = np.random.default_rng(seed)
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
                               maxiter=max_iter, tol=tol)
        order = np.argsort(np.abs(vals))
        lam0, lam1 = vals[order[0]], vals[order[1]]
        x = vecs[:, order[0]]
        iters = -1  # ARPACK does not report its iteration count
    if abs(lam1) - abs(lam0) < degeneracy_tol:
        flags.append("DEGENERATE")
    rho = _finalize(x, D)
    if "DEGENERATE" in flags and parity is not None:
        P = _as_csr(parity).toarray()
        rho = _finalize(0.5 * (rho + P @ rho @ P), D)
    res = _residual(liou, rho)
    return SteadyStateResult(
        rho=DensityMatrix(rho), residual=res, method="eigen", iterations=iters,
        wall_time=time.time() - t0, flags=tuple(flags),
        diagnostics={"lambda0": complex(lam0), "lambda1": complex(lam1)})


def spectral_radius_bound(liou):
    """Cheap upper bound max_i sum_j |L_ij| (Gershgorin row sums)."""
    absL = abs(liou.sup)
    return float(absL.sum(axis=1).max())


def time_evolve(rho0, liou, t_final, dt=None, trace_tol=1e-8):
    """Fixed-step RK4 integration of d rho/dt = L[rho].

    dt defaults to 2.0 / bound(spectral radius); the stability precondition
    dt * radius < 2.5 is enforced.  Trace drift beyond trace_tol aborts: that
    signals an unstable step size, not a tolerable inaccuracy.
    """
    D = liou.dim
    mat0 = rho0.mat if isinstance(rho0, DensityMatrix) else np.asarray(rho0)
    if mat0.shape != (D, D):
        raise ValueError("rho0 dimension mismatch")
    radius = spectral_radius_bound(liou)
    if radius == 0.0:
        return DensityMatrix(mat0.copy(), basis=getattr(rho0, "basis", "fock"))
    if dt is None:
        dt = 2.0 / radius
    if dt * radius >= 2.5:
        raise ValueError("dt * spectral-radius bound = %.3g >= 2.5 (unstable)"
                         % (dt * radius))
    L = liou.sup
    x = mat0.reshape(-1).astype(complex)
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
            if drift > trace_tol:
                raise RuntimeError(
                    "trace drift %.3g exceeds %.3g at step %d/%d"
                    % (drift, trace_tol, step + 1, n_steps))
    return DensityMatrix(_finalize(x, D), basis=getattr(rho0, "basis", "fock"))


def steady_state_time(liou, t_final=60.0, dt=None, rho0=None):
    """Long-time RK4 evolution packaged as a SteadyStateResult (oracle use)."""
    t0 = time.time()
    D = liou.dim
    if rho0 is None:
        m = np.zeros((D, D), dtype=complex)
        m[0, 0] = 1.0
        rho0 = DensityMatrix(m)
    rho = time_evolve(rho0, liou, t_final, dt=dt)
    res = _residual(liou, rho.mat)
    return SteadyStateResult(rho=rho, residual=res, method="time",
                             wall_time=time.time() - t0)


def solve_steady_state(H, jumps, method="auto", parity=None, **kw):
    """Steady state of H and jumps by the named route.

    method: auto | direct | eigen | time.  auto and direct run the
    matrix-free kernel steady_state_direct; eigen and time build the sparse
    superoperator and stay independent oracles.  Lattices beyond a sweep's
    exact_dim_cap belong to the corner method (see catlattice.corner).
    """
    if method in ("auto", "direct"):
        return steady_state_direct(H, jumps, parity=parity, **kw)
    if method == "eigen":
        return steady_state_eigen(vectorize_lindbladian(H, jumps),
                                  parity=parity, **kw)
    if method == "time":
        return steady_state_time(vectorize_lindbladian(H, jumps), **kw)
    raise ValueError("unknown method %r" % (method,))
