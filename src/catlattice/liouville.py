"""Lindbladian vectorization and steady-state solvers.

The master equation d rho/dt = L[rho] is vectorized with row-major (C-order)
stacking, vec(rho)[i*D + j] = rho[i, j], under which

    L = -i (H (x) I - I (x) H^T)
        + sum_k [ Gamma_k (x) Gamma_k^* - 1/2 (Gamma_k^dag Gamma_k (x) I)
                                        - 1/2 (I (x) (Gamma_k^dag Gamma_k)^T) ]

since vec(A X B) = (A (x) B^T) vec(X) in this convention.

Steady states come from three independent routes that cross-validate each
other: a sparse direct solve with the trace constraint folded in as a
rank-one term, a shift-inverted Arnoldi eigensolve targeting the zero
eigenvalue, and brute-force RK4 time integration.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fock import SparseOperator

DIRECT_CAP_ROWS = 40_000   # default cap on D^2 for steady_state_direct


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


def _trace_vector(D):
    t = np.zeros(D * D, dtype=complex)
    t[:: D + 1] = 1.0
    return t


def _finalize(x, D):
    rho = x.reshape(D, D)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / rho.trace().real
    return rho


def _residual(liou, rho):
    return float(np.linalg.norm(liou.sup @ rho.reshape(-1)))


def steady_state_direct(liou, tol=1e-10):
    """Solve L vec(rho) = 0 at unit trace by sparse LU.

    The square system (L + w t t^dag) x = w t is solved, where t = vec(I) and w is a scale matching ||L||; for gamma > 0 the kernel of
    L is one-dimensional, that system is nonsingular and its solution is
    the least-squares solution of the augmented (D^2 + 1) x D^2 system.  A
    sparse iterative fallback (LSQR on the augmented system) covers LU
    breakdowns.
    """
    t0 = time.time()
    D = liou.dim
    n = D * D
    if n > DIRECT_CAP_ROWS:
        raise ValueError(
            "D^2 = %d exceeds the direct-solve cap %d" % (n, DIRECT_CAP_ROWS))
    t = _trace_vector(D)
    w = max(float(abs(liou.sup).max()), 1.0)
    x = None
    try:
        tt = sp.csr_matrix(
            (w * np.ones(D), (np.arange(0, n, D + 1), np.zeros(D, dtype=int))),
            shape=(n, 1))
        Lr = liou.sup + tt @ sp.csr_matrix(t.conj()[None, :])
        x = spla.spsolve(Lr.tocsc(), w * t)
        if not np.all(np.isfinite(x)):
            x = None
    except RuntimeError:
        x = None
    if x is None:
        A = sp.vstack([liou.sup, sp.csr_matrix(w * t.conj()[None, :])]).tocsr()
        b = np.zeros(n + 1, dtype=complex)
        b[-1] = w
        x = spla.lsqr(A, b, atol=1e-12, btol=1e-12, iter_lim=20 * n)[0]
    rho = _finalize(x, D)
    res = _residual(liou, rho)
    flags = ()
    if res > max(tol * w, tol):
        flags = ("HIGH_RESIDUAL",)
    return SteadyStateResult(
        rho=DensityMatrix(rho), residual=res, method="direct",
        wall_time=time.time() - t0, flags=flags)


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
        rho = 0.5 * (rho + P @ rho @ P)
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / rho.trace().real
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
    rho = x.reshape(D, D)
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho / rho.trace().real,
                         basis=getattr(rho0, "basis", "fock"))


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
    """Route to a steady-state solver by Hilbert dimension.

    method: auto | direct | eigen | time.  auto picks direct within its cap
    and eigen beyond; lattices too large for either belong to the corner
    method (see catlattice.corner).
    """
    liou = vectorize_lindbladian(H, jumps)
    if method == "auto":
        method = "direct" if liou.n_rows <= DIRECT_CAP_ROWS else "eigen"
    if method == "direct":
        return steady_state_direct(liou, **kw)
    if method == "eigen":
        return steady_state_eigen(liou, parity=parity, **kw)
    if method == "time":
        return steady_state_time(liou, **kw)
    raise ValueError("unknown method %r" % (method,))
