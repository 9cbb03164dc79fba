"""Lindbladian steady states: one matrix-free kernel and two sparse oracles.

The master equation d rho/dt = L[rho] reads

    L(rho) = -i (H_eff rho - rho H_eff^dag) + sum_k g_k rho g_k^dag,
    H_eff = H - (i/2) sum_k g_k^dag g_k.

steady_state_direct is the steady-state kernel of every corner block
(catlattice.corner), the whole-lattice leaf of the exact route among them:
GMRES on L(rho) = 0 at unit trace, iterated in a Schur basis of H_eff,
where its Sylvester preconditioner is one elementwise product.  The basis
comes from numpy alone (_schur_basis: the QR factor of H_eff's
eigenvectors), so the kernel loads no scipy, and neither do dense
operators: scipy.sparse is imported only where a sparse operator is built
or an oracle runs (catlattice.fock).  The
steady state is block-diagonal in sectors, sets of basis states that
H_eff does not couple and each jump maps into at most one; rho is stored and
iterated as those blocks, sum_s D_s^2 entries instead of D^2.  A caller
that knows the photon-number parity (H_eff and a_j^2 keep it, a_j flips
it) passes it, and a parity that H or a jump breaks is a ValueError;
without one the kernel finds the sectors from the nonzero pattern of H
and the jumps.  Jumps are applied in the form they are
given: dense ones rotated once into the Schur basis and applied as batched
matmuls on their sector blocks, scipy sparse ones as sparse x dense
products in the original basis, never densified.  An iteration costs
O(sum_s D_s^3 + nnz D) with sparse jumps, O(K sum_s D_s^3) with K dense
ones, and the solve holds O(sum_s D_s^2) memory; the D^2 x D^2
superoperator is never formed.  The GMRES is a short loop of this module
(_gmres) with scipy.sparse.linalg.gmres's stopping rules and little of its
per-iteration cost, which dominates on the small blocks of a corner sweep.
With parity np.ones(D) the kernel runs the same code on one sector of all
D states.  solve_bytes prices that layout and available_memory what the OS
can give; the corner pass checks every block against the two before
building it.

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

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .fock import issparse

# A steady state is accepted when ||L(rho)||_F <= RESIDUAL_TOL times the
# operator scale (see steady_state_direct).
RESIDUAL_TOL = 1e-10

# Krylov vectors GMRES keeps between restarts in steady_state_direct;
# solve_bytes counts them.
GMRES_RESTART = 40


@dataclass
class Liouvillian:
    sup: object              # scipy CSR matrix, D^2 x D^2
    dim: int                 # Hilbert dimension D
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
    import scipy.sparse as sp   # only the oracles build it
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


def _block(op, rows, cols):
    """The block of op from the states cols to the states rows, a copy in
    op's own form, CSR or dense."""
    if issparse(op):
        return op.tocsr().astype(complex)[rows][:, cols]
    return np.asarray(op, dtype=complex).take(rows, 0).take(cols, 1)


def _dense(block):
    return block.toarray() if issparse(block) else block


def _pattern(op):
    """Rows and columns of op's nonzero entries, exactly: no tolerance."""
    return op.nonzero() if issparse(op) else np.nonzero(op)


def _join(label, a, b):
    """label, in which each state holds the smallest state of its set, with
    the sets of a[i] and b[i] joined for every i."""
    while True:
        la, lb = label[a], label[b]
        if np.array_equal(la, lb):
            return label
        label = label.copy()
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while not np.array_equal(root := label[label], label):
            label = root


def _find_sectors(m, patterns):
    """Sector index of each of m states from the nonzero patterns of H and
    then of each jump: the connected components of H, joined until each jump
    maps each sector into at most one sector and no two sectors into one
    (else g^dag g would couple the two inside H_eff).  Sectors are numbered
    by their smallest state."""
    (r, c), *jumps = patterns
    label = _join(np.arange(m), r, c)
    while True:
        a, b = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
        for r, c in jumps:
            for x, y in ((label[c], label[r]), (label[r], label[c])):
                rep = np.empty(m, dtype=int)
                rep[x] = y        # one image of each sector, one preimage
                a.append(y)
                b.append(rep[x])
        joined = _join(label, np.concatenate(a), np.concatenate(b))
        if np.array_equal(joined, label):
            return np.unique(label, return_inverse=True)[1]
        label = joined


def _block_counts(op, onehot):
    """Number of nonzero entries of op in each sector block, exactly (sums
    of ones); onehot is the states x sectors indicator."""
    return onehot.T @ ((op != 0).astype(float) @ onehot)


def _sector_split(H, jumps, label, sectors):
    """H's diagonal sector blocks, dense; the jumps' nonzero sector blocks,
    in their own form, as (s, t, list of blocks) for each pair of sectors a
    jump takes t to s; and the pairs (s, t) of each jump.  label is the
    sector of each state and sectors the states of each sector.  Raises
    ValueError when H couples two sectors, or a jump maps one sector into
    two or two into one: with parity sectors, when it both keeps and flips
    parity."""
    n = len(sectors)
    onehot = np.eye(n)[label]
    counts = _block_counts(H, onehot)
    if counts.sum() > counts.trace():
        raise ValueError("H couples states of opposite parity")
    links = {}
    pairs = []
    for k, g in enumerate(jumps):
        st = list(zip(*(x.tolist() for x in np.nonzero(
            _block_counts(g, onehot)))))
        if (len({s for s, _ in st}) < len(st)
                or len({t for _, t in st}) < len(st)):
            raise ValueError("jump %d both keeps and flips parity" % k)
        pairs.append(st)
        for s, t in st:
            links.setdefault((s, t), []).append(
                _block(g, sectors[s], sectors[t]))
    return ([_dense(_block(H, i, i)) for i in sectors],
            [(s, t, xs) for (s, t), xs in links.items()], pairs)


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
    vectors (the basis is never copied), 6 Schur-basis arrays (H_eff, U,
    U^dag, T, T^dag and the preconditioner) and 12 work arrays, and for each
    dense jump three times its sector blocks (at most De^2 + Do^2 entries):
    rotated, their adjoint, and a matvec's product of them with rho; GMRES's
    Hessenberg columns; 16 D^2 bytes for H's sector blocks, the returned
    rho and each dense jump as given (a corner block's own list); 80 bytes
    a sparse entry, the jumps as given included."""
    d = sum(dims)
    return (16 * ((GMRES_RESTART + 1 + 6 + 12 + 3 * n_dense)
                  * sum(x * x for x in dims)
                  + GMRES_RESTART * (GMRES_RESTART + 1)
                  + (2 + n_dense) * d * d)
            + 80 * sparse_nnz)


def _givens(f, g):
    """(c, s, r) with [[c, s], [-s^*, c]] [f, g] = [r, 0]: LAPACK's lartg
    on Python scalars, for complex f and real g >= 0."""
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0:
        return 0.0, 1.0, g
    af = abs(f)
    norm = math.hypot(af, g)
    phase = f / af
    return af / norm, phase * (g / norm), phase * norm


def _norm(x):
    """2-norm of a complex vector, without np.linalg.norm's call overhead."""
    return math.sqrt(np.vdot(x, x).real)


def _gmres(matvec, psolve, b, rtol, restart, maxiter):
    """x with ||b - matvec(x)|| <= rtol ||b|| by GMRES from x = 0, left-
    preconditioned by psolve and restarted every restart iterations for at
    most maxiter cycles, and its iteration count.

    The rules are scipy.sparse.linalg.gmres's at atol = 0.  A cycle stops
    when its preconditioned residual presid falls to ptol, at first rtol
    ||psolve(b)||, or the Krylov space holds the solution (breakdown).  It
    ends on the true residual: x is returned when ||b - matvec(x)|| <= rtol
    ||b|| or the cycle broke down, else ptol = presid min(fac, rtol ||b|| /
    ||b - matvec(x)||), fac quartered (down to eps) after a cycle that met
    ptol and raised 1.5-fold (up to 1) after one that did not.  Arnoldi is
    block classical Gram-Schmidt with one re-orthogonalisation, V^H w formed
    as conj(V @ conj(w)) so that the basis is never copied; the Hessenberg
    columns and Givens rotations are Python scalars.
    """
    n = b.size
    restart = min(restart, n)
    eps = np.finfo(float).eps
    bnorm = _norm(b)
    atol = rtol * bnorm
    r = psolve(b)
    ptol = _norm(r) * min(1.0, atol / bnorm)
    fac = 1.0
    x = np.zeros(n, dtype=complex)
    v = np.empty((restart + 1, n), dtype=complex)
    iterations = 0
    for _ in range(maxiter):
        beta = _norm(r)
        np.multiply(r, 1.0 / beta, out=v[0])
        rhs = [beta]
        cols = []                     # columns of the rotated Hessenberg R
        rots = []
        for j in range(restart):
            w = psolve(matvec(v[j]))
            h0 = _norm(w)
            basis = v[:j + 1]
            h = np.conj(basis @ np.conj(w))
            w -= h @ basis
            dh = np.conj(basis @ np.conj(w))
            w -= dh @ basis
            h1 = _norm(w)
            breakdown = h1 <= eps * h0
            if breakdown:
                h1 = 0.0
            else:
                np.multiply(w, 1.0 / h1, out=v[j + 1])
            col = (h + dh).tolist()
            for k, (c, s) in enumerate(rots):
                col[k], col[k + 1] = (c * col[k] + s * col[k + 1],
                                      c * col[k + 1] - s.conjugate() * col[k])
            c, s, col[j] = _givens(col[j], h1)
            rots.append((c, s))
            cols.append(col)
            rhs.append(-s.conjugate() * rhs[j])
            rhs[j] *= c
            presid = abs(rhs[j + 1])
            iterations += 1
            if presid <= ptol or breakdown:
                break
        y = rhs[:len(cols)]           # back substitution R y = rhs
        if cols[-1][-1] == 0:
            y[-1] = 0.0
        for k in range(len(cols) - 1, -1, -1):
            if y[k] != 0:
                y[k] /= cols[k][k]
                for i in range(k):
                    y[i] -= y[k] * cols[k][i]
        x += np.array(y) @ v[:len(cols)]
        r = b - matvec(x)
        rnorm = _norm(r)
        if rnorm <= atol or breakdown:
            break
        fac = max(eps, 0.25 * fac) if presid <= ptol else min(1.0, 1.5 * fac)
        ptol = presid * min(fac, atol / rnorm)
        r = psolve(r)
    return x, iterations


def _schur_basis(x):
    """(T, U) with U unitary and T = U^dag x U: U is the Householder QR
    factor of the eigenvector matrix of x from np.linalg.eig.  Its first k
    columns span the first k eigenvectors, so where those are independent
    T is a Schur form of x, upper triangular to rounding; U stays unitary
    however ill-conditioned they are."""
    u = np.linalg.qr(np.linalg.eig(x)[1])[0]
    return u.conj().T @ x @ u, u


def steady_state_direct(H, jumps, parity=None):
    """Steady state of H and jumps by preconditioned GMRES, matrix-free.

    H and the jumps are scipy sparse matrices or dense arrays.  The steady
    state is block-diagonal in sectors, sets of basis states that H_eff
    does not couple and between which each jump maps a sector into at most
    one sector, so rho is stored and iterated as its sector blocks: GMRES
    vectors hold sum_s D_s^2 entries, not D^2.  parity, the +-1
    photon-number parity of each basis state, gives the two parity
    sectors: H_eff and a_j^2 keep it and a_j flips it (np.ones(D): one
    sector of every state).  A parity vector that H couples across, or a
    jump that both keeps and flips, raises ValueError before any iteration.
    Without parity the sectors are found from the exact nonzero pattern of
    H and the jumps (_find_sectors): the parity, photon-number or
    site-parity sectors, whichever the model keeps, numbered by their
    smallest state.  diagnostics["sectors"] lists the sizes of the sectors
    solved in.

    Solves L(rho) + w tr(rho) I = w I with L(rho) as in the module
    docstring, in a unitary basis U of each sector, H_eff = U T U^dag
    (_schur_basis): U is the Householder QR factor of the eigenvector
    matrix np.linalg.eig gives for H_eff, unitary however ill-conditioned
    those eigenvectors are, so T is a Schur form, upper triangular to
    rounding, where they are independent, and keeps some weight below its
    diagonal where they are nearly parallel (an exceptional point).  The
    unknown is rho~ = U^dag rho U, block by block.  There the Sylvester part
    S(rho) = -i (H_eff rho - rho H_eff^dag) reads -i (T rho~ - rho~ T^dag),
    and the preconditioner inverts it on the diagonal lam of T, as one
    elementwise product of the packed vector with i / (lam_i - lam_j^*),
    with a Sherman-Morrison term for w tr(rho) I (trace and identity are
    unitary-invariant); GMRES applies all of T, and its off-diagonal share
    ||T - diag T||_F / ||T||_F, pooled over the sectors, is
    diagnostics["nonnormality"] (for a Schur form, the share of its strict
    upper triangle).  S is damped by sigma = 1e-3 of the mean
    decay rate: a dark state of H_eff (a real eigenvalue, such as an
    undriven vacuum) makes S singular and stalls GMRES on an already
    accurate state.  Each jump keeps only its nonzero sector blocks, in the
    form it was handed over: dense blocks are rotated once, U_s^dag g U_t,
    sparse ones act as sparse x dense products in the original basis,
    between one rotation U . U^dag of each sector and one U^dag . U, never
    densified.  An iteration costs two matmuls per sector for S, two per
    pair of sectors that dense jumps link (all their blocks in one
    product), and with sparse jumps four more per sector and the sparse
    products; the preconditioner does no matmul.

    GMRES is _gmres, with scipy's rules: rtol 0.01 RESIDUAL_TOL, restarts
    every GMRES_RESTART iterations, at most 10 cycles.  Its exit is not
    consulted: near-singular preconditioners (G -> 0) can stall its
    preconditioned residual on an accurate state.  The solve is judged by
    the true residual ||L(rho)||_F of the returned state, rotated back and
    computed from H and the jumps as given (L of a block-diagonal rho has
    no cross-sector blocks), against RESIDUAL_TOL times the operator scale
    2 ||H_eff||_F + sum_k ||g_k||_F^2; a miss is flagged HIGH_RESIDUAL.  The
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
            method="direct",
            diagnostics={"nonnormality": 0.0, "sectors": [1]})
    for g in jumps:
        if g.shape != H.shape:
            raise ValueError("jump dimension does not match H (%d)" % m)
    if parity is None:
        label = _find_sectors(m, [_pattern(x) for x in [H, *jumps]])
    else:
        parity = np.asarray(parity)
        if parity.shape != (m,) or np.any(np.abs(parity) != 1):
            raise ValueError("parity must be +-1 on each of the %d states"
                             % m)
        label = (parity < 0).astype(int)
        label -= label.min()
    sectors = [np.flatnonzero(label == s) for s in range(label.max() + 1)]
    dims = [i.size for i in sectors]
    heff, links, pairs = _sector_split(H, jumps, label, sectors)
    if not links:
        raise ValueError("zero-jump Liouvillian: every function of H is "
                         "steady, no unique steady state")
    rates = 0.0
    for s, t, xs in links:
        for x in xs:              # block by block: both forms round alike
            heff[t] = heff[t] - 0.5j * _dense(x.conj().T @ x)
            rates += np.linalg.norm(x.data if issparse(x) else x) ** 2
    scale = 2.0 * np.sqrt(sum(np.linalg.norm(x) ** 2 for x in heff)) + rates
    w = scale / m        # the trace term's eigenvalue w D is then ~ ||L||
    sigma = 1e-3 * rates / m
    u, uh, gen, inv = [], [], [], []  # per sector; S(r~) = gen r~ + r~ gen^dag
    off = total = 0.0
    for x in heff:
        t, q = _schur_basis(x)
        lam = np.diag(t)
        off += np.linalg.norm(t - np.diag(lam)) ** 2
        total += np.linalg.norm(t) ** 2
        lam = lam - 0.5j * sigma              # S - sigma: H_eff - i sigma / 2
        u.append(q)
        uh.append(q.conj().T)
        gen.append(-1j * t)
        inv.append(1j / (lam[:, None] - lam.conj()[None, :]))
    nonnormality = float(np.sqrt(off / total))
    gen_h = [x.conj().T for x in gen]
    # the K dense blocks g_k from sector t to s, rotated, are kept as the
    # ds K x dt stack G (row i K + k holds row i of g_k) and the adjoint of
    # its ds x K dt reshape [g_1 .. g_K], so that sum_k g_k r g_k^dag is
    # two matmuls: (G r), reshaped to ds x K dt, times [g_1 .. g_K]^dag
    dense = []          # (s, t, G, [g_1 .. g_K]^dag)
    sparse = []         # (s, t, [(x, x^*)]) in the original basis
    while links:                    # each link's blocks freed once rotated
        s, t, xs = links.pop()
        g = [x for x in xs if not issparse(x)]
        xs = [(x, x.conj()) for x in xs if issparse(x)]
        if g:
            g = uh[s] @ np.stack(g, axis=1).reshape(dims[s], -1)
            g = g.reshape(-1, dims[t]) @ u[t]
            dense.append((s, t, g, g.reshape(dims[s], -1).conj().T))
        if xs:
            sparse.append((s, t, xs))

    offs = np.cumsum([0] + [d * d for d in dims])
    diag = np.concatenate([o + np.arange(d) * (d + 1)
                           for o, d in zip(offs, dims)])
    inv = np.concatenate([x.reshape(-1) for x in inv])
    inv_diag = inv[diag]
    denom = 1.0 + w * inv_diag.sum()

    def unpack(x):
        return [x[a:b].reshape(d, d) for a, b, d in zip(offs, offs[1:], dims)]

    def matvec(x):
        rhos = unpack(x)
        out = np.empty_like(x)
        outs = unpack(out)
        for o, g, gh, r in zip(outs, gen, gen_h, rhos):
            np.matmul(g, r, out=o)
            o += r @ gh
        for s, t, g, gh in dense:
            outs[s] += (g @ rhos[t]).reshape(dims[s], -1) @ gh
        if sparse:
            orig = [a @ r @ ah for a, ah, r in zip(u, uh, rhos)]
            acc = [np.zeros_like(r) for r in rhos]
            for s, t, xs in sparse:
                for g, gc in xs:          # g r g^dag = (g^* (g r)^T)^T
                    acc[s] += (gc @ (g @ orig[t]).T).T
            for o, a, ah, y in zip(outs, u, uh, acc):
                o += ah @ y @ a
        out[diag] += w * x[diag].sum()
        return out

    def psolve(x):
        y = x * inv
        y[diag] -= inv_diag * (w * y[diag].sum() / denom)
        return y

    b = np.zeros(int(offs[-1]), dtype=complex)
    b[diag] = w
    x, iterations = _gmres(matvec, psolve, b, 0.01 * RESIDUAL_TOL,
                           GMRES_RESTART, 10)
    rhos = [a @ r @ ah for a, ah, r in zip(u, uh, unpack(x))]
    rhos = [0.5 * (r + r.conj().T) for r in rhos]
    trace = sum(r.trace().real for r in rhos)
    rhos = [r / trace for r in rhos]
    out = [-1j * (h @ r - r @ h.conj().T) for h, r in zip(heff, rhos)]
    for g, gp in zip(jumps, pairs):       # one jump's blocks at a time
        for s, t in gp:
            x = _block(g, sectors[s], sectors[t])
            xr = x @ rhos[t]
            out[s] += ((x.conj() @ xr.T).T if issparse(x)
                       else xr @ x.conj().T)
    residual = float(np.sqrt(sum(np.linalg.norm(y) ** 2 for y in out)))
    rho = np.zeros((m, m), dtype=complex)
    for i, r in zip(sectors, rhos):
        rho[np.ix_(i, i)] = r
    flags = () if residual <= RESIDUAL_TOL * scale else ("HIGH_RESIDUAL",)
    return SteadyStateResult(
        rho=DensityMatrix(rho), residual=residual, method="direct",
        iterations=iterations, wall_time=time.time() - t0, flags=flags,
        diagnostics={"nonnormality": nonnormality, "sectors": dims})


def steady_state_eigen(liou, parity=None):
    """Steady state as the eigenvector of L with smallest |eigenvalue|.

    Uses shift-inverted Arnoldi (sigma ~ 0, tolerance 1e-10, a fixed random
    start vector) with k=2 so the gap to the next mode is monitored.  L -
    sigma I is factored once by SuperLU with minimum-degree ordering on
    A + A^T (most of L's nonzeros have a transposed partner), which fills
    in less and factors faster than eigs' own COLAMD ordering.  If the
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
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla   # only this oracle needs it
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sigma = 1e-6
        lu = spla.splu((liou.sup - sigma * sp.identity(n)).tocsc(),
                       permc_spec="MMD_AT_PLUS_A")
        shift_inverse = spla.LinearOperator((n, n), matvec=lu.solve,
                                            dtype=complex)
        vals, vecs = spla.eigs(liou.sup, k=2, sigma=sigma, which="LM", v0=v0,
                               tol=1e-10, OPinv=shift_inverse)
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
    """Steady state of H and jumps by the kernel steady_state_direct in the
    sectors it finds itself: the name of the kernel for callers that know
    no parity (perfbench, spinmap.estimate_alpha); the oracles are called
    by name."""
    return steady_state_direct(H, jumps)
