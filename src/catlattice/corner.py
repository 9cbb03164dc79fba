"""Corner-space renormalization for lattice steady states.

The method solves small blocks exactly, then repeatedly merges two solved
blocks: the merged space is spanned by the M most probable products of the
blocks' density-matrix eigenvectors, every operator is projected into that
corner, and the merged block is re-solved.  Truncation quality is controlled
by re-running at increasing M (convergence_sweep); corner results are never
reported without their kept-weight and drift diagnostics.

A run is one recursive pass: bisect the lattice, solve or look up the two
halves, merge.  Blocks are keyed by content: a leaf by its shape, a merge by
its halves' keys, its shape and M, or None in place of M when the merge
keeps every product.  Equal-shaped regions of one run share a block, and
the runs of a convergence sweep share every block that does not depend on
M: the leaves, and merges that keep the full product space all the way
down.  Truncated blocks live only for their own run.  Each block carries its
jump operators once, the list its kernel solve takes (see Block), and its
total photon-number operator, the one number operator a record needs: a
leaf's is diagonal, a merge projects N_A (x) I + I (x) N_B.

Every block, leaf or merged, is solved by one steady-state kernel
(liouville.steady_state_direct); the exact route is the run whose one leaf
is the whole lattice (see corner_steady_state).  The kernel runs GMRES on
L(rho) with rho kept as its two parity-sector blocks (every corner state
has a definite parity, below), each in a Schur basis of its sector's
H_eff, where the Sylvester part inverted on the Schur diagonal, the
preconditioner, is one elementwise product.  A merge's jumps are dense and
are rotated into that basis once.  An iteration costs O(K (Me^3 + Mo^3))
for K jump operators and Me + Mo = M states, and the solve needs
O(Me^2 + Mo^2) memory; the dense M^2 x M^2 superoperator is never built.
Every block, the exact route's one leaf included, is priced (_block_bytes)
against the memory the OS reports available before its operators are
built: a leaf before _build_leaf, a merge once merge_spaces has fixed its
M and parity split.  One that would not fit raises MemoryError, which a
sweep records as a failed point.

Conventions that matter for correctness:

* Product operators X_A (x) Y_B are projected entrywise,
  <phi_k psi_k| X (x) Y |phi_l psi_l> = X~[ia_k, ia_l] * Y~[ib_k, ib_l];
  projecting the factors separately and multiplying corner matrices is wrong
  once the corner is truncated.  Seam hopping terms go through project_pair
  below for exactly that reason.
* Per-site a_j^2 is projected from the block's a_j^2, never squared after
  projection, so the two-photon jump operators stay faithful.
* Photon-number parity is carried as the +-1 parity of each basis state.  A
  block's density matrix is diagonalized inside its parity sectors, so every
  corner vector is parity-definite and a merged state's parity is the
  product of its factors' parities; the corner's parity operator is exactly
  diagonal and an exact symmetry of the truncated Liouvillian.
* Leaves are built by the lattice's own Hamiltonian formula
  (lattice.lattice_hamiltonian) from the bonds with both ends inside them; a
  merge adds the seam bonds, those with one end in each block.  Regions are
  contiguous and never wrap, so a periodic closure bond joins a block only
  once the block spans the full extent of its axis.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .fock import (DENSE_LEAF_DIM, diagonal_op, issparse, site_annihilators,
                   total_number_diagonal)
from .lattice import jump_operators, lattice_hamiltonian
from .liouville import (SteadyStateResult, available_memory, solve_bytes,
                        steady_state_direct)
from .observables import parity_expectation, von_neumann_entropy


# Block weights at or below WEIGHT_FLOOR times the largest are solver noise
# (about 1e-14 for a vacuum steady state); their eigenvectors are arbitrary,
# so they count as zero and never enter a truncated corner.
WEIGHT_FLOOR = 1e-12

# Product weights within TIE_REL (relative) of the weight at a merge's cut
# are kept with it (see merge_spaces).
TIE_REL = 1e-10

# A merge that drops more than DISCARD_BOUND of the probability weight
# flags its run CORNER_TOO_SMALL.
DISCARD_BOUND = 0.5


@dataclass
class CornerBasis:
    """M kept products |phi_i>_A (x) |psi_j>_B by weight, with +-1 parity."""

    m: int
    idx_a: np.ndarray
    idx_b: np.ndarray
    vecs_a: np.ndarray
    vecs_b: np.ndarray
    kept_weight: float
    parity: np.ndarray


def _eig_descending(rho, parity):
    """Eigendecomposition of a density matrix inside its parity sectors.

    parity holds the +-1 parity of each basis state.  One eigh per sector,
    its eigenvectors zero-padded to the full dimension, so every
    eigenvector is parity-definite.  Returns the weights descending, the
    eigenvectors as columns and the parity of each.
    """
    d = rho.shape[0]
    p = np.zeros(d)
    v = np.zeros((d, d), dtype=complex)
    s = np.zeros(d)
    col = 0
    for sign in (1.0, -1.0):
        idx = np.flatnonzero(parity == sign)
        cols = slice(col, col + idx.size)
        p[cols], v[idx, cols] = np.linalg.eigh(rho[np.ix_(idx, idx)])
        s[cols] = sign
        col += idx.size
    if col != d:
        raise ValueError("parity must be +-1 on each of the %d states" % d)
    order = np.argsort(-p, kind="stable")
    p, v, s = p[order], v[:, order], s[order]
    p[p <= WEIGHT_FLOOR * p[0]] = 0.0
    return p, v, s


def merge_spaces(rho_a, rho_b, m, parity_a, parity_b):
    """Select the m most probable product eigenstates of two solved blocks.

    Ties at the cut are kept whole: if the m-th and (m+1)-th weights agree to
    TIE_REL (relative), the corner expands to the end of the degenerate run,
    so symmetry multiplets are never cut in half.  A truncated corner never
    keeps products of zero weight (see WEIGHT_FLOOR): their eigenvectors are
    arbitrary and would give the corner spurious steady states, so the cut
    stops at the last positive weight, keeping at least one state.  An m
    that covers every product keeps them all, since the full product basis
    is exact whatever its vectors.  Otherwise m is a lower bound on the
    returned corner dimension.  parity_a and parity_b are the +-1 parities
    of the blocks' basis states; see _eig_descending.
    """
    if m < 1:
        raise ValueError("corner dimension must be >= 1")
    p, va, sa = _eig_descending(rho_a.mat, parity_a)
    q, vb, sb = _eig_descending(rho_b.mat, parity_b)
    w = np.outer(p, q).reshape(-1)
    order = np.argsort(-w, kind="stable")
    full = w.size
    if m < full:
        m = min(m, max(int(np.count_nonzero(w > 0)), 1))
    m = min(m, full)
    cut = m
    if w[order[m - 1]] > 0:
        wcut = w[order[m - 1]]
        while cut < full and abs(w[order[cut]] - wcut) <= TIE_REL * wcut:
            cut += 1
    sel = order[:cut]
    nb = rho_b.dim
    idx_a = sel // nb
    idx_b = sel % nb
    total = w.sum()
    kept = float(w[sel].sum() / total) if total > 0 else 1.0
    return CornerBasis(m=cut, idx_a=idx_a, idx_b=idx_b, vecs_a=va,
                       vecs_b=vb, kept_weight=kept,
                       parity=sa[idx_a] * sb[idx_b])


def project_pair(op_a, op_b, basis):
    """Project X_A (x) Y_B entrywise (see module docstring); X and Y are
    dense arrays, scipy sparse matrices or None for an identity factor,
    whose exact projection is the delta of that side's kept indices."""
    def side(op, vecs, idx):
        return (idx[:, None] == idx[None, :] if op is None
                else (vecs.conj().T @ (op @ vecs))[np.ix_(idx, idx)])
    return (side(op_a, basis.vecs_a, basis.idx_a)
            * side(op_b, basis.vecs_b, basis.idx_b))


# ---------------------------------------------------------------------------
# the recursive pass


@dataclass(frozen=True)
class Region:
    """Axis-aligned patch of the torus: offsets and extents on the site grid."""

    x0: int
    y0: int
    nx: int
    ny: int

    def sites(self, geom):
        ly = geom.extents[1]
        return [x * ly + y for x in range(self.x0, self.x0 + self.nx)
                for y in range(self.y0, self.y0 + self.ny)]

    def shape_key(self, geom):
        lx, ly = geom.extents
        return (self.nx, self.ny, self.nx == lx, self.ny == ly)


def _split(region):
    """Split the longer axis; on ties split y (so 2x2 -> two 2x1 columns,
    matching growth that doubles x before y: 2x2 -> 4x2 -> 4x4)."""
    if region.nx > region.ny:
        h = region.nx // 2
        a = Region(region.x0, region.y0, region.nx - h, region.ny)
        b = Region(region.x0 + region.nx - h, region.y0, h, region.ny)
    else:
        h = region.ny // 2
        a = Region(region.x0, region.y0, region.nx, region.ny - h)
        b = Region(region.x0, region.y0 + region.ny - h, region.nx, h)
    return a, b


@dataclass
class Block:
    """A solved block.  sites are the lattice labels of its operators'
    sites, less the label of its region's first site, so one block serves
    every region of its shape.  jumps are sqrt(gamma) a_j for each site,
    then sqrt(eta) a_j^2 if eta > 0 (lattice.jump_operators): the kernel
    solves with this list and a seam reads its a_j from it.  h is dense; a
    leaf's n_op and jumps are dense up to DENSE_LEAF_DIM states and scipy
    sparse above."""

    sites: list
    dim: int
    h: np.ndarray
    jumps: list
    n_op: object                    # total photon number of its sites
    parity: np.ndarray              # +-1 parity of each basis state
    exact: bool                     # full product spaces all the way down
    full_dim: int = 0               # a merge's product dimension
    kept_weight: float = 1.0        # weight a merge kept
    result: SteadyStateResult = None


def _build_leaf(region, geom, params, fock):
    """Exact block for a leaf region, in its own tensor basis, built like
    build_hamiltonian from fock.site_annihilators."""
    sites = region.sites(geom)
    n = len(sites)
    local = {s: k for k, s in enumerate(sites)}
    a_ops = site_annihilators(fock, n)
    bonds = [(local[b.i], local[b.j], b.weight) for b in geom.bonds
             if b.i in local and b.j in local]
    h = lattice_hamiltonian(params, a_ops, bonds, geom.dimensionality)
    n_diag = total_number_diagonal(fock, n)
    return Block(sites=[s - sites[0] for s in sites], dim=fock.dim ** n,
                 h=h.toarray() if issparse(h) else h,
                 jumps=jump_operators(params, a_ops), n_op=diagonal_op(n_diag),
                 parity=(-1.0) ** n_diag, exact=True)


def _merge_blocks(block_a, block_b, basis, origin_a, origin_b, m, geom,
                  params):
    """Corner-merge two solved blocks, whose regions start at the sites
    origin_a and origin_b, into merge_spaces's basis at target m."""
    h = (project_pair(block_a.h, None, basis)
         + project_pair(None, block_b.h, basis))
    local_a = {s + origin_a: k for k, s in enumerate(block_a.sites)}
    local_b = {s + origin_b: k for k, s in enumerate(block_b.sites)}
    # seams hop between the blocks' jumps sqrt(gamma) a_j, hence the 1/gamma
    pre = params.j_hop / (2.0 * geom.dimensionality * params.gamma)
    for b in geom.bonds:              # seam bonds: one end in each block
        if b.i in local_a and b.j in local_b:
            sa, sb = b.i, b.j
        elif b.j in local_a and b.i in local_b:
            sa, sb = b.j, b.i
        else:
            continue
        adag_a = block_a.jumps[local_a[sa]].conj().T
        a_b = block_b.jumps[local_b[sb]]
        hop = project_pair(adag_a, a_b, basis)
        h += -pre * b.weight * (hop + hop.conj().T)

    def pair(ops_a, ops_b):
        return ([project_pair(x, None, basis) for x in ops_a]
                + [project_pair(None, y, basis) for y in ops_b])

    na, nb = len(block_a.sites), len(block_b.sites)
    full_dim = block_a.dim * block_b.dim
    return Block(sites=block_a.sites + [s + origin_b - origin_a
                                        for s in block_b.sites],
                 dim=basis.m, h=h,
                 jumps=(pair(block_a.jumps[:na], block_b.jumps[:nb])
                        + pair(block_a.jumps[na:], block_b.jumps[nb:])),
                 n_op=sum(pair([block_a.n_op], [block_b.n_op])),
                 parity=basis.parity,
                 exact=block_a.exact and block_b.exact and m >= full_dim,
                 full_dim=full_dim, kept_weight=basis.kept_weight)


def _block_bytes(dims, n_sites, dense, params):
    """Bytes a block of n_sites sites with parity sectors of dims states
    holds while built and solved: its h and n_op as D x D arrays and the
    solve (liouville.solve_bytes) of its jumps, a_j and, if eta > 0, a_j^2,
    dense (dense true) or sparse with at most D nonzeros each."""
    d = sum(dims)
    n_jumps = n_sites * (2 if params.eta > 0 else 1)
    return 32 * d * d + solve_bytes(dims, n_jumps if dense else 0,
                                    0 if dense else n_jumps * d)


def _preflight(dims, n_sites, dense, params):
    """MemoryError if _block_bytes exceeds the memory the OS reports."""
    need = _block_bytes(dims, n_sites, dense, params)
    have = available_memory()
    if need > have:
        raise MemoryError("a %d-site block of %d states needs about %.1f GB "
                          "of memory, %.1f GB available"
                          % (n_sites, sum(dims), need / 2**30, have / 2**30))


@dataclass
class _Pass:
    """Fixed inputs of one corner run and the blocks it has used so far."""

    geom: object
    params: object
    fock: object
    m: int
    leaf_sites_max: int
    blocks: dict                    # blocks independent of m, across runs
    used: dict = field(default_factory=dict)      # key -> block, this run
    steps: list = field(default_factory=list)     # one entry per merge


def _solve_region(region, run):
    """Content key and solved block of region, recursing into its halves.

    A leaf is keyed by its shape; a merge by its halves' keys, its shape and
    the run's m, or None when m covers every product.  A key is looked up
    among the blocks this run used, then among run.blocks, before anything
    is built; a block that does not depend on m joins run.blocks.  Merges
    append their step record in post-order, found ones marked cached.
    """
    geom = run.geom
    shape = region.shape_key(geom)
    n_sites = region.nx * region.ny
    leaf = n_sites <= run.leaf_sites_max
    if leaf:
        key = ("leaf", shape)
    else:
        region_a, region_b = _split(region)
        key_a, block_a = _solve_region(region_a, run)
        key_b, block_b = _solve_region(region_b, run)
        key = (key_a, key_b, shape,
               run.m if run.m < block_a.dim * block_b.dim else None)
    blk = run.used.get(key, run.blocks.get(key))
    cached = blk is not None
    if not cached:        # pre-flight before any operator is built
        if leaf:
            dim = run.fock.dim ** n_sites
            trace = 1 - run.fock.n_max % 2      # tr(Pi) of the leaf
            _preflight(((dim + trace) // 2, (dim - trace) // 2), n_sites,
                       dim <= DENSE_LEAF_DIM, run.params)
            blk = _build_leaf(region, geom, run.params, run.fock)
        else:
            basis = merge_spaces(block_a.result.rho, block_b.result.rho,
                                 run.m, block_a.parity, block_b.parity)
            even = int(np.count_nonzero(basis.parity > 0))
            _preflight((even, basis.m - even), n_sites, True, run.params)
            blk = _merge_blocks(block_a, block_b, basis,
                                region_a.sites(geom)[0],
                                region_b.sites(geom)[0], run.m, geom,
                                run.params)
        blk.result = steady_state_direct(blk.h, blk.jumps, parity=blk.parity)
        if blk.exact:
            run.blocks[key] = blk
    run.used[key] = blk
    if not leaf:
        res = blk.result
        run.steps.append({
            "shape": (region.nx, region.ny),
            "m": blk.dim,
            "full_dim": blk.full_dim,
            "exact": blk.dim == blk.full_dim,
            "kept_weight": blk.kept_weight,
            "residual": res.residual,
            "wall": res.wall_time,
            "iterations": res.iterations,
            "nonnormality": res.diagnostics["nonnormality"],
            "cached": cached,
        })
    return key, blk


@dataclass
class CornerRun:
    """Final corner steady state plus the projected operators to evaluate it."""

    result: SteadyStateResult
    parity: np.ndarray              # +-1 parity of each corner state
    n_op: np.ndarray                # total photon number
    steps: list
    converged: bool = True

    @property
    def parity_op(self):
        """The parity as a dense diagonal matrix, for callers that want Pi."""
        return np.diag(self.parity)


def corner_steady_state(geom, params, fock, m, leaf_sites_max=2, blocks=None):
    """Run the corner method on the full lattice.

    m is the target corner dimension per merge (tie expansion may raise it).
    Blocks of equal content are solved once (see _solve_region); blocks is
    a dict that carries those independent of m from one run to the next,
    as convergence_sweep does, and leaves results unchanged.  The run is
    summarized from the distinct blocks it used, whichever run solved them:
    its iterations add up their GMRES iterations, a block that failed its
    residual check flags it HIGH_RESIDUAL, and a merge that dropped more
    than DISCARD_BOUND of the probability weight flags it CORNER_TOO_SMALL,
    a hopeless corner size.  The result carries the final block's kernel
    diagnostics.  With leaf_sites_max >= geom.n_sites the one leaf is the
    whole lattice: the run is the exact solution, and its method is "direct".
    """
    t0 = time.time()
    run = _Pass(geom, params, fock, m, leaf_sites_max,
                {} if blocks is None else blocks)
    _, final = _solve_region(Region(0, 0, *geom.extents), run)
    used = run.used.values()
    flags = []
    if any("HIGH_RESIDUAL" in b.result.flags for b in used):
        flags.append("HIGH_RESIDUAL")
    if any(b.kept_weight < 1.0 - DISCARD_BOUND for b in used):
        flags.append("CORNER_TOO_SMALL")
    result = SteadyStateResult(
        rho=final.result.rho, residual=final.result.residual,
        method="corner" if run.steps else "direct",
        iterations=sum(b.result.iterations for b in used),
        wall_time=time.time() - t0, flags=tuple(flags),
        diagnostics=final.result.diagnostics)
    return CornerRun(result=result, parity=final.parity,
                     n_op=final.n_op, steps=run.steps)


def convergence_sweep(geom, params, fock, m_list, tol=1e-3, leaf_sites_max=2):
    """Repeat the corner run over strictly ascending m until parity and
    entropy settle.  Returns (run, report).

    The first run whose parity and entropy both moved less than tol from the
    previous run is returned with converged=True; otherwise the largest-m
    run comes back flagged UNCONVERGED.  A run with the previous run's
    dimension at every merge (tie expansion can make m and m + 1 one corner)
    repeats it: its drift is null.  A run that is exact, or saturated (every
    truncated merge stopped at its last positive weight below m, so no
    larger m changes it), converges outright.  The runs share one dict of
    blocks: leaves and merges that keep every product are solved once.
    """
    if not m_list or any(a >= b for a, b in zip(m_list, m_list[1:])):
        raise ValueError("m_list must be nonempty and strictly ascending")
    report = []
    prev = None
    blocks = {}
    for m in m_list:
        run = corner_steady_state(geom, params, fock, m,
                                  leaf_sites_max=leaf_sites_max, blocks=blocks)
        pi = parity_expectation(run.result.rho, run.parity)
        s = von_neumann_entropy(run.result.rho)
        merge_dims = [st["m"] for st in run.steps]
        drift = None
        if prev is not None and merge_dims != prev[2]:
            drift = max(abs(pi - prev[0]), abs(s - prev[1]))
        cut = [st["m"] for st in run.steps if not st["exact"]]
        entry = {"m": m, "m_used": run.result.rho.dim, "parity": pi,
                 "entropy": s, "drift": drift, "exact": not cut}
        if cut and max(cut) < m:
            entry["saturated"] = True
        report.append(entry)
        if not cut or max(cut) < m or (drift is not None and drift <= tol):
            # exact, saturated, or settled
            run.converged = True
            return run, report
        prev = (pi, s, merge_dims)
    run.converged = False
    run.result = replace(run.result, flags=run.result.flags + ("UNCONVERGED",))
    return run, report
