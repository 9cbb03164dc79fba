"""Truncated single-site Fock algebra and Kronecker embedding into lattice operators.

Everything downstream (Hamiltonians, jump operators, parity) is assembled from
the operators built here.  The builders of lattice operators,
site_annihilators and the diagonal ones (parity_op, diagonal_op, which gives
a corner leaf its photon number), return dense complex arrays up to
DENSE_LEAF_DIM states and complex scipy CSR matrices above; the single-site
operators and embed_site_op are always CSR.  scipy.sparse is imported only
where a CSR matrix is built, and issparse tells the two forms apart without
importing it, so a lattice of up to DENSE_LEAF_DIM states loads no scipy.
Tensor-index convention: site 0 is the slowest-varying index, i.e. the
basis of an N-site lattice is |n_0> (x) |n_1> (x) ... (x) |n_{N-1}> with
n_0 in the outermost Kronecker factor.
"""

import sys
from dataclasses import dataclass

import numpy as np

# Hard cap on the many-body dimension.  Hitting it signals an infeasible
# lattice for the exact constructors, not a soft performance warning.
DIM_CAP = 1 << 22

# Up to DENSE_LEAF_DIM states a lattice's site operators are dense, built
# with np.kron, above sparse (embed_site_op); both give the same H, bit for
# bit.  Building the site operators and H takes 0.26 vs 2.3 ms at D = 25,
# 6.6 vs 4.4 ms at D = 125, 107 vs 4.6 ms at D = 343 (one BLAS thread,
# 2-vCPU Xeon), as scipy costs ~50 us per product whatever its size.
DENSE_LEAF_DIM = 100


class DimensionCapError(ValueError):
    pass


def issparse(x):
    """True for a scipy sparse matrix.  Nothing can be one before
    scipy.sparse is loaded, so this test loads nothing."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(x)


@dataclass(frozen=True)
class FockSpace:
    """Single-site photon space truncated at n_max (dimension n_max + 1)."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1 (dim >= 2)")

    @property
    def dim(self):
        return self.n_max + 1


def annihilation_op(fock):
    """Bosonic annihilation operator a with <n-1|a|n> = sqrt(n)."""
    import scipy.sparse as sp
    d = fock.dim
    data = np.sqrt(np.arange(1, d, dtype=float))
    return sp.diags(data, offsets=1, shape=(d, d), format="csr", dtype=complex)


def number_op(fock):
    import scipy.sparse as sp
    d = fock.dim
    return sp.diags(np.arange(d, dtype=float), 0, shape=(d, d), format="csr",
                    dtype=complex)


def identity_op(dim):
    import scipy.sparse as sp
    return sp.identity(dim, dtype=complex, format="csr")


def _check_cap(dim):
    if dim > DIM_CAP:
        raise DimensionCapError(
            "many-body dimension %d exceeds the hard cap %d" % (dim, DIM_CAP))


def embed_site_op(op, site, n_sites):
    """I (x) ... (x) op (x) ... (x) I with op at position `site`.

    Site 0 is the slowest-varying tensor index.
    """
    import scipy.sparse as sp
    if not (0 <= site < n_sites):
        raise ValueError("site %d out of range for %d sites" % (site, n_sites))
    d = op.shape[0]
    _check_cap(d ** n_sites)
    left = d ** site
    right = d ** (n_sites - site - 1)
    if left > 1:
        op = sp.kron(sp.identity(left, dtype=complex, format="csr"), op, format="csr")
    if right > 1:
        op = sp.kron(op, sp.identity(right, dtype=complex, format="csr"), format="csr")
    return op


def site_annihilators(fock, n_sites):
    """a_j of each of n_sites sites in the tensor basis: dense np.kron arrays
    up to DENSE_LEAF_DIM states, embed_site_op's CSR matrices above."""
    d = fock.dim
    if d ** n_sites > DENSE_LEAF_DIM:
        a = annihilation_op(fock)
        return [embed_site_op(a, k, n_sites) for k in range(n_sites)]
    a = np.diag(np.sqrt(np.arange(1, d, dtype=float)).astype(complex), 1)
    return [np.kron(np.kron(np.eye(d ** k), a), np.eye(d ** (n_sites - k - 1)))
            for k in range(n_sites)]


def total_number_diagonal(fock, n_sites):
    """Diagonal of sum_j n_hat_j in the tensor basis, as a float vector."""
    d = fock.dim
    _check_cap(d ** n_sites)
    nvec = np.zeros(d ** n_sites)
    for site in range(n_sites):
        nvec += np.repeat(np.tile(np.arange(d, dtype=float), d ** site),
                          d ** (n_sites - site - 1))
    return nvec


def diagonal_op(diag):
    """The complex diagonal matrix of the vector diag, in site_annihilators'
    form: a dense array up to DENSE_LEAF_DIM states, CSR above."""
    if diag.size <= DENSE_LEAF_DIM:
        return np.diag(diag.astype(complex))
    import scipy.sparse as sp
    return sp.diags(diag, 0, format="csr", dtype=complex)


def parity_op(fock, n_sites):
    """Photon-number parity Pi = exp(i pi sum_j n_hat_j); diagonal +-1, as
    diagonal_op gives it."""
    return diagonal_op((-1.0) ** total_number_diagonal(fock, n_sites))
