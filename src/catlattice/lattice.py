"""Lattice geometry, model parameters and the full bosonic lattice model.

The Hamiltonian in the frame rotating with the pump is

    H = sum_j [ -Delta n_j + (U/2) a_j^dag2 a_j^2 + (G/2) a_j^dag2 + (G*/2) a_j^2 ]
        - (J/2d) sum_<j,j'> (a_j^dag a_j' + h.c.)

with one- and two-photon losses entering as jump operators sqrt(gamma) a_j and
sqrt(eta) a_j^2.  All energies and rates are expressed in units of gamma.
"""

from dataclasses import dataclass

import numpy as np

from .fock import _check_cap, issparse, site_annihilators


@dataclass(frozen=True)
class Bond:
    """Unordered nearest-neighbour pair (i, j) with a hopping weight.

    weight is 2.0 for the doubled bond of an extent-2 periodic axis (the two
    formal bonds between the same pair are stored once, see LatticeGeometry).
    """

    i: int
    j: int
    weight: float = 1.0


@dataclass(frozen=True)
class LatticeGeometry:
    """Periodic lx x ly torus; a ring of n sites is the n x 1 torus.

    extents is always the pair (lx, ly).  dimensionality counts the axes of
    extent >= 2: a 1 x L or L x 1 lattice keeps the label the caller asked
    for but is a ring of L sites, so its coordination (and the J/2d
    normalization) is that of a 1D chain.  Each site has exactly
    2*dimensionality neighbour links, with extent-2 axes contributing a
    single bond of weight 2.
    """

    extents: tuple
    bonds: tuple
    label: str

    @property
    def n_sites(self):
        return self.extents[0] * self.extents[1]

    @property
    def dimensionality(self):
        return sum(1 for e in self.extents if e >= 2)


def _axis_bonds(extent):
    """Bond pattern (offset pairs, weight) along one periodic axis."""
    if extent == 1:
        return []
    if extent == 2:
        return [(0, 1, 2.0)]
    out = [(k, k + 1, 1.0) for k in range(extent - 1)]
    out.append((extent - 1, 0, 1.0))
    return out


def chain(n_sites):
    """Periodic 1D chain of n_sites: the n_sites x 1 torus."""
    return rectangle(n_sites, 1, label=str(n_sites))


def rectangle(lx, ly, label=None):
    """Periodic lx x ly lattice; site index is x * ly + y.

    An axis of extent 1 adds no bonds: rectangle(1, L) is the L-site ring.
    """
    if lx < 1 or ly < 1:
        raise ValueError("extents must be >= 1")
    label = label or "%dx%d" % (lx, ly)
    bonds = []
    for y in range(ly):
        for (x1, x2, w) in _axis_bonds(lx):
            bonds.append(Bond(x1 * ly + y, x2 * ly + y, w))
    for x in range(lx):
        for (y1, y2, w) in _axis_bonds(ly):
            bonds.append(Bond(x * ly + y1, x * ly + y2, w))
    return LatticeGeometry((lx, ly), tuple(bonds), label)


def geometry_from_size(size):
    """A ring from an int or a digit string ("4"), a torus from an "LxW"
    string or a pair [lx, ly] of ints (a ring when one extent is 1).
    Anything else, a bool, a float or a pair holding one among them, raises
    ValueError."""
    if isinstance(size, str):
        parts = size.split("x")
        if len(parts) <= 2 and all(p.isdecimal() for p in parts):
            if len(parts) == 1:
                return chain(int(size))
            return rectangle(int(parts[0]), int(parts[1]), label=size)
    elif type(size) is int:              # not a bool
        return chain(size)
    elif (isinstance(size, (list, tuple)) and len(size) == 2
          and all(type(e) is int for e in size)):
        return rectangle(*size)
    raise ValueError("a size is an int, an \"LxW\" string or a pair of ints")


@dataclass(frozen=True)
class ModelParams:
    """All symbols of the driven-dissipative model, in units of gamma.

    delta: detuning Delta, u: Kerr energy U, g: two-photon drive amplitude G
    (complex, real in practice), j_hop: hopping J, gamma/eta: one- and
    two-photon loss rates.
    """

    delta: float
    u: float
    g: complex
    j_hop: float
    gamma: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.u < 0:
            raise ValueError("u must be >= 0")

    @classmethod
    def resonant(cls, u, j_hop, g):
        """Convention used throughout: Delta = -|J| and eta = gamma = 1."""
        return cls(delta=-abs(j_hop), u=u, g=g, j_hop=j_hop)


def lattice_hamiltonian(params, a_ops, bonds, dimensionality):
    """The model Hamiltonian of the module docstring from site operators.

    a_ops are the annihilation operators of the sites, dense arrays or scipy
    sparse matrices; bonds are (i, j, weight) triples indexing a_ops; the
    hopping carries the J/2d of a lattice of the given dimensionality.
    """
    dim = a_ops[0].shape[0]
    if issparse(a_ops[0]):
        import scipy.sparse as sp
        H = sp.csr_matrix((dim, dim), dtype=complex)
    else:
        H = np.zeros((dim, dim), dtype=complex)
    g = complex(params.g)
    for a in a_ops:
        ad = a.conj().T
        H = H - params.delta * (ad @ a)
        if params.u != 0:
            H = H + 0.5 * params.u * (ad @ ad @ a @ a)
        if g != 0:
            H = H + 0.5 * g * (ad @ ad) + 0.5 * np.conj(g) * (a @ a)
    if params.j_hop != 0 and bonds:
        pre = params.j_hop / (2.0 * dimensionality)
        for i, j, weight in bonds:
            hop = a_ops[i].conj().T @ a_ops[j]
            H = H - pre * weight * (hop + hop.conj().T)
    return H


def build_hamiltonian(params, geom, fock):
    """The lattice Hamiltonian, Hermitian and complex, in the form of
    fock.site_annihilators: a dense array up to DENSE_LEAF_DIM states, CSR
    above."""
    n = geom.n_sites
    _check_cap(fock.dim ** n)
    h = lattice_hamiltonian(params, site_annihilators(fock, n),
                            [(b.i, b.j, b.weight) for b in geom.bonds],
                            geom.dimensionality)
    return h.tocsr() if issparse(h) else h


def jump_operators(params, a_ops):
    """sqrt(gamma) a_j for every site, then sqrt(eta) a_j^2 if eta > 0, both
    in a_ops' order: a corner block reads a_j from its first len(a_ops)."""
    jumps = [np.sqrt(params.gamma) * a for a in a_ops]
    if params.eta > 0:
        jumps += [np.sqrt(params.eta) * (a @ a) for a in a_ops]
    return jumps


def build_jump_operators(params, geom, fock):
    """The model's jump operators (see jump_operators), in the form of
    fock.site_annihilators."""
    return jump_operators(params, site_annihilators(fock, geom.n_sites))
