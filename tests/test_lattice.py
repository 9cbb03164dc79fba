import numpy as np
import pytest
import scipy.sparse as sp

from catlattice.fock import DENSE_LEAF_DIM, FockSpace
from catlattice.lattice import (ModelParams, build_hamiltonian,
                                build_jump_operators, chain,
                                geometry_from_size, rectangle)


def test_chain_bond_count_and_wrap():
    g = chain(5)
    assert g.n_sites == 5
    assert len(g.bonds) == 5
    assert g.dimensionality == 1


def test_two_site_ring_single_doubled_bond():
    # periodic 2-site ring: both neighbor relations join the same pair, so
    # one bond of weight 2 instead of a duplicate pair
    g = chain(2)
    assert len(g.bonds) == 1
    assert g.bonds[0].weight == pytest.approx(2.0)


def test_single_site_no_bonds():
    g = chain(1)
    assert g.bonds == ()
    assert g.dimensionality == 0


def test_rectangle_bonds():
    g = rectangle(3, 3)
    assert g.n_sites == 9
    assert len(g.bonds) == 18          # 2 * L^2 for periodic square
    assert g.dimensionality == 2


def test_one_by_two_is_a_two_site_ring():
    g = rectangle(1, 2)
    assert g.n_sites == 2
    assert g.dimensionality == 1       # only one axis extends
    assert len(g.bonds) == 1
    assert g.bonds[0].weight == pytest.approx(2.0)


def _torus_bonds(lx, ly):
    """Bonds of the periodic lx x ly torus, site x * ly + y: per axis, k to
    k + 1 around the ring, one doubled bond on an extent-2 axis, none on an
    extent-1 axis; x-bonds first (by y), then y-bonds (by x)."""
    def axis(e):
        if e == 1:
            return []
        if e == 2:
            return [(0, 1, 2.0)]
        return [(k, (k + 1) % e, 1.0) for k in range(e)]
    return ([(x1 * ly + y, x2 * ly + y, w)
             for y in range(ly) for x1, x2, w in axis(lx)]
            + [(x * ly + y1, x * ly + y2, w)
               for x in range(lx) for y1, y2, w in axis(ly)])


def _facts(g):
    return ([(b.i, b.j, b.weight) for b in g.bonds], g.label, g.n_sites,
            g.dimensionality)


@pytest.mark.parametrize("geom, lx, ly, label", (
    [pytest.param(chain(n), n, 1, str(n), id="chain%d" % n)
     for n in range(1, 10)]
    + [pytest.param(rectangle(a, b), a, b, "%dx%d" % (a, b),
                    id="rectangle%dx%d" % (a, b))
       for a in range(1, 6) for b in range(1, 6)]
    + [pytest.param(geometry_from_size(s), lx, ly, lab, id="size%r" % (s,))
       for s, lx, ly, lab in (
           (4, 4, 1, "4"), ("7", 7, 1, "7"), ("1x4", 1, 4, "1x4"),
           ("4x1", 4, 1, "4x1"), ("2x3", 2, 3, "2x3"), ([1, 5], 1, 5, "1x5"),
           ((5, 1), 5, 1, "5x1"), ([3, 3], 3, 3, "3x3"))]))
def test_geometry_facts(geom, lx, ly, label):
    # every size form is one lx x ly torus; a ring is n x 1 (or 1 x n)
    assert geom.extents == (lx, ly)
    assert _facts(geom) == (_torus_bonds(lx, ly), label, lx * ly,
                            (lx >= 2) + (ly >= 2))


def test_no_sites_rejected():
    with pytest.raises(ValueError, match="extents must be >= 1"):
        chain(0)
    with pytest.raises(ValueError, match="extents must be >= 1"):
        rectangle(0, 3)


def test_geometry_from_size_forms():
    assert geometry_from_size(4).label == "4"
    assert geometry_from_size("2x2").label == "2x2"
    assert geometry_from_size((1, 2)).n_sites == 2
    with pytest.raises((ValueError, TypeError)):
        geometry_from_size("bogus")


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(delta=0.0, u=40.0, g=1.0, j_hop=0.0, gamma=0.0)
    with pytest.raises(ValueError):
        ModelParams(delta=0.0, u=-1.0, g=1.0, j_hop=0.0)
    with pytest.raises(ValueError):
        ModelParams(delta=0.0, u=1.0, g=1.0, j_hop=0.0, eta=-0.5)


def test_resonant_convention():
    p = ModelParams.resonant(u=40.0, j_hop=20.0, g=1.2)
    assert p.delta == pytest.approx(-20.0)
    assert p.eta == pytest.approx(p.gamma) == pytest.approx(1.0)


@pytest.mark.parametrize("geom, n_max, g", [
    (chain(3), 3, 1.5), (rectangle(2, 2), 3, 1.5), (rectangle(2, 3), 2, 1.5),
    (chain(3), 3, 1.5 - 0.8j)],
    ids=["ring3", "torus2x2", "torus2x3", "complex_g"])
def test_hamiltonian_hermitian(geom, n_max, g):
    # the builder returns a complex array up to DENSE_LEAF_DIM states (the
    # 3-rings, D = 64) and complex CSR above (the tori, D = 256 and 729),
    # with max|H - H^dag| <= 1e-12 max|H|
    p = ModelParams.resonant(u=40.0, j_hop=20.0, g=g)
    h = build_hamiltonian(p, geom, FockSpace(n_max))
    dense = h.shape[0] <= DENSE_LEAF_DIM
    assert isinstance(h, np.ndarray if dense else sp.csr_matrix)
    assert h.dtype == np.complex128
    assert abs(h - h.conj().T).max() <= 1e-12 * abs(h).max()


def test_hamiltonian_single_site_values():
    # H = -delta n + (U/2) a+^2 a^2 + (G/2)(a+^2 + a^2) on the Fock basis
    f = FockSpace(3)
    p = ModelParams(delta=-2.0, u=6.0, g=1.0, j_hop=0.0)
    h = build_hamiltonian(p, chain(1), f)
    n = np.arange(4)
    assert np.allclose(np.diag(h), 2.0 * n + 3.0 * n * (n - 1))
    assert h[0, 2] == pytest.approx(0.5 * np.sqrt(2.0))
    assert h[1, 3] == pytest.approx(0.5 * np.sqrt(6.0))


def test_hopping_prefactor_dimension_split():
    # same 2-site pair, read as 1D ring vs declared-2D lattice: the 1/(2d)
    # prefactor halves the 2D hopping matrix element
    f = FockSpace(2)
    p = ModelParams(delta=-1.0, u=0.0, g=0.0, j_hop=4.0)
    h1 = build_hamiltonian(p, chain(2), f)
    h2 = build_hamiltonian(p, rectangle(2, 2), f)
    # <10|H|01> on the ring: -(J/2)*weight(2) = -4
    i10 = 1 * f.dim + 0
    i01 = 0 * f.dim + 1
    assert h1[i10, i01] == pytest.approx(-4.0)
    assert h2.shape[0] == f.dim ** 4


def test_jump_operators_count_and_scale():
    f = FockSpace(3)
    p = ModelParams.resonant(u=40.0, j_hop=20.0, g=1.0)
    jumps = build_jump_operators(p, chain(3), f)
    assert len(jumps) == 6             # sqrt(gamma) a_j and sqrt(eta) a_j^2
    p0 = ModelParams(delta=0.0, u=1.0, g=0.0, j_hop=0.0, eta=0.0)
    jumps0 = build_jump_operators(p0, chain(2), f)
    assert len(jumps0) == 2            # eta = 0 drops the two-photon channel


def test_jump_scaling_values():
    f = FockSpace(2)
    p = ModelParams(delta=0.0, u=0.0, g=0.0, j_hop=0.0, gamma=4.0, eta=9.0)
    jumps = build_jump_operators(p, chain(1), f)
    a, a2 = jumps
    assert a[0, 1] == pytest.approx(2.0)               # sqrt(4) * sqrt(1)
    assert a2[0, 2] == pytest.approx(3.0 * np.sqrt(2))  # sqrt(9) * sqrt(2)
