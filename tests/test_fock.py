import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from catlattice.fock import (DIM_CAP, DimensionCapError, FockSpace,
                             annihilation_op, embed_site_op, identity_op,
                             number_op, parity_op, total_number_diagonal)
from catlattice.lattice import ModelParams, build_hamiltonian, chain
from catlattice.spinmap import SpinModelCoefficients, build_xy_hamiltonian


def test_fock_space_dim():
    assert FockSpace(5).dim == 6
    with pytest.raises(ValueError):
        FockSpace(0)


def test_annihilation_matrix_elements():
    f = FockSpace(4)
    a = annihilation_op(f).toarray()
    for n in range(1, 5):
        assert a[n - 1, n] == pytest.approx(np.sqrt(n))
    assert np.count_nonzero(a) == 4


def test_commutator_on_truncated_space():
    # [a, a^dag] = 1 except in the top Fock level, which the truncation eats
    f = FockSpace(7)
    a = annihilation_op(f).toarray()
    comm = a @ a.conj().T - a.conj().T @ a
    assert np.allclose(np.diag(comm)[:-1], 1.0)
    assert np.diag(comm)[-1] == pytest.approx(-7.0)


def test_number_op_diagonal():
    f = FockSpace(6)
    n = number_op(f).toarray()
    assert np.allclose(np.diag(n), np.arange(7))
    assert np.count_nonzero(n - np.diag(np.diag(n))) == 0


def test_parity_diagonal_and_involution():
    f = FockSpace(5)
    p = parity_op(f, 1)
    assert np.allclose(np.diag(p), [1, -1, 1, -1, 1, -1])
    assert np.allclose(p @ p, np.eye(6))


def test_parity_multisite_involution():
    f = FockSpace(2)
    p = parity_op(f, 3)
    assert np.allclose(p @ p, np.eye(27))
    n_tot = total_number_diagonal(f, 3)
    assert np.allclose(np.diag(p), (-1.0) ** n_tot)


def test_embed_site_op_matches_kron():
    f = FockSpace(2)
    a = annihilation_op(f)
    eye = np.eye(f.dim)
    a2 = embed_site_op(a, 1, 3).toarray()
    ref = np.kron(np.kron(eye, a.toarray()), eye)
    assert np.allclose(a2, ref)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2), st.integers(0, 2))
def test_embedded_ops_on_distinct_sites_commute(i, j):
    f = FockSpace(2)
    a_i = embed_site_op(annihilation_op(f), i, 3)
    n_j = embed_site_op(number_op(f), j, 3)
    comm = (a_i @ n_j - n_j @ a_i)
    if i == j:
        assert abs(comm).max() > 0
    else:
        assert abs(comm).max() == 0


def test_total_number_diagonal_values():
    f = FockSpace(1)
    d = total_number_diagonal(f, 2)
    assert np.allclose(d, [0, 1, 1, 2])


def test_single_site_ops_are_complex_csr():
    f = FockSpace(3)
    for op in (annihilation_op(f), number_op(f), identity_op(4),
               parity_op(f, 4), embed_site_op(annihilation_op(f), 1, 2)):
        assert isinstance(op, sp.csr_matrix) and op.dtype == np.complex128
    # parity follows the lattice builders: dense up to DENSE_LEAF_DIM states
    p = parity_op(f, 2)
    assert isinstance(p, np.ndarray) and p.dtype == np.complex128
    assert np.array_equal(p, np.diag((-1.0) ** total_number_diagonal(f, 2)))
    a, n = annihilation_op(f).toarray(), number_op(f).toarray()
    assert np.abs(a - a.conj().T).max() > 0
    assert np.array_equal(n, n.conj().T)


def test_dimension_cap():
    f = FockSpace(9)
    with pytest.raises(DimensionCapError):
        embed_site_op(number_op(f), 0, 8)


QUBIT = FockSpace(1)
PARAMS = ModelParams.resonant(u=40.0, j_hop=20.0, g=1.0)


@pytest.mark.parametrize("build", [
    lambda n: embed_site_op(number_op(QUBIT), 0, n),
    lambda n: total_number_diagonal(QUBIT, n),
    lambda n: build_hamiltonian(PARAMS, chain(n), QUBIT),
    lambda n: build_xy_hamiltonian(
        SpinModelCoefficients.from_params(1.0, PARAMS, chain(n)), chain(n)),
], ids=["embed_site_op", "total_number_diagonal", "build_hamiltonian",
        "build_xy_hamiltonian"])
def test_dimension_cap_before_allocation(build):
    # 23 two-level sites, 2^23 > DIM_CAP = 2^22: rejected before any array
    # of the many-body dimension is made (one would take >= 32 MB)
    assert 2 ** 22 == DIM_CAP
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCapError):
            build(23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_identity_op():
    assert np.allclose(identity_op(5).toarray(), np.eye(5))
