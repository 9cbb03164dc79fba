import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catlattice.fock import FockSpace, embed_site_op, number_op, parity_op
from catlattice.liouville import DensityMatrix
from catlattice.observables import (correlation, parity_expectation,
                                    site_density, trace_distance,
                                    von_neumann_entropy)


def _fock_state(dim, n):
    m = np.zeros((dim, dim), dtype=complex)
    m[n, n] = 1.0
    return DensityMatrix(m)


def test_parity_of_fock_states():
    f = FockSpace(5)
    pi = parity_op(f, 1)
    for n in range(6):
        assert parity_expectation(_fock_state(6, n), pi) == pytest.approx(
            (-1.0) ** n)


def test_parity_dimension_mismatch():
    f = FockSpace(3)
    with pytest.raises(ValueError):
        parity_expectation(_fock_state(6, 0), parity_op(f, 2))


def test_parity_vector_matches_operator():
    # <Pi> from the +-1 diagonal, as sweep records take it, equals Tr(rho Pi)
    rng = np.random.default_rng(5)
    f = FockSpace(2)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    rho = DensityMatrix((m @ m.conj().T) / np.trace(m @ m.conj().T))
    pi = parity_op(f, 2)
    assert abs(parity_expectation(rho, pi.diagonal().real)
               - parity_expectation(rho, pi)) <= 1e-14
    with pytest.raises(ValueError):
        parity_expectation(rho, parity_op(f, 1).diagonal().real)


def test_entropy_pure_and_mixed():
    assert von_neumann_entropy(_fock_state(4, 2)) == pytest.approx(0.0)
    m = np.eye(4) / 4.0
    assert von_neumann_entropy(DensityMatrix(m)) == pytest.approx(np.log(4))
    half = np.diag([0.5, 0.5, 0.0, 0.0])
    assert von_neumann_entropy(DensityMatrix(half)) == pytest.approx(
        np.log(2))


def test_entropy_rejects_negative_state():
    m = np.diag([1.5, -0.5])
    with pytest.raises(ValueError):
        von_neumann_entropy(DensityMatrix(m.astype(complex)))


def test_site_density_and_correlation():
    f = FockSpace(2)
    n_ops = [embed_site_op(number_op(f), j, 2) for j in range(2)]
    # |1>|0> occupation
    dim = f.dim ** 2
    m = np.zeros((dim, dim), dtype=complex)
    idx = 1 * f.dim + 0
    m[idx, idx] = 1.0
    rho = DensityMatrix(m)
    dens = site_density(rho, n_ops)
    assert dens == pytest.approx([1.0, 0.0])
    from catlattice.fock import annihilation_op
    a_ops = [embed_site_op(annihilation_op(f), j, 2) for j in range(2)]
    c00 = correlation(rho, a_ops, 0, 0)
    assert c00.real == pytest.approx(1.0)
    assert correlation(rho, a_ops, 0, 1) == pytest.approx(0.0)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_entropy_bounds_random_states(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= rho.trace()
    s = von_neumann_entropy(DensityMatrix(rho))
    assert 0.0 <= s <= np.log(dim) + 1e-12


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_parity_bounded_random_states(seed):
    rng = np.random.default_rng(seed)
    f = FockSpace(4)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    rho = m @ m.conj().T
    rho /= rho.trace()
    p = parity_expectation(DensityMatrix(rho), parity_op(f, 1))
    assert -1.0 - 1e-12 <= p <= 1.0 + 1e-12


def test_trace_distance_properties():
    a = _fock_state(4, 0)
    b = _fock_state(4, 1)
    assert trace_distance(a, a) == pytest.approx(0.0)
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, b) == pytest.approx(trace_distance(b, a))
