import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catlattice.fock import FockSpace
from catlattice.lattice import ModelParams, chain, rectangle
from catlattice.spinmap import (CatBasis, SpinModelCoefficients,
                                annihilation_on_cats, build_xy_hamiltonian,
                                cat_states, coherent_vector, estimate_alpha,
                                required_n_max, validate_mapping)


def test_coherent_vector_statistics():
    f = FockSpace(30)
    alpha = 1.3
    c = coherent_vector(alpha, f)
    assert np.vdot(c, c).real == pytest.approx(1.0, abs=1e-12)
    n = np.arange(f.dim)
    nbar = float((n * np.abs(c) ** 2).sum())
    assert nbar == pytest.approx(alpha ** 2, abs=1e-10)


def test_cat_states_orthonormal_and_parity_definite():
    f = FockSpace(25)
    basis = cat_states(1.2, f)
    assert np.vdot(basis.plus, basis.plus).real == pytest.approx(1.0)
    assert np.vdot(basis.minus, basis.minus).real == pytest.approx(1.0)
    assert abs(np.vdot(basis.plus, basis.minus)) < 1e-14
    assert np.abs(basis.plus[1::2]).max() == 0.0
    assert np.abs(basis.minus[0::2]).max() == 0.0


def test_cat_norm_ratio_closed_form():
    # N_- / N_+ = sqrt(tanh |alpha|^2), N+- the norms of the even and odd
    # components of |alpha>
    c = coherent_vector(1.0, FockSpace(25))
    n_plus, n_minus = np.linalg.norm(c[0::2]), np.linalg.norm(c[1::2])
    assert n_minus / n_plus == pytest.approx(np.sqrt(np.tanh(1.0)),
                                             abs=1e-12)


def test_cat_states_need_adequate_truncation():
    with pytest.raises(ValueError):
        cat_states(3.0, FockSpace(10))
    with pytest.raises(ValueError):
        cat_states(0.0, FockSpace(10))


def test_coefficients_at_unit_alpha():
    c = SpinModelCoefficients.from_alpha(1.0)
    t = np.sqrt(np.tanh(1.0))
    assert c.b_x == pytest.approx(t + 1.0 / t)
    assert c.b_y == pytest.approx(t - 1.0 / t)
    assert c.b_x == pytest.approx(2.018571, abs=1e-6)
    assert c.b_y == pytest.approx(-0.273184, abs=1e-6)


@settings(deadline=None, max_examples=60)
@given(st.floats(0.05, 12.0))
def test_coefficient_identities(x):
    c = SpinModelCoefficients.from_alpha(np.sqrt(x))
    assert abs(c.b_x * c.b_y - c.a_minus) < 1e-11
    assert abs(c.b_x ** 2 - (c.a_plus + 2.0)) < 1e-11
    assert abs(c.b_y ** 2 - (c.a_plus - 2.0)) < 1e-11
    assert abs((c.b_x ** 2 - c.b_y ** 2) - 4.0) < 1e-11


def test_annihilation_on_cats_matches_formula():
    for x in (0.5, 1.0, 2.0):
        alpha = np.sqrt(x)
        f = FockSpace(required_n_max(alpha) + 6)
        mat = annihilation_on_cats(cat_states(alpha, f))
        c = SpinModelCoefficients.from_alpha(alpha)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        ref = 0.5 * alpha * (c.b_x * sx - 1.0j * c.b_y * sy)
        assert np.abs(mat - ref).max() < 1e-10


def test_kerr_scalar_value():
    # exact eigenrelation a^2|C+-> = alpha^2|C+->: the Kerr identity scalar
    # is U|alpha|^4/2 independent of the cat asymmetry
    p = ModelParams.resonant(u=100.0, j_hop=50.0, g=1.0)
    c = SpinModelCoefficients.from_params(1.0, p, chain(2))
    scal = c.identity_scalars(p)
    assert scal["kerr"] == pytest.approx(50.0)
    assert scal["drive"] == pytest.approx(1.0)   # (G a*^2 + c.c.)(Bx^2-By^2)/8


def test_validate_mapping_reference_couplings():
    p = ModelParams.resonant(u=100.0, j_hop=50.0, g=1.0)
    for n_sites in (1, 2, 3):
        alpha = 1.0
        f = FockSpace(required_n_max(alpha) + 6)
        dev = validate_mapping(alpha, p, chain(n_sites), f)
        assert dev < 1e-8


def test_validate_mapping_2d_geometry():
    p = ModelParams.resonant(u=40.0, j_hop=20.0, g=1.0)
    f = FockSpace(required_n_max(1.0) + 6)
    dev = validate_mapping(1.0, p, rectangle(2, 2), f)
    assert dev < 1e-8


def test_xy_hamiltonian_ferromagnetic_limit():
    # deep cat regime: b_y -> 0 so the XY model reduces to an Ising
    # ferromagnet along x; the ground doublet is spanned by the two
    # fully polarized sigma_x product states
    p = ModelParams.resonant(u=40.0, j_hop=20.0, g=1.0)
    alpha = np.sqrt(10.0)
    c = SpinModelCoefficients.from_params(alpha, p, chain(3))
    h = build_xy_hamiltonian(c, chain(3)).toarray()
    w, v = np.linalg.eigh(h)
    xp = np.array([1.0, 1.0]) / np.sqrt(2.0)
    xm = np.array([1.0, -1.0]) / np.sqrt(2.0)
    allp = np.kron(np.kron(xp, xp), xp)
    allm = np.kron(np.kron(xm, xm), xm)
    span = v[:, :2]
    assert np.linalg.norm(span.conj().T @ allp) > 0.99
    assert np.linalg.norm(span.conj().T @ allm) > 0.99


def test_estimate_alpha_recovers_cat_amplitude():
    # strong two-photon drive: the dominant even eigenvector is a cat and
    # |alpha|^2 should land near the mean photon number
    p = ModelParams(delta=-20.0, u=40.0, g=120.0, j_hop=20.0)
    f = FockSpace(24)
    alpha = estimate_alpha(p, f)
    assert abs(alpha) ** 2 == pytest.approx(2.38, abs=0.1)
    basis = cat_states(alpha, f)
    from catlattice.lattice import build_hamiltonian, build_jump_operators
    from catlattice.liouville import solve_steady_state
    h = build_hamiltonian(p, chain(1), f)
    res = solve_steady_state(h, build_jump_operators(p, chain(1), f))
    w, v = np.linalg.eigh(res.rho.mat)
    par = np.where(np.arange(f.dim) % 2 == 0, 1.0, -1.0)
    vec = v[:, -1] if (par * np.abs(v[:, -1]) ** 2).sum() > 0 else v[:, -2]
    assert abs(np.vdot(basis.plus, vec)) > 0.99


@pytest.mark.parametrize("params, n_max, alpha", [
    (ModelParams(delta=-20.0, u=40.0, g=120.0, j_hop=20.0), 24,
     0.019283228159 - 1.542899255431j),
    (ModelParams(delta=-10.0, u=20.0, g=30.0 * (0.6 + 0.8j), j_hop=10.0), 30,
     0.443420768802 - 0.834084734099j),
], ids=["real_drive", "complex_drive"])
def test_estimate_alpha_anchored(params, n_max, alpha):
    # regression anchor for the scan and bounded search, on a real and a
    # complex drive
    assert estimate_alpha(params, FockSpace(n_max)) == pytest.approx(
        alpha, rel=1e-7)


def test_required_n_max_monotone():
    xs = np.linspace(0.1, 9.0, 40)
    vals = [required_n_max(np.sqrt(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
