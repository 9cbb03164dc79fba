"""Cat-state basis and the reduction of the lattice model to a quantum XY spin model.

Deep in the bistable regime each site is effectively confined to the
two-dimensional manifold spanned by the even and odd cat states

    |C_a^+-> = (|a> +- |-a>) / (2 N+-),   N+- = sqrt(cosh|a|^2 / e^{|a|^2}) etc.

(N+- equal the norms of the even/odd components of the normalized coherent
state).  On that manifold the annihilation operator acts as

    a -> (alpha/2) (B_x sigma_x - i B_y sigma_y),
    B_x = N-/N+ + N+/N-,  B_y = N-/N+ - N+/N-,

and the lattice Hamiltonian, after dropping per-site identity contributions,
becomes the XY model

    H_XY = -(Delta |a|^2 A_-/2) sum_j sigma_j^z
           - (J |a|^2 / 4d) sum_<jj'> [(A_+ + 2) sx sx' + (A_+ - 2) sy sy'],

with A_+- = tanh|a|^2 +- 1/tanh|a|^2.  The identity scalars removed per site
are -Delta|a|^2 (B_x^2+B_y^2)/4 (from -Delta n), (G a*^2 + G* a^2)(B_x^2-B_y^2)/8
(drive) and U|a|^4 (B_x^2-B_y^2)/8 = U|a|^4/2 (Kerr; a^2 has the cats as
eigenstates with eigenvalue a^2, fixing this value unambiguously).

validate_mapping rebuilds everything numerically in the truncated Fock space
and reports the worst entrywise deviation, which is the end-to-end check that
the algebra above is implemented correctly.
"""

from dataclasses import dataclass

import numpy as np

from .fock import (FockSpace, annihilation_op, embed_site_op, parity_op,
                   _check_cap)
from .lattice import build_hamiltonian, build_jump_operators, chain
from .liouville import solve_steady_state


def required_n_max(alpha):
    """Truncation sufficient for cat-state work.

    |a|^2 + 8 sqrt(|a|^2 + 1) puts the coherent tail beyond the cutoff
    near 1e-9; the extra two levels buy the order of magnitude needed for
    matrix elements of a (not just norms) to come out at 1e-10.
    """
    x = abs(alpha) ** 2
    return int(np.ceil(x + 8.0 * np.sqrt(x + 1.0))) + 2


def coherent_vector(alpha, fock):
    """Normalized coherent state |alpha> truncated to the Fock space."""
    n = np.arange(fock.dim)
    alpha = complex(alpha)
    if alpha == 0:
        v = np.zeros(fock.dim, dtype=complex)
        v[0] = 1.0
        return v
    x = abs(alpha) ** 2
    logmag = -0.5 * x + n * np.log(abs(alpha)) - 0.5 * np.cumsum(
        np.concatenate([[0.0], np.log(np.arange(1, fock.dim))]))
    phase = np.exp(1j * n * np.angle(alpha))
    return np.exp(logmag) * phase


@dataclass(frozen=True)
class CatBasis:
    plus: np.ndarray      # |C^+>, unit-normalized
    minus: np.ndarray     # |C^->


def cat_states(alpha, fock):
    """Even/odd cat states in the truncated Fock space.

    Raises if the truncation cannot hold the coherent state (norm deficit
    beyond 1e-8); use required_n_max to size the space.
    """
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("cat states are undefined at alpha = 0")
    c = coherent_vector(alpha, fock)
    deficit = abs(1.0 - np.vdot(c, c).real)
    if deficit > 1e-8:
        raise ValueError("Fock truncation insufficient for |alpha|^2 = %.3f: "
                         "norm deficit %.2e (need n_max >= %d)"
                         % (abs(alpha) ** 2, deficit, required_n_max(alpha)))
    even = c.copy()
    even[1::2] = 0.0
    odd = c.copy()
    odd[0::2] = 0.0
    ne = np.linalg.norm(even)
    no = np.linalg.norm(odd)
    if no == 0:
        raise ValueError("odd cat component vanished; increase n_max or alpha")
    return CatBasis(plus=even / ne, minus=odd / no)


def annihilation_on_cats(basis):
    """2x2 matrix <C^s| a |C^s'> in the (+, -) ordering."""
    am = annihilation_op(FockSpace(basis.plus.size - 1))
    vecs = [basis.plus, basis.minus]
    return np.array([[np.vdot(vecs[i], am @ vecs[j]) for j in range(2)]
                     for i in range(2)])


@dataclass(frozen=True)
class SpinModelCoefficients:
    """All scalars of the cat-basis spin model for given alpha and couplings."""

    alpha: complex
    a_plus: float
    a_minus: float
    b_x: float
    b_y: float
    h_z: float      # sigma_z coefficient: H_XY has the term  -h_z * sum sigma_z
    c_xx: float     # sigma_x sigma_x bond coefficient (enters with a minus sign)
    c_yy: float

    @classmethod
    def from_alpha(cls, alpha, delta=0.0, j_hop=0.0, dimensionality=1):
        x = abs(complex(alpha)) ** 2
        t = np.tanh(x)
        a_plus = t + 1.0 / t
        a_minus = t - 1.0 / t
        sq = np.sqrt(t)
        b_x = sq + 1.0 / sq
        b_y = sq - 1.0 / sq
        h_z = delta * x * a_minus / 2.0
        pre = j_hop * x / (4.0 * dimensionality)
        return cls(alpha=complex(alpha), a_plus=a_plus, a_minus=a_minus,
                   b_x=b_x, b_y=b_y, h_z=h_z,
                   c_xx=pre * (a_plus + 2.0), c_yy=pre * (a_plus - 2.0))

    @classmethod
    def from_params(cls, alpha, params, geom):
        return cls.from_alpha(alpha, delta=params.delta, j_hop=params.j_hop,
                              dimensionality=max(geom.dimensionality, 1))

    def identity_scalars(self, params):
        """Per-site identity contributions dropped when forming H_XY.

        detuning: -Delta |a|^2 (B_x^2 + B_y^2) / 4   (the Hamiltonian carries
        -Delta a^dag a, so the scalar inherits the minus sign);
        drive: (G a*^2 + G* a^2)(B_x^2 - B_y^2)/8;
        Kerr:  U |a|^4 (B_x^2 - B_y^2)/8 = U |a|^4 / 2, pinned by the exact
        eigenrelation a^2 |C+-> = a^2 |C+->.
        """
        x = abs(self.alpha) ** 2
        bx2, by2 = self.b_x ** 2, self.b_y ** 2
        g = complex(params.g)
        det = -params.delta * x * (bx2 + by2) / 4.0
        drive = ((g * np.conj(self.alpha) ** 2 + np.conj(g) * self.alpha ** 2)
                 * (bx2 - by2) / 8.0).real
        kerr = params.u * x ** 2 * (bx2 - by2) / 8.0
        return {"detuning": det, "drive": drive, "kerr": kerr,
                "total": det + drive + kerr}


def build_xy_hamiltonian(coeffs, geom):
    """H_XY on the lattice over N spins, Hermitian, as a complex CSR matrix."""
    import scipy.sparse as sp
    n = geom.n_sites
    _check_cap(2 ** n)
    sx = sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = sp.csr_matrix([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    sz = sp.csr_matrix([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    H = sp.csr_matrix((2 ** n, 2 ** n), dtype=complex)
    for j in range(n):
        H = H - coeffs.h_z * embed_site_op(sz, j, n)
    for b in geom.bonds:
        sxsx = embed_site_op(sx, b.i, n) @ embed_site_op(sx, b.j, n)
        sysy = embed_site_op(sy, b.i, n) @ embed_site_op(sy, b.j, n)
        H = H - b.weight * (coeffs.c_xx * sxsx + coeffs.c_yy * sysy)
    return H.tocsr()


def cat_isometry(basis, n_sites):
    """Product isometry V mapping N spins into the bosonic space.

    Columns are ordered like the spin tensor basis (site 0 slowest), with the
    per-site order (|C^+>, |C^->)."""
    v1 = np.column_stack([basis.plus, basis.minus])
    v = v1
    for _ in range(n_sites - 1):
        v = np.kron(v, v1)
    return v


def validate_mapping(alpha, params, geom, fock):
    """Worst entrywise deviation between the projected lattice Hamiltonian and
    H_XY plus the predicted identity scalars."""
    n = geom.n_sites
    _check_cap(fock.dim ** n)         # before the dense D x 2^n isometry
    basis = cat_states(alpha, fock)
    v = cat_isometry(basis, n)
    hb = build_hamiltonian(params, geom, fock)
    h_proj = v.conj().T @ (hb @ v)
    coeffs = SpinModelCoefficients.from_params(alpha, params, geom)
    h_xy = build_xy_hamiltonian(coeffs, geom).toarray()
    scalar = coeffs.identity_scalars(params)["total"] * n
    dev = np.abs(h_proj - h_xy - scalar * np.eye(2 ** n)).max()
    return float(dev)


def estimate_alpha(params, fock):
    """Extract alpha from the single-site steady state.

    The dominant parity-even eigenvector of the steady state is matched
    against |C_alpha^+> and |alpha| maximizes the overlap: a 60-point scan
    of [1e-3, max(2 sqrt(<n> + 1/2), 1/2)] on that eigenvector, then
    scipy's bounded minimize_scalar (xatol 1e-10) between the scan's two
    neighbours of its best point.  The phase of alpha is fixed beforehand
    from <a^2> on that eigenvector, since a^2 |C_alpha^+> = alpha^2
    |C_alpha^+> holds exactly for a cat; a real scan alone would miss drives
    whose steady-state amplitude is complex.  Meaningful in the regime where the
    steady state is a well-formed cat mixture (strong two-photon drive);
    below it the overlap is maximized by alpha -> 0 and the result simply
    reports a near-vacuum state.  Returns complex alpha.
    """
    from scipy.optimize import minimize_scalar   # only map-spin needs it
    single = chain(1)
    h = build_hamiltonian(params, single, fock)
    jumps = build_jump_operators(params, single, fock)
    res = solve_steady_state(h, jumps)
    rho = res.rho.mat
    pvec = parity_op(fock, 1).diagonal().real
    evals, evecs = np.linalg.eigh(rho)
    best = None
    for k in range(len(evals) - 1, -1, -1):
        v = evecs[:, k]
        if (np.abs(v) ** 2 * pvec).sum() > 0.5:
            best = v
            break
    if best is None:
        raise RuntimeError("no parity-even eigenvector found")
    n = np.arange(fock.dim)
    nbar = float((n * np.abs(best) ** 2).sum())
    # <a^2> on the eigenvector: (a^2 v)[k] = sqrt((k+1)(k+2)) v[k+2]
    a2v = np.zeros_like(best)
    a2v[:-2] = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0)) * best[2:]
    a2 = complex(np.vdot(best, a2v))
    phase = 0.5 * np.angle(a2) if abs(a2) > 1e-12 else 0.0
    ray = np.exp(1j * phase)
    alpha_max = max(2.0 * np.sqrt(nbar + 0.5), 0.5)

    def overlap(a):
        # a > 0 on the whole window, so the even part never vanishes
        even = coherent_vector(a * ray, fock)
        even[1::2] = 0.0
        return abs(np.vdot(even, best)) / np.linalg.norm(even)

    alphas = np.linspace(1e-3, alpha_max, 60)
    k = int(np.argmax([overlap(a) for a in alphas]))
    bracket = (alphas[max(k - 1, 0)], alphas[min(k + 1, len(alphas) - 1)])
    fit = minimize_scalar(lambda a: -overlap(a), bounds=bracket,
                          method="bounded", options={"xatol": 1e-10})
    return fit.x * ray
