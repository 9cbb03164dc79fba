"""Observables of a DensityMatrix: parity, von Neumann entropy, densities, correlators."""

import numpy as np


def parity_expectation(rho, pi_op):
    """Tr(rho Pi) for Pi a matrix or the +-1 vector of its diagonal.  The
    imaginary part must vanish (to 1e-10); it is checked, then dropped."""
    mat = rho.mat
    if pi_op.shape[0] != mat.shape[0]:
        raise ValueError("operator dimension %d does not match state dimension %d"
                         % (pi_op.shape[0], mat.shape[0]))
    if pi_op.ndim == 1:
        return float(mat.diagonal().real @ pi_op)
    val = complex((pi_op @ mat).trace())
    if abs(val.imag) > 1e-10:
        raise ValueError("parity expectation has imaginary part %g" % val.imag)
    return float(val.real)


def von_neumann_entropy(rho):
    """S = -sum lambda log lambda (natural log) over eigenvalues above 1e-14."""
    ev = rho.eigenvalues()
    if ev.min() < -1e-8:
        raise ValueError("state has negative eigenvalue %g" % ev.min())
    ev = ev[ev > 1e-14]
    s = float(-(ev * np.log(ev)).sum())
    return max(s, 0.0)


def expectation(rho, op):
    return complex((op @ rho.mat).trace())


def site_density(rho, number_ops):
    """Per-site photon density <n_j> for a list of (projected) number operators."""
    out = []
    for nop in number_ops:
        v = expectation(rho, nop)
        out.append(float(v.real))
    return np.array(out)


def correlation(rho, a_ops, j, jp):
    """<a_j^dag a_j'> from the (projected) annihilation operators."""
    return expectation(rho, a_ops[j].conj().T @ a_ops[jp])


def trace_distance(rho_a, rho_b):
    """T(a, b) = ||a - b||_1 / 2 for Hermitian density matrices."""
    ev = np.linalg.eigvalsh(rho_a.mat - rho_b.mat)
    return 0.5 * float(np.abs(ev).sum())

