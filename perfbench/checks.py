"""Checks of the library's outputs against independent computations.

Nothing here calls catlattice: the model is rebuilt from its formula with
plain numpy, the Lindblad generator is applied matrix-free, and store files
are read line by line with json.  Every check raises CheckFailed with a
message naming what went wrong.

The model, in units of gamma, on a periodic ring (one axis, d = 1):

    H = sum_j [ -Delta n_j + (U/2) a_j^dag^2 a_j^2 + (G/2) a_j^dag^2 + h.c. ]
        - (J/2d) sum_links (a_j^dag a_k + h.c.)

where the links are the forward neighbour links j -> j + 1 (mod N), so the
two links of a 2-ring join the same pair twice.
Jumps are sqrt(gamma) a_j and sqrt(eta) a_j^2; the resonant convention sets
Delta = -|J| and eta = gamma.  Site 0 is the outermost tensor factor.
"""
import json
import math

import numpy as np


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# the model, rebuilt from its formula


def ring_links(n_sites):
    """Forward links of a periodic ring; a 2-ring has its pair twice."""
    if n_sites < 2:
        return []
    return [(j, (j + 1) % n_sites) for j in range(n_sites)]


def site_operator(op, site, n_sites):
    """op on one site of an n_sites lattice, identity elsewhere."""
    d = op.shape[0]
    return np.kron(np.kron(np.eye(d ** site), op),
                   np.eye(d ** (n_sites - site - 1)))


def ring_model(n_sites, n_max, u, j_hop, g, gamma=1.0):
    """Dense (H, jumps, parity) of the resonant ring model."""
    d = n_max + 1
    a1 = np.diag(np.sqrt(np.arange(1.0, d)), k=1).astype(complex)
    a = [site_operator(a1, s, n_sites) for s in range(n_sites)]
    delta = -abs(j_hop)
    eta = gamma
    dim = d ** n_sites
    h = np.zeros((dim, dim), dtype=complex)
    for aj in a:
        ad = aj.conj().T
        h += -delta * (ad @ aj) + 0.5 * u * (ad @ ad @ aj @ aj)
        h += 0.5 * g * (ad @ ad) + 0.5 * np.conj(g) * (aj @ aj)
    pre = j_hop / 2.0              # one active axis: J / 2d with d = 1
    for j, k in ring_links(n_sites):
        hop = a[j].conj().T @ a[k]
        h -= pre * (hop + hop.conj().T)
    jumps = [math.sqrt(gamma) * aj for aj in a]
    jumps += [math.sqrt(eta) * (aj @ aj) for aj in a]
    photons = np.zeros(dim)
    for s in range(n_sites):
        photons += np.real(np.diag(site_operator(np.diag(np.arange(d)), s,
                                                 n_sites)))
    parity = np.diag((-1.0) ** photons).astype(complex)
    return h, jumps, parity


def lindblad_apply(h, jumps, rho):
    """L(rho) = -i[H, rho] + sum_k (L rho L^dag - 1/2 {L^dag L, rho})."""
    out = -1j * (h @ rho - rho @ h)
    for lk in jumps:
        ldl = lk.conj().T @ lk
        out += lk @ rho @ lk.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    return out


def generator_norm_bound(h, jumps):
    """||L|| <= 2 ||H|| + 2 sum_k ||L_k||^2 (spectral norms, Frobenius on rho)."""
    return (2.0 * np.linalg.norm(h, 2)
            + 2.0 * sum(np.linalg.norm(lk, 2) ** 2 for lk in jumps))


# ---------------------------------------------------------------------------
# density-matrix properties


def check_density_matrix(rho, parity, tag, comm_tol=1e-8):
    """Trace 1, Hermitian, positive semidefinite, and [rho, Pi] = 0."""
    rho = np.asarray(rho)
    require(abs(np.trace(rho) - 1.0) <= 1e-9,
            "%s: trace deviates from 1 by %.3g" % (tag, abs(np.trace(rho) - 1)))
    herm = float(np.abs(rho - rho.conj().T).max())
    require(herm <= 1e-10, "%s: not Hermitian, max|rho - rho^dag| = %.3g"
            % (tag, herm))
    low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    require(low >= -1e-8, "%s: negative eigenvalue %.3g" % (tag, low))
    check_parity_symmetric(rho, parity, tag, comm_tol)


def check_parity_symmetric(rho, parity, tag, comm_tol=1e-8):
    comm = float(np.abs(rho @ parity - parity @ rho).max())
    require(comm <= comm_tol, "%s: [rho, Pi] = %.3g exceeds %.1g"
            % (tag, comm, comm_tol))


def check_steady(rho, h, jumps, tag, rel_tol=1e-10):
    """||L(rho)||_F <= rel_tol * ||L|| * ||rho||_F, with L applied matrix-free."""
    res = float(np.linalg.norm(lindblad_apply(h, jumps, rho)))
    scale = generator_norm_bound(h, jumps) * float(np.linalg.norm(rho))
    require(res <= rel_tol * scale,
            "%s: ||L(rho)|| = %.3g exceeds %.1g * ||L|| ||rho|| = %.3g"
            % (tag, res, rel_tol, rel_tol * scale))
    return res / scale


def parity_of(rho, parity):
    return float(np.real(np.trace(parity @ rho)))


def entropy_of(rho):
    ev = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    ev = ev[ev > 1e-14]
    return float(max(-(ev * np.log(ev)).sum(), 0.0))


def check_observables(rho, parity, reported_parity, reported_entropy, tag,
                      tol=1e-9):
    """The library's parity and entropy equal a fresh numpy evaluation."""
    p, s = parity_of(rho, parity), entropy_of(rho)
    require(abs(p - reported_parity) <= tol,
            "%s: parity %.12g, recomputed %.12g" % (tag, reported_parity, p))
    require(abs(s - reported_entropy) <= tol,
            "%s: entropy %.12g, recomputed %.12g" % (tag, reported_entropy, s))


def cutoff_weight(rho, n_sites, n_max):
    """max_j <P_{n_max}>_j: population of the top Fock level on any site."""
    d = n_max + 1
    pops = np.real(np.diag(rho)).reshape((d,) * n_sites)
    return max(float(np.take(pops, n_max, axis=s).sum())
               for s in range(n_sites))


# A cutoff change moves the parity by an amount tied to the weight at the
# cutoff; on the exact drive window the measured ratio stays below 50.
CUTOFF_PARITY_FACTOR = 1e3
CUTOFF_PARITY_FLOOR = 1e-9


def check_cutoff_agreement(parity_low, parity_high, weight_low, n_sites, tag):
    bound = CUTOFF_PARITY_FACTOR * n_sites * weight_low + CUTOFF_PARITY_FLOOR
    diff = abs(parity_low - parity_high)
    require(diff <= bound, "%s: parities differ by %.3g across the cutoff, "
            "bound %.3g from cutoff weight %.3g"
            % (tag, diff, bound, weight_low))


# ---------------------------------------------------------------------------
# sweep stores


def read_store(path):
    """Records of a JSONL store, parsed without the library."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_store(path, grid, tag):
    """Each (size, G) of the grid is held exactly once, none failed."""
    seen = {}
    for rec in read_store(path):
        key = (str(rec["size"]), round(float(rec["G_over_gamma"]), 12))
        seen[key] = seen.get(key, 0) + 1
        require(rec.get("method") != "failed",
                "%s: point %s failed: %s" % (tag, key, rec.get("error")))
        require(rec.get("converged") is True,
                "%s: point %s not converged" % (tag, key))
    want = {(str(s), round(float(g), 12)) for s, g in grid}
    missing = sorted(want - set(seen))
    extra = sorted(set(seen) - want)
    twice = sorted(k for k, n in seen.items() if n > 1)
    require(not missing, "%s: store lacks %s" % (tag, missing))
    require(not extra, "%s: store holds unknown points %s" % (tag, extra))
    require(not twice, "%s: store holds %s more than once" % (tag, twice))


# ---------------------------------------------------------------------------
# finite-size scaling


def synthetic_rows(g_c, sizes, g_values, beta=0.125, nu=1.0):
    """Store rows obeying Pi(G, L) = L^(-beta/nu) f((G - G_c) L^(1/nu)).

    Rescaled by L^(beta/nu) every size collapses onto f, so all pairwise
    crossings sit exactly at G_c.
    """
    rows = []
    for n in sizes:
        for g in g_values:
            x = (g - g_c) * n ** (1.0 / nu)
            par = n ** (-beta / nu) * 0.5 * (1.0 - math.tanh(0.8 * x))
            ent = math.log(2.0) * math.exp(-((g - g_c) / 1.5) ** 2) \
                * (1.0 - 1.0 / (n + 1))
            rows.append({"size": str(n), "G_over_gamma": g, "parity": par,
                         "entropy": ent, "converged": True})
    return rows
