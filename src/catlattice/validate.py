"""Cross-module validation suite.

Machine-readable pass/fail per invariant group: solver agreement on
small systems, corner exactness at full corner dimension, the spin-model
coefficient identities, mapping validation, and steady-state parity
symmetry.  The whole suite is sized to finish in well under ten minutes.
"""
from __future__ import annotations

import numpy as np

from .corner import convergence_sweep
from .fock import FockSpace, parity_op
from .lattice import (ModelParams, build_hamiltonian, build_jump_operators,
                      chain, geometry_from_size)
from .liouville import (steady_state_direct, steady_state_eigen,
                        steady_state_time, vectorize_lindbladian)
from .observables import (parity_expectation, trace_distance,
                          von_neumann_entropy)
from .spinmap import (SpinModelCoefficients, annihilation_on_cats,
                      cat_states, required_n_max, validate_mapping)

# solver agreement points: (tag, size spec, n_max, params)
# mild drives so the long-time evolution reaches the steady state within
# its horizon
AGREEMENT_POINTS = (
    ("site-u40-g1", 1, 10, ModelParams(delta=-20.0, u=40.0, g=1.0,
                                       j_hop=0.0)),
    ("site-u40-g4", 1, 10, ModelParams(delta=-20.0, u=40.0, g=4.0,
                                       j_hop=0.0)),
    ("site-u20-g2", 1, 10, ModelParams(delta=-10.0, u=20.0, g=2.0,
                                       j_hop=0.0)),
    ("site-u20-g6", 1, 12, ModelParams(delta=-10.0, u=20.0, g=6.0,
                                       j_hop=0.0)),
    ("site-u100-g3", 1, 10, ModelParams(delta=-50.0, u=100.0, g=3.0,
                                        j_hop=0.0)),
    ("site-d0-u10-g2", 1, 12, ModelParams(delta=0.0, u=10.0, g=2.0,
                                          j_hop=0.0)),
    ("ring2-u40-g1.2", (1, 2), 4, ModelParams.resonant(u=40.0, j_hop=20.0,
                                                       g=1.2)),
    ("ring2-u40-g2.4", (1, 2), 4, ModelParams.resonant(u=40.0, j_hop=20.0,
                                                       g=2.4)),
    ("ring2-u20-g1", (1, 2), 5, ModelParams.resonant(u=20.0, j_hop=10.0,
                                                     g=1.0)),
    ("ring2-u100-g1.8", (1, 2), 4, ModelParams.resonant(u=100.0, j_hop=50.0,
                                                        g=1.8)),
    ("chain3-u20-g1.5", 3, 2, ModelParams.resonant(u=20.0, j_hop=10.0,
                                                   g=1.5)),
    ("site-eta0-u30-g2", 1, 12, ModelParams(delta=-15.0, u=30.0, g=2.0,
                                            j_hop=0.0, eta=0.0)),
)

AGREEMENT_TOL = 1e-5
CORNER_TOL = 1e-7
IDENTITY_TOL = 1e-11
CAT_MATRIX_TOL = 1e-10
MAPPING_TOL = 1e-8
SYMMETRY_TOL = 1e-6


def _check(name, value, tol):
    return {"name": name, "value": float(value), "tol": float(tol),
            "passed": bool(value <= tol)}


def _group(name, checks, **extra):
    return {"name": name, "passed": all(c["passed"] for c in checks),
            "checks": checks, **extra}


def solver_agreement_group():
    checks = []
    for tag, size, n_max, params in AGREEMENT_POINTS:
        geom = geometry_from_size(size)
        fock = FockSpace(n_max)
        h = build_hamiltonian(params, geom, fock)
        jumps = build_jump_operators(params, geom, fock)
        liou = vectorize_lindbladian(h, jumps)
        r_dir = steady_state_direct(h, jumps)
        r_eig = steady_state_eigen(
            liou, parity=parity_op(fock, geom.n_sites).diagonal().real)
        r_time = steady_state_time(liou)
        pairs = (("direct-eigen", r_dir, r_eig),
                 ("direct-time", r_dir, r_time),
                 ("eigen-time", r_eig, r_time))
        for pname, ra, rb in pairs:
            checks.append(_check("%s %s" % (tag, pname),
                                 trace_distance(ra.rho, rb.rho),
                                 AGREEMENT_TOL))
    return _group("solver_agreement", checks, n_points=len(AGREEMENT_POINTS))


def corner_exactness_group():
    checks = []
    cases = (
        ("1d-2site", chain(2), 3,
         ModelParams.resonant(u=40.0, j_hop=20.0, g=1.5)),
        ("1d-3site", chain(3), 2,
         ModelParams.resonant(u=20.0, j_hop=10.0, g=1.2)),
    )
    for tag, geom, n_max, params in cases:
        fock = FockSpace(n_max)
        full = fock.dim ** geom.n_sites
        run, _ = convergence_sweep(geom, params, fock, [full],
                                   leaf_sites_max=1)
        h = build_hamiltonian(params, geom, fock)
        jumps = build_jump_operators(params, geom, fock)
        pi = parity_op(fock, geom.n_sites)
        # the corner solves its blocks with the exact route's kernel, so the
        # reference comes from the independent eigen oracle
        exact = steady_state_eigen(vectorize_lindbladian(h, jumps),
                                   parity=pi.diagonal().real)
        d_pi = abs(parity_expectation(run.result.rho, run.parity)
                   - parity_expectation(exact.rho, pi))
        d_s = abs(von_neumann_entropy(run.result.rho)
                  - von_neumann_entropy(exact.rho))
        checks.append(_check("%s parity" % tag, d_pi, CORNER_TOL))
        checks.append(_check("%s entropy" % tag, d_s, CORNER_TOL))
    return _group("corner_exactness", checks)


def spin_identity_group():
    xs = np.linspace(0.05, 10.0, 50)
    worst = 0.0
    for x in xs:
        c = SpinModelCoefficients.from_alpha(np.sqrt(x))
        worst = max(
            worst,
            abs(c.b_x * c.b_y - c.a_minus),
            abs(c.b_x ** 2 - (c.a_plus + 2.0)),
            abs(c.b_y ** 2 - (c.a_plus - 2.0)),
            abs((c.b_x ** 2 - c.b_y ** 2) - 4.0),
        )
    checks = [_check("coefficient identities (50 points)", worst,
                     IDENTITY_TOL)]
    dev = 0.0
    for x in (0.5, 1.0, 2.0):
        alpha = np.sqrt(x)
        fock = FockSpace(required_n_max(alpha))
        mat = annihilation_on_cats(cat_states(alpha, fock))
        c = SpinModelCoefficients.from_alpha(alpha)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        ref = 0.5 * alpha * (c.b_x * sx - 1j * c.b_y * sy)
        dev = max(dev, float(np.max(np.abs(mat - ref))))
    checks.append(_check("cat-basis matrix of a", dev, CAT_MATRIX_TOL))
    return _group("spin_identities", checks)


def mapping_group():
    params = ModelParams.resonant(u=100.0, j_hop=50.0, g=1.0)
    checks = []
    for x in (0.5, 1.0, 2.0):
        alpha = np.sqrt(x)
        fock = FockSpace(required_n_max(alpha) + 6)
        for n_sites in (1, 2, 3):
            dev = validate_mapping(alpha, params, chain(n_sites), fock)
            checks.append(_check("N=%d |alpha|^2=%g" % (n_sites, x), dev,
                                 MAPPING_TOL))
    return _group("mapping", checks)


def steady_symmetry_group():
    """[rho, Pi] of two steady states per case, and their parity and
    entropy bounds.  The kernel solves in one sector of every state, where
    its iteration keeps each entry of rho that H and the jumps never reach
    at zero, so its [rho, Pi] can read 0 by arithmetic.  The eigen oracle
    starts from a random vector with weight across the parity sectors, so
    its small [rho, Pi] is a result: a parity-breaking H shows there."""
    checks = []
    cases = (
        ("ring2-g2.4", (1, 2), 4,
         ModelParams.resonant(u=40.0, j_hop=20.0, g=2.4)),
        ("site-g12", 1, 12, ModelParams(delta=-20.0, u=40.0, g=12.0,
                                        j_hop=0.0)),
    )
    for tag, size, n_max, params in cases:
        geom = geometry_from_size(size)
        fock = FockSpace(n_max)
        h = build_hamiltonian(params, geom, fock)
        jumps = build_jump_operators(params, geom, fock)
        pi = parity_op(fock, geom.n_sites)
        # one sector of every state: in the sectors the kernel finds, rho
        # commutes with Pi by construction and the check would test nothing
        res = steady_state_direct(h, jumps, parity=np.ones(h.shape[0]))
        eigen = steady_state_eigen(vectorize_lindbladian(h, jumps))
        for solver, rho in (("", res.rho), (" eigen", eigen.rho)):
            comm = pi @ rho.mat - rho.mat @ pi
            checks.append(_check("%s%s [rho,Pi]" % (tag, solver),
                                 float(np.max(np.abs(comm))), SYMMETRY_TOL))
        p = parity_expectation(res.rho, pi)
        checks.append(_check("%s parity in [-1,1]" % tag,
                             max(abs(p) - 1.0, 0.0), 1e-12))
        s = von_neumann_entropy(res.rho)
        bound = np.log(res.rho.dim)
        checks.append(_check("%s entropy in [0, log D]" % tag,
                             max(-s, s - bound, 0.0), 1e-12))
    return _group("steady_symmetry", checks)


def validate_suite():
    """Run every group; returns a JSON-ready report dict."""
    groups = [
        solver_agreement_group(),
        corner_exactness_group(),
        spin_identity_group(),
        mapping_group(),
        steady_symmetry_group(),
    ]
    return {
        "passed": all(g["passed"] for g in groups),
        "groups": {g["name"]: g for g in groups},
    }
