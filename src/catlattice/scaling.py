"""Finite-size scaling of parity curves.

Rescale sweep data with fixed Ising exponents, locate the crossing point
of the rescaled curves, score the quality of the data collapse, and fit
the entropy-peak power law max(S) ~ N^kappa.

Sweep-store rows go straight into one curve per size label.  A label is
read by lattice.geometry_from_size, so "4", "1x4" and "4x1" are all a
4-site ring; N is its site count.  Exponents are inputs, never fit
parameters.  The 2D lattice uses the classical 3D Ising pair and the 1D
array the classical 2D Ising pair; the linear size is L = sqrt(N) in 2D
and L = N in 1D.

The monotone cubic, the root refinement and the least-squares spline are
short numpy functions here, matching scipy's PchipInterpolator, brentq and
LSQUnivariateSpline, so that importing the package loads no scipy
interpolate or optimize.  A sort and _quantiles stand in for np.median,
np.percentile and np.quantile, which load numpy.ma.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .lattice import geometry_from_size

# (beta, nu) presets keyed by lattice dimensionality
EXPONENTS_2D = (0.32642, 0.62997)
EXPONENTS_1D = (0.125, 1.0)


def exponents_for_dimension(dim):
    if dim == 1:
        return EXPONENTS_1D
    if dim == 2:
        return EXPONENTS_2D
    raise ValueError("dimensionality must be 1 or 2, got %r" % (dim,))


class ScalingDataset:
    """Parity/entropy curves per lattice size with an exponent set attached.

    rows are sweep-store rows (dicts with the CSV column names).  curves is
    {size_label: (L, G array, parity array, entropy array)} sorted by L, with
    G deduplicated (last row wins, so resumed sweeps override).  Rows flagged
    unconverged are left out of every fit unless include_unconverged is set.
    """

    def __init__(self, rows, dimensionality, beta=None, nu=None,
                 include_unconverged=False):
        if dimensionality not in (1, 2):
            raise ValueError("dimensionality must be 1 or 2")
        if (beta is None) != (nu is None):
            raise ValueError("give both beta and nu or neither")
        if beta is None:
            beta, nu = exponents_for_dimension(dimensionality)
        self.dimensionality = int(dimensionality)
        self.beta = float(beta)
        self.nu = float(nu)
        groups = {}
        for r in rows:
            if include_unconverged or _as_bool(r.get("converged", True)):
                groups.setdefault(str(r["size"]), {})[
                    float(r["G_over_gamma"])] = r
        curves = {}
        for label, by_g in groups.items():
            gs = np.array(sorted(by_g))
            n = geometry_from_size(label).n_sites
            L = float(n) if dimensionality == 1 else float(np.sqrt(n))
            curves[label] = (L, gs,
                             np.array([float(by_g[g]["parity"]) for g in gs]),
                             np.array([float(by_g[g]["entropy"]) for g in gs]))
        self.curves = dict(sorted(curves.items(), key=lambda kv: kv[1][0]))


def _as_bool(v):
    if isinstance(v, str):
        return v.strip().lower() in ("1", "true", "yes")
    return bool(v)


@dataclass
class CollapseResult:
    g_c: float
    uncertainty: float | None  # None from one crossing: no spread to measure
    residual: float | None
    crossings: list          # (label_a, label_b, g) triples
    master_x: np.ndarray
    master_y: np.ndarray
    beta: float
    nu: float
    dimensionality: int

    def to_dict(self):
        return {
            "g_c": self.g_c,
            "uncertainty": self.uncertainty,
            "residual": self.residual,
            "crossings": [
                {"pair": [a, b], "g": g} for a, b, g in self.crossings
            ],
            "master_curve": {
                "x": [float(v) for v in self.master_x],
                "y": [float(v) for v in self.master_y],
            },
            "exponents": {"beta": self.beta, "nu": self.nu},
            "dimensionality": self.dimensionality,
        }

    def estimate(self, digits):
        """G_c and its uncertainty as text, each to digits decimals:
        "5.20 +- 0.80", or "3.74 +- undefined (one crossing)"."""
        unc = ("undefined (one crossing)" if self.uncertainty is None
               else "%.*f" % (digits, self.uncertainty))
        return "%.*f +- %s" % (digits, self.g_c, unc)


def rescale(ds, g_c):
    """{label: (x, y, L)} with x = (G - G_c) L^{1/nu}, y = Pi L^{beta/nu}.

    Pure arithmetic, no fitting.
    """
    out = {}
    for label, (L, gs, par, _) in ds.curves.items():
        x = (gs - g_c) * L ** (1.0 / ds.nu)
        y = par * L ** (ds.beta / ds.nu)
        out[label] = (x, y, L)
    return out


def _pchip(x, y):
    """Monotone cubic through (x, y): scipy's PchipInterpolator rule.

    An interior slope is the weighted harmonic mean of its two secants, or
    zero where they differ in sign or one is flat.  An end slope is the
    three-point one-sided estimate, zeroed if its sign is not the end
    secant's and clamped to 3x that secant where the first two secants
    differ in sign.  Two points give the line.  Returns a function that
    evaluates the cubic Hermite pieces; past either end it continues the
    end piece.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.full(len(x), m[0])
    if len(x) > 2:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        ok = np.sign(m[:-1]) * np.sign(m[1:]) > 0
        d[1:-1] = 0.0
        d[1:-1][ok] = 1.0 / ((w1[ok] / m[:-1][ok] + w2[ok] / m[1:][ok])
                             / (w1[ok] + w2[ok]))
        for end, h0, h1, m0, m1 in ((0, h[0], h[1], m[0], m[1]),
                                    (-1, h[-1], h[-2], m[-1], m[-2])):
            e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            if np.sign(e) != np.sign(m0):
                e = 0.0
            elif np.sign(m0) != np.sign(m1) and abs(e) > 3 * abs(m0):
                e = 3 * m0
            d[end] = e
    t = (d[:-1] + d[1:] - 2 * m) / h
    c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]

    def f(g):
        i = np.clip(np.searchsorted(x, g, side="right") - 1, 0, len(x) - 2)
        s = g - x[i]
        return c3[i] + c2[i] * s + c1[i] * (s * s) + c0[i] * (s * s * s)
    return f


def _refine_root(f, a, b, fa, fb):
    """Root of f between a and b, where fa = f(a) and fb = f(b) differ in sign.

    Illinois regula falsi: secant steps that keep the root bracketed, with
    the kept end's value halved each time the same end is kept twice in a
    row.  It stops once the bracket is no wider than 4 eps |x|, tighter
    than brentq's default 2e-12 + 4 eps |x|, or where f is exactly zero.
    """
    for _ in range(200):
        if abs(b - a) <= 4 * np.finfo(float).eps * abs(b):
            break
        c = b - fb * (b - a) / (fb - fa)
        fc = f(c)
        if fc == 0.0:
            return c
        if fc * fb < 0:
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = c, fc
    return b


def _quantiles(s, qs):
    """np.quantile(s, qs) of the sorted array s, bit for bit: numpy's
    'linear' rule, a + d t, or b - d (1 - t) when t >= 0.5."""
    v = (len(s) - 1) * np.asarray(qs, dtype=float)
    i = np.floor(v).astype(int)
    t = v - i
    a, b = s[i], s[np.minimum(i + 1, len(s) - 1)]
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def find_crossing(ds):
    """Crossing point of the rescaled parity curves.

    Each size's y(G) = Pi(G) L^{beta/nu} is interpolated with a monotone
    cubic (_pchip); for every size pair the difference is bracketed on a
    grid of 512 points and each bracket refined by Illinois regula falsi
    (_refine_root), at least as tightly as brentq would.  G_c is the median
    of the pairwise crossings and the uncertainty their interquartile
    range, None when there is one crossing (one size pair that crosses
    once): a single value has no spread, and 0 would claim one.  Pairs whose
    curves never cross in the common G window are skipped with a warning;
    if every pair is skipped the search fails.
    """
    curves = ds.curves
    labels = list(curves)
    if len(labels) < 2:
        raise ValueError("need at least 2 sizes to locate a crossing")
    for label, (L, gs, par, _) in curves.items():
        if len(gs) < 4:
            raise ValueError("size %s has %d G-points; need >= 4"
                             % (label, len(gs)))
    interps = {}
    for label, (L, gs, par, _) in curves.items():
        interps[label] = (_pchip(gs, par * L ** (ds.beta / ds.nu)),
                          gs[0], gs[-1])

    roots = []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            la, lb = labels[i], labels[j]
            fa, alo, ahi = interps[la]
            fb, blo, bhi = interps[lb]
            lo, hi = max(alo, blo), min(ahi, bhi)
            if hi <= lo:
                warnings.warn("sizes %s/%s share no G window; pair skipped"
                              % (la, lb))
                continue
            grid = np.linspace(lo, hi, 512)
            diff = fa(grid) - fb(grid)
            if np.max(np.abs(diff)) < 1e-12:
                warnings.warn("sizes %s/%s coincide; no unique crossing"
                              % (la, lb))
                continue
            found = False
            for k in range(len(grid) - 1):
                d0, d1 = diff[k], diff[k + 1]
                if d0 == 0.0:
                    roots.append((la, lb, float(grid[k])))
                    found = True
                elif d0 * d1 < 0:
                    g = _refine_root(lambda t: fa(t) - fb(t),
                                     grid[k], grid[k + 1], d0, d1)
                    roots.append((la, lb, float(g)))
                    found = True
            if diff[-1] == 0.0:
                roots.append((la, lb, float(grid[-1])))
                found = True
            if not found:
                warnings.warn("sizes %s/%s never cross in G window [%g, %g]"
                              % (la, lb, lo, hi))
    if not roots:
        raise RuntimeError("no size pair produced a crossing; "
                           "rescaled curves do not intersect")

    values = np.sort([g for _, _, g in roots])
    n = len(values)
    g_c = float((values[(n - 1) // 2] + values[n // 2]) / 2)
    unc = None
    if n > 1:
        q25, q75 = _quantiles(values, (0.25, 0.75))
        unc = float(q75 - q25)

    try:
        residual = collapse_quality(ds, g_c)
    except ValueError:
        residual = None

    tabs = rescale(ds, g_c)
    xs = np.concatenate([t[0] for t in tabs.values()])
    ys = np.concatenate([t[1] for t in tabs.values()])
    order = np.argsort(xs)
    return CollapseResult(
        g_c=g_c, uncertainty=unc, residual=residual, crossings=roots,
        master_x=xs[order], master_y=ys[order],
        beta=ds.beta, nu=ds.nu, dimensionality=ds.dimensionality,
    )


def _lsq_cubic_spline(x, y, knots):
    """Values at x of the least-squares cubic spline with these interior knots.

    x and the knots increase strictly, the knots within [x[0], x[-1]]; the
    knot vector is clamped, with four copies of each end of x.  The design
    matrix holds the B-splines at x from the Cox-de Boor recursion.  A rank
    below the coefficient count (some B-splines without the abscissae the
    Schoenberg-Whitney conditions ask for, a knot on an end among them)
    raises ValueError, where FITPACK refuses the same knots.
    """
    t = np.concatenate(([x[0]] * 4, knots, [x[-1]] * 4))
    last = np.clip(np.searchsorted(t, x, side="right") - 1, 3, len(t) - 5)
    basis = (np.arange(len(t) - 1) == last[:, None]).astype(float)
    for d in (1, 2, 3):
        span = t[d:] - t[:-d]
        inv = np.divide(1.0, span, out=np.zeros_like(span), where=span > 0)
        w = (x[:, None] - t[:-d]) * inv
        basis = w[:, :-1] * basis[:, :-1] + (1.0 - w[:, 1:]) * basis[:, 1:]
    coef, _, rank, _ = np.linalg.lstsq(basis, y, rcond=None)
    if rank < basis.shape[1]:
        raise ValueError("knots violate the Schoenberg-Whitney conditions")
    return basis @ coef


def collapse_quality(ds, g_c):
    """Mean squared deviation from a pooled master spline over y-variance.

    All rescaled points are pooled and fit by one least-squares cubic
    spline (_lsq_cubic_spline) with up to 8 interior knots at x-quantiles,
    dropping a knot while the knots leave the fit underdetermined; with
    none left the fit is a cubic polynomial.  The normalized residual is
    zero for a perfect collapse and grows as the curves splay apart.  A
    single-size dataset collapses trivially and scores zero.
    """
    tabs = rescale(ds, g_c)
    if len(tabs) == 1:
        warnings.warn("single-size dataset: collapse residual trivially 0")
        return 0.0
    x = np.concatenate([t[0] for t in tabs.values()])
    y = np.concatenate([t[1] for t in tabs.values()])
    if len(x) < 8:
        raise ValueError("need >= 8 pooled points, have %d" % len(x))
    order = np.argsort(x)
    x, y = x[order], y[order]
    # exact-duplicate x would break the spline; average them
    ux, inv, counts = np.unique(x, return_inverse=True, return_counts=True)
    if len(ux) < len(x):
        uy = np.bincount(inv, weights=y) / counts
        x, y = ux, uy
    var = float(np.var(y))
    if var == 0.0:
        return 0.0
    k = 3
    n_knots = min(8, max(len(x) - k - 1, 0))
    while n_knots >= 0:
        if n_knots == 0:
            coeff = np.polyfit(x, y, min(k, len(x) - 1))
            fit = np.polyval(coeff, x)
            break
        qs = (np.arange(n_knots) + 1.0) / (n_knots + 1.0)
        knots = np.sort(_quantiles(x[1:-1], qs))
        knots = knots[np.r_[True, knots[1:] != knots[:-1]]]
        try:
            fit = _lsq_cubic_spline(x, y, knots)
        except ValueError:
            n_knots -= 1
            continue
        break
    return float(np.mean((y - fit) ** 2) / var)


@dataclass
class EntropyPeakFit:
    kappa: float
    prefactor: float
    r_squared: float
    peaks: dict = field(default_factory=dict)   # label -> (N, S_max, G_peak)
    underdetermined: bool = False

    def to_dict(self):
        return {
            "kappa": self.kappa,
            "prefactor": self.prefactor,
            "r_squared": self.r_squared,
            "peaks": {lbl: {"n_sites": n, "s_max": s, "g_peak": g}
                      for lbl, (n, s, g) in self.peaks.items()},
            "underdetermined": self.underdetermined,
        }


def _quadratic_peak(gs, ss):
    """Peak height and location by a parabola through the top 3 samples.

    Falls back to the raw maximum at a grid edge or if the local fit is
    not concave.
    """
    k = int(np.argmax(ss))
    if k == 0 or k == len(ss) - 1:
        return float(ss[k]), float(gs[k])
    coeff = np.polyfit(gs[k - 1:k + 2], ss[k - 1:k + 2], 2)
    if coeff[0] >= 0:
        return float(ss[k]), float(gs[k])
    g_peak = -coeff[1] / (2.0 * coeff[0])
    if not (gs[k - 1] <= g_peak <= gs[k + 1]):
        return float(ss[k]), float(gs[k])
    return float(np.polyval(coeff, g_peak)), float(g_peak)


def fit_entropy_peak(ds):
    """Power law max(S) ~ N^kappa from per-size entropy maxima.

    Peaks are located by 3-point quadratic interpolation around the
    largest sample (sweep grids are coarse), then log max(S) is fit
    against log N by least squares.  Two sizes determine the line exactly
    and are flagged under-determined; non-monotone peaks simply lower r².
    """
    curves = ds.curves
    if len(curves) < 2:
        raise ValueError("need >= 2 sizes for a power-law fit")
    peaks = {}
    for label, (L, gs, _, ent) in curves.items():
        n = geometry_from_size(label).n_sites
        s_max, g_peak = _quadratic_peak(gs, ent)
        if s_max <= 0:
            raise ValueError("size %s has non-positive entropy peak" % label)
        peaks[label] = (n, s_max, g_peak)
    ns = np.array([p[0] for p in peaks.values()], dtype=float)
    ss = np.array([p[1] for p in peaks.values()])
    coeff, res = np.polyfit(np.log(ns), np.log(ss), 1, full=True)[:2]
    kappa = float(coeff[0])
    prefactor = float(np.exp(coeff[1]))
    logs = np.log(ss)
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    ss_res = float(res[0]) if len(res) else 0.0
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return EntropyPeakFit(kappa=kappa, prefactor=prefactor, r_squared=r2,
                          peaks=peaks, underdetermined=len(curves) == 2)
