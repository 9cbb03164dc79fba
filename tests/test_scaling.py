import json

import numpy as np
import pytest
from scipy.interpolate import LSQUnivariateSpline, PchipInterpolator
from scipy.optimize import brentq

from catlattice.scaling import (EXPONENTS_1D, EXPONENTS_2D, ScalingDataset,
                                _lsq_cubic_spline, _pchip, _refine_root,
                                collapse_quality, exponents_for_dimension,
                                find_crossing, fit_entropy_peak, rescale)
from catlattice.store import SweepStore, read_rows

G_C_TRUE = 1.2
BETA_2D, NU_2D = EXPONENTS_2D


def master_curve(x):
    # smooth monotone scaling function, arbitrary but fixed
    return 0.85 / (1.0 + np.exp(1.6 * x)) + 0.05


def synthetic_rows(g_c=G_C_TRUE, beta=BETA_2D, nu=NU_2D, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    gs = np.linspace(0.6, 1.8, 25)
    for lab, n in (("2x2", 4), ("3x3", 9), ("4x4", 16), ("5x5", 25)):
        L = np.sqrt(n)
        for g in gs:
            x = (g - g_c) * L ** (1.0 / nu)
            par = master_curve(x) * L ** (-beta / nu)
            par += noise * rng.standard_normal()
            ent = 0.3 + 0.05 * n - 0.4 * (g - g_c) ** 2
            rows.append({"size": lab, "G_over_gamma": g, "parity": par,
                         "entropy": ent, "converged": True})
    return rows


def test_exponent_tables():
    assert exponents_for_dimension(2) == EXPONENTS_2D == (0.32642, 0.62997)
    assert exponents_for_dimension(1) == EXPONENTS_1D == (0.125, 1.0)
    with pytest.raises(ValueError):
        exponents_for_dimension(3)


def test_dataset_curves_sorted_and_deduped():
    rows = [
        {"size": "3x3", "G_over_gamma": 1.0, "parity": 0.4, "entropy": 0.1},
        {"size": "2x2", "G_over_gamma": 1.0, "parity": 0.5, "entropy": 0.2},
        {"size": "2x2", "G_over_gamma": 0.5, "parity": 0.9, "entropy": 0.05},
        # duplicate G on 2x2, later row wins
        {"size": "2x2", "G_over_gamma": 1.0, "parity": 0.55, "entropy": 0.21},
    ]
    ds = ScalingDataset(rows, dimensionality=2)
    cur = ds.curves
    assert list(cur) == ["2x2", "3x3"]
    L, gs, par, ent = cur["2x2"]
    assert L == pytest.approx(2.0)
    assert gs.tolist() == [0.5, 1.0]
    assert par.tolist() == [0.9, 0.55]


def test_unconverged_rows_excluded_by_default():
    rows = synthetic_rows()
    rows[3]["converged"] = False

    def n_points(ds):
        return sum(len(gs) for _, gs, _, _ in ds.curves.values())

    assert n_points(ScalingDataset(rows, dimensionality=2)) == len(rows) - 1
    assert n_points(ScalingDataset(rows, dimensionality=2,
                                   include_unconverged=True)) == len(rows)


def test_csv_store_leaves_out_unconverged_point(tmp_path):
    # a CSV store reads converged back as the text "True" or "False"
    store = SweepStore(tmp_path / "s.jsonl")
    for g in (0.5, 1.0, 1.5):
        store.append({"size": "2", "G_over_gamma": g, "parity": 0.5,
                      "entropy": 0.3, "n_per_site": 0.7, "method": "direct",
                      "M": 81, "residual": 1e-12, "converged": g != 1.0,
                      "config_hash": "c0ffee"})
    rows = read_rows(store.to_csv())
    assert [r["converged"] for r in rows] == ["True", "False", "True"]
    _, gs, _, _ = ScalingDataset(rows, dimensionality=1).curves["2"]
    assert gs.tolist() == [0.5, 1.5]
    _, gs, _, _ = ScalingDataset(rows, dimensionality=1,
                                 include_unconverged=True).curves["2"]
    assert gs.tolist() == [0.5, 1.0, 1.5]


def test_rescale_value_and_inverse():
    rows = [{"size": "2x2", "G_over_gamma": 1.5, "parity": 0.415,
             "entropy": 0.0}]
    ds = ScalingDataset(rows, dimensionality=2)
    curves = rescale(ds, g_c=G_C_TRUE)
    x, y, L = curves["2x2"]
    # independent hand evaluation of the two scaling transforms
    assert x[0] == pytest.approx((1.5 - 1.2) * 2.0 ** (1.0 / NU_2D), rel=1e-12)
    assert y[0] == pytest.approx(0.415 * 2.0 ** (BETA_2D / NU_2D), rel=1e-12)
    # the transforms invert with the returned linear size
    assert x[0] * L ** (-1.0 / NU_2D) + G_C_TRUE == pytest.approx(1.5,
                                                                  abs=1e-13)
    assert y[0] * L ** (-BETA_2D / NU_2D) == pytest.approx(0.415, abs=1e-13)


def test_find_crossing_recovers_synthetic_g_c():
    ds = ScalingDataset(synthetic_rows(), dimensionality=2)
    res = find_crossing(ds)
    assert res.g_c == pytest.approx(G_C_TRUE, abs=1e-3)
    assert res.uncertainty < 1e-3
    assert len(res.crossings) == 6          # all pairs of four sizes
    assert res.residual is not None and res.residual < 1e-4


def test_one_crossing_has_no_uncertainty():
    # two sizes cross once: G_c is that crossing, and with no spread to
    # measure the uncertainty is undefined, not 0
    rows = [r for r in synthetic_rows() if r["size"] in ("2x2", "4x4")]
    res = find_crossing(ScalingDataset(rows, dimensionality=2))
    assert len(res.crossings) == 1
    assert res.g_c == pytest.approx(G_C_TRUE, abs=1e-3)
    assert res.uncertainty is None
    assert json.loads(json.dumps(res.to_dict()))["uncertainty"] is None
    assert res.estimate(2) == "1.20 +- undefined (one crossing)"
    assert find_crossing(ScalingDataset(synthetic_rows(), dimensionality=2)
                         ).estimate(2) == "1.20 +- 0.00"


def test_collapse_quality_discriminates_exponents():
    ds = ScalingDataset(synthetic_rows(), dimensionality=2)
    good = collapse_quality(ds, g_c=G_C_TRUE)
    bad_ds = ScalingDataset(synthetic_rows(), dimensionality=2,
                            beta=2.0 * BETA_2D, nu=NU_2D)
    bad = collapse_quality(bad_ds, g_c=G_C_TRUE)
    assert bad / max(good, 1e-300) >= 10.0


def test_find_crossing_shift_equivariance():
    shift = 0.35
    res0 = find_crossing(ScalingDataset(synthetic_rows(), dimensionality=2))
    res1 = find_crossing(ScalingDataset(synthetic_rows(g_c=G_C_TRUE + shift),
                                        dimensionality=2))
    assert res1.g_c - res0.g_c == pytest.approx(shift, abs=1e-6)


def test_no_crossing_raises():
    # identical parity data for two labels of the same ring ("4" and "1x4")
    # can never produce a transverse crossing after rescaling
    rows = [{"size": lab, "G_over_gamma": g, "parity": 0.5, "entropy": 0.0}
            for lab in ("4", "1x4") for g in np.linspace(0.5, 2.0, 12)]
    ds = ScalingDataset(rows, dimensionality=1)
    with pytest.raises(RuntimeError):
        find_crossing(ds)


def test_collapse_needs_enough_points():
    rows = [{"size": "2x2", "G_over_gamma": 1.0, "parity": 0.5,
             "entropy": 0.0},
            {"size": "3x3", "G_over_gamma": 1.0, "parity": 0.4,
             "entropy": 0.0}]
    ds = ScalingDataset(rows, dimensionality=2)
    with pytest.raises(ValueError):
        collapse_quality(ds, g_c=1.0)


def test_collapse_single_size_warns():
    rows = [r for r in synthetic_rows() if r["size"] == "2x2"]
    ds = ScalingDataset(rows, dimensionality=2)
    with pytest.warns(UserWarning):
        q = collapse_quality(ds, g_c=G_C_TRUE)
    assert q == 0.0


def test_collapse_result_round_trip(tmp_path):
    ds = ScalingDataset(synthetic_rows(), dimensionality=2)
    res = find_crossing(ds)
    back = json.loads(json.dumps(res.to_dict()))
    assert back["g_c"] == res.g_c
    assert back["exponents"]["beta"] == res.beta
    assert [(c["pair"][0], c["pair"][1], c["g"])
            for c in back["crossings"]] == res.crossings
    np.testing.assert_allclose(back["master_curve"]["x"], res.master_x)


@pytest.mark.parametrize("kappa", [0.29, 0.44, 0.80])
def test_entropy_peak_exponent_recovery(kappa):
    # planted power law in the site count, max(S) = 0.7 N^kappa
    rows = []
    gs = np.linspace(0.8, 1.6, 17)
    for lab, n in (("2x2", 4), ("3x3", 9), ("4x4", 16), ("5x5", 25)):
        peak = 0.7 * n ** kappa
        for g in gs:
            ent = peak - 0.6 * (g - G_C_TRUE) ** 2
            rows.append({"size": lab, "G_over_gamma": g, "parity": 0.5,
                         "entropy": ent, "converged": True})
    ds = ScalingDataset(rows, dimensionality=2)
    fit = fit_entropy_peak(ds)
    assert fit.kappa == pytest.approx(kappa, abs=5e-3)
    assert fit.prefactor == pytest.approx(0.7, abs=5e-3)
    assert fit.r_squared > 0.9999
    assert not fit.underdetermined


def test_entropy_peak_constant_gives_zero_exponent():
    rows = []
    for lab in ("2x2", "3x3", "4x4"):
        for g in (0.9, 1.0, 1.1):
            rows.append({"size": lab, "G_over_gamma": g, "parity": 0.5,
                         "entropy": 0.42, "converged": True})
    fit = fit_entropy_peak(ScalingDataset(rows, dimensionality=2))
    assert fit.kappa == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_entropy_peak_two_sizes_flagged():
    rows = [r for r in synthetic_rows() if r["size"] in ("2x2", "3x3")]
    ds = ScalingDataset(rows, dimensionality=2)
    fit = fit_entropy_peak(ds)
    assert fit.underdetermined


# the numpy helpers against the scipy routines they stand in for

PCHIP_CASES = {
    "two_points": ([0.0, 1.5], [1.0, 3.0]),
    "three_points": ([0.0, 1.0, 3.0], [0.0, 2.0, 1.0]),
    "flat_run": ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                 [1.0, 1.0, 1.0, 2.0, 3.0, 3.0]),
    "slope_sign_changes": ([0.0, 0.5, 1.7, 2.0, 3.1, 4.0],
                           [0.0, 1.0, -0.5, 2.0, 2.5, -1.0]),
    # the three-point end estimate has the wrong sign, so it is zeroed
    "end_sign_zeroed": ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 6.0, 7.0]),
    # the secants change sign and the estimate exceeds 3x the end secant
    "end_clamped_3x": ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, -9.0, -8.0]),
    "random": (np.cumsum(np.random.default_rng(4).uniform(0.1, 2.0, 12)),
               np.random.default_rng(5).standard_normal(12)),
}


@pytest.mark.parametrize("case", sorted(PCHIP_CASES))
def test_pchip_matches_scipy(case):
    x, y = (np.asarray(v, dtype=float) for v in PCHIP_CASES[case])
    # the data points, the interior, and past both ends
    g = np.concatenate([x, np.linspace(x[0] - 1.0, x[-1] + 1.0, 301)])
    ref = PchipInterpolator(x, y)(g)
    got = _pchip(x, y)(g)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert _pchip(x, y)(float(x[1])) == pytest.approx(y[1], abs=1e-15)


def crossing_brackets():
    """(f, a, b, f(a), f(b)) for each sign change of a Pchip difference."""
    rng = np.random.default_rng(8)
    out = []
    for _ in range(40):
        x = np.sort(rng.uniform(0.0, 8.0, rng.integers(4, 12)))
        fa = _pchip(x, np.cumsum(rng.uniform(-1.0, 2.0, len(x))))
        fb = _pchip(x, np.cumsum(rng.uniform(-1.0, 2.0, len(x))))
        grid = np.linspace(x[0], x[-1], 512)
        diff = fa(grid) - fb(grid)
        for k in np.nonzero(diff[:-1] * diff[1:] < 0)[0]:
            out.append((lambda t, fa=fa, fb=fb: fa(t) - fb(t),
                        grid[k], grid[k + 1], diff[k], diff[k + 1]))
    return out


def test_refine_root_matches_brentq():
    brackets = crossing_brackets()
    assert len(brackets) >= 40
    ours = ref = 0
    for f, a, b, fa, fb in brackets:
        calls = []

        def counted(t, f=f):
            calls.append(t)
            return f(t)
        root = _refine_root(counted, a, b, fa, fb)
        ours += len(calls)
        g, info = brentq(f, a, b, full_output=True)
        ref += info.function_calls
        assert a <= root <= b
        assert abs(root - g) <= 2e-12
    # Illinois steps converge superlinearly, as brentq's do
    assert ours <= 1.5 * ref


def test_refine_root_stops_on_an_exact_zero():
    calls = []

    def f(t):
        calls.append(t)
        return t - 0.5
    assert _refine_root(f, 0.0, 2.0, -0.5, 1.5) == 0.5
    assert calls == [0.5]


def rescaled_pool(g_c):
    """Pooled, sorted rescaled points of the synthetic rows, as collapse
    quality pools them."""
    tabs = rescale(ScalingDataset(synthetic_rows(noise=0.01),
                                  dimensionality=2), g_c)
    x = np.concatenate([t[0] for t in tabs.values()])
    y = np.concatenate([t[1] for t in tabs.values()])
    order = np.argsort(x)
    return x[order], y[order]


def quantile_knots(x, n_knots):
    qs = (np.arange(n_knots) + 1.0) / (n_knots + 1.0)
    return np.unique(np.quantile(x[1:-1], qs))


def spline_case(case):
    x_far = np.array([0.02, 0.08, 0.36, 0.47, 0.83, 3.93, 3.95])
    if case in ("rescaled", "rescaled_off_g_c"):
        x, y = rescaled_pool(G_C_TRUE if case == "rescaled" else 1.4)
        return x, y, quantile_knots(x, 8)
    if case == "clustered_accepted":
        x = np.concatenate([np.linspace(0.0, 1e-3, 30),
                            np.linspace(0.5, 4.0, 8)])
        return x, np.tanh(x), quantile_knots(x, 8)
    if case == "empty_knot_interval":
        # no abscissa between the knots 2 and 3: a B-spline sees none
        x = np.concatenate([np.linspace(0.0, 1.0, 20), [3.5, 4.0]])
        return x, np.sin(x), np.array([1.0, 2.0, 3.0])
    if case == "shared_abscissae":
        # every B-spline sees data, but the last three share two points
        return x_far, np.sin(x_far), np.array([1.0, 2.0, 3.0])
    if case == "knot_on_end":
        return x_far, np.sin(x_far), np.array([1.0, 3.95])
    raise KeyError(case)


@pytest.mark.parametrize("case", ["rescaled", "rescaled_off_g_c",
                                  "clustered_accepted", "empty_knot_interval",
                                  "shared_abscissae", "knot_on_end"])
def test_lsq_spline_matches_scipy(case):
    x, y, knots = spline_case(case)
    try:
        ref = LSQUnivariateSpline(x, y, knots, k=3)(x)
    except ValueError:
        ref = None
    assert (ref is None) == (case in ("empty_knot_interval",
                                      "shared_abscissae", "knot_on_end"))
    if ref is None:
        with pytest.raises(ValueError):
            _lsq_cubic_spline(x, y, knots)
    else:
        got = _lsq_cubic_spline(x, y, knots)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
