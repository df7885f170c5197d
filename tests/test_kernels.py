"""Property tests of the water-level and Dinkelbach kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eeiwfa import _kernels

unit = st.floats(-1.0, 1.0)
# Values with many ties, including several copies of the largest one.
tied = st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 1.0, 3.0])


def _check_water_level(vals, p):
    theta, powers = _kernels.water_level(vals, p)
    tol = 1e-12 * max(1.0, p)
    assert powers.shape == vals.shape
    assert np.all(powers >= 0.0)
    assert abs(powers.sum() - p) <= tol
    # KKT: the active entries share the level theta, the others are dry.
    active = powers > 0.0
    assert active.any()
    np.testing.assert_allclose(powers[active] - vals[active], theta,
                               rtol=1e-12, atol=tol)
    assert np.all(vals[~active] + theta <= 0.0)


@settings(deadline=None)
@given(st.lists(unit, min_size=1, max_size=8), st.floats(0.1, 100.0),
       st.floats(-12.0, 12.0))
def test_water_level_sum_and_kkt_across_magnitudes(x, y, exponent):
    # Entries and budget share one scale from 1e-12 to 1e12: the trace can
    # only be as exact as the entries it sums, so p is kept comparable to them.
    scale = 10.0 ** exponent
    _check_water_level(scale * np.array(x), scale * y)


@settings(deadline=None)
@given(st.lists(tied, min_size=1, max_size=8), st.floats(1e-6, 1e3))
def test_water_level_sum_and_kkt_with_ties(vals, p):
    _check_water_level(np.array(vals), p)


@given(unit, st.floats(1e-12, 1e12))
def test_water_level_single_entry_takes_the_whole_budget(v, p):
    theta, powers = _kernels.water_level(np.array([v]), p)
    assert theta == pytest.approx(p - v, rel=1e-12, abs=1e-12)
    assert powers[0] == pytest.approx(p, rel=1e-12)


@given(st.lists(unit, min_size=1, max_size=8), st.sampled_from([0.0, -1.0]))
def test_water_level_without_budget_is_dry(vals, p):
    vals = np.array(vals)
    theta, powers = _kernels.water_level(vals, p)
    assert theta == -vals.max()
    assert np.all(powers == 0.0)


@settings(deadline=None)
@given(st.integers(1, 8),
       st.lists(st.tuples(st.lists(tied, min_size=8, max_size=8),
                          st.sampled_from([-1.0, 0.0, 1e-9, 0.5, 2.0, 40.0])),
                min_size=1, max_size=6))
def test_stacked_water_level_equals_one_row_at_a_time(n, rows):
    # Rows with ties, dry rows (p <= 0) and n = 1 all take the same path.
    vals = np.array([v[:n] for v, _ in rows])
    p = np.array([b for _, b in rows])
    theta, powers = _kernels.water_level(vals, p)
    assert theta.shape == p.shape and powers.shape == vals.shape
    for i in range(len(rows)):
        t1, p1 = _kernels.water_level(vals[i], p[i])
        assert isinstance(t1, float)
        assert t1 == theta[i]
        assert np.array_equal(p1, powers[i])


def _dinkelbach_oracle(d, psi, rate, trace, eps, max_iters):
    # Plain loop over every gain at every iteration.
    nu_prev = 0.0
    monotone = True
    delta = 2.0 * eps
    iters = 0
    while delta > eps and iters < max_iters:
        nu = rate / (trace + psi)
        if iters > 0 and nu < nu_prev - 1e-12 * max(1.0, abs(nu_prev)):
            monotone = False
        nu_prev = nu
        level = 1.0 / nu
        rate = trace = 0.0
        for g in d:
            if level - 1.0 / g > 0.0:
                trace += level - 1.0 / g
                rate += math.log(g * level)
        delta = abs(rate - nu * (trace + psi))
        iters += 1
    return trace, rate, iters, delta, monotone


@settings(deadline=None)
@given(st.integers(1, 16),
       st.lists(st.tuples(st.lists(st.floats(-3.0, 3.0), min_size=16, max_size=16),
                          st.floats(1e-2, 1e2), st.floats(1e-2, 1e2)),
                min_size=1, max_size=8))
def test_dinkelbach_gains_matches_plain_loop(k, rows):
    # One call on a stack of descending rows: every row matches the plain
    # loop, and the tuple a one-row call returns for it bit for bit.
    D = np.sort(10.0 ** np.array([g[:k] for g, _, _ in rows]), axis=-1)[:, ::-1]
    psi = np.array([c for _, c, _ in rows])
    p0 = np.array([b for _, _, b in rows])
    out = _kernels.dinkelbach_gains(D, psi, p0, 1e-9, 200)
    assert len(out) == len(rows)
    for j, (trace, iters, delta, outcome) in enumerate(out):
        assert _kernels.dinkelbach_gains(D[j:j + 1], psi[j:j + 1], p0[j:j + 1],
                                         1e-9, 200) == [out[j]]
        d = D[j]
        rate0 = float(np.log1p(d * (p0[j] / k)).sum())
        o_trace, o_rate, o_iters, o_delta, o_monotone = _dinkelbach_oracle(
            d, psi[j], rate0, p0[j], 1e-9, 200)
        assert iters == o_iters
        assert outcome == (_kernels.GAP_OPEN if o_delta > 1e-9 else
                           _kernels.SOLVED if o_monotone else _kernels.DECREASED)
        assert trace == pytest.approx(o_trace, rel=1e-9, abs=1e-12)
        assert abs(delta - o_delta) <= 1e-9 * max(1.0, o_rate)
        # The kernel does not return the rate: the last iterate is the
        # waterfilling at its trace, so recompute the rate from there.
        _, q = _kernels.water_level(-1.0 / d, trace)
        assert float(np.log1p(d * q).sum()) == pytest.approx(o_rate, rel=1e-9)


# --- exact oracle for the unconstrained power -------------------------------------
#
# On k active modes (gains sorted descending, s_k = sum 1/d_i, c_k = sum log d_i)
# the waterfilling at level mu has trace p = k mu - s_k and rate
# k log mu + c_k, so EE stationarity, k + (Psi - s_k) / mu = k log mu + c_k,
# is w e^w = z for w = log mu + c_k/k - 1 and z = ((Psi - s_k)/k) e^(c_k/k - 1).
# EE is a concave rate over an affine power, so the stationary point of the
# piece whose level brackets it, 1/d_k < mu <= 1/d_(k+1), is the optimum.

def lambert_w0(z):
    """Principal branch of Lambert W (w e^w = z, w >= -1) for z > -1/e, by
    Halley's iteration: started from the branch-point series in
    p = sqrt(2 (e z + 1)) near -1/e and from log1p(z) elsewhere."""
    z = np.asarray(z, dtype=float)
    p = np.sqrt(2.0 * np.maximum(np.e * z + 1.0, 0.0))
    w = np.where(z < -0.25, -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p ** 3,
                 np.log1p(np.maximum(z, -0.25)))
    for _ in range(40):
        ew = np.exp(w)
        f = w * ew - z
        w = w - f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
    return w


def exact_unconstrained_power(d, psi):
    """Unconstrained EE-optimal power over the gains ``d``, in closed form."""
    d = np.sort(np.asarray(d, dtype=float))[::-1]
    k = np.arange(1, d.size + 1)
    s, c = np.cumsum(1.0 / d), np.cumsum(np.log(d))
    z = (psi - s) / k * np.exp(c / k - 1.0)
    # below -1/e the piece has no stationary point (AM-GM allows it for k > 1)
    ok = np.flatnonzero(z > -1.0 / np.e)
    mu = np.exp(lambert_w0(z[ok]) - c[ok] / k[ok] + 1.0)
    upper = np.append(1.0 / d[1:], np.inf)[ok]
    # rounding may put the optimum a hair outside a bracket it sits on
    inside = np.flatnonzero((1.0 / d[ok] < mu * (1 + 1e-12)) & (mu <= upper * (1 + 1e-12)))
    j = inside[0]
    return float(k[ok][j] * mu[j] - s[ok][j])


def energy_efficiency_at(d, psi, p):
    """EE of the waterfilling of power ``p`` > 0 over the gains ``d``."""
    d = np.sort(np.asarray(d, dtype=float))[::-1]
    k = np.arange(1, d.size + 1)
    level = (p + np.cumsum(1.0 / d)) / k
    n = np.flatnonzero(1.0 / d < level)[-1] + 1   # the active modes
    return float(np.log(d[:n] * level[n - 1]).sum()) / (p + psi)


def test_lambert_w0_known_values_and_identity():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(np.e) == pytest.approx(1.0, rel=1e-15)
    assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, rel=1e-15)   # omega
    z = np.concatenate([-1.0 / np.e + np.logspace(-15, -1, 15), np.logspace(-8, 6, 29)])
    w = lambert_w0(z)
    assert np.all(w >= -1.0)
    # w e^w rounds to about (1 + w) ulps of z
    assert np.all(np.abs(w * np.exp(w) - z) <= 1e-15 * (1.0 + np.abs(w)) * np.abs(z))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=8), st.floats(-6.0, 6.0),
       st.floats(-3.0, 3.0))
def test_dinkelbach_power_is_within_its_gap_of_the_exact_optimum(log_gains, log_psi,
                                                                 log_p0):
    # Dinkelbach's gap bounds its ratio: nu* - nu_k <= F(nu_k) / (p* + Psi)
    # <= eps / Psi, and its last iterate's EE is at least nu_k.
    d, psi, p0, eps = np.exp(log_gains), math.exp(log_psi), math.exp(log_p0), 1e-9
    [(p_dk, _, delta, outcome)] = _kernels.dinkelbach_gains(
        np.sort(d)[::-1][None], np.array([psi]), np.array([p0]), eps, 200)
    assert delta <= eps and outcome == _kernels.SOLVED
    p_star = exact_unconstrained_power(d, psi)
    ee_star = energy_efficiency_at(d, psi, p_star)
    gap = ee_star - energy_efficiency_at(d, psi, p_dk)
    rounding = 1e-12 * ee_star
    assert -rounding <= gap <= eps / psi + rounding
    # and p* is a local maximum of the EE
    for t in (1.0 - 1e-3, 1.0 + 1e-3):
        assert energy_efficiency_at(d, psi, t * p_star) <= ee_star + rounding


def test_log1p_sum_adds_left_to_right():
    # From Python 3.12 on, sum() compensates float additions: on this input
    # it gives 1.000000000000001, the correctly rounded sum, where adding
    # left to right absorbs every 1e-16 into the leading 1.0.
    xs = [math.e - 1] + [1e-16] * 10
    assert _kernels._log1p_sum(xs) == 1.0
    assert math.fsum(map(math.log1p, xs)) == 1.000000000000001
