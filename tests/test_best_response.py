import numpy as np
import pytest

from eeiwfa.best_response import (
    BestResponseResult,
    DinkelbachConfig,
    best_response,
    dinkelbach_power,
    projection_best_response,
    waterfill,
)
from eeiwfa.errors import ConvergenceError, InvalidInputError
from eeiwfa.harness import dinkelbach_config
from eeiwfa.linalg import hermitian_evd
from eeiwfa.model import (
    StrategyProfile,
    energy_efficiency,
    generate_scenario,
    reduce_scenario,
    scenario_from_matrices,
    whitened_gram,
)

from conftest import crandn, random_psd
from test_model import scalar_scenario


def scalar_ee_grid_max(g, psi, hi=100.0, coarse=1e-3, fine=1e-6):
    """Grid-search maximizer of ln(1 + g p) / (psi + p) over p in [0, hi].

    The objective is strictly quasi-concave in p, so a coarse pass followed
    by a fine pass around the coarse argmax is exact to the fine step.
    """
    p = np.arange(0.0, hi + coarse, coarse)
    vals = np.log1p(g * p) / (psi + p)
    i = int(np.argmax(vals))
    lo = max(p[i] - 2 * coarse, 0.0)
    p = np.arange(lo, p[i] + 2 * coarse, fine)
    vals = np.log1p(g * p) / (psi + p)
    return float(p[int(np.argmax(vals))])


def waterfill_oracle(d, p):
    """Exact water level by active-set scan over sorted inverse gains."""
    inv = np.sort(1.0 / np.asarray(d, dtype=float))
    n = inv.size
    for k in range(1, n + 1):
        mu = (p + inv[:k].sum()) / k
        if mu > inv[k - 1] and (k == n or mu <= inv[k]):
            return np.maximum(mu - inv, 0.0), mu
    mu = (p + inv.sum()) / n
    return np.maximum(mu - inv, 0.0), mu


# --- waterfilling ----------------------------------------------------------------

def test_waterfill_equal_gains_split():
    out = waterfill(np.eye(2), [2.0, 2.0], 2.0)
    assert np.abs(out - np.eye(2)).max() <= 1e-12


def test_waterfill_two_level_case():
    # d = (1, 0.1), p = 11: both active, mu = (11 + 1 + 10)/2 = 11
    out = waterfill(np.eye(2), [1.0, 0.1], 11.0)
    assert np.abs(out - np.diag([10.0, 1.0])).max() <= 1e-10


def test_waterfill_single_active_channel():
    # d = (1, 0.1), p = 1: mu = 2 < 10 so only the strong channel is active
    out = waterfill(np.eye(2), [1.0, 0.1], 1.0)
    assert np.abs(out - np.diag([1.0, 0.0])).max() <= 1e-12


def test_waterfill_zero_power_and_validation():
    assert np.abs(waterfill(np.eye(2), [1.0, 2.0], 0.0)).max() == 0.0
    with pytest.raises(InvalidInputError):
        waterfill(np.eye(2), [1.0, 0.0], 1.0)
    with pytest.raises(InvalidInputError):
        waterfill(np.eye(2), [1.0, 1.0], -1.0)


def test_waterfill_matches_active_set_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(1, 8))
        d = rng.uniform(0.05, 5.0, size=n)
        p = float(rng.uniform(0.0, 20.0))
        U = np.linalg.qr(crandn(rng, n, n))[0]
        out = waterfill(U, d, p)
        powers, _ = waterfill_oracle(d, p)
        # compare in the eigenbasis wherever gains are distinct
        want = (U * powers[np.argsort(np.argsort(1.0 / d))]) @ U.conj().T
        assert abs(np.trace(out).real - p) <= 1e-12 * max(1.0, p)
        if np.abs(np.subtract.outer(d, d))[~np.eye(n, dtype=bool)].min() > 1e-3 if n > 1 else True:
            assert np.abs(out - want).max() <= 1e-9


# --- Dinkelbach ----------------------------------------------------------------

def test_dinkelbach_scalar_e_minus_one():
    rs = reduce_scenario(scalar_scenario(g=1.0, sigma2=1.0, psi=1.0))
    prof = StrategyProfile.uniform(rs)
    p_u, iters = dinkelbach_power(rs, 0, prof)
    assert abs(p_u - (np.e - 1.0)) <= 1e-7
    assert abs(p_u - scalar_ee_grid_max(1.0, 1.0)) <= 1e-6
    assert 1 <= iters <= 200


@pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("psi", [0.5, 1.0, 2.0])
def test_dinkelbach_scalar_grid_oracle(g, psi):
    rs = reduce_scenario(scalar_scenario(g=g, sigma2=1.0, psi=psi))
    p_u, _ = dinkelbach_power(rs, 0, StrategyProfile.uniform(rs))
    assert abs(p_u - scalar_ee_grid_max(g, psi)) <= 1e-5
    # first-order stationarity: ln(1 + g p) = g (psi + p) / (1 + g p)
    resid = np.log1p(g * p_u) - g * (psi + p_u) / (1.0 + g * p_u)
    assert abs(resid) <= 1e-6


def test_dinkelbach_two_equal_eigenchannels():
    s = scenario_from_matrices([[np.eye(2)]], [np.eye(2)], [100.0], [1.0])
    rs = reduce_scenario(s)
    p_u, _ = dinkelbach_power(rs, 0, StrategyProfile.uniform(rs))
    # per-channel problem: maximize ln(1 + u) / (0.5 + u), total = 2 u*
    u_star = scalar_ee_grid_max(1.0, 0.5, hi=50.0)
    assert abs(p_u - 2.0 * u_star) <= 1e-5
    br = best_response(rs, 0, StrategyProfile.uniform(rs))
    assert np.abs(br.Qbr - (p_u / 2.0) * np.eye(2)).max() <= 1e-8


def test_dinkelbach_non_convergence_error():
    rs = reduce_scenario(scalar_scenario())
    cfg = DinkelbachConfig(epsilon=1e-12, max_iters=1)
    with pytest.raises(ConvergenceError) as err:
        dinkelbach_power(rs, 0, StrategyProfile.uniform(rs), cfg)
    assert err.value.delta is not None and err.value.delta > 0


def test_dinkelbach_config_validation():
    with pytest.raises(InvalidInputError):
        DinkelbachConfig(epsilon=0.0)
    with pytest.raises(InvalidInputError):
        dinkelbach_config({"init": "uniform"})
    for bad in (float("nan"), float("inf"), -1e-9, "tight"):
        with pytest.raises(InvalidInputError):
            DinkelbachConfig(epsilon=bad)
    for bad in (float("nan"), float("inf"), 0, 2.5, None):
        with pytest.raises(InvalidInputError):
            DinkelbachConfig(max_iters=bad)
    DinkelbachConfig(epsilon=1e-6, max_iters=50.0)


# --- best response ----------------------------------------------------------------

def test_best_response_no_interference_equal_split():
    s = scenario_from_matrices([[np.eye(2)]], [np.eye(2)], [10.0], [1.0])
    rs = reduce_scenario(s)
    res = best_response(rs, 0, StrategyProfile.uniform(rs))
    assert res.p_hat == res.p_unconstrained  # budget not binding
    assert np.abs(res.Qbr - (res.p_hat / 2.0) * np.eye(2)).max() <= 1e-9
    assert abs(np.trace(res.Qbr).real - res.p_hat) <= 1e-9


def test_best_response_budget_clipping():
    s = scenario_from_matrices([[np.eye(2)]], [np.eye(2)], [0.01], [1.0])
    rs = reduce_scenario(s)
    res = best_response(rs, 0, StrategyProfile.uniform(rs))
    assert res.p_unconstrained > 0.01
    assert res.p_hat == 0.01
    assert abs(np.trace(res.Qbr).real - 0.01) <= 1e-11


def test_best_response_matches_projection(rng):
    for seed in range(10):
        Q = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        s = generate_scenario(Q, n, 7.0, 0.0, seed=seed)
        rs = reduce_scenario(s)
        prof = StrategyProfile(
            [random_psd(rng, n, trace=float(rs.P[q])) for q in range(Q)]
        )
        res = best_response(rs, 0, prof)
        proj = projection_best_response(rs, 0, prof, res.p_hat)
        assert np.abs(proj - res.Qbr).max() <= 1e-8


def test_projection_best_response_examples():
    # whitened gram I_2 at p=2 -> equal split
    s = scenario_from_matrices([[np.eye(2)]], [np.eye(2)], [4.0], [1.0])
    rs = reduce_scenario(s)
    prof = StrategyProfile.zeros(rs)
    assert np.abs(projection_best_response(rs, 0, prof, 2.0) - np.eye(2)).max() <= 1e-10
    # gram diag(1, 0.1) at p=11 -> powers (10, 1)
    s = scenario_from_matrices(
        [[np.diag([1.0, np.sqrt(0.1)]).astype(complex)]], [np.eye(2)], [20.0], [1.0]
    )
    rs = reduce_scenario(s)
    out = projection_best_response(rs, 0, StrategyProfile.zeros(rs), 11.0)
    assert np.abs(np.sort(np.diagonal(out).real) - [1.0, 10.0]).max() <= 1e-8
    # trace is exactly p_hat
    assert abs(np.trace(out).real - 11.0) <= 1e-10


def test_best_response_sampled_optimality(rng):
    s = generate_scenario(3, 3, 7.0, 0.0, seed=13)
    rs = reduce_scenario(s)
    prof = StrategyProfile([random_psd(rng, 3, trace=2.0) for _ in range(3)])
    res = best_response(rs, 0, prof)
    ee_br = energy_efficiency(rs, 0, prof.replace(0, res.Qbr))
    for _ in range(100):
        cand = random_psd(rng, 3, trace=float(rng.uniform(0.0, rs.P[0])))
        assert ee_br >= energy_efficiency(rs, 0, prof.replace(0, cand)) - 1e-7
    # beats uniform-at-p_hat and zero
    uni = (res.p_hat / 3.0) * np.eye(3)
    assert ee_br >= energy_efficiency(rs, 0, prof.replace(0, uni)) - 1e-12
    assert ee_br >= 0.0


def test_best_response_depends_only_on_mui(rng):
    # players 1 and 2 share direct and cross channels, so swapping their
    # covariances leaves player 0's MUI unchanged (up to summation order)
    # and the BR can only move by rounding
    Q = 3
    h_cross = crandn(rng, 2, 2)
    h_direct = crandn(rng, 2, 2)
    H = [[crandn(rng, 2, 2) for _ in range(Q)] for _ in range(Q)]
    H[0][1] = h_cross
    H[0][2] = h_cross.copy()
    H[2][2] = h_direct
    H[1][1] = h_direct.copy()
    s = scenario_from_matrices(H, [np.eye(2)] * Q, [2.0] * Q, [1.0] * Q)
    rs = reduce_scenario(s)
    assert np.array_equal(rs.Hbar[0][1], rs.Hbar[0][2])
    A = random_psd(rng, 2, trace=1.0)
    B = random_psd(rng, 2, trace=1.5)
    own = random_psd(rng, 2, trace=1.0)
    prof_ab = StrategyProfile([own, A, B])
    prof_ba = StrategyProfile([own, B, A])
    from eeiwfa.model import mui_covariance

    assert np.abs(
        mui_covariance(rs, 0, prof_ab) - mui_covariance(rs, 0, prof_ba)
    ).max() <= 1e-14
    res_ab = best_response(rs, 0, prof_ab)
    res_ba = best_response(rs, 0, prof_ba)
    assert np.abs(res_ab.Qbr - res_ba.Qbr).max() <= 1e-9
    # and the computation itself is deterministic: same profile, same bits
    assert np.array_equal(res_ab.Qbr, best_response(rs, 0, prof_ab).Qbr)


def test_best_response_result_fields(rng):
    s = generate_scenario(2, 2, 7.0, 0.0, seed=14)
    rs = reduce_scenario(s)
    res = best_response(rs, 0, StrategyProfile.uniform(rs))
    assert isinstance(res, BestResponseResult)
    assert res.p_hat == min(float(rs.P[0]), res.p_unconstrained)
    assert abs(np.trace(res.Qbr).real - res.p_hat) <= 1e-9
    assert np.linalg.eigvalsh(res.Qbr).min() >= -1e-12
    # the water level reproduces the waterfilling matrix
    d, U = hermitian_evd(whitened_gram(rs, 0, StrategyProfile.uniform(rs)))
    again = (U * np.maximum(res.water_level - 1.0 / d, 0.0)) @ U.conj().T
    assert np.abs(again - res.Qbr).max() <= 1e-9


def test_batched_best_responses_waterfill_each_rank_in_one_call(monkeypatch):
    from eeiwfa import _kernels
    from eeiwfa.iwfa import _Evaluation

    rs = reduce_scenario(generate_scenario(6, 3, 7.0, 5.0, seed=2))
    prof = StrategyProfile.uniform(rs, fraction=0.5)
    shapes = []
    water_level = _kernels.water_level

    def counted(vals, p):
        shapes.append(np.shape(vals))
        return water_level(vals, p)

    monkeypatch.setattr(_kernels, "water_level", counted)
    batched = _Evaluation(rs, prof).best_responses(range(6), DinkelbachConfig())
    assert shapes == [(6, 3)]
    monkeypatch.undo()
    for q, br in enumerate(batched):
        single = best_response(rs, q, prof)
        assert np.abs(br.Qbr - single.Qbr).max() <= 1e-12 * np.abs(single.Qbr).max()
        assert (br.p_hat, br.dinkelbach_iters) == (single.p_hat, single.dinkelbach_iters)
        assert br.water_level == pytest.approx(single.water_level, rel=1e-12)
