import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eeiwfa.best_response import (
    BestResponseResult,
    DinkelbachConfig,
    _best_responses,
    _waterfill_powers,
    best_response,
    projection_best_response,
)
from eeiwfa.errors import ConvergenceError, InvalidInputError
from eeiwfa.harness import dinkelbach_config
from eeiwfa.linalg import hermitian_evd
from eeiwfa.model import (
    ChannelTable,
    StrategyProfile,
    _grams,
    _whitened_channels,
    energy_efficiency,
    generate_scenario,
    reduce_scenario,
    scenario_from_matrices,
    whitened_gram,
)

from conftest import crandn, random_psd, with_player
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
    _, powers = _waterfill_powers([2.0, 2.0], 2.0)
    assert np.abs(powers - 1.0).max() <= 1e-12


def test_waterfill_two_level_case():
    # d = (1, 0.1), p = 11: both active, mu = (11 + 1 + 10)/2 = 11
    _, powers = _waterfill_powers([1.0, 0.1], 11.0)
    assert np.abs(powers - [10.0, 1.0]).max() <= 1e-10


def test_waterfill_single_active_channel():
    # d = (1, 0.1), p = 1: mu = 2 < 10 so only the strong channel is active
    _, powers = _waterfill_powers([1.0, 0.1], 1.0)
    assert np.abs(powers - [1.0, 0.0]).max() <= 1e-12


def test_projection_best_response_rejects_a_non_finite_p_hat():
    rs = reduce_scenario(generate_scenario(2, 2, 7.0, 0.0, seed=14))
    with pytest.raises(InvalidInputError, match="^target trace p must be finite, got nan$"):
        projection_best_response(rs, 0, StrategyProfile.uniform(rs), np.nan)


def test_waterfill_matches_active_set_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(1, 8))
        d = rng.uniform(0.05, 5.0, size=n)
        p = float(rng.uniform(0.0, 20.0))
        _, powers = _waterfill_powers(d, p)
        want, _ = waterfill_oracle(d, p)
        # the oracle lists the powers in ascending order of 1/d
        want = want[np.argsort(np.argsort(1.0 / d))]
        assert abs(powers.sum() - p) <= 1e-12 * max(1.0, p)
        if np.abs(np.subtract.outer(d, d))[~np.eye(n, dtype=bool)].min() > 1e-3 if n > 1 else True:
            assert np.abs(powers - want).max() <= 1e-9


# --- Dinkelbach ----------------------------------------------------------------

def test_dinkelbach_scalar_e_minus_one():
    rs = reduce_scenario(scalar_scenario(g=1.0, sigma2=1.0, psi=1.0))
    prof = StrategyProfile.uniform(rs)
    br = best_response(rs, 0, prof)
    p_u, iters = br.p_unconstrained, br.dinkelbach_iters
    assert abs(p_u - (np.e - 1.0)) <= 1e-7
    assert abs(p_u - scalar_ee_grid_max(1.0, 1.0)) <= 1e-6
    assert 1 <= iters <= 200


@pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("psi", [0.5, 1.0, 2.0])
def test_dinkelbach_scalar_grid_oracle(g, psi):
    rs = reduce_scenario(scalar_scenario(g=g, sigma2=1.0, psi=psi))
    p_u = best_response(rs, 0, StrategyProfile.uniform(rs)).p_unconstrained
    assert abs(p_u - scalar_ee_grid_max(g, psi)) <= 1e-5
    # first-order stationarity: ln(1 + g p) = g (psi + p) / (1 + g p)
    resid = np.log1p(g * p_u) - g * (psi + p_u) / (1.0 + g * p_u)
    assert abs(resid) <= 1e-6


def test_dinkelbach_two_equal_eigenchannels():
    s = scenario_from_matrices([[np.eye(2)]], [np.eye(2)], [100.0], [1.0])
    rs = reduce_scenario(s)
    p_u = best_response(rs, 0, StrategyProfile.uniform(rs)).p_unconstrained
    # per-channel problem: maximize ln(1 + u) / (0.5 + u), total = 2 u*
    u_star = scalar_ee_grid_max(1.0, 0.5, hi=50.0)
    assert abs(p_u - 2.0 * u_star) <= 1e-5
    br = best_response(rs, 0, StrategyProfile.uniform(rs))
    assert np.abs(br.Qbr - (p_u / 2.0) * np.eye(2)).max() <= 1e-8


def test_dinkelbach_non_convergence_error():
    rs = reduce_scenario(scalar_scenario())
    cfg = DinkelbachConfig(epsilon=1e-12, max_iters=1)
    with pytest.raises(ConvergenceError) as err:
        best_response(rs, 0, StrategyProfile.uniform(rs), cfg)
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
        s = generate_scenario(Q, n, 7.0, 0.0 if Q > 1 else np.inf, seed=seed)
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
    ee_br = energy_efficiency(rs, 0, with_player(prof, 0, res.Qbr))
    for _ in range(100):
        cand = random_psd(rng, 3, trace=float(rng.uniform(0.0, rs.P[0])))
        assert ee_br >= energy_efficiency(rs, 0, with_player(prof, 0, cand)) - 1e-7
    # beats uniform-at-p_hat and zero
    uni = (res.p_hat / 3.0) * np.eye(3)
    assert ee_br >= energy_efficiency(rs, 0, with_player(prof, 0, uni)) - 1e-12
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

    rs = reduce_scenario(generate_scenario(6, 3, 7.0, 5.0, seed=2))
    prof = StrategyProfile.from_stack(0.5 * StrategyProfile.uniform(rs).stack, rs.ranks)
    X = _whitened_channels(rs, prof.stack[None], [range(6)])
    shapes = {"water_level": [], "dinkelbach_gains": []}

    def counting(name):
        real = getattr(_kernels, name)

        def counted(vals, *args):
            shapes[name].append(np.shape(vals))
            return real(vals, *args)
        return counted

    for name in shapes:
        monkeypatch.setattr(_kernels, name, counting(name))
    Qbr, _, p_hat, mu, iters = _best_responses(rs, range(6), X, DinkelbachConfig())
    assert shapes == {"water_level": [(6, 3)], "dinkelbach_gains": [(6, 3)]}
    monkeypatch.undo()
    for q in range(6):
        single = best_response(rs, q, prof)
        assert np.abs(Qbr[q] - single.Qbr).max() <= 1e-12 * np.abs(single.Qbr).max()
        assert (p_hat[q], iters[q]) == (single.p_hat, single.dinkelbach_iters)
        assert mu[q] == pytest.approx(single.water_level, rel=1e-12)


def vanishing_channel_game():
    """Three players, player 0's direct channel scaled by 1e-17 under unit
    noise: its gains (~1e-34) cannot pay for the circuit power."""
    g = generate_scenario(3, 2, 7.0, 10.0, seed=5)
    H = [[np.array(g.H[q][r]) * (1e-17 if q == r == 0 else 1.0) for r in range(3)]
         for q in range(3)]
    return reduce_scenario(scenario_from_matrices(H, [np.eye(2)] * 3, g.P, g.Psi))


def test_vanishing_direct_channel_gives_the_zero_power_response():
    # gains below 1e-30 stop before Dinkelbach: zero power and level 0
    rs = vanishing_channel_game()
    prof = StrategyProfile.uniform(rs)
    br = best_response(rs, 0, prof)
    assert br.zero_power and br.p_hat == br.p_unconstrained == br.water_level == 0.0
    assert br.dinkelbach_iters == 0 and not br.Qbr.any() and br.Qbr.shape == (2, 2)
    assert not best_response(rs, 1, prof).zero_power


def test_zero_power_player_is_a_zero_row_of_the_batch():
    rs = vanishing_channel_game()
    prof = StrategyProfile.uniform(rs)
    X = _whitened_channels(rs, prof.stack[None], [range(3)])
    Qbr, p_u, p_hat, mu, iters = _best_responses(rs, range(3), X, DinkelbachConfig())
    assert not Qbr[0].any() and (p_u[0], p_hat[0], mu[0], iters[0]) == (0.0, 0.0, 0.0, 0)
    assert (p_hat[1:] > 0).all() and (iters[1:] > 0).all()


def three_player_game():
    return reduce_scenario(generate_scenario(3, 2, 7.0, 10.0, seed=5))


def mixed_rank_game():
    # nR = nT = [2, 1]: player 0 is in the rank-2 group, player 1 in the rank-1 one
    rng = np.random.default_rng(0)
    n = [2, 1]
    H = [[crandn(rng, n[q], n[r]) for r in range(2)] for q in range(2)]
    return reduce_scenario(scenario_from_matrices(H, [np.eye(k) for k in n], [2.0, 1.0],
                                                  [1.0, 1.0]))


@pytest.mark.parametrize("cfg", [DinkelbachConfig(), DinkelbachConfig(1e-13, 1)],
                         ids=["default", "one-iteration"])
@pytest.mark.parametrize("game,qs", [
    pytest.param(three_player_game, [0, 1, 2], id="qs0"),
    pytest.param(three_player_game, [2, 0, 1], id="qs1"),
    pytest.param(mixed_rank_game, [0, 1], id="mixed-ranks"),
])
def test_first_failing_player_of_the_batch_raises(game, qs, cfg):
    # Player 0's gram is singular; with one iteration allowed, every
    # Dinkelbach solve fails too. The error raised is that of the first
    # failing player in the order of qs, whichever check it fails and
    # whichever rank group it is in.
    rs = game()
    X = _whitened_channels(rs, StrategyProfile.uniform(rs).stack[None], [qs])
    X[qs.index(0), :, 1] = 0.0
    if qs[0] == 2 and cfg.max_iters == 1:
        with pytest.raises(ConvergenceError, match="did not reach epsilon=1e-13"):
            _best_responses(rs, qs, X, cfg)
    else:
        with pytest.raises(InvalidInputError, match="player 0 is not positive definite"):
            _best_responses(rs, qs, X, cfg)


@pytest.mark.parametrize("cfg", [DinkelbachConfig(), DinkelbachConfig(1e-13, 1)],
                         ids=["default", "one-iteration"])
def test_a_batch_raises_its_first_failing_rows_own_error(cfg):
    # Rows of both rank groups of the mixed-rank game: a vanishing channel
    # (zero power, no failure), a singular gram, and plain rows, which fail
    # Dinkelbach when one iteration is allowed. In every order the batch
    # raises the error its first failing row raises alone, or none.
    rs = mixed_rank_game()
    X1 = _whitened_channels(rs, StrategyProfile.uniform(rs).stack[None], [[0, 1]])
    vanishing, singular = np.zeros_like(X1[0]), X1[0].copy()
    singular[:, 1] = 0.0
    rows = [(0, vanishing), (0, singular), (1, X1[1]), (0, X1[0])]

    def outcome(batch):
        qs, X = [q for q, _ in batch], np.stack([x for _, x in batch])
        try:
            _best_responses(rs, qs, X, cfg)
        except (ConvergenceError, InvalidInputError) as exc:
            return type(exc), str(exc)
        return None

    alone = [outcome([row]) for row in rows]
    assert alone[0] is None and alone[1][0] is InvalidInputError
    assert (alone[3] is None) == (cfg.max_iters > 1)
    for order in itertools.permutations(range(len(rows))):
        first = next((alone[i] for i in order if alone[i]), None)
        assert outcome([rows[i] for i in order]) == first, order


# --- properties of the best response on random ragged games -----------------------

def random_game(rng):
    """A reduced game of 1-4 players with 1-3 antennas each side (so ragged,
    tall and wide direct channels), correlated noise, and a random profile."""
    Q = int(rng.integers(1, 5))
    nT, nR = rng.integers(1, 4, size=Q), rng.integers(1, 4, size=Q)
    H = [[crandn(rng, nR[q], nT[r]) * (1.0 if q == r else 0.5) for r in range(Q)]
         for q in range(Q)]
    Rn = [0.5 * np.eye(n) + 0.1 * random_psd(rng, n) for n in nR]
    rs = reduce_scenario(scenario_from_matrices(
        H, Rn, rng.uniform(0.5, 5.0, size=Q), rng.uniform(0.2, 2.0, size=Q)))
    prof = StrategyProfile([random_psd(rng, k, trace=rng.uniform(0.0, p))
                            for k, p in zip(rs.ranks, rs.P)])
    return rs, prof


def haar_unitary(rng, k):
    """Haar-distributed k x k unitary: the phase-corrected QR of a complex
    Gaussian matrix (Mezzadri 2007)."""
    Z, R = np.linalg.qr(crandn(rng, k, k))
    d = np.diag(R)
    return Z * (d / np.abs(d))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_best_response_is_invariant_under_a_unitary_change_of_transmit_basis(seed):
    # every transmitter r expresses its covariance in a new orthonormal basis
    # U_r: Hbar_qr -> Hbar_qr U_r and Qbar_r -> U_r^H Qbar_r U_r. Received
    # signals are unchanged, so each best response turns with its basis and
    # keeps its power and energy efficiency.
    rng = np.random.default_rng(seed)
    rs, prof = random_game(rng)
    U = [haar_unitary(rng, k) for k in rs.ranks]
    A = rs.Hbar.array.copy()
    for r, (u, k) in enumerate(zip(U, rs.ranks)):
        A[:, r, :, :k] = A[:, r, :, :k] @ u
    turned = replace(rs, Hbar=ChannelTable(A, rs.Rn.rows, rs.ranks))
    turned_prof = StrategyProfile([u.conj().T @ m @ u for u, m in zip(U, prof)])
    for q, u in enumerate(U):
        br, br_t = best_response(rs, q, prof), best_response(turned, q, turned_prof)
        scale = max(1.0, float(np.abs(br.Qbr).max()))
        assert br_t.p_hat == pytest.approx(br.p_hat, rel=1e-9, abs=1e-12)
        assert np.abs(u @ br_t.Qbr @ u.conj().T - br.Qbr).max() <= 1e-9 * scale
        ee = energy_efficiency(rs, q, with_player(prof, q, br.Qbr))
        ee_t = energy_efficiency(turned, q, with_player(turned_prof, q, br_t.Qbr))
        assert ee_t == pytest.approx(ee, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_best_responses_satisfy_the_waterfilling_kkt_conditions(seed):
    # In the eigenbasis of the whitened gram G = U diag(d) U^H, each best
    # response is diagonal with powers (mu - 1/d_k)^+ summing to p_hat, and
    # complementary slackness holds: a mode with power sits at the water
    # level (1/d_k + power_k = mu), an idle one at or above it (1/d_k >= mu).
    rng = np.random.default_rng(seed)
    rs, prof = random_game(rng)
    qs = list(range(rs.Q))
    X = _whitened_channels(rs, prof.stack[None], [qs])
    Qbr, p_u, p_hat, levels, _ = _best_responses(rs, qs, X, DinkelbachConfig())
    for q in qs:
        k = rs.ranks[q]
        d, U = np.linalg.eigh(_grams(X[q])[:k, :k])
        mu = levels[q]
        tol = 1e-10 * max(1.0, mu, p_hat[q])
        assert not Qbr[q, k:].any() and not Qbr[q, :, k:].any()
        D = U.conj().T @ Qbr[q, :k, :k] @ U
        powers = np.diag(D).real
        assert np.abs(D - np.diag(powers)).max() <= tol
        assert np.abs(powers - np.maximum(mu - 1.0 / d, 0.0)).max() <= tol
        assert powers.min() >= -tol
        assert abs(powers.sum() - p_hat[q]) <= tol
        assert p_hat[q] == min(float(rs.P[q]), p_u[q])
        slack = mu - 1.0 / d - powers
        assert slack.max() <= tol
        assert np.minimum(np.abs(powers), np.abs(slack)).max() <= tol
