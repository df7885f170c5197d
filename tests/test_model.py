import dataclasses
import hashlib
import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eeiwfa import iwfa, model

from eeiwfa.best_response import DinkelbachConfig
from eeiwfa.errors import InvalidInputError
from eeiwfa.linalg import compact_svd
from eeiwfa.model import (
    ChannelTable,
    NetworkScenario,
    StrategyProfile,
    _SeedWords,
    _stream_words,
    energy_efficiency,
    generate_scenario,
    load_scenario,
    mui_covariance,
    rate,
    reduce_scenario,
    save_scenario,
    scenario_from_matrices,
    scenario_from_dict,
    scenario_to_dict,
    whitened_gram,
)

from conftest import crandn, random_psd


def scalar_scenario(g=1.0, sigma2=1.0, psi=1.0, p=100.0):
    """Single 1x1 player with |h|^2 = g and noise sigma2."""
    return scenario_from_matrices(
        [[np.array([[np.sqrt(g)]], dtype=complex)]],
        [np.array([[sigma2]])], [p], [psi],
    )


# --- generation ----------------------------------------------------------------

def test_generate_benchmark_setup():
    s = generate_scenario(8, 4, 7.0, 0.0, seed=0)
    assert s.Q == 8
    assert np.all(s.nT == 4) and np.all(s.nR == 4)
    assert np.allclose(s.P, 4.0) and np.allclose(s.Psi, 1.0)
    # per-stream convention: sigma_n^2 = (P/n) / SNR
    sigma2 = (4.0 / 4) / 10 ** 0.7
    assert np.abs(s.Rn[0] - sigma2 * np.eye(4)).max() <= 1e-15
    # direct variance 1, cross variance 1/((Q-1) SIR); loose statistical check
    direct = np.concatenate([np.abs(s.H[q][q]) ** 2 for q in range(8)]).ravel()
    cross = np.concatenate(
        [np.abs(s.H[q][r]) ** 2 for q in range(8) for r in range(8) if r != q]
    ).ravel()
    assert abs(direct.mean() - 1.0) < 0.3
    assert abs(cross.mean() - 1.0 / 7) < 0.05


def test_generate_total_power_convention():
    s = generate_scenario(2, 4, 10.0, 0.0, seed=0, snr_convention="total-power")
    assert np.abs(s.Rn[0] - (4.0 / 10.0) * np.eye(4)).max() <= 1e-15


def test_generate_deterministic_and_stable_under_q():
    a = generate_scenario(3, 2, 7.0, 0.0, seed=9)
    b = generate_scenario(3, 2, 7.0, 0.0, seed=9)
    for q in range(3):
        for r in range(3):
            assert np.array_equal(a.H[q][r], b.H[q][r])
    # the (0,1) stream does not depend on Q, only its variance scale does
    c = generate_scenario(8, 2, 7.0, 0.0, seed=9)
    scale_a = 1.0 / np.sqrt(2.0)   # (Q-1) * SIR with Q=3, SIR=1
    scale_c = 1.0 / np.sqrt(7.0)
    assert np.allclose(a.H[0][1] / scale_a, c.H[0][1] / scale_c, rtol=1e-14)


def test_generate_single_player_warns_on_finite_sir():
    with pytest.warns(UserWarning):
        s = generate_scenario(1, 2, 7.0, 0.0, seed=0)
    assert s.meta.get("sir_ignored")
    assert len(s.H) == 1


def test_generate_infinite_sir_zeroes_cross_channels():
    # 10^(4000/10) overflows a float; it counts as the infinite SIR it is
    for sir_db in (np.inf, 4000.0):
        s = generate_scenario(2, 2, 7.0, sir_db, seed=0)
        assert np.abs(s.H[0][1]).max() == 0.0
        assert np.abs(s.H[1][0]).max() == 0.0


def test_generate_diagonal_channels():
    s = generate_scenario(3, 4, 7.0, 0.0, seed=1, channel_kind="diagonal")
    for q in range(3):
        for r in range(3):
            off = s.H[q][r] - np.diag(np.diagonal(s.H[q][r]))
            assert np.abs(off).max() == 0.0


def plain_channel(seed, q, r, n, var, kind):
    """Channel (q, r) of a generated scenario, drawn from its own stream with
    two calls, real parts then imaginary parts: the oracle for the table."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, q, r)))
    if kind == "diagonal":
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return np.diag(np.sqrt(var / 2.0) * h)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.sqrt(var / 2.0) * Z


def test_a_seed_beyond_the_float_range_draws_its_streams():
    seed = 2**1100   # no float holds it
    s = generate_scenario(2, 2, 7.0, 0.0, seed=seed)
    assert s.seed == seed and scenario_from_dict(scenario_to_dict(s)).seed == seed
    assert np.array_equal(s.H[0][1], plain_channel(seed, 0, 1, 2, 1.0, "full"))


@pytest.mark.parametrize("kind", ["full", "diagonal"])
@pytest.mark.parametrize("Q, n, sir_db, seed", [
    (3, 2, 0.0, 5),
    (1, 3, np.inf, 2),
    (4, 2, np.inf, 7),
    (5, 3, 10.0, 2**32 + 17),
    # seeds of one, two and three 32-bit words: three to five entropy words
    (1, 2, np.inf, 0),
    (1, 2, np.inf, 2**32 - 1),
    (1, 3, np.inf, 2**40),
    (1, 2, np.inf, 2**70),
])
def test_generated_table_matches_per_pair_draws(kind, Q, n, sir_db, seed):
    s = generate_scenario(Q, n, 7.0, sir_db, seed=seed, channel_kind=kind)
    assert s.H.array.shape == (Q, Q, n, n)
    cross = 0.0 if Q == 1 else 1.0 / ((Q - 1) * 10.0 ** (sir_db / 10.0))
    for q in range(Q):
        for r in range(Q):
            want = plain_channel(seed, q, r, n, 1.0 if q == r else cross, kind)
            assert np.array_equal(s.H[q][r], want)


# SHA-256 of a generated scenario's channel table and noise stack, taken
# before the draws were batched over trials: the same streams, read in the
# same order, give the same bytes.
@pytest.mark.parametrize("Q, n, kind, seed, table, noise", [
    (8, 4, "full", 0,
     "f147ecb7681519dcf202114fdbe9ee05b26b65b77dba659dc8cabe7db9ced33c",
     "2849b5b061952310cded29c6ec0cb994cced20ba889ebb0f51e497a4f9764854"),
    (3, 2, "diagonal", 2**40 + 7,   # a seed of two 32-bit words
     "a86496d2a47ab11a137d94d0a8f2af28b89943c2a1cc7b8fb01445e2c61b6df0",
     "36b07dad9ed5b6d7109b8cbf15498f51448686ed55dda19a214750b705f062bb"),
])
def test_generated_draws_are_pinned(Q, n, kind, seed, table, noise):
    s = generate_scenario(Q, n, 10.0, 5.0, seed=seed, channel_kind=kind)
    assert hashlib.sha256(s.H.array.tobytes()).hexdigest() == table
    assert hashlib.sha256(s.Rn.stack.tobytes()).hexdigest() == noise


@settings(deadline=None)
@given(st.lists(st.integers(0, 2**96 - 1), min_size=1, max_size=4), st.integers(1, 6))
@example(seeds=[7, 2**40 + 7, 2**70, 2**32 - 1], Q=3)
def test_stream_states_match_seed_sequence(seeds, Q):
    # seeds of one to three 32-bit words side by side in one call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blocks = _stream_words(seeds, Q)
    assert len(blocks) == len(seeds)
    for seed, got in zip(seeds, blocks):
        assert got.shape == (Q * Q, 4) and got.dtype == np.uint64
        assert got.flags.c_contiguous
        for q in range(Q):
            for r in range(Q):
                seq = np.random.SeedSequence((seed, q, r))
                assert np.array_equal(got[q * Q + r], seq.generate_state(4, np.uint64))
                want = np.random.PCG64(seq).state
                assert np.random.PCG64(_SeedWords(got[q * Q + r])).state == want


def test_seed_words_give_only_what_pcg64_asks_for():
    words = _stream_words([0], 1)[0][0]
    assert _SeedWords(words).generate_state(4, np.uint64) is words
    for n_words, dtype in [(8, np.uint32), (4, np.uint32), (2, np.uint64)]:
        with pytest.raises(ValueError, match="only the four uint64 words"):
            _SeedWords(words).generate_state(n_words, dtype)


@pytest.mark.parametrize("Q, kind", [(3, "full"), (3, "diagonal"), (1, "full")])
def test_a_seed_list_gives_each_seeds_own_scenario(Q, kind):
    seeds = (0, 7, 2**40 + 7, 2**32 - 1, 2**70)   # one to three 32-bit words
    many = generate_scenario(Q, 2, 10.0, np.inf, seed=seeds, channel_kind=kind)
    assert [s.seed for s in many] == list(seeds)
    for s, seed in zip(many, seeds):
        one = generate_scenario(Q, 2, 10.0, np.inf, seed=seed, channel_kind=kind)
        assert s.H.array.tobytes() == one.H.array.tobytes()
        assert s.Rn.stack.tobytes() == one.Rn.stack.tobytes()
        for name in ("Q", "nT", "nR", "P", "Psi", "meta"):
            assert np.array_equal(getattr(s, name), getattr(one, name)), name
        assert not s.H.array.flags.writeable
    # each scenario owns its mutable fields
    for name in ("nT", "nR", "meta"):
        assert len({id(getattr(s, name)) for s in many}) == len(seeds)


def test_a_seed_list_is_checked():
    with pytest.raises(InvalidInputError, match="need at least one seed"):
        generate_scenario(2, 2, 7.0, 0.0, seed=[])
    with pytest.raises(InvalidInputError) as one:
        generate_scenario(2, 2, 7.0, 0.0, seed=-1)
    with pytest.raises(InvalidInputError) as listed:
        generate_scenario(2, 2, 7.0, 0.0, seed=[3, -1])
    assert str(listed.value) == str(one.value)


@pytest.mark.parametrize("snr_db, power", [
    (np.inf, 2.0),
    (4000.0, 2.0),      # 10^(snr_db/10) overflows
    (300.0, 1e-300),    # 10^30 is finite, but (P/n) / 10^30 underflows
])
def test_generate_rejects_a_zero_noise_variance(snr_db, power):
    with pytest.raises(InvalidInputError, match=f"^snr_db = {snr_db} is too high: "
                                                "the noise variance it sets is 0$"):
        generate_scenario(2, 2, snr_db, 5.0, seed=0, power=power)


@pytest.mark.parametrize("kw, name, variance", [
    ({"snr_db": -3200.0}, "snr_db", "the noise variance"),   # 10^-320 is subnormal
    ({"snr_db": -3200.0, "snr_convention": "total-power"}, "snr_db", "the noise variance"),
    ({"sir_db": -3200.0}, "sir_db", "the cross-channel variance"),
])
def test_generate_rejects_an_infinite_variance(kw, name, variance):
    args = {"snr_db": 5.0, "sir_db": 5.0, **kw}
    with pytest.raises(InvalidInputError, match=f"^{name} = -3200.0 is too low: "
                                                f"{variance} it sets is not finite$"):
        generate_scenario(2, 2, **args, seed=0)


@pytest.mark.parametrize("power, snr_db", [(np.inf, 5.0), (-1.0, -3200.0)])
def test_a_bad_budget_is_named_before_its_noise(power, snr_db):
    # the noise variance is not finite either; no inf * 0 warning comes first
    with pytest.raises(InvalidInputError,
                       match="^power budgets P must be finite and positive$"):
        generate_scenario(2, 2, snr_db, 5.0, seed=0, power=power)


def test_ragged_table_keeps_exact_shape_views(rng):
    nT, nR = [3, 2, 4], [2, 3, 1]
    H = [[crandn(rng, nR[q], nT[r]) for r in range(3)] for q in range(3)]
    Rn = [np.eye(n) for n in nR]
    s = scenario_from_matrices(H, Rn, [1.0] * 3, [1.0] * 3)
    assert s.H.array.shape == (3, 3, 3, 4)
    for q in range(3):
        assert len(s.H[q]) == 3
        for r in range(3):
            assert s.H[q][r].shape == (nR[q], nT[r])
            assert np.array_equal(s.H[q][r], H[q][r])
            pad = s.H.array[q, r].copy()
            pad[: nR[q], : nT[r]] = 0.0
            assert not pad.any()
        assert np.array_equal(s.Rn[q], Rn[q])
    # a scenario built from another's table shares it
    t = scenario_from_matrices(s.H, Rn, [1.0] * 3, [1.0] * 3)
    assert t.H.array is s.H.array


def test_scenario_channels_are_read_only():
    s = generate_scenario(2, 2, 7.0, 0.0, seed=0)
    with pytest.raises(ValueError):
        s.H[0][1][0, 0] = 1.0
    with pytest.raises(ValueError):
        s.H.array[0, 1, 0, 0] = 1.0
    with pytest.raises(ValueError):
        s.Rn[0][0, 0] = 1.0
    rs = reduce_scenario(s)
    with pytest.raises(ValueError):
        rs.V1[0][0, 0] = 1.0


def test_scenario_rejects_bad_channel_tables():
    with pytest.raises(InvalidInputError):
        scenario_from_matrices([[np.eye(2), np.eye(2)]], [np.eye(2)], [1.0], [1.0])
    H = [[np.eye(2), np.ones((2, 3))], [np.ones((3, 2)), np.eye(2)]]
    with pytest.raises(InvalidInputError):
        scenario_from_matrices(H, [np.eye(2)] * 2, [1.0] * 2, [1.0] * 2)
    with pytest.raises(InvalidInputError):
        scenario_from_matrices([[np.array([[np.nan]])]], [np.eye(1)], [1.0], [1.0])
    with pytest.raises(InvalidInputError):
        scenario_from_matrices([[np.eye(2)]], [np.array([[1.0, 1.0], [0.0, 1.0]])],
                               [1.0], [1.0])  # not Hermitian


def test_scenario_keeps_a_given_channel_table_and_checks_it(rng):
    s = generate_scenario(3, 2, 7.0, 0.0, seed=0)
    t = NetworkScenario(Q=3, nT=s.nT, nR=s.nR, H=s.H, Rn=s.Rn, P=s.P, Psi=s.Psi)
    assert t.H is s.H
    # ragged Q=2: receiver 0 has one antenna, so row 1 of H_00 and H_01 is padding
    nT, nR = [2, 2], [1, 2]
    H = [[crandn(rng, nR[q], nT[r]) for r in range(2)] for q in range(2)]
    Rn = [np.eye(n) for n in nR]
    good = scenario_from_matrices(H, Rn, [1.0] * 2, [1.0] * 2)
    assert scenario_from_matrices(good.H, Rn, [1.0] * 2, [1.0] * 2).H is good.H
    T = good.H.array.copy()
    T[0, 1, 1] = 1.0
    padded = ChannelTable(T, nR, nT)
    assert all(np.array_equal(padded[q][r], H[q][r]) for q in range(2) for r in range(2))
    with pytest.raises(InvalidInputError, match="nonzero entries outside"):
        scenario_from_matrices(padded, Rn, [1.0] * 2, [1.0] * 2)
    # a table built for two receive antennas at both receivers
    full = ChannelTable(good.H.array.copy(), [2, 2], nT)
    with pytest.raises(InvalidInputError, match="built for other antenna counts"):
        NetworkScenario(Q=2, nT=nT, nR=nR, H=full, Rn=Rn, P=[1.0] * 2, Psi=[1.0] * 2)


def test_scenario_validation():
    with pytest.raises(InvalidInputError):
        generate_scenario(0, 2, 7.0, 0.0, seed=0)
    with pytest.raises(InvalidInputError):
        scenario_from_matrices(
            [[np.eye(2)]], [np.zeros((2, 2))], [1.0], [1.0]
        )  # singular noise covariance
    with pytest.raises(InvalidInputError):
        scenario_from_matrices([[np.eye(2)]], [np.eye(2)], [0.0], [1.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="finite and positive"):
            generate_scenario(2, 2, 7.0, 0.0, seed=0, circuit_power=bad)
        with pytest.raises(InvalidInputError, match="finite and positive"):
            scenario_from_matrices([[np.eye(2)]], [np.eye(2)], [bad], [1.0])
        with pytest.raises(InvalidInputError, match="finite and positive"):
            scenario_from_matrices([[np.eye(2)]], [np.eye(2)], [1.0], [bad])
    for kw in ({"Q": 2.5}, {"n": np.nan}, {"seed": 2.5}, {"seed": -1}, {"seed": None}):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            generate_scenario(**{"Q": 2, "n": 2, "snr_db": 7.0, "sir_db": 0.0,
                                 "seed": 0, **kw})


# --- reduction -------------------------------------------------------------------

def test_reduce_square_nonsingular(rng):
    s = generate_scenario(3, 3, 7.0, 5.0, seed=2)
    rs = reduce_scenario(s)
    assert np.all(rs.ranks == 3)
    for q in range(3):
        for r in range(3):
            assert np.abs(rs.Hbar[q][r] - s.H[q][r] @ rs.V1[r]).max() <= 1e-10
        assert abs(np.linalg.det(rs.Hbar[q][q])) > 1e-12


def test_reduce_wide_full_row_rank(rng):
    Q = 2
    H = [[crandn(rng, 2, 4) for _ in range(Q)] for _ in range(Q)]
    s = scenario_from_matrices(H, [np.eye(2)] * Q, [2.0] * Q, [1.0] * Q)
    rs = reduce_scenario(s)
    for q in range(Q):
        assert rs.ranks[q] == np.linalg.matrix_rank(H[q][q])  # = 2
        assert rs.Hbar[q][q].shape == (2, 2)
        assert abs(np.linalg.det(rs.Hbar[q][q])) > 1e-12


def test_reduce_diagonal_keeps_parallel_structure(rng):
    # diagonal channels: V1 is a generalized permutation (one nonzero per
    # row/column), so the reduced channels stay parallel with singular
    # values |h_k|; the identity is recovered only up to ordering and phase.
    s = generate_scenario(2, 4, 7.0, 0.0, seed=3, channel_kind="diagonal")
    rs = reduce_scenario(s)
    for q in range(2):
        V = rs.V1[q]
        assert np.abs(V.conj().T @ V - np.eye(4)).max() <= 1e-12
        assert np.all((np.abs(V) > 1e-9).sum(axis=0) == 1)
        assert np.all((np.abs(V) > 1e-9).sum(axis=1) == 1)
        got = np.sort(np.linalg.svd(rs.Hbar[q][q], compute_uv=False))
        want = np.sort(np.abs(np.diagonal(s.H[q][q])))
        assert np.abs(got - want).max() <= 1e-12


def test_reduce_rejects_zero_direct_channel(rng):
    H = [[np.zeros((2, 2))]]
    s = scenario_from_matrices(H, [np.eye(2)], [1.0], [1.0])
    with pytest.raises(InvalidInputError, match="^player 0 has a zero direct channel$"):
        reduce_scenario(s)
    # the first zero player is named, whatever the shapes of the others
    nT, nR = [2, 3, 2, 3], [2, 1, 2, 1]
    H = [[crandn(rng, nR[q], nT[r]) for r in range(4)] for q in range(4)]
    H[1][1] = np.zeros((1, 3))
    H[2][2] = np.zeros((2, 2))
    s = scenario_from_matrices(H, [np.eye(n) for n in nR], [1.0] * 4, [1.0] * 4)
    with pytest.raises(InvalidInputError, match="^player 1 has a zero direct channel$"):
        reduce_scenario(s)


def test_a_reduced_list_needs_one_shape():
    s = generate_scenario(2, 2, 7.0, 5.0, seed=0)
    with pytest.raises(InvalidInputError, match="need at least one scenario"):
        reduce_scenario([])
    for other in (generate_scenario(2, 3, 7.0, 5.0, seed=1),
                  generate_scenario(3, 2, 7.0, 5.0, seed=1)):
        with pytest.raises(InvalidInputError, match="must share Q, nR and nT"):
            reduce_scenario([s, other])


def test_a_reduced_list_raises_its_first_zero_direct_channel():
    def edited(s, *cells):
        T = s.H.array.copy()
        for cell in cells:
            T[cell] = 0.0
        return dataclasses.replace(s, H=ChannelTable(T, s.nR, s.nT))

    a, b, c = generate_scenario(3, 2, 7.0, 5.0, seed=[1, 2, 3], channel_kind="diagonal")
    # b: player 0's direct channel of rank 1 (no error here), player 2's zero
    many = [a, edited(b, (0, 0, 0, 0), (2, 2)), edited(c, (1, 1))]
    with pytest.raises(InvalidInputError, match="^player 2 has a zero direct channel$"):
        reduce_scenario(many)
    assert reduce_scenario([edited(b, (0, 0, 0, 0))])[0].ranks.tolist() == [1, 2, 2]


def test_stacked_reduction_matches_per_player_compact_svd(rng):
    # mixed shapes, two players per shape, and a rank-1 direct channel
    nT, nR = [3, 2, 3, 2, 4], [2, 3, 2, 3, 1]
    H = [[crandn(rng, nR[q], nT[r]) for r in range(5)] for q in range(5)]
    H[2][2] = np.outer(crandn(rng, 2), crandn(rng, 3))
    s = scenario_from_matrices(H, [np.eye(n) for n in nR], [1.0] * 5, [1.0] * 5)
    rs = reduce_scenario(s)
    V1 = [compact_svd(s.H[q][q])[2] for q in range(5)]
    ranks = np.array([v.shape[1] for v in V1])
    assert ranks.tolist() == [2, 2, 1, 2, 1]
    assert np.array_equal(rs.ranks, ranks)
    V = np.zeros((5, 4, 2), dtype=complex)
    for q, v in enumerate(V1):
        V[q, : nT[q], : ranks[q]] = v
        assert np.array_equal(rs.V1[q], v)
    A = s.H.array @ V
    assert isinstance(rs.Hbar, ChannelTable)
    assert np.array_equal(rs.Hbar.array, A)
    for q in range(5):
        assert np.array_equal(rs.Hbar[q].stack, A[q])
        for r in range(5):
            assert np.array_equal(rs.Hbar[q][r], A[q, r, : nR[q], : ranks[r]])


# --- evaluators --------------------------------------------------------------------

def test_mui_covariance_single_player():
    rs = reduce_scenario(scalar_scenario(sigma2=2.0))
    prof = StrategyProfile.uniform(rs)
    assert np.allclose(mui_covariance(rs, 0, prof), [[2.0]])


def test_mui_covariance_scalar_case():
    # Rn=1, |h12|^2 = 0.25, Q2 = 2  ->  1 + 0.25*2 = 1.5
    H = [
        [np.array([[1.0 + 0j]]), np.array([[0.5 + 0j]])],
        [np.array([[0.0 + 0j]]), np.array([[1.0 + 0j]])],
    ]
    s = scenario_from_matrices(H, [np.eye(1), np.eye(1)], [4.0, 4.0], [1.0, 1.0])
    rs = reduce_scenario(s)
    prof = StrategyProfile([np.array([[1.0 + 0j]]), np.array([[2.0 + 0j]])])
    assert np.allclose(mui_covariance(rs, 0, prof), [[1.5]])


def test_mui_covariance_matches_term_sum(rng):
    s = generate_scenario(3, 2, 7.0, 0.0, seed=4)
    rs = reduce_scenario(s)
    prof = StrategyProfile([random_psd(rng, 2, trace=1.0) for _ in range(3)])
    got = mui_covariance(rs, 1, prof)
    want = np.array(rs.Rn[1], dtype=complex)
    for r in (0, 2):
        want = want + rs.Hbar[1][r] @ prof[r] @ rs.Hbar[1][r].conj().T
    assert np.abs(got - want).max() <= 1e-12


def test_mui_monotone_in_interference(rng):
    s = generate_scenario(3, 2, 7.0, 0.0, seed=5)
    rs = reduce_scenario(s)
    for _ in range(20):
        prof = StrategyProfile([random_psd(rng, 2, trace=1.0) for _ in range(3)])
        bigger = prof.replace(2, prof[2] + random_psd(rng, 2, trace=0.5))
        lam_a = np.linalg.eigvalsh(mui_covariance(rs, 0, prof))
        lam_b = np.linalg.eigvalsh(mui_covariance(rs, 0, bigger))
        assert np.all(lam_b >= lam_a - 1e-12)


def test_whitened_gram_identity():
    s = scenario_from_matrices([[np.eye(2)]], [np.eye(2)], [2.0], [1.0])
    rs = reduce_scenario(s)
    prof = StrategyProfile.zeros(rs)
    assert np.abs(whitened_gram(rs, 0, prof) - np.eye(2)).max() <= 1e-12


def test_whitened_gram_scalar():
    rs = reduce_scenario(scalar_scenario(g=2.0, sigma2=0.5))
    prof = StrategyProfile.zeros(rs)
    assert np.allclose(whitened_gram(rs, 0, prof), [[4.0]])


def test_whitened_gram_matches_naive_inverse(rng):
    s = generate_scenario(3, 3, 7.0, 0.0, seed=6)
    rs = reduce_scenario(s)
    prof = StrategyProfile([random_psd(rng, 3, trace=2.0) for _ in range(3)])
    got = whitened_gram(rs, 0, prof)
    R = mui_covariance(rs, 0, prof)
    H = rs.Hbar[0][0]
    want = H.conj().T @ np.linalg.inv(R) @ H
    assert np.abs(got - want).max() <= 1e-9


def test_rate_zero_covariance():
    rs = reduce_scenario(scalar_scenario())
    assert rate(rs, 0, StrategyProfile.zeros(rs)) == 0.0


def test_rate_scalar_ln2():
    rs = reduce_scenario(scalar_scenario(g=1.0, sigma2=1.0))
    prof = StrategyProfile([np.array([[1.0 + 0j]])])
    assert abs(rate(rs, 0, prof) - np.log(2.0)) <= 1e-12


def test_rate_identity_2x2():
    s = scenario_from_matrices([[np.eye(2)]], [np.eye(2)], [4.0], [1.0])
    rs = reduce_scenario(s)
    prof = StrategyProfile([np.eye(2, dtype=complex)])
    assert abs(rate(rs, 0, prof) - 2.0 * np.log(2.0)) <= 1e-12


def test_rate_concave_along_segments(rng):
    s = generate_scenario(2, 3, 7.0, 0.0, seed=7)
    rs = reduce_scenario(s)
    other = StrategyProfile([random_psd(rng, 3, trace=1.0) for _ in range(2)])
    for _ in range(20):
        A = random_psd(rng, 3, trace=2.0)
        B = random_psd(rng, 3, trace=2.5)
        mid = 0.5 * (A + B)
        f = lambda Q: rate(rs, 0, other.replace(0, Q))
        assert f(mid) >= 0.5 * (f(A) + f(B)) - 1e-9


def test_rate_invariant_under_reduction(rng):
    # original-game rate with Q = V1 Qbar V1^H equals the reduced-game rate
    for shape in ((3, 3), (2, 4)):
        Q = 2
        H = [[crandn(rng, shape[0], shape[1]) for _ in range(Q)] for _ in range(Q)]
        s = scenario_from_matrices(H, [np.eye(shape[0])] * Q, [3.0] * Q, [1.0] * Q)
        rs = reduce_scenario(s)
        prof = StrategyProfile(
            [random_psd(rng, int(rs.ranks[q]), trace=2.0) for q in range(Q)]
        )
        got = rate(rs, 0, prof)
        # direct evaluation in the original game
        Qfull = [rs.V1[q] @ prof[q] @ rs.V1[q].conj().T for q in range(Q)]
        R = np.array(s.Rn[0], dtype=complex)
        R += H[0][1] @ Qfull[1] @ H[0][1].conj().T
        G = H[0][0].conj().T @ np.linalg.inv(R) @ H[0][0]
        want = np.log(np.linalg.det(
            np.eye(shape[1]) + G @ Qfull[0]
        )).real
        assert abs(got - want) <= 1e-8


def test_energy_efficiency_values():
    rs = reduce_scenario(scalar_scenario())
    assert energy_efficiency(rs, 0, StrategyProfile.zeros(rs)) == 0.0
    prof = StrategyProfile([np.array([[1.0 + 0j]])])
    assert abs(energy_efficiency(rs, 0, prof) - np.log(2.0) / 2.0) <= 1e-12


def test_energy_efficiency_quasiconcave_on_rays(rng):
    s = generate_scenario(2, 2, 7.0, 5.0, seed=8)
    rs = reduce_scenario(s)
    other = StrategyProfile([random_psd(rng, 2, trace=1.0) for _ in range(2)])
    for _ in range(10):
        D = random_psd(rng, 2, trace=1.0)
        ts = np.linspace(0.01, 3.0 * float(rs.P[0]), 60)
        vals = [energy_efficiency(rs, 0, other.replace(0, t * D)) for t in ts]
        peak = int(np.argmax(vals))
        # unimodal: nondecreasing up to the peak, nonincreasing after
        assert all(vals[i + 1] >= vals[i] - 1e-9 for i in range(peak))
        assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(peak, len(vals) - 1))


# --- profiles and serialization -----------------------------------------------------

def test_profile_validation(rng):
    s = generate_scenario(2, 2, 7.0, 0.0, seed=10)
    rs = reduce_scenario(s)
    StrategyProfile.uniform(rs).validate(rs)
    bad = StrategyProfile([np.eye(2) * 10.0, np.eye(2)])
    with pytest.raises(InvalidInputError):
        bad.validate(rs)  # exceeds the budget
    neg = StrategyProfile([-np.eye(2), np.eye(2) * 0.5])
    with pytest.raises(InvalidInputError):
        neg.validate(rs)


def test_profile_validation_messages(rng):
    rs = reduce_scenario(generate_scenario(2, 2, 7.0, 0.0, seed=10))
    cases = [
        ([np.eye(2)], "profile size does not match the scenario"),
        ([np.eye(2), np.eye(3)], r"Qbar\[1\] has the wrong shape"),
        ([np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])], "matrix is not Hermitian"),
        ([np.eye(2), np.full((2, 2), np.nan)], "matrix has non-finite entries"),
        ([np.eye(2), np.diag([1.0, -1.0])], r"Qbar\[1\] is not PSD \(min eig -1.000e\+00\)"),
        ([np.eye(2), 3.0 * np.eye(2)], r"Qbar\[1\] exceeds the power budget: 6.0 > 2.0"),
    ]
    for mats, message in cases:
        with pytest.raises(InvalidInputError, match=message):
            StrategyProfile(mats).validate(rs)
    with pytest.raises(InvalidInputError, match=r"Qbar\[0\] has the wrong shape"):
        StrategyProfile([np.ones((2, 3)), np.eye(2)])


def test_ragged_profile_is_one_frozen_padded_stack(rng):
    mats = [random_psd(rng, r, trace=1.0) for r in (2, 1, 3)]
    prof = StrategyProfile(mats)
    want = np.zeros((3, 3, 3), dtype=complex)
    for q, m in enumerate(mats):
        want[q, : len(m), : len(m)] = m
    assert np.array_equal(prof.stack, want)
    assert list(prof.ranks) == [2, 1, 3] and len(prof) == 3
    for q, m in enumerate(mats):
        assert prof[q].shape == m.shape and np.array_equal(prof[q], m)
        with pytest.raises(ValueError):
            prof[q][0, 0] = 5.0
    with pytest.raises(ValueError):
        prof.stack[0, 0, 0] = 5.0
    assert [m.shape for m in prof] == [(2, 2), (1, 1), (3, 3)]
    assert np.array_equal(prof.traces(), [np.trace(m).real for m in mats])

    # the profile owns its copy: neither the sources nor replace can change it
    before = prof.stack.copy()
    mats[0][0, 0] += 7.0
    other = prof.replace(1, np.array([[0.25]]))
    assert np.array_equal(prof.stack, before)
    assert other[1][0, 0] == 0.25 and np.array_equal(other[2], prof[2])


def test_rate_of_a_tiny_covariance_matches_closed_form(rng):
    # H = U diag(sig) V^H, so in the reduced basis the whitened gram is
    # diag(sig^2) / sigma2 and a diagonal Qbar has rate sum log1p(sig^2 p / sigma2)
    U, _ = np.linalg.qr(crandn(rng, 3, 3))
    V, _ = np.linalg.qr(crandn(rng, 3, 3))
    sig, sigma2 = np.array([3.0, 1.0, 0.2]), 0.5
    s = scenario_from_matrices([[(U * sig) @ V.conj().T]], [sigma2 * np.eye(3)],
                               [1.0], [1.0])
    rs = reduce_scenario(s)
    p = np.array([0.5, 0.3, 0.2]) * 1e-12
    got = rate(rs, 0, StrategyProfile([np.diag(p).astype(complex)]))
    want = float(np.log1p(sig ** 2 * p / sigma2).sum())
    assert abs(got - want) <= 1e-12 * want


def test_scenario_json_round_trip(tmp_path):
    s = generate_scenario(3, 2, 7.0, 3.0, seed=11)
    path = tmp_path / "scn.json"
    save_scenario(s, path)
    t = load_scenario(path)
    assert t.Q == s.Q and t.seed == s.seed
    for q in range(3):
        assert np.array_equal(t.Rn[q], s.Rn[q])
        assert np.array_equal(t.P, s.P) and np.array_equal(t.Psi, s.Psi)
        for r in range(3):
            assert np.array_equal(t.H[q][r], s.H[q][r])
    # a second write produces identical bytes
    path2 = tmp_path / "scn2.json"
    save_scenario(t, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_scenario_dict_rejects_garbage():
    with pytest.raises(InvalidInputError):
        scenario_from_dict({"Q": 2})
    d = scenario_to_dict(generate_scenario(2, 2, 7.0, 0.0, seed=0))
    assert json.dumps(d)  # JSON-serializable
    # every channel given is read: a 3 x 3 table, or a row of three, at Q = 2
    big = scenario_to_dict(generate_scenario(3, 2, 7.0, 0.0, seed=0))["H"]
    for H, message in [(big, "H must be a Q x Q table"),
                       ([row[:3] for row in big[:2]], "H\\[0\\] must hold 2 matrices")]:
        with pytest.raises(InvalidInputError, match=message):
            scenario_from_dict(dict(d, H=H))
    with pytest.raises(InvalidInputError, match="meta must be a dict"):
        scenario_from_dict(dict(d, meta="x"))
    for seed in (1.5, "abc", True, -1, float("inf")):
        with pytest.raises(InvalidInputError, match="seed must be an integer >= 0"):
            scenario_from_dict(dict(d, seed=seed))
    # an integral seed is kept as an int, and None stays None
    assert scenario_from_dict(dict(d, seed=2.0)).seed == 2
    assert scenario_from_dict(dict(d, seed=None)).seed is None


# --- ragged shapes: the padded batch against plain per-pair formulas ---------------

def ragged_scenario(rng, nT, nR, ranks):
    """Random scenario with direct channel q of rank ``ranks[q]``."""
    Q = len(nT)
    H = [[crandn(rng, nR[q], nT[r]) for r in range(Q)] for q in range(Q)]
    for q in range(Q):
        H[q][q] = crandn(rng, nR[q], ranks[q]) @ crandn(rng, ranks[q], nT[q])
    Rn = [np.eye(nR[q]) + random_psd(rng, nR[q], trace=0.5) for q in range(Q)]
    return scenario_from_matrices(H, Rn, [2.0, 3.0, 4.0][:Q], [1.0] * Q)


def plain_mui(rs, q, mats):
    R = np.array(rs.Rn[q], dtype=complex)
    for r in range(rs.Q):
        if r != q:
            R += rs.Hbar[q][r] @ mats[r] @ rs.Hbar[q][r].conj().T
    return R


def assert_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def test_ragged_batch_matches_per_pair_formulas(rng):
    from eeiwfa.model import _grams, _rates, _received_covariances, _whitened_channels

    # unequal nT and nR; player 1's 3x2 direct channel has rank 1
    s = ragged_scenario(rng, nT=[3, 2, 4], nR=[2, 3, 4], ranks=[2, 1, 4])
    rs = reduce_scenario(s)
    assert list(rs.ranks) == [2, 1, 4]
    N, K = 4, 4
    assert rs.HbarH.shape == (3, K, 3, N) and not rs.HbarH.flags.writeable
    for q in range(3):
        for r in range(3):
            assert np.array_equal(rs.HbarH[r, :, q, :], rs.Hbar.array[q, r].conj().T)
    mats = [random_psd(rng, int(r), trace=1.0) for r in rs.ranks]
    P = StrategyProfile(mats).stack
    # M = 4 profiles side by side, the first of them P
    profiles = [mats] + [[random_psd(rng, int(r), trace=1.0) for r in rs.ranks]
                         for _ in range(3)]
    Ps = np.stack([StrategyProfile(m).stack for m in profiles])
    X = _whitened_channels(rs, P[None], [range(3)])
    grams = _grams(X)
    assert grams.shape == (3, K, K)
    stacked = _received_covariances(rs.HbarH, rs.Rn.stack, Ps, [range(3)] * 4)
    assert stacked.shape == (12, N, N)
    stacked = stacked.reshape(4, 3, N, N)
    plain_grams = []
    for q in range(3):
        n, k = s.nR[q], rs.ranks[q]
        for r in range(3):
            assert rs.Hbar[q][r].shape == (n, rs.ranks[r])
            assert_close(rs.Hbar[q][r], s.H[q][r] @ rs.V1[r])
        assert rs.Hbar[q].stack.shape == (3, N, K)
        R = plain_mui(rs, q, mats)
        for m, padded in enumerate(stacked[:, q]):
            one = _received_covariances(rs.HbarH, rs.Rn.stack, Ps[m][None], [[q]])
            assert one.shape == (1, N, N)
            assert np.array_equal(padded, one[0])
            assert_close(padded[:n, :n], plain_mui(rs, q, profiles[m]))
            assert np.array_equal(padded[n:, n:], np.eye(N - n))
            assert not padded[:n, n:].any() and not padded[n:, :n].any()
        assert_close(stacked[0, q, :n, :n], R)
        assert_close(mui_covariance(rs, q, StrategyProfile(mats)), R)
        Hqq = rs.Hbar[q][q]
        G = Hqq.conj().T @ np.linalg.solve(R, Hqq)
        plain_grams.append(G)
        assert_close(grams[q, :k, :k], G)
        assert not grams[q, k:].any() and not grams[q, :, k:].any()
        assert_close(whitened_gram(rs, q, StrategyProfile(mats)), G)
    plain_rates = np.array([
        np.linalg.slogdet(np.eye(len(m)) + G @ m)[1]
        for G, m in zip(plain_grams, mats)
    ])
    assert_close(_rates(X, P), plain_rates)
    assert_close(
        np.array([rate(rs, q, StrategyProfile(mats)) for q in range(3)]), plain_rates
    )


class _Formed(Exception):
    """Raised by a recording stand-in once a pass has formed its covariances."""


def formed_in_evaluate(rs, stack, readers, measured):
    """The covariances that iwfa._evaluate's whitening pass forms for every
    player at ``stack`` and for the ``readers`` at their ``measured``
    stacks, in the pass's row order."""
    formed, real = [], model._received_covariances

    def record(*args):
        formed.append(real(*args))
        raise _Formed

    with mock.patch.object(model, "_received_covariances", record), pytest.raises(_Formed):
        iwfa._evaluate(rs, np.stack([stack, *measured]), [], readers, cfg=DinkelbachConfig())
    return formed[0]


def antenna_counts(Q):
    """nR, nT and direct-channel ranks of Q players, each 1 to 3 (a rank
    is cut to its channel's smaller side)."""
    counts = st.lists(st.integers(1, 3), min_size=Q, max_size=Q)
    return st.tuples(counts, counts, counts)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 17).flatmap(antenna_counts), st.integers(2, 4), st.integers(0, 2**32 - 1))
@example(([2] * 3, [2] * 3, [2] * 3), 3, 0)
@example(([3] * 17, [3] * 17, [3] * 17), 3, 0)
def test_a_receivers_covariance_does_not_depend_on_the_call_that_forms_it(counts, M, seed):
    # A receiver's MUI covariance has the same bits formed with every
    # receiver at a profile, alone, among M profiles side by side, or as a
    # delayed reader in an iwfa pass: each product is taken over a block of
    # receivers fixed by the receiver alone. (Q, n) = (3, 2) and (17, 3)
    # are shapes where a block that followed the call changed them.
    from eeiwfa.equilibrium import _random_covariances
    from eeiwfa.model import _received_covariances

    rng = np.random.default_rng(seed)
    nR, nT, ranks = counts
    Q = len(nR)
    ranks = [min(k, n, t) for k, n, t in zip(ranks, nR, nT)]
    H = [[crandn(rng, nR[q], nT[r]) / np.sqrt(Q) for r in range(Q)] for q in range(Q)]
    for q in range(Q):
        H[q][q] = crandn(rng, nR[q], ranks[q]) @ crandn(rng, ranks[q], nT[q])
    Rn = [np.eye(n) + random_psd(rng, n, trace=0.5) for n in nR]
    rs = reduce_scenario(scenario_from_matrices(H, Rn, rng.uniform(0.5, 4.0, Q), [1.0] * Q))
    assert list(rs.ranks) == ranks
    P = _random_covariances(rng, rs.ranks, rs.P, M)
    G, noise = rs.HbarH, rs.Rn.stack
    every = [_received_covariances(G, noise, P[m][None], [range(Q)]) for m in range(M)]
    assert np.array_equal(_received_covariances(G, noise, P, [range(Q)] * M),
                          np.concatenate(every))
    for m, R in enumerate(every):
        for q in range(Q):
            assert np.array_equal(_received_covariances(G, noise, P[m][None], [[q]])[0], R[q])
    # delayed readers, each measuring a profile that mixes several
    readers = rng.integers(0, Q, M)
    measured = [P[view, np.arange(Q)] for view in rng.integers(0, M, (M, Q))]
    batch = formed_in_evaluate(rs, P[0], readers, measured)
    assert np.array_equal(batch[:Q], every[0])
    for R, q, stack in zip(batch[Q:], readers, measured):
        assert np.array_equal(R, _received_covariances(G, noise, stack[None], [[q]])[0])
    for q in range(Q):
        n = rs.Rn.rows[q]
        assert_close(every[0][q, :n, :n],
                     plain_mui(rs, q, StrategyProfile.from_stack(P[0], rs.ranks)))


def test_ragged_batched_best_responses_match_single_player(rng):
    from eeiwfa.best_response import _best_responses, best_response
    from eeiwfa.model import _whitened_channels

    s = ragged_scenario(rng, nT=[3, 2, 4], nR=[2, 3, 4], ranks=[2, 1, 4])
    rs = reduce_scenario(s)
    prof = StrategyProfile([random_psd(rng, int(r), trace=1.0) for r in rs.ranks])
    X = _whitened_channels(rs, prof.stack[None], [range(3)])
    Qbr, _, _, _, iters = _best_responses(rs, range(3), X, DinkelbachConfig())
    assert Qbr.shape == (3, 4, 4)
    for q in range(3):
        single = best_response(rs, q, prof)
        k = rs.ranks[q]
        assert not Qbr[q, k:].any() and not Qbr[q, :, k:].any()
        assert_close(Qbr[q, :k, :k], single.Qbr, rel=1e-9)
        assert iters[q] == single.dinkelbach_iters
