import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eeiwfa.best_response import best_response

from eeiwfa.equilibrium import (
    InterferenceMatrix,
    _qvi_apply,
    _random_covariances,
    PowerSmoothnessConfig,
    criteria,
    estimate_power_smoothness,
    identity_channel_scenario,
    interference_matrix_rowrank,
    interference_matrix_sampled,
    interference_matrix_square,
    qvi_map,
    sqrtq_observed_ratio,
    verify_lipschitz,
    verify_monotonicity,
    verify_power_set_smoothness,
)
from eeiwfa.errors import InvalidInputError
from eeiwfa.linalg import pseudo_inverse, psd_trace_projection
from eeiwfa.model import (
    ChannelTable,
    StrategyProfile,
    _ct,
    _unwide,
    _wide,
    generate_scenario,
    reduce_scenario,
    scenario_from_matrices,
    whitened_gram,
)

import blas_core
from conftest import crandn, random_profile, random_psd, rowrank_oracle, with_player


def scaled_identity_scenario(Q, alpha, n=2, p=2.0):
    """Identity direct channels, alpha*I cross channels."""
    H = [
        [np.eye(n, dtype=complex) if q == r else alpha * np.eye(n, dtype=complex)
         for r in range(Q)]
        for q in range(Q)
    ]
    return scenario_from_matrices(H, [np.eye(n)] * Q, [p] * Q, [1.0] * Q)


# --- interference matrices ---------------------------------------------------

def test_square_matrix_identity_alpha():
    rs = reduce_scenario(scaled_identity_scenario(3, 0.5))
    S = interference_matrix_square(rs)
    off = ~np.eye(3, dtype=bool)
    assert np.abs(S.S[off] - 0.25).max() <= 1e-12
    assert np.all(np.diagonal(S.S) == 0.0)


def test_square_matrix_two_player_symmetric():
    rs = reduce_scenario(scaled_identity_scenario(2, 0.7))
    S = interference_matrix_square(rs)
    rep = criteria(S)
    assert abs(rep.sr_S - 0.49) <= 1e-9
    assert np.abs(rep.perron_w - np.sqrt(0.5)).max() <= 1e-8


def test_square_matrix_diagonal_channels_scalar_oracle():
    s = generate_scenario(3, 4, 7.0, 0.0, seed=21, channel_kind="diagonal")
    rs = reduce_scenario(s)
    S = interference_matrix_square(rs)
    for q in range(3):
        for r in range(3):
            if q == r:
                continue
            ratios = np.abs(np.diagonal(s.H[q][r]) / np.diagonal(s.H[q][q])) ** 2
            assert abs(S.S[q, r] - ratios.max()) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 17), st.integers(1, 8), st.sampled_from(["full", "diagonal"]),
       st.lists(st.integers(0, 2**96 - 1), min_size=1, max_size=4),
       st.floats(-10.0, 30.0))
@example(17, 8, "full", [0, 2**40 + 7, 2**70, 2**32 - 1], 5.0)
@example(1, 3, "diagonal", [5, 2**64], 0.0)
def test_list_forms_equal_the_per_item_calls(Q, n, kind, seeds, sir_db):
    # seeds of one to three 32-bit words side by side in one list
    many = generate_scenario(Q, n, 7.0, sir_db if Q > 1 else np.inf, seed=seeds,
                             channel_kind=kind)
    reduced = reduce_scenario(many)
    mats = interference_matrix_square(reduced)
    reports = criteria(mats)
    assert len(reduced) == len(mats) == len(reports) == len(seeds)
    for s, rs, S, rep in zip(many, reduced, mats, reports):
        one = reduce_scenario(s)
        for name in ("ranks", "P", "Psi", "meta"):
            assert np.array_equal(getattr(rs, name), getattr(one, name)), name
        for a, b in ((rs.Hbar.array, one.Hbar.array), (rs.V1.stack, one.V1.stack)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert (rs.V1.rows, rs.V1.cols) == (one.V1.rows, one.V1.cols)
        assert [rs.Hbar[q][r].shape for q in range(Q) for r in range(Q)] == \
            [one.Hbar[q][r].shape for q in range(Q) for r in range(Q)]
        assert rs.Rn is s.Rn
        S1 = interference_matrix_square(one)
        assert S.S.tobytes() == S1.S.tobytes() and S.variant == S1.variant
        rep1 = criteria(S1)
        for key, value in rep.to_dict().items():
            assert value == rep1.to_dict()[key], key
        assert rep.perron_w.tobytes() == rep1.perron_w.tobytes()


def test_a_failing_list_raises_the_error_of_the_list_as_a_whole():
    def singular(rs, q):
        A = rs.Hbar.array.copy()
        A[q, q, 0] = 0.0
        return replace(rs, Hbar=ChannelTable(A, rs.Rn.rows, rs.ranks))

    good = reduce_scenario(generate_scenario(3, 2, 7.0, 5.0, seed=[1, 2, 3]))
    # receiver 0 fails first over the whole list: trial 2's, not trial 1's
    # receiver 2, which a per-item loop would reach first
    with pytest.raises(InvalidInputError,
                       match="^reduced direct channel of player 0 is singular$"):
        interference_matrix_square([good[0], singular(good[1], 2), singular(good[2], 0)])
    with pytest.raises(InvalidInputError,
                       match="^reduced direct channel of player 2 is singular$"):
        interference_matrix_square(singular(good[1], 2))
    # a tall direct channel reduces to other ranks than the rest of the list's
    s = generate_scenario(3, 2, 7.0, 5.0, seed=4, channel_kind="diagonal")
    T = s.H.array.copy()
    T[0, 0, 0, 0] = 0.0
    tall = reduce_scenario(replace(s, H=ChannelTable(T, s.nR, s.nT)))
    with pytest.raises(InvalidInputError, match="^direct channel of player 0 is not full row"):
        interference_matrix_square(tall)
    for mixed in ([good[0], singular(good[1], 2), tall], [good[0], tall, singular(good[1], 2)]):
        with pytest.raises(InvalidInputError, match="^the reduced scenarios of a list must share"
                                                    " Q, nR and ranks$"):
            interference_matrix_square(mixed)
    with pytest.raises(InvalidInputError, match="must share Q, nR and ranks"):
        interference_matrix_square([good[0], reduce_scenario(generate_scenario(2, 2, 7.0, 5.0,
                                                                               seed=1))])
    with pytest.raises(InvalidInputError, match="need at least one scenario"):
        interference_matrix_square([])


def test_a_failing_criteria_list_raises_the_error_of_the_stack_as_a_whole():
    S = interference_matrix_square(reduce_scenario(generate_scenario(3, 2, 7.0, 5.0, seed=1)))
    nan = InterferenceMatrix(np.array([[0.0, np.nan, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                             "exact-square")
    with pytest.raises(InvalidInputError, match="^A has non-finite entries$"):
        criteria([S, nan])
    with pytest.raises(InvalidInputError, match="^A has non-finite entries$"):
        criteria(nan)
    # in a list of 3x3 matrices, a 2x2 one fails on the stack's shape
    # before its NaN is seen
    bad = InterferenceMatrix(np.array([[0.0, np.nan], [1.0, 0.0]]), "exact-square")
    with pytest.raises(InvalidInputError, match="^the interference matrices of a list must"
                                                " share Q$"):
        criteria([S, bad])
    with pytest.raises(InvalidInputError, match="must share Q"):
        criteria([S, InterferenceMatrix(np.zeros((2, 2)), "exact-square")])
    with pytest.raises(InvalidInputError, match="need at least one interference matrix"):
        criteria(())


def test_a_large_interference_matrix_is_pinned():
    # SHA-256 of one Q=64 n=8 scenario's S, taken before S took a trial axis,
    # one per OpenBLAS core
    rs = reduce_scenario(generate_scenario(64, 8, 7.0, 5.0, seed=0, power=8.0))
    assert hashlib.sha256(interference_matrix_square(rs).S.tobytes()).hexdigest() == (
        blas_core.pinned({
            "SkylakeX": "78c9c4a71425b73482c7295338d582dde1d2e1524b1a444c734f20c41bd9345b",
            "Haswell": "f9871e0fdae97389571d89613336a2ba965a0f691d78f7083bd6c0c56014a22a",
            "Katmai": "5916fa976ea37779e9fefc2560e2aaaeebdaf64f3ca5b6e58d549d0385fe2989",
        }))


def test_square_matrix_rejects_tall_channels(rng):
    H = [[crandn(rng, 4, 2) for _ in range(2)] for _ in range(2)]
    rs = reduce_scenario(
        scenario_from_matrices(H, [np.eye(4)] * 2, [2.0] * 2, [1.0] * 2)
    )
    with pytest.raises(InvalidInputError, match="sampled"):
        interference_matrix_square(rs)


def per_receiver_reference(rs):
    """The interference matrix and the QVI operator (C, G) as a loop over
    the receivers, each with one np.linalg.solve(Hqq, [Hbar_q0 | Hbar_q1 |
    ...]) for its normalized channels X_qr and two more for its noise; G
    holds X_qr^H at [r, :, q, :]."""
    Q, K = rs.Q, rs.Hbar.array.shape[3]
    S = np.zeros((Q, Q))
    C = np.zeros((Q, K, K), dtype=complex)
    G = np.zeros((Q, K, Q, K), dtype=complex)
    for q in range(Q):
        Hqq = rs.Hbar[q][q]
        n = Hqq.shape[0]
        Xq = _unwide(np.linalg.solve(Hqq, _wide(rs.Hbar.array[q, :, :n])), Q)
        S[q] = np.linalg.eigvalsh(_ct(Xq) @ Xq)[..., -1]
        S[q, q] = 0.0
        for r in range(Q):
            G[r, :, q, :n] = _ct(Xq[r])
        C[q, :n, :n] = _ct(np.linalg.solve(Hqq, _ct(np.linalg.solve(Hqq, rs.Rn[q]))))
    return S, (C, G)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(1, 4), min_size=2, max_size=5), st.integers(0, 2**16))
@example([1, 4], 0)
@example([4, 1, 3, 2, 4], 1)
def test_one_receiver_pass_matches_the_per_receiver_loop(ns, seed):
    rng = np.random.default_rng(seed)
    Q = len(ns)
    H = [[crandn(rng, ns[q], ns[r]) for r in range(Q)] for q in range(Q)]
    Rn = [np.eye(n) + random_psd(rng, n, trace=0.5) for n in ns]
    rs = reduce_scenario(scenario_from_matrices(H, Rn, rng.uniform(0.5, 4.0, Q), [1.0] * Q))
    assert list(rs.ranks) == ns
    S, op = per_receiver_reference(rs)
    profile = random_profile(rs, rng)
    assert np.array_equal(interference_matrix_square(rs).S, S)
    assert np.array_equal(qvi_map(rs, profile).stack, _qvi_apply(op, profile.stack[None])[0])


@pytest.mark.parametrize("tall,singular", [(0, 1), (1, 0)])
def test_the_lower_failing_direct_channel_is_reported(rng, tall, singular):
    # Player `tall` keeps a 3x2 reduced direct channel, player `singular`
    # a square one with a zero row; the error names the lower of the two.
    nR = [2, 2, 2]
    nR[tall] = 3
    H = [[crandn(rng, nR[q], 2) for _ in range(3)] for q in range(3)]
    rs = reduce_scenario(scenario_from_matrices(
        H, [np.eye(n) for n in nR], [2.0] * 3, [1.0] * 3))
    A = rs.Hbar.array.copy()
    A[singular, singular, 0, :] = 0.0
    rs = replace(rs, Hbar=ChannelTable(A, nR, rs.ranks))
    msg = (f"direct channel of player 0 is not full row rank (reduced to 3x2);"
           " use interference_matrix_sampled for full-column-rank channels"
           if tall == 0 else "reduced direct channel of player 0 is singular")
    for call in (lambda: interference_matrix_square(rs),
                 lambda: qvi_map(rs, StrategyProfile.uniform(rs))):
        with pytest.raises(InvalidInputError) as err:
            call()
        assert str(err.value) == msg


def test_interference_matrix_validation():
    with pytest.raises(InvalidInputError):
        InterferenceMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]), "exact-square")
    with pytest.raises(InvalidInputError):
        InterferenceMatrix(-np.ones((2, 2)) + np.eye(2), "exact-square")


def test_rowrank_matches_square_for_square_channels():
    # the per-pair pseudoinverse formula on the original channels
    s = generate_scenario(3, 3, 7.0, 5.0, seed=22)
    Sr = interference_matrix_rowrank(s)
    assert np.abs(rowrank_oracle(s.H) - Sr.S).max() <= 1e-10
    assert Sr.variant == "pseudoinverse-rowrank"


def test_rowrank_wide_channels_v_factor_tightens(rng):
    for _ in range(20):
        Q = 2
        H = [[crandn(rng, 2, 4) for _ in range(Q)] for _ in range(Q)]
        s = scenario_from_matrices(H, [np.eye(2)] * Q, [2.0] * Q, [1.0] * Q)
        Sr = interference_matrix_rowrank(s)
        for q in range(Q):
            for r in range(Q):
                if q == r:
                    continue
                unfactored = np.linalg.norm(
                    pseudo_inverse(H[q][q]) @ H[q][r], 2
                ) ** 2
                assert Sr.S[q, r] <= unfactored + 1e-10
        assert np.abs(rowrank_oracle(H) - Sr.S).max() <= 1e-10


def test_rowrank_rejects_rank_deficient(rng):
    H = [[crandn(rng, 4, 2) for _ in range(2)] for _ in range(2)]  # rank 2 < nR 4
    s = scenario_from_matrices(H, [np.eye(4)] * 2, [2.0] * 2, [1.0] * 2)
    with pytest.raises(InvalidInputError):
        interference_matrix_rowrank(s)


def test_sampled_equals_square_for_square_channels():
    s = generate_scenario(3, 2, 7.0, 3.0, seed=23)
    rs = reduce_scenario(s)
    Se = interference_matrix_square(rs)
    for seed in (0, 99):
        Ss = interference_matrix_sampled(rs, 4, seed=seed)
        assert np.abs(Se.S - Ss.S).max() <= 1e-9


def test_sampled_monotone_in_sample_count(rng, monkeypatch):
    # square, tall and rank-deficient direct channels; in chunks of 16, 16
    # and 17 samples sit on either side of a draw-chunk boundary
    from eeiwfa import equilibrium
    from test_model import ragged_scenario

    monkeypatch.setattr(equilibrium, "_chunk", lambda s: 16)
    rs = reduce_scenario(ragged_scenario(rng, nT=[3, 2, 4], nR=[2, 3, 4], ranks=[2, 1, 4]))
    S = [interference_matrix_sampled(rs, n, seed=7).S for n in (1, 16, 17, 40)]
    assert all(np.isfinite(Sn).all() for Sn in S)
    for fewer, more in zip(S, S[1:]):
        assert np.all(more >= fewer)
    assert np.any(S[-1] > S[0])


def test_sampled_tall_channels_match_per_sample_oracle(rng):
    # recompute every sample with plain inverses and take the same max
    H = [[crandn(rng, 4, 2) for _ in range(2)] for _ in range(2)]
    rs = reduce_scenario(
        scenario_from_matrices(H, [0.5 * np.eye(4)] * 2, [2.0] * 2, [1.0] * 2)
    )
    n_samples, seed = 5, 31
    got = interference_matrix_sampled(rs, n_samples, seed=seed)
    rng2 = np.random.default_rng(seed)
    want = np.zeros((2, 2))
    for _ in range(n_samples):
        delta = [
            _random_covariances(rng2, [rs.ranks[q]], [rs.P[q]], 1, rule="frame-simplex")[0, 0]
            for q in range(2)
        ]
        for q in range(2):
            R = np.array(rs.Rn[q], dtype=complex)
            for r in range(2):
                if r != q:
                    R += rs.Hbar[q][r] @ delta[r] @ rs.Hbar[q][r].conj().T
            Rinv = np.linalg.inv(R)
            Hqq = rs.Hbar[q][q]
            gram = Hqq.conj().T @ Rinv @ Hqq
            assert np.linalg.eigvalsh(0.5 * (gram + gram.conj().T)).min() > 0
            for r in range(2):
                if r == q:
                    continue
                G = np.linalg.inv(gram) @ Hqq.conj().T @ Rinv @ rs.Hbar[q][r]
                want[q, r] = max(want[q, r], np.linalg.norm(G, 2) ** 2)
    assert np.abs(got.S - want).max() <= 1e-8


# --- criteria -----------------------------------------------------------------

def test_criteria_zero_interference():
    rep = criteria(InterferenceMatrix(np.zeros((3, 3)), "exact-square"))
    assert rep.sr_S == 0.0 and rep.sr_Ssym == 0.0
    assert rep.interference_ok_qvi and rep.interference_ok_contraction
    assert abs(rep.qvi_rhs_constant - 1.0) <= 1e-12
    assert abs(rep.contraction_rhs_constant - 1.0) <= 1e-12
    assert rep.perron_degenerate


def test_criteria_symmetric_matrix():
    S = np.array([[0.0, 0.3], [0.3, 0.0]])
    rep = criteria(InterferenceMatrix(S, "exact-square"))
    assert abs(rep.sr_S - rep.sr_Ssym) <= 1e-12


def test_criteria_random_against_dense_solver(rng):
    for _ in range(30):
        n = int(rng.integers(2, 8))
        S = rng.uniform(0.0, 1.5, size=(n, n))
        np.fill_diagonal(S, 0.0)
        rep = criteria(InterferenceMatrix(S, "exact-square"))
        dense_sr = np.abs(np.linalg.eigvals(S)).max()
        dense_sym = np.linalg.eigvalsh(0.5 * (S + S.T)).max()
        assert abs(rep.sr_S - dense_sr) <= 1e-8 * max(1.0, dense_sr)
        assert abs(rep.sr_Ssym - dense_sym) <= 1e-8 * max(1.0, dense_sym)
        assert rep.sr_S <= rep.sr_Ssym + 1e-9
        assert rep.sigma_max_IplusS >= 1.0
        if rep.interference_ok_qvi:
            assert rep.interference_ok_contraction
            assert rep.qvi_rhs_constant <= rep.contraction_rhs_constant + 1e-9


def test_criteria_to_dict_serializes():
    import json

    rep = criteria(InterferenceMatrix(np.zeros((2, 2)), "exact-square"))
    assert json.dumps(rep.to_dict())


# --- the QVI mapping -----------------------------------------------------------

def test_qvi_map_identity_channels_zero_profile():
    H = [[np.eye(2, dtype=complex) for _ in range(3)] for _ in range(3)]
    rs = reduce_scenario(scenario_from_matrices(H, [0.7 * np.eye(2)] * 3, [2.0] * 3,
                                                [1.0] * 3))
    F = qvi_map(rs, StrategyProfile.zeros(rs))
    for q in range(3):
        assert np.abs(F[q] - 0.7 * np.eye(2)).max() <= 1e-12


def test_qvi_map_identity_channels_single_active_player(rng):
    rs = reduce_scenario(identity_channel_scenario(3, n=2))
    Qo = random_psd(rng, 2, trace=1.5)
    prof = with_player(StrategyProfile.zeros(rs), 1, Qo)
    F = qvi_map(rs, prof)
    for q in range(3):
        assert np.abs(F[q] - (rs.Rn[q] + Qo)).max() <= 1e-12


def test_qvi_map_matches_direct_formula(rng):
    s = generate_scenario(3, 3, 7.0, 0.0, seed=24)
    rs = reduce_scenario(s)
    prof = StrategyProfile([random_psd(rng, 3, trace=2.0) for _ in range(3)])
    F = qvi_map(rs, prof)
    from eeiwfa.model import whitened_gram

    for q in range(3):
        # independent route: F_q = Qbar_q + G^{-1} via the whitened gram
        G = whitened_gram(rs, q, prof)
        want = prof[q] + np.linalg.inv(G)
        assert np.abs(F[q] - want).max() <= 1e-9


@settings(deadline=None, max_examples=25)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 1)), min_size=1, max_size=3),
       st.integers(0, 2 ** 32 - 1))
@example([(1, 0)], 0)
@example([(1, 0), (1, 1)], 1)
@example([(2, 1), (1, 0), (3, 0)], 2)
def test_qvi_map_is_the_best_response_route(shapes, seed):
    # square reduced games: nR[q] receive antennas and a full-row-rank direct
    # channel with nR[q] + extra[q] transmit antennas
    rng = np.random.default_rng(seed)
    Q = len(shapes)
    nR = [n for n, _ in shapes]
    nT = [n + extra for n, extra in shapes]
    H = [[crandn(rng, nR[q], nT[r]) for r in range(Q)] for q in range(Q)]
    Rn = [np.eye(n) + random_psd(rng, n, trace=0.5) for n in nR]
    rs = reduce_scenario(scenario_from_matrices(H, Rn, rng.uniform(0.5, 4.0, Q),
                                                [1.0] * Q))
    assert list(rs.ranks) == nR
    for _ in range(4):
        prof = random_profile(rs, rng)
        F = qvi_map(rs, prof)
        for q in range(Q):
            # F_q = Qbar_q + G_q^{-1}, G_q the whitened gram
            want = prof[q] + np.linalg.inv(whitened_gram(rs, q, prof))
            assert np.abs(F[q] - want).max() <= 1e-11 * np.abs(want).max()
            # so the best response is the projection of Qbar_q - F_q = -G_q^{-1}
            br = best_response(rs, q, prof)
            got = psd_trace_projection(prof[q] - F[q], br.p_hat)
            assert np.abs(got - br.Qbr).max() <= 1e-9 * max(br.p_hat, 1e-300)


def test_qvi_map_is_affine(rng):
    s = generate_scenario(2, 2, 7.0, 0.0, seed=25)
    rs = reduce_scenario(s)
    pa = StrategyProfile([random_psd(rng, 2, trace=1.0) for _ in range(2)])
    pb = StrategyProfile([random_psd(rng, 2, trace=2.0) for _ in range(2)])
    alpha = 0.3
    mix = StrategyProfile([alpha * a + (1 - alpha) * b for a, b in zip(pa, pb)])
    fa, fb, fm = qvi_map(rs, pa), qvi_map(rs, pb), qvi_map(rs, mix)
    for q in range(2):
        assert np.abs(fm[q] - (alpha * fa[q] + (1 - alpha) * fb[q])).max() <= 1e-12


# --- verifiers -------------------------------------------------------------------

def test_verify_lipschitz_zero_cross_channels(rng):
    rs = reduce_scenario(scaled_identity_scenario(3, 0.0))
    rep = verify_lipschitz(rs, n_pairs=100, seed=0)
    assert rep.status == "ok"
    assert rep.constant == 1.0
    assert rep.max_ratio <= 1.0 + 1e-9


def test_verify_lipschitz_random_scenario():
    rs = reduce_scenario(generate_scenario(4, 2, 7.0, 5.0, seed=26))
    rep = verify_lipschitz(rs, n_pairs=200, seed=1)
    assert rep.status == "ok"
    assert rep.max_ratio <= rep.constant + 1e-9


def test_verify_monotonicity_zero_interference(rng):
    rs = reduce_scenario(scaled_identity_scenario(2, 0.0))
    rep = verify_monotonicity(rs, n_pairs=50, seed=2)
    assert rep.status == "ok"
    assert abs(rep.constant - 1.0) <= 1e-12
    # with F = Q + const the inner product equals the squared distance
    assert rep.max_ratio >= -1e-9


def test_verify_monotonicity_symmetric_alpha():
    rs = reduce_scenario(scaled_identity_scenario(2, 0.6))  # sr(S^s) = 0.36
    rep = verify_monotonicity(rs, n_pairs=200, seed=3)
    assert rep.status == "ok"
    assert abs(rep.constant - (1.0 - 0.36)) <= 1e-9


def test_verify_monotonicity_skips_when_inapplicable():
    rs = reduce_scenario(scaled_identity_scenario(2, 1.5))  # sr(S^s) = 2.25
    rep = verify_monotonicity(rs, n_pairs=10, seed=4)
    assert rep.status == "skipped"
    assert not np.isfinite(rep.max_ratio) or np.isnan(rep.max_ratio)


def test_power_set_smoothness_identical_powers(rng):
    from eeiwfa.linalg import psd_trace_projection

    Y = crandn(rng, 3, 3)
    Y = 0.5 * (Y + Y.conj().T)
    a = psd_trace_projection(Y, 1.3)
    b = psd_trace_projection(Y, 1.3)
    assert np.abs(a - b).max() == 0.0


def test_power_set_smoothness_scalar_tight():
    from eeiwfa.linalg import psd_trace_projection

    # scalar player, Y = 0: projections are p and p', distance |p - p'|
    Y = np.zeros((1, 1))
    a = psd_trace_projection(Y, 0.8)
    b = psd_trace_projection(Y, 0.3)
    assert abs(np.linalg.norm(a - b, "fro") - 0.5) <= 1e-12


def test_verify_power_set_smoothness_random():
    rs = reduce_scenario(generate_scenario(3, 4, 7.0, 0.0, seed=27))
    rep = verify_power_set_smoothness(rs, n_triples=200, seed=5)
    assert rep.status == "ok"
    assert rep.max_ratio <= 1.0 + 1e-9


def perron_smoothness(rs, cfg):
    """The smoothness estimate weighted by the Perron vector of S, as
    ``criteria eval`` weights it."""
    return estimate_power_smoothness(rs, cfg, criteria(interference_matrix_square(rs)).perron_w)


def test_estimate_power_smoothness_interference_free():
    rs = reduce_scenario(scaled_identity_scenario(3, 0.0))
    est = perron_smoothness(rs, PowerSmoothnessConfig(n_pairs=10, seed=0))
    assert est.max_ratio_l2 <= 1e-9
    assert est.max_ratio_weighted_inf <= 1e-9


def test_estimate_power_smoothness_all_clipped():
    # tiny budgets: p_u > P everywhere sampled, so p_hat is constant
    s = scaled_identity_scenario(2, 0.5, p=1e-4)
    rs = reduce_scenario(s)
    est = perron_smoothness(rs, PowerSmoothnessConfig(n_pairs=20, seed=1))
    assert est.max_ratio_l2 <= 1e-9


def test_estimate_power_smoothness_finite_positive():
    rs = reduce_scenario(generate_scenario(3, 2, 7.0, 0.0, seed=28))
    est = perron_smoothness(rs, PowerSmoothnessConfig(n_pairs=30, seed=2))
    assert np.isfinite(est.max_ratio_l2) and est.max_ratio_l2 > 0.0
    assert np.isfinite(est.max_ratio_weighted_inf)
    assert est.n_pairs + est.n_skipped <= 30


# --- the sqrt(Q) construction -----------------------------------------------------

@pytest.mark.parametrize("Q", [2, 4, 8])
def test_sqrtq_ratio_exact(Q):
    rs = reduce_scenario(identity_channel_scenario(Q, n=2))
    ratio = sqrtq_observed_ratio(rs, seed=0)
    assert abs(ratio - np.sqrt(Q)) <= 1e-9


def test_sqrtq_exceeds_trivial_bound():
    # pins the QVI route's constant strictly above 1 for Q >= 2
    rs = reduce_scenario(identity_channel_scenario(4, n=3))
    assert sqrtq_observed_ratio(rs, seed=1) > 1.0 + 0.5


def test_interference_entries_monotone_in_sir():
    # scaling every cross channel down scales S quadratically, so raising
    # the SIR can only shrink the spectral radius
    base = generate_scenario(3, 3, 7.0, 0.0, seed=40)
    for factor in (0.5, 0.1):
        H = [
            [base.H[q][r] if q == r else factor * base.H[q][r] for r in range(3)]
            for q in range(3)
        ]
        scaled = scenario_from_matrices(H, base.Rn, base.P, base.Psi)
        S0 = interference_matrix_square(reduce_scenario(base)).S
        S1 = interference_matrix_square(reduce_scenario(scaled)).S
        assert np.all(S1 <= S0 + 1e-12)
        assert np.abs(S1 - factor ** 2 * S0).max() <= 1e-9 * max(1.0, S0.max())
        from eeiwfa.linalg import spectral_radius

        assert spectral_radius(S1)[0] <= spectral_radius(S0)[0] + 1e-9


def test_ragged_qvi_map_and_interference_matrices_match_per_pair_formulas(rng):
    from test_model import assert_close, plain_mui, ragged_scenario

    # unequal nT and nR with square reduced direct channels of sizes 2, 2, 3
    rs = reduce_scenario(ragged_scenario(rng, nT=[3, 2, 4], nR=[2, 2, 3], ranks=[2, 2, 3]))
    mats = [random_psd(rng, int(r), trace=1.0) for r in rs.ranks]
    F = qvi_map(rs, StrategyProfile(mats))
    S = interference_matrix_square(rs).S
    want_S = np.zeros((3, 3))
    for q in range(3):
        Hqq = rs.Hbar[q][q]
        Hinv = np.linalg.inv(Hqq)
        M = plain_mui(rs, q, mats) + Hqq @ mats[q] @ Hqq.conj().T
        assert_close(F[q], Hinv @ M @ Hinv.conj().T)
        for r in range(3):
            if r != q:
                want_S[q, r] = np.linalg.norm(Hinv @ rs.Hbar[q][r], 2) ** 2
    assert_close(S, want_S)

    # rank-deficient and tall channels: the sampled variant per sample
    rs = reduce_scenario(ragged_scenario(rng, nT=[3, 2, 4], nR=[2, 3, 4], ranks=[2, 1, 4]))
    got = interference_matrix_sampled(rs, n_samples=3, seed=11).S
    draw = np.random.default_rng(11)
    want = np.zeros((3, 3))
    for _ in range(3):
        delta = [_random_covariances(draw, [r], [p], 1, rule="frame-simplex")[0, 0]
                 for r, p in zip(rs.ranks, rs.P)]
        for q in range(3):
            Rinv = np.linalg.inv(plain_mui(rs, q, delta))
            Hqq = rs.Hbar[q][q]
            gram_inv = np.linalg.inv(Hqq.conj().T @ Rinv @ Hqq)
            for r in range(3):
                if r != q:
                    G = gram_inv @ Hqq.conj().T @ Rinv @ rs.Hbar[q][r]
                    want[q, r] = max(want[q, r], np.linalg.norm(G, 2) ** 2)
    assert_close(got, want)
