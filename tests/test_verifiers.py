"""The batched lemma verifiers against a per-sample oracle.

The oracle is the plain loop the verifiers replace: one profile pair (or
one projection triple) at a time, drawn with two ``standard_normal`` calls
per matrix, F from explicit inverses, and the first violation returned as
soon as it is seen.
"""

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eeiwfa import equilibrium
from eeiwfa.best_response import DinkelbachConfig, best_response
from eeiwfa.equilibrium import (
    PowerSmoothnessConfig,
    VerifierReport,
    _chunk,
    _random_covariances,
    criteria,
    estimate_power_smoothness,
    interference_matrix_sampled,
    interference_matrix_square,
    qvi_map,
    random_covariance,
    random_profile,
    verify_lipschitz,
    verify_monotonicity,
    verify_power_set_smoothness,
)
from eeiwfa.errors import ConvergenceError, InvalidInputError
from eeiwfa.iwfa import block_max_distance
from eeiwfa.linalg import hermitize, psd_trace_projection, spectral_radius
from eeiwfa.model import (
    ChannelTable,
    StrategyProfile,
    _complex_to_lists,
    generate_scenario,
    reduce_scenario,
    scenario_from_matrices,
)

from test_model import ragged_scenario

# The chunk the tests below that cross chunk boundaries run at (see chunk16):
# their sample counts are laid out against it.
CHUNK = 16


@pytest.fixture
def chunk16(monkeypatch):
    """Run the sampled routines in chunks of CHUNK samples whatever the scenario."""
    monkeypatch.setattr(equilibrium, "_chunk", lambda s: CHUNK)


# --- the oracle ------------------------------------------------------------------

def oracle_covariance(r, p, rng, boundary):
    A = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    M = A @ A.conj().T
    target = float(p) if boundary else float(rng.uniform(0.0, p))
    return (target / float(np.trace(M).real)) * M


def oracle_profile(s, rng, boundary=False):
    return [oracle_covariance(int(r), p, rng, boundary) for r, p in zip(s.ranks, s.P)]


def oracle_frame_simplex(r, p, rng):
    """One player's full-budget draw: a Haar unitary from the phase-corrected
    QR of a complex Gaussian, then eigenvalues p * dirichlet(ones(r))."""
    Z = (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))) / np.sqrt(2)
    U, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    U = U * (d / np.abs(d))
    lam = p * rng.dirichlet(np.ones(r))
    return hermitize((U * lam) @ U.conj().T)


def oracle_qvi(s, mats):
    out = []
    for q in range(s.Q):
        M = np.array(s.Rn[q], dtype=complex)
        for r in range(s.Q):
            M += s.Hbar[q][r] @ mats[r] @ s.Hbar[q][r].conj().T
        Hinv = np.linalg.inv(s.Hbar[q][q])
        out.append(hermitize(Hinv @ M @ Hinv.conj().T))
    return out


def frob(pa, pb):
    return float(np.sqrt(sum(np.linalg.norm(a - b, "fro") ** 2 for a, b in zip(pa, pb))))


def witness(i, pa, pb):
    return {"pair_index": i,
            "profile_a": [_complex_to_lists(m) for m in pa],
            "profile_b": [_complex_to_lists(m) for m in pb]}


def oracle_lipschitz(s, n_pairs, seed, slack):
    """(report, excess): excess[i] = num - L den of every pair evaluated."""
    L = float(np.linalg.norm(np.eye(s.Q) + interference_matrix_square(s).S, 2))
    rng = np.random.default_rng(seed)
    max_ratio, excess = 0.0, []
    for i in range(n_pairs):
        pa = oracle_profile(s, rng)
        pb = oracle_profile(s, rng)
        num = frob(oracle_qvi(s, pa), oracle_qvi(s, pb))
        den = frob(pa, pb)
        if den <= 1e-12:
            excess.append(-np.inf)
            continue
        excess.append(num - L * den)
        max_ratio = max(max_ratio, num / den)
        if num > L * den + slack:
            return VerifierReport("lipschitz", "violation", i + 1, L, num / den, slack,
                                  witness=witness(i, pa, pb)), excess
    return VerifierReport("lipschitz", "ok", n_pairs, L, max_ratio, slack), excess


def oracle_monotonicity(s, n_pairs, seed, slack):
    """(report, excess): excess[i] = -margin of every pair evaluated."""
    S = interference_matrix_square(s).S
    mu = 1.0 - float(spectral_radius(0.5 * (S + S.T))[0])
    if mu <= 0.0:
        return VerifierReport("monotonicity", "skipped", 0, mu, float("nan"), slack), []
    rng = np.random.default_rng(seed)
    min_margin, excess = float("inf"), []
    for i in range(n_pairs):
        pa = oracle_profile(s, rng, boundary=True)
        pb = oracle_profile(s, rng, boundary=True)
        fa, fb = oracle_qvi(s, pa), oracle_qvi(s, pb)
        inner = sum(float(np.trace((x - y).conj().T @ (a - b)).real)
                    for x, y, a, b in zip(fa, fb, pa, pb))
        margin = inner - mu * frob(pa, pb) ** 2
        excess.append(-margin)
        min_margin = min(min_margin, margin)
        if margin < -slack:
            return VerifierReport("monotonicity", "violation", i + 1, mu, margin, slack,
                                  witness=witness(i, pa, pb)), excess
    return VerifierReport("monotonicity", "ok", n_pairs, mu, min_margin, slack), excess


def oracle_smoothness(s, n_triples, seed, slack):
    rng = np.random.default_rng(seed)
    worst, excess = 0.0, []
    for i in range(n_triples):
        ys = []
        for r, p in zip(s.ranks, s.P):
            A = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            ys.append(max(1.0, float(p)) * hermitize(A))
        pa = rng.uniform(0.0, s.P)
        pb = rng.uniform(0.0, s.P)
        dists = np.empty(s.Q)
        for q in range(s.Q):
            dists[q] = np.linalg.norm(
                psd_trace_projection(ys[q], pa[q]) - psd_trace_projection(ys[q], pb[q]), "fro")
            if dists[q] > abs(pa[q] - pb[q]) + slack:
                return VerifierReport(
                    "power-set-smoothness", "violation", i + 1, 1.0,
                    float(dists[q] / max(abs(pa[q] - pb[q]), 1e-300)), slack,
                    witness={"triple_index": i, "player": q,
                             "p_a": float(pa[q]), "p_b": float(pb[q])}), excess
        total = float(np.linalg.norm(dists))
        bound = float(np.linalg.norm(pa - pb))
        excess.append(max((dists - np.abs(pa - pb)).max(), total - bound))
        if total > bound + slack:
            return VerifierReport(
                "power-set-smoothness", "violation", i + 1, 1.0,
                total / max(bound, 1e-300), slack,
                witness={"triple_index": i, "p_a": pa.tolist(), "p_b": pb.tolist()}), excess
        if bound > 1e-12:
            worst = max(worst, total / bound)
    return VerifierReport("power-set-smoothness", "ok", n_triples, 1.0, worst, slack), excess


VERIFIERS = {
    "lipschitz": (verify_lipschitz, oracle_lipschitz),
    "monotonicity": (verify_monotonicity, oracle_monotonicity),
    "smoothness": (verify_power_set_smoothness, oracle_smoothness),
}


def assert_same_report(got, want):
    assert (got.name, got.status, got.n_samples) == (want.name, want.status, want.n_samples)
    assert got.constant == want.constant
    assert got.slack == want.slack
    assert got.witness == want.witness
    if not np.isfinite(want.max_ratio):   # nan when skipped, inf with no pairs
        np.testing.assert_equal(got.max_ratio, want.max_ratio)
    else:
        assert abs(got.max_ratio - want.max_ratio) <= 1e-12 * abs(want.max_ratio)


# --- scenarios -------------------------------------------------------------------

def lemma_scenario():
    """The scenario of configs/lemmas.json."""
    return reduce_scenario(generate_scenario(8, 4, 7.0, 20.0, seed=3, power=4.0))


def ragged_weak_scenario():
    """Square reduced direct channels of sizes 2, 2, 3, with the cross
    channels scaled down so that sr(S^s) < 1 and monotonicity is checked."""
    s = ragged_scenario(np.random.default_rng(5), nT=[3, 2, 4], nR=[2, 2, 3],
                        ranks=[2, 2, 3])
    H = [[s.H[q][r] if q == r else 0.1 * s.H[q][r] for r in range(3)] for q in range(3)]
    return reduce_scenario(scenario_from_matrices(H, s.Rn, s.P, s.Psi))


SCENARIOS = {"lemma": lemma_scenario, "ragged": ragged_weak_scenario}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("name", sorted(VERIFIERS))
@pytest.mark.parametrize("n", [0, 1, 2 * CHUNK + 5])
def test_batched_verifier_matches_per_sample_oracle(chunk16, scenario, name, n):
    s = SCENARIOS[scenario]()
    verify, oracle = VERIFIERS[name]
    want, _ = oracle(s, n, 17, 1e-9)
    assert want.status == "ok"
    assert_same_report(verify(s, n, seed=17, slack=1e-9), want)


def test_ragged_scenario_is_checked_not_skipped():
    s = ragged_weak_scenario()
    assert [m.shape for m in qvi_map(s, StrategyProfile.uniform(s))] == [(2, 2), (2, 2), (3, 3)]
    assert verify_monotonicity(s, 3, seed=0).status == "ok"


def _records(excess):
    """Indices whose excess clears every earlier one by far more than rounding."""
    out, best = [], -np.inf
    for i, e in enumerate(excess):
        if e - best > 1e-9 * (1.0 + abs(e)):
            out.append(i)
        best = max(best, e)
    return out


@pytest.mark.parametrize("name,seed", [("lipschitz", 1), ("monotonicity", 0)])
def test_forced_violations_match_oracle_mid_chunk_and_in_later_chunks(chunk16, name, seed):
    # A slack between the largest earlier excess and a record's excess makes
    # that record the first violation, wherever it sits in its chunk.
    s = lemma_scenario()
    verify, oracle = VERIFIERS[name]
    n = 4 * CHUNK
    _, excess = oracle(s, n, seed, np.inf)
    mid = [j for j in _records(excess) if j % CHUNK]
    first = [j for j in mid if j < CHUNK]
    later = [j for j in mid if j >= CHUNK]
    assert first and later
    for j in (first[-1], later[-1]):
        slack = 0.5 * (max(excess[:j]) + excess[j])
        want, _ = oracle(s, n, seed, slack)
        assert want.status == "violation" and want.n_samples == j + 1
        assert_same_report(verify(s, n, seed=seed, slack=slack), want)


def test_forced_smoothness_violation_matches_oracle(chunk16):
    # Nearly every triple has a player with one active eigenvalue, whose
    # projections move by exactly |p - p'|: the margins are all ~0, so a
    # negative slack makes the first triple the first violation.
    s = lemma_scenario()
    for slack in (-1e-6, -0.5):
        want, _ = oracle_smoothness(s, 2 * CHUNK, 4, slack)
        assert want.status == "violation"
        assert_same_report(verify_power_set_smoothness(s, 2 * CHUNK, seed=4, slack=slack),
                           want)


# --- the sampler and the shared streams -------------------------------------------

@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.booleans(),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
def test_batched_sampler_equals_per_profile_draws(ranks, boundary, seed, count):
    game = SimpleNamespace(Q=len(ranks), ranks=np.array(ranks),
                           P=np.linspace(1.0, 3.0, len(ranks)))
    stack = _random_covariances(np.random.default_rng(seed), ranks, game.P, count, boundary)
    assert stack.shape == (count, len(ranks), max(ranks), max(ranks))
    one = np.random.default_rng(seed)
    plain = np.random.default_rng(seed)
    for m in range(count):
        prof = random_profile(game, one, boundary=boundary)
        want = oracle_profile(game, plain, boundary)
        for q, r in enumerate(ranks):
            assert np.array_equal(stack[m, q, :r, :r], prof[q])
            assert np.array_equal(prof[q], want[q])
            assert not stack[m, q, r:].any() and not stack[m, q, :, r:].any()
    assert one.random() == plain.random()   # the streams end in the same place


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=5),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 20))
def test_frame_simplex_draws_equal_per_player_loop(ranks, seed, count):
    P = np.linspace(0.5, 4.0, len(ranks))
    rng = np.random.default_rng(seed)
    stack = _random_covariances(rng, ranks, P, count, rule="frame-simplex")
    plain = np.random.default_rng(seed)
    for m in range(count):
        for q, r in enumerate(ranks):
            assert np.array_equal(stack[m, q, :r, :r], oracle_frame_simplex(r, P[q], plain))
            assert not stack[m, q, r:].any() and not stack[m, q, :, r:].any()
    assert rng.random() == plain.random()   # the streams end in the same place


def test_frame_simplex_views_and_rule_check():
    ranks, P = [2, 1, 3], np.array([1.0, 2.0, 3.0])
    want = _random_covariances(np.random.default_rng(4), ranks, P, 1, rule="frame-simplex")[0]
    for boundary in (False, True):   # always on the budget: boundary is moot
        got = _random_covariances(np.random.default_rng(4), ranks, P, 1, boundary,
                                  rule="frame-simplex")[0]
        assert np.array_equal(got, want)
    assert np.abs(np.trace(got, axis1=1, axis2=2).real - P).max() <= 1e-12 * P.max()
    one = _random_covariances(np.random.default_rng(6), [3], [2.0], 1, rule="frame-simplex")[0, 0]
    assert np.array_equal(one, oracle_frame_simplex(3, 2.0, np.random.default_rng(6)))
    with pytest.raises(InvalidInputError, match="unknown sampling rule 'haar'"):
        _random_covariances(np.random.default_rng(0), ranks, P, 1, rule="haar")


def test_random_covariance_is_the_one_item_sampler():
    for boundary in (False, True):
        a = random_covariance(3, 2.0, np.random.default_rng(9), boundary=boundary)
        b = oracle_covariance(3, 2.0, np.random.default_rng(9), boundary)
        assert np.array_equal(a, b)
    assert abs(np.trace(a).real - 2.0) <= 1e-12


# --- error paths -----------------------------------------------------------------

def singular_direct_scenario():
    """A reduced scenario whose square direct channel of player 1 has a zero
    row, so its LU factorization meets an exactly zero pivot."""
    s = reduce_scenario(generate_scenario(3, 2, 7.0, 10.0, seed=8))
    A = s.Hbar.array.copy()
    A[1, 1, 0, :] = 0.0
    return replace(s, Hbar=ChannelTable(A, [2] * 3, s.ranks))


def test_singular_direct_channel_is_an_input_error():
    s = singular_direct_scenario()
    msg = "reduced direct channel of player 1 is singular"
    with pytest.raises(InvalidInputError, match=msg):
        qvi_map(s, StrategyProfile.uniform(s))
    with pytest.raises(InvalidInputError, match=msg):
        verify_lipschitz(s, 3)
    with pytest.raises(InvalidInputError, match=msg):
        interference_matrix_square(s)


# --- the power-smoothness estimate against its per-player loop -------------------

def oracle_power_smoothness(s, cfg, w):
    """The estimate as a plain loop: pairs drawn one matrix at a time
    (``oracle_profile``), and each player's clipped Dinkelbach power from its
    own gram and EVD (``best_response``), one player at a time."""
    rng = np.random.default_rng(cfg.seed)
    max_l2 = max_winf = 0.0
    used = skipped = 0

    def powers_of(profile):
        return np.array([min(float(s.P[q]),
                             best_response(s, q, profile, cfg.dinkelbach).p_unconstrained)
                         for q in range(s.Q)])

    for i in range(cfg.n_pairs):
        pa = StrategyProfile(oracle_profile(s, rng))
        ref = StrategyProfile(oracle_profile(s, rng))
        t = cfg.perturbation
        pb = ref if i % 2 == 0 else StrategyProfile(
            [(1.0 - t) * a + t * b for a, b in zip(pa, ref)])
        den_f, den_w = frob(pa, pb), block_max_distance(pa, pb, w)
        if den_f <= 1e-12 or den_w <= 1e-12:
            continue
        try:
            va, vb = powers_of(pa), powers_of(pb)
        except ConvergenceError:
            skipped += 1
            continue
        used += 1
        max_l2 = max(max_l2, float(np.linalg.norm(va - vb)) / den_f)
        max_winf = max(max_winf, float(np.max(np.abs(va - vb) / w)) / den_w)
    return max_l2, max_winf, used, skipped


def assert_power_smoothness_matches_oracle(s, cfg):
    w = np.maximum(spectral_radius(interference_matrix_square(s).S)[1], 1e-12)
    got = estimate_power_smoothness(s, cfg, w)
    l2, winf, used, skipped = oracle_power_smoothness(s, cfg, w)
    assert (got.n_pairs, got.n_skipped) == (used, skipped)
    assert abs(got.max_ratio_l2 - l2) <= 1e-12 * l2
    assert abs(got.max_ratio_weighted_inf - winf) <= 1e-12 * winf
    return got


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("dinkelbach", [
    DinkelbachConfig(),
    DinkelbachConfig(epsilon=1e-6),
    DinkelbachConfig(max_iters=3),    # every pair fails to converge and is skipped
])
def test_power_smoothness_matches_per_player_loop(scenario, dinkelbach):
    cfg = PowerSmoothnessConfig(n_pairs=12, seed=3, dinkelbach=dinkelbach)
    assert_power_smoothness_matches_oracle(SCENARIOS[scenario](), cfg)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_power_smoothness_across_chunk_boundaries(chunk16, scenario):
    # 37 pairs: two full chunks, then a partial one starting on an even pair
    assert 2 * CHUNK < 37 < 3 * CHUNK
    cfg = PowerSmoothnessConfig(n_pairs=37, seed=5, perturbation=0.3)
    got = assert_power_smoothness_matches_oracle(SCENARIOS[scenario](), cfg)
    assert got.n_pairs + got.n_skipped == 37


# --- the chunk size ---------------------------------------------------------------

def test_chunk_is_sized_by_the_channel_table():
    assert _chunk(lemma_scenario()) == 32   # Q=8, n=4: 1024 entries a profile
    big = reduce_scenario(generate_scenario(64, 8, 7.0, 20.0, seed=0))
    assert big.Hbar.array.size > equilibrium._CHUNK_ENTRIES and _chunk(big) == 1
    # one chunk's QVI map at Q=64, n=8: its product of 4.2 MB and one copy
    # at most (a fixed chunk of 16 took 69 MB)
    op = equilibrium._qvi_operator(big)
    P = _random_covariances(np.random.default_rng(0), big.ranks, big.P, _chunk(big))
    tracemalloc.start()
    try:
        equilibrium._qvi_apply(op, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.5e6


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_chunk_size_changes_no_result(monkeypatch, scenario):
    # every sampled routine, at one sample per chunk, at 16 and at the sized
    # default: the same reports, bit for bit
    s = SCENARIOS[scenario]()
    w = criteria(interference_matrix_square(s)).perron_w
    cfg = PowerSmoothnessConfig(n_pairs=37, seed=5, perturbation=0.3)

    def results():
        return [verify_lipschitz(s, 37, seed=1).to_dict(),
                verify_monotonicity(s, 37, seed=2).to_dict(),
                verify_power_set_smoothness(s, 37, seed=3).to_dict(),
                interference_matrix_sampled(s, 37, seed=4).S.tobytes(),
                estimate_power_smoothness(s, cfg, w)]

    want = results()
    assert want[1]["status"] == "ok"
    for size in (1, CHUNK):
        monkeypatch.setattr(equilibrium, "_chunk", lambda s: size)
        assert results() == want
