import itertools
import tracemalloc
import zlib

import numpy as np
import pytest

import eeiwfa.iwfa as iwfa
from eeiwfa.best_response import DinkelbachConfig, best_response
from eeiwfa.errors import ConvergenceError, InvalidInputError
from eeiwfa.iwfa import (
    UpdateSchedule,
    block_max_distance,
    kept_slots,
    ne_residual,
    run_iwfa,
    write_trace_csv,
)
from eeiwfa.model import (
    StrategyProfile,
    _rates,
    _whitened_channels,
    energy_efficiency,
    generate_scenario,
    reduce_scenario,
    scenario_from_matrices,
)

from conftest import random_profile
from test_best_response import vanishing_channel_game
from test_equilibrium import scaled_identity_scenario
from test_model import scalar_scenario


# --- schedules -------------------------------------------------------------------

def test_sequential_schedule_round_robin():
    sched = UpdateSchedule("sequential", 3)
    rng = np.random.default_rng(0)
    for t in range(7):
        mask, ages = sched.draw_slot(t, rng)
        assert mask.sum() == 1 and mask[t % 3]
        assert ages.max() == 0


def test_synchronous_schedule_all_players():
    sched = UpdateSchedule("synchronous", 4)
    mask, ages = sched.draw_slot(5, np.random.default_rng(0))
    assert mask.all() and ages.max() == 0


def test_asynchronous_schedule_statistics():
    sched = UpdateSchedule("asynchronous", 4, rho=0.3, d_max=5, seed=1)
    rng = np.random.default_rng(sched.seed)
    hits = np.zeros(4)
    max_age = 0
    slots = 10_000
    for t in range(slots):
        mask, ages = sched.draw_slot(t, rng)
        hits += mask
        max_age = max(max_age, int(ages.max()))
        assert ages.min() >= 0
    freq = hits / slots
    assert np.all(np.abs(freq - 0.3) < 0.05)
    assert max_age <= 5


def test_schedule_validation():
    with pytest.raises(InvalidInputError):
        UpdateSchedule("asynchronous", 2, rho=0.0)
    for rho in (float("nan"), [0.5, float("nan")], float("inf"), 1.5):
        with pytest.raises(InvalidInputError):
            UpdateSchedule("asynchronous", 2, rho=rho)
    with pytest.raises(InvalidInputError):
        UpdateSchedule("asynchronous", 2, rho=0.5, d_max=-1)
    with pytest.raises(InvalidInputError):
        UpdateSchedule("jittery", 2)


def test_schedule_checks_itself_when_built_directly():
    with pytest.raises(InvalidInputError, match="^unknown schedule mode 'bogus'$"):
        UpdateSchedule("bogus", 3)
    sched = UpdateSchedule("asynchronous", 3)
    assert sched.rho.tolist() == [0.5] * 3 and sched.d_max == 0
    for kwargs, message in (({"rho": 0.0}, "update probabilities"),
                            ({"rho": [0.5, 0.5]}, "rho must be a number or one per player"),
                            ({"d_max": -1}, "d_max"), ({"seed": 1.5}, "seed")):
        with pytest.raises(InvalidInputError, match=message):
            UpdateSchedule("asynchronous", 3, **kwargs)
    with pytest.raises(InvalidInputError, match="^Q must be an integer >= 1$"):
        UpdateSchedule("synchronous", 0)
    made = UpdateSchedule("asynchronous", 3, rho=[0.2, 0.5, 1.0], d_max=2, seed=4)
    assert made.rho.tolist() == [0.2, 0.5, 1.0]
    assert (made.d_max, made.seed) == (2, 4)
    # the asynchronous parameters do not apply to the other modes
    sync = UpdateSchedule("synchronous", 3, rho=0.0, d_max=4)
    assert sync.rho is None and sync.d_max == 0


def test_run_rejects_a_schedule_for_another_player_count():
    rs = reduce_scenario(generate_scenario(3, 2, 7.0, 0.0, seed=0))
    for sched in (UpdateSchedule("synchronous", 5),
                  UpdateSchedule("asynchronous", 5, rho=0.5, d_max=2),
                  UpdateSchedule("sequential", 2)):
        with pytest.raises(InvalidInputError,
                           match=f"^schedule is for {sched.Q} players, the scenario has 3$"):
            run_iwfa(rs, sched, max_slots=5)


def test_non_integral_or_nan_settings_are_rejected():
    nan = float("nan")
    for d_max in (nan, 2.5, np.inf):
        with pytest.raises(InvalidInputError, match="d_max"):
            UpdateSchedule("asynchronous", 2, rho=0.5, d_max=d_max)
    with pytest.raises(InvalidInputError, match="seed"):
        UpdateSchedule("synchronous", 2, seed=nan)
    assert UpdateSchedule("asynchronous", 2, rho=0.5).seed == 0
    rs = reduce_scenario(scalar_scenario())
    sched = UpdateSchedule("synchronous", 1)
    for kwargs in ({"max_slots": nan}, {"max_slots": -1}, {"ne_every": nan},
                   {"residual_tol": nan}, {"residual_tol": "1e-9"}):
        with pytest.raises(InvalidInputError, match=next(iter(kwargs))):
            run_iwfa(rs, sched, **kwargs)
    trace = run_iwfa(rs, sched, max_slots=4.0, residual_tol=-1.0)
    assert len(trace.slots) == 4
    with pytest.raises(InvalidInputError, match="thin"):
        kept_slots(4, nan)


# --- engine ----------------------------------------------------------------------

def test_single_player_converges_in_one_update():
    rs = reduce_scenario(scalar_scenario(p=100.0))
    trace = run_iwfa(rs, UpdateSchedule("synchronous", 1), max_slots=50)
    assert trace.termination == "converged"
    br = best_response(rs, 0, trace.final_profile)
    assert np.abs(trace.final_profile[0] - br.Qbr).max() <= 1e-10
    # the profile stops moving right after the first update
    assert np.all(trace.block_residual[1:] <= 1e-12)


def test_decoupled_game_converges_in_one_sweep():
    rs = reduce_scenario(scaled_identity_scenario(3, 0.0, p=10.0))
    trace = run_iwfa(rs, UpdateSchedule("synchronous", 3), max_slots=50)
    assert trace.termination == "converged"
    assert np.all(trace.block_residual[1:] <= 1e-10)
    assert trace.ne_residual[-1] <= 1e-8


def test_trace_records_and_feasibility():
    s = generate_scenario(3, 2, 7.0, 5.0, seed=30)
    rs = reduce_scenario(s)
    trace = run_iwfa(rs, UpdateSchedule("sequential", 3), max_slots=60)
    n = len(trace.slots)
    assert trace.ee.shape == (n, 3)
    assert trace.updated.shape == (n, 3)
    assert np.all(trace.block_residual >= 0.0)
    assert np.all(np.diff(trace.slots) == 1)
    trace.final_profile.validate(rs)
    # sequential mode updates exactly one player per slot
    assert np.all(trace.updated.sum(axis=1) == 1)


def test_determinism_bit_identical():
    s = generate_scenario(4, 2, 7.0, 3.0, seed=31)
    rs = reduce_scenario(s)
    sched = UpdateSchedule("asynchronous", 4, rho=0.4, d_max=2, seed=5)
    a = run_iwfa(rs, sched, max_slots=80)
    b = run_iwfa(rs, sched, max_slots=80)
    assert np.array_equal(a.ee, b.ee)
    assert np.array_equal(a.block_residual, b.block_residual)
    assert np.array_equal(a.updated, b.updated)
    for x, y in zip(a.final_profile, b.final_profile):
        assert np.array_equal(x, y)


def test_schedule_independent_limit():
    s = generate_scenario(3, 2, 7.0, 15.0, seed=32)
    rs = reduce_scenario(s)
    finals = []
    for mode, params in (
        ("sequential", None),
        ("synchronous", None),
        ("asynchronous", {"rho": 0.5, "d_max": 2}),
    ):
        sched = UpdateSchedule(mode, 3, **(params or {}), seed=2)
        tr = run_iwfa(rs, sched, max_slots=600, residual_tol=1e-10)
        assert tr.termination == "converged", mode
        finals.append(tr)
    w = finals[0].weights
    for other in finals[1:]:
        dist = block_max_distance(finals[0].final_profile, other.final_profile, w)
        assert dist <= 1e-4


def test_unique_equilibrium_from_every_start():
    # Where the contraction criterion holds the equilibrium is unique, so
    # every start and schedule must end at the same profile.
    from eeiwfa.equilibrium import criteria, interference_matrix_square

    kept = 0
    for seed in range(6):
        rs = reduce_scenario(generate_scenario(4, 2, 7.0, 10.0, seed=seed, power=2.0))
        if not criteria(interference_matrix_square(rs)).interference_ok_contraction:
            continue
        kept += 1
        rng = np.random.default_rng(seed)
        starts = [StrategyProfile.uniform(rs), StrategyProfile.zeros(rs),
                  random_profile(rs, rng), random_profile(rs, rng, boundary=True)]
        finals = []
        for init in starts:
            for mode, params in (("synchronous", None),
                                 ("asynchronous", {"rho": 0.5, "d_max": 2})):
                sched = UpdateSchedule(mode, 4, **(params or {}), seed=seed)
                tr = run_iwfa(rs, sched, init=init, max_slots=1000)
                assert tr.termination == "converged", (seed, mode)
                finals.append(tr)
        for other in finals[1:]:
            dist = block_max_distance(finals[0].final_profile, other.final_profile,
                                      finals[0].weights)
            assert dist <= 1e-8, seed
    assert kept == 5


def test_linear_convergence_under_contraction():
    # high SIR: sr(S) < 1 so the synchronous residual decays geometrically
    s = generate_scenario(4, 2, 7.0, 25.0, seed=33)
    rs = reduce_scenario(s)
    from eeiwfa.equilibrium import interference_matrix_square
    from eeiwfa.linalg import spectral_radius

    assert spectral_radius(interference_matrix_square(rs).S)[0] < 1.0
    tr = run_iwfa(rs, UpdateSchedule("synchronous", 4), max_slots=200,
                  residual_tol=1e-11)
    assert tr.termination == "converged"
    r = tr.block_residual
    pre = r[(r > 1e-7)]
    logs = np.log10(pre[1:])
    slopes = np.diff(logs)
    assert np.all(slopes < 0.0)
    assert np.mean(slopes) < -0.05


def test_oscillation_label_at_very_low_sir():
    # a full-size game deep below the uniqueness criterion locks into a
    # periodic best-response cycle instead of converging
    s = generate_scenario(8, 4, 7.0, -18.0, seed=7, power=4.0)
    rs = reduce_scenario(s)
    trace = run_iwfa(rs, UpdateSchedule("synchronous", 8), max_slots=400,
                     ne_every=0)
    assert trace.termination == "oscillating"
    assert len(trace.slots) < 400
    assert trace.block_residual[-1] > 1.0  # genuinely far from any fixed point


def test_a_negative_tolerance_runs_every_slot():
    # the game above, which oscillates after 104 slots at the default tolerance
    rs = reduce_scenario(generate_scenario(8, 4, 7.0, -18.0, seed=7, power=4.0))
    trace = run_iwfa(rs, UpdateSchedule("synchronous", 8), max_slots=400,
                     ne_every=0, residual_tol=-1.0)
    assert (len(trace.slots), trace.termination) == (400, "max_slots")


def test_error_termination_records_message():
    rs = reduce_scenario(scalar_scenario())
    cfg = DinkelbachConfig(epsilon=1e-13, max_iters=1)
    trace = run_iwfa(rs, UpdateSchedule("synchronous", 1), max_slots=10, cfg=cfg)
    assert trace.termination == "error"
    assert trace.error


def singular_mui_scenario():
    # Cross channels 1e8 * (all ones) over noise 1e-300 * I: every MUI
    # covariance is rank one to working precision.
    cross = 1e8 * np.ones((2, 1)) @ np.ones((1, 2))
    H = [[np.eye(2), cross], [cross, np.eye(2)]]
    return scenario_from_matrices(H, [1e-300 * np.eye(2)] * 2, [2.0] * 2, [1.0] * 2)


def test_singular_mui_mid_run_is_a_recorded_error():
    rs = reduce_scenario(singular_mui_scenario())
    trace = run_iwfa(rs, UpdateSchedule("synchronous", 2), max_slots=10)
    assert trace.termination == "error"
    assert "MUI covariance of player 0 is numerically singular" in trace.error
    assert len(trace.slots) == 0 and trace.ee.shape == (0, 2)


def test_input_validation_before_the_loop_still_raises():
    rs = reduce_scenario(singular_mui_scenario())
    over_budget = StrategyProfile([3.0 * np.eye(2), np.eye(2)])
    with pytest.raises(InvalidInputError):
        run_iwfa(rs, UpdateSchedule("synchronous", 2), init=over_budget)


def test_synchronous_run_computes_each_best_response_once(monkeypatch):
    # The NE residual of slot t's profile is the set of updates of slot
    # t + 1, so T slots need Q (T + 1) Dinkelbach solves, not 2 Q T. One
    # kernel call solves a whole rank group, so count its rows.
    import eeiwfa._kernels as kernels

    rows = []
    real = kernels.dinkelbach_gains

    def counted(*args):
        rows.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(kernels, "dinkelbach_gains", counted)
    Q = 4
    rs = reduce_scenario(generate_scenario(Q, 3, 7.0, 5.0, seed=3))
    trace = run_iwfa(rs, UpdateSchedule("synchronous", Q), max_slots=200, ne_every=1)
    assert trace.termination == "converged"
    assert 0 < sum(rows) <= Q * (len(trace.slots) + 1)


def measured(profiles, t, q, ages):
    """Player q's measurement at slot t (0-based) of the run whose profile
    after k slots is profiles[k]: its own block now, every other player r as
    it was ages[q, r] slots ago (clipped to the first slot)."""
    return StrategyProfile([
        profiles[t][q] if r == q else profiles[max(t - int(ages[q, r]), 0)][r]
        for r in range(len(ages))
    ])


def gather_from_recent(history, t, ages, qs):
    """The stacks the players ``qs`` measure at slot ``t``, gathered one
    reader at a time from ``history``, the last min(t, d_max) + 1 profile
    stacks, newest last: player r as it was ages[q, r] slots ago, clipped
    to the first profile."""
    last = len(history) - 1
    return [np.array([history[max(t - int(ages[q, r]), 0) - t + last][r]
                      for r in range(len(ages))]) for q in qs]


@pytest.mark.parametrize("d_max", [0, 1, 2, 3])
def test_the_ring_gather_equals_a_gather_from_the_recent_profiles(d_max):
    # Slots t < d_max included, where ages reach back past the first
    # profile and clip to it. The readers are the updating players that see
    # some other player at a positive age, from t = 1 on.
    rng = np.random.default_rng(d_max)
    Q, K = 5, 3
    ring = np.empty((d_max + 1, Q, K, K), dtype=complex)
    profiles, readers_seen = [], 0
    for t in range(12):
        profiles.append(rng.standard_normal((Q, K, K)) + 1j * rng.standard_normal((Q, K, K)))
        ring[t % len(ring)] = profiles[-1]
        mask = rng.random(Q) < 0.8
        ages = rng.integers(0, d_max + 1, size=(Q, Q))
        clipped = np.minimum(ages, t)
        current, readers = iwfa._readers(mask, clipped)
        stale = [t > 0 and any(ages[q, r] > 0 for r in range(Q) if r != q) for q in range(Q)]
        assert current.tolist() == [q for q in range(Q) if mask[q] and not stale[q]]
        assert readers.tolist() == [q for q in range(Q) if mask[q] and stale[q]]
        want = [profiles[-1], *gather_from_recent(profiles[-d_max - 1:], t, ages, readers)]
        assert np.array_equal(iwfa._measured(ring, t, clipped, readers), np.stack(want))
        readers_seen += len(readers)
    assert (readers_seen > 0) == (d_max > 0)


def test_a_run_keeps_only_the_profiles_its_slots_read():
    # Five slots read back at most five profiles, so a d_max 10^4 times
    # larger must not make the run hold more profiles.
    rs = reduce_scenario(generate_scenario(8, 4, 7.0, 0.0, seed=0, power=4.0))
    peaks = []
    for d_max in (3, 3, 30000):   # the first run warms the caches
        tracemalloc.start()
        run_iwfa(rs, UpdateSchedule("asynchronous", 8, rho=0.5, d_max=d_max, seed=0),
                 max_slots=5)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[2] <= 2 * peaks[1]


def plain_run(rs, schedule, slots, cfg):
    """The engine's slot loop written per player: every update, EE and NE
    residual evaluated from scratch against the measured profile. Returns
    the per-slot EEs and NE residuals and the profiles after 0..slots slots."""
    rng = np.random.default_rng(schedule.seed)
    profiles = [StrategyProfile.uniform(rs)]   # profiles[k]: after k slots
    ees, nes = [], []
    for t in range(slots):
        mask, ages = schedule.draw_slot(t, rng)
        mats = list(profiles[t])
        for q in np.flatnonzero(mask):
            mats[q] = best_response(rs, q, measured(profiles, t, q, ages), cfg).Qbr
        new = StrategyProfile(mats)
        profiles.append(new)
        ees.append([energy_efficiency(rs, q, new) for q in range(rs.Q)])
        nes.append(max(
            np.linalg.norm(new[q] - best_response(rs, q, new, cfg).Qbr, "fro")
            for q in range(rs.Q)
        ))
    return np.array(ees), np.array(nes), profiles


_ASYNC = {"rho": 0.6, "d_max": 2}


@pytest.mark.parametrize("mode,params,ne_every", [
    pytest.param("synchronous", None, 1, id="synchronous-None"),
    pytest.param("sequential", None, 1, id="sequential-None"),
    pytest.param("asynchronous", _ASYNC, 1, id="asynchronous-params2"),
    pytest.param("sequential", None, 0, id="sequential-ne_every0"),
    pytest.param("sequential", None, 3, id="sequential-ne_every3"),
    pytest.param("asynchronous", _ASYNC, 0, id="asynchronous-ne_every0"),
    pytest.param("asynchronous", _ASYNC, 3, id="asynchronous-ne_every3"),
    # a d_max beyond the run: the ring holds every profile, ages clip to t
    pytest.param("asynchronous", {"rho": 0.6, "d_max": 40}, 1, id="asynchronous-d_max40"),
])
def test_batched_slots_match_the_per_player_loop(mode, params, ne_every):
    rs = reduce_scenario(generate_scenario(4, 3, 7.0, 0.0, seed=8))
    sched = UpdateSchedule(mode, 4, **(params or {}), seed=5)
    cfg = DinkelbachConfig()
    slots = 12
    trace = run_iwfa(rs, sched, max_slots=slots, residual_tol=-1.0, cfg=cfg,
                     ne_every=ne_every)
    assert len(trace.slots) == slots
    ees, nes, profiles = plain_run(rs, sched, slots, cfg)
    assert np.abs(trace.ee - ees).max() <= 1e-12 * np.abs(ees).max()
    assert np.abs(trace.final_profile.stack - profiles[-1].stack).max() <= 1e-10
    # the NE residual is evaluated every ne_every slots and at the last one
    due = (trace.slots % ne_every == 0) if ne_every else np.zeros(slots, dtype=bool)
    due[-1] = True
    assert np.array_equal(~np.isnan(trace.ne_residual), due)
    assert np.abs(trace.ne_residual[due] - nes[due]).max() <= 1e-10


def test_a_failed_look_ahead_fails_in_its_own_slot(monkeypatch):
    # Slot k - 1 may evaluate slot k's delayed updates ahead of time. A best
    # response that fails there must still end the run at slot k, with its
    # own message, and a run that stops at slot k - 1 must never see it.
    rs = reduce_scenario(generate_scenario(4, 3, 7.0, 0.0, seed=8))
    sched = UpdateSchedule("asynchronous", 4, **_ASYNC, seed=5)
    cfg = DinkelbachConfig()
    _, _, profiles = plain_run(rs, sched, 12, cfg)

    def others(p, q):
        return np.delete(p.stack, q, axis=0)

    # the first update at a slot k >= 3 whose measurement of the others is
    # none of the profiles before it (so a delayed one), whose channel no
    # earlier batch reads
    rng = np.random.default_rng(sched.seed)
    for t in range(12):
        mask, ages = sched.draw_slot(t, rng)
        unseen = [q for q in np.flatnonzero(mask) if not any(
            np.array_equal(others(measured(profiles, t, q, ages), q), others(p, q))
            for p in profiles[:t + 1])]
        if t >= 2 and unseen:
            break
    k, q = t + 1, unseen[0]
    assert k >= 3
    # the whitened channel that player q's delayed update at slot k reads
    target = _whitened_channels(rs, measured(profiles, t, q, ages).stack[None], [[q]])[0]
    real = iwfa._best_responses

    def failing(s, qs, X, cfg):
        if any(np.array_equal(x, target) for x in X):
            raise ConvergenceError("injected failure")
        return real(s, qs, X, cfg)

    monkeypatch.setattr(iwfa, "_best_responses", failing)
    trace = run_iwfa(rs, sched, max_slots=12, residual_tol=-1.0, cfg=cfg)
    assert (trace.termination, len(trace.slots), trace.error) == ("error", k - 1, "injected failure")
    trace = run_iwfa(rs, sched, max_slots=k - 1, residual_tol=-1.0, cfg=cfg)
    assert (trace.termination, len(trace.slots), trace.error) == ("max_slots", k - 1, None)


def test_an_asynchronous_slot_whitens_and_best_responds_once(monkeypatch):
    # A slot's evaluation and the next slot's delayed updates share one
    # whitening pass and one best-response batch, so the benchmark's
    # asynchronous run makes one call of each per slot, plus the initial
    # profile's, not two per slot.
    calls = {}
    for name in ("_whitened_channels", "_best_responses"):
        def counted(*args, name=name, real=getattr(iwfa, name)):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(iwfa, name, counted)
    rs = reduce_scenario(generate_scenario(8, 4, 7.0, 0.0, seed=0, power=4.0))
    sched = UpdateSchedule("asynchronous", 8, rho=0.5, d_max=3, seed=0)
    trace = run_iwfa(rs, sched)
    assert trace.termination == "converged" and len(trace.slots) == 83
    assert sorted(calls) == ["_best_responses", "_whitened_channels"]
    assert max(calls.values()) <= len(trace.slots) + 1


@pytest.mark.parametrize("mode,params,ne_every", [
    ("synchronous", None, 1),
    ("asynchronous", {"rho": 0.5, "d_max": 3}, 0),
    ("sequential", None, 3),
])
def test_each_recorded_slot_computes_its_ee_once(monkeypatch, mode, params, ne_every):
    # The EE is computed where a slot is recorded, from its profile's
    # whitened rows: ne_residual and the initial profile's pass compute none.
    calls = []
    real = iwfa._rates

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(iwfa, "_rates", counted)
    rs = reduce_scenario(generate_scenario(4, 3, 7.0, 0.0, seed=2))
    ne_residual(rs, StrategyProfile.uniform(rs))
    ne_calls = len(calls)
    trace = run_iwfa(rs, UpdateSchedule(mode, 4, **(params or {}), seed=1), max_slots=60,
                     ne_every=ne_every)
    assert trace.error is None and len(trace.slots) > 1
    assert (ne_calls, calls[ne_calls:]) == (0, [4] * len(trace.slots))


def test_a_failed_ne_residual_on_the_last_slot_is_recorded(monkeypatch):
    # With ne_every=0 only the last slot evaluates the NE residual. When that
    # fails and the slot's EE does not, the slot is kept with a NaN residual
    # and the run ends with the error; a longer run never reads that row.
    rs = reduce_scenario(generate_scenario(4, 3, 7.0, 0.0, seed=8))
    sched = UpdateSchedule("sequential", 4)
    final = run_iwfa(rs, sched, max_slots=5, residual_tol=-1.0, ne_every=0).final_profile
    target = _whitened_channels(rs, final.stack[None], [[3]])[0]
    real = iwfa._best_responses

    def failing(s, qs, X, cfg):
        if any(np.array_equal(x, target) for x in X):
            raise ConvergenceError("injected failure")
        return real(s, qs, X, cfg)

    monkeypatch.setattr(iwfa, "_best_responses", failing)
    trace = run_iwfa(rs, sched, max_slots=5, residual_tol=-1.0, ne_every=0)
    assert (trace.termination, len(trace.slots), trace.error) == ("error", 5, "injected failure")
    assert np.isnan(trace.ne_residual).all() and np.isfinite(trace.ee).all()
    trace = run_iwfa(rs, sched, max_slots=6, residual_tol=-1.0, ne_every=0)
    assert (trace.termination, len(trace.slots), trace.error) == ("max_slots", 6, None)



# --- fault injection: the failure rule against a loop that looks nothing ahead


def _faulty(rate, salt):
    """Whitening and best-response stand-ins that raise on checksum-selected
    rows: a whitening is keyed on the player and the blocks it measures of
    the others (its own is never read), a best response on its whitened
    row, so a row fails the same way in whatever batch it is computed.
    Within a call the first selected row raises, as the real ones do. A
    slot whitens and best-responds several rows, so a whitening fails with
    probability rate / 3 and a best response with rate / 10."""
    real_whiten, real_respond = iwfa._whitened_channels, iwfa._best_responses

    def selected(kind, data, rate):
        crc = zlib.crc32(data, zlib.crc32(kind + salt))
        return crc if crc % 1000 < rate * 1000 else None

    def whiten(s, P, qs):
        for stack, players in zip(P, qs):
            for q in players:
                crc = selected(b"w%d" % q, np.delete(stack, q, axis=0).tobytes(), rate / 3)
                if crc is not None:
                    raise InvalidInputError(f"injected singular covariance {crc:08x}")
        return real_whiten(s, P, qs)

    def respond(s, qs, X, cfg):
        for x in X:
            crc = selected(b"b", x.tobytes(), rate / 10)
            if crc is not None:
                raise ConvergenceError(f"injected Dinkelbach failure {crc:08x}")
        return real_respond(s, qs, X, cfg)

    return whiten, respond


def lookahead_free_run(rs, schedule, max_slots, residual_tol, ne_every, cfg, whiten, respond):
    """run_iwfa's failure rule with nothing looked ahead: profile t is
    whitened for every player, then slot t + 1 whitens its delayed players
    at their measured profiles and best-responds [zero-delay, delayed] in
    that order; its profile is then evaluated (the EE, and the NE residual
    when due or last). A failure in the updates or in the EE or a due NE
    residual drops the slot; a failed NE residual that is not due keeps it
    with NaN. Ends at max_slots, on convergence or at the first error; it
    has no oscillation test, whose window is longer than these runs."""
    Q = rs.Q
    rng = np.random.default_rng(schedule.seed)
    w = iwfa.default_weights(rs)
    stacks = [StrategyProfile.uniform(rs).stack]   # stacks[k]: after k slots
    out = {"ee": [], "res": [], "ne": [], "upd": []}
    streak, stop = 0, None

    def evaluate(stack, qs):
        return [whiten(rs, stack[None], [[q]])[0] for q in qs]

    def brs(qs, X):
        return [respond(rs, [q], x[None], cfg)[0][0] for q, x in zip(qs, X)]

    try:
        X = evaluate(stacks[0], range(Q)) if max_slots else None
        for t in range(max_slots):
            mask, ages = schedule.draw_slot(t, rng)
            stale = (ages > 0) & ~np.eye(Q, dtype=bool)
            delayed = [q for q in np.flatnonzero(mask) if t and stale[q].any()]
            current = [q for q in np.flatnonzero(mask) if q not in delayed]
            views = [stacks[t].copy() for _ in delayed]
            for view, q in zip(views, delayed):
                for r in range(Q):
                    view[r] = stacks[max(t - ages[q, r], 0)][r]
            Xd = [whiten(rs, view[None], [[q]])[0] for q, view in zip(delayed, views)]
            new = stacks[t].copy()
            updates = brs(current + delayed, [X[q] for q in current] + Xd)
            for q, b in zip(current + delayed, updates):
                new[q] = b
            stacks.append(new)
            res = max(np.linalg.norm(new[q] - stacks[t][q]) / w[q] for q in range(Q))
            if mask.any():
                streak = streak + 1 if res <= residual_tol else 0
            slot = t + 1
            stop = ("converged" if streak >= iwfa.SUSTAIN_SLOTS else
                    "max_slots" if slot == max_slots else None)
            due = bool(ne_every) and slot % ne_every == 0
            X = evaluate(new, range(Q))
            ee = _rates(np.array(X), new) / (rs.Psi + np.trace(new, axis1=1, axis2=2).real)
            failure, ne = None, float("nan")
            if due or stop:
                try:
                    ne = max(np.linalg.norm(new[q] - b) for q, b in enumerate(brs(range(Q), X)))
                except (ConvergenceError, InvalidInputError) as exc:
                    if due:
                        raise
                    failure = exc
            out["ee"].append(ee)
            out["res"].append(res)
            out["ne"].append(ne)
            out["upd"].append(mask)
            if failure:
                raise failure
            if stop:
                break
        termination, error = stop or "max_slots", None
    except (ConvergenceError, InvalidInputError) as exc:
        termination, error = "error", str(exc)
    return termination, error, out, stacks[len(out["ee"])]


def test_injected_failures_end_the_run_where_a_plain_loop_ends_it(monkeypatch):
    # Each pass looks one slot ahead, yet every fault must end the run where
    # a loop that looks nothing ahead ends it: same termination, message,
    # recorded slots and final profile (the last recorded slot's).
    rs = reduce_scenario(generate_scenario(3, 2, 7.0, 0.0, seed=8))
    cfg = DinkelbachConfig()
    outcomes = set()
    modes = [("sequential", None), ("synchronous", None),
             ("asynchronous", {"rho": 0.5, "d_max": 2})]
    for (mode, params), rate, salt in itertools.product(
            modes, (0.01, 0.03, 0.1, 0.3, 0.6), (b"a", b"b")):
        sched = UpdateSchedule(mode, 3, **(params or {}), seed=4)
        # the stand-ins wrap the real functions, not the last combination's
        monkeypatch.undo()
        whiten, respond = _faulty(rate, salt + str(rate).encode())
        monkeypatch.setattr(iwfa, "_whitened_channels", whiten)
        monkeypatch.setattr(iwfa, "_best_responses", respond)
        for max_slots, tol, ne_every in itertools.product((0, 1, 7, 40), (-1.0, 1e-3), (0, 1, 3)):
            trace = run_iwfa(rs, sched, max_slots=max_slots, residual_tol=tol, cfg=cfg,
                             ne_every=ne_every)
            termination, error, ref, final = lookahead_free_run(
                rs, sched, max_slots, tol, ne_every, cfg, whiten, respond)
            T = len(ref["ee"])
            assert (trace.termination, trace.error, len(trace.slots)) == (termination, error, T)
            assert np.array_equal(trace.slots, np.arange(1, T + 1))
            assert np.array_equal(trace.updated, np.reshape(ref["upd"], (T, 3)))
            for got, want in [(trace.ee, ref["ee"]), (trace.block_residual, ref["res"]),
                              (trace.ne_residual, ref["ne"]), (trace.final_profile.stack, final)]:
                assert np.allclose(got, np.reshape(want, np.shape(got)), rtol=1e-12,
                                   atol=0.0, equal_nan=True)
            outcomes.add((termination, T > 0, np.isnan(trace.ne_residual[-1:]).all()))
    # the grid reaches every ending: errors before any slot and after some,
    # with the last NE residual evaluated or not, and both clean stops
    assert outcomes >= {("error", False, True), ("error", True, False), ("error", True, True),
                        ("max_slots", True, False), ("converged", True, False)}


@pytest.mark.parametrize("max_slots,draws", [(1000, 83), (40, 40)],
                         ids=["converged", "max_slots"])
def test_a_run_draws_only_the_slots_it_runs(monkeypatch, max_slots, draws):
    # The last slot looks nothing ahead: it draws no further slot and
    # whitens only the Q rows of its own profile.
    counts = {"draws": 0, "rows": []}
    real_draw, real_whiten = UpdateSchedule.draw_slot, iwfa._whitened_channels

    def draw_slot(self, t, rng):
        counts["draws"] += 1
        return real_draw(self, t, rng)

    def whitened(s, P, qs):
        counts["rows"].append(sum(map(len, qs)))
        return real_whiten(s, P, qs)

    monkeypatch.setattr(UpdateSchedule, "draw_slot", draw_slot)
    monkeypatch.setattr(iwfa, "_whitened_channels", whitened)
    rs = reduce_scenario(generate_scenario(8, 4, 7.0, 0.0, seed=0, power=4.0))
    sched = UpdateSchedule("asynchronous", 8, rho=0.5, d_max=3, seed=0)
    trace = run_iwfa(rs, sched, max_slots=max_slots)
    assert len(trace.slots) == counts["draws"] == draws
    assert counts["rows"][-1] == 8


@pytest.mark.parametrize("epsilon", [3e-16, 1e-16])
@pytest.mark.parametrize("mode,params", [("synchronous", {}),
                                         ("asynchronous", {"rho": 0.5, "d_max": 2})])
def test_an_epsilon_below_the_rounding_of_the_gap_converges(mode, params, epsilon):
    # Dinkelbach's gap |rate - nu (trace + psi)| stalls at up to 2 ulps of
    # the rate on these games, above either epsilon; a gap of GAP_ULPS ulps
    # is closed, so every run converges instead of ending in an error.
    for seed in range(4):
        rs = reduce_scenario(generate_scenario(4, 3, 7.0, 0.0, seed=seed))
        trace = run_iwfa(rs, UpdateSchedule(mode, 4, **params, seed=seed), max_slots=400,
                         cfg=DinkelbachConfig(epsilon, 60))
        assert (trace.termination, trace.error) == ("converged", None), seed


def test_ne_residual_values():
    rs = reduce_scenario(scalar_scenario(p=100.0))
    prof = StrategyProfile([np.array([[np.e - 1.0 + 0j]])])
    assert ne_residual(rs, prof) <= 1e-8  # single-player optimum
    s = generate_scenario(3, 2, 7.0, -5.0, seed=34)
    rs2 = reduce_scenario(s)
    assert ne_residual(rs2, StrategyProfile.uniform(rs2)) > 1e-3


def test_trace_csv_round_trip(tmp_path):
    s = generate_scenario(2, 2, 7.0, 10.0, seed=35)
    rs = reduce_scenario(s)
    trace = run_iwfa(rs, UpdateSchedule("synchronous", 2), max_slots=40)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    from eeiwfa.harness import read_csv

    schema, header, rows = read_csv(path)
    assert schema.startswith("eeiwfa trace schema v1")
    assert header == ["slot", "player", "ee", "block_residual", "ne_residual",
                      "updated_flag"]
    assert len(rows) == len(trace.slots) * 2
    # floats survive the round trip exactly
    assert float(rows[0][2]) == trace.ee[0, 0]
    # thinning keeps the final slot
    write_trace_csv(trace, path, thin=7)
    _, _, rows = read_csv(path)
    assert int(rows[-1][0]) == int(trace.slots[-1])


def test_near_decoupled_game_converges_within_ten_sweeps():
    s = generate_scenario(8, 4, 7.0, 30.0, seed=0, power=4.0)
    rs = reduce_scenario(s)
    tr = run_iwfa(rs, UpdateSchedule("synchronous", 8), max_slots=100,
                  residual_tol=1e-9)
    assert tr.termination == "converged"
    first_below = int(np.argmax(tr.block_residual <= 1e-9)) + 1
    assert first_below <= 10


def test_quiet_async_slots_do_not_fake_convergence():
    # with a very low update probability, runs of >= 5 slots with no updates
    # are common early on; they must not trip the sustained-residual stop
    s = generate_scenario(3, 2, 7.0, 0.0, seed=36)
    rs = reduce_scenario(s)
    sched = UpdateSchedule("asynchronous", 3, rho=0.02, d_max=0, seed=0)
    trace = run_iwfa(rs, sched, max_slots=400, residual_tol=1e-9, ne_every=0)
    if trace.termination == "converged":
        assert int(trace.updated.any(axis=1).sum()) >= 5
        assert ne_residual(rs, trace.final_profile) <= 1e-6


# --- paths the runs above never take ----------------------------------------------

def test_kept_slots_adds_the_last_slot_when_thin_does_not_divide():
    assert kept_slots(8, 3) == [0, 3, 6, 7]
    assert kept_slots(7, 3) == [0, 3, 6]
    assert kept_slots(1, 5) == [0]
    assert kept_slots(0, 2) == []


def test_a_vanishing_direct_channel_sits_out_at_zero_power():
    # player 0's best response is the zero matrix at every slot while the
    # others settle
    rs = vanishing_channel_game()
    trace = run_iwfa(rs, UpdateSchedule("synchronous", 3), max_slots=200)
    assert trace.termination == "converged" and len(trace.slots) == 15
    assert trace.final_profile.traces()[0] == 0.0
    assert not trace.ee[:, 0].any()
    assert trace.ne_residual[-1] <= 1e-9


def test_tall_direct_channels_run_with_all_ones_weights():
    # tall direct channels (nR > nT) reduce to non-square ones, which have no
    # exact interference matrix: the block residual is weighted uniformly
    rng = np.random.default_rng(11)
    nT, nR = [2, 1, 2], [3, 3, 4]
    H = [[(rng.standard_normal((nR[q], nT[r])) + 1j * rng.standard_normal((nR[q], nT[r])))
          * (1.0 if q == r else 0.3) for r in range(3)] for q in range(3)]
    rs = reduce_scenario(scenario_from_matrices(
        H, [np.eye(n) for n in nR], [1.0, 2.0, 1.5], [1.0] * 3))
    sched = UpdateSchedule("asynchronous", 3, rho=0.5, d_max=2, seed=3)
    trace = run_iwfa(rs, sched, max_slots=400)
    assert np.array_equal(trace.weights, np.ones(3))
    assert trace.termination == "converged" and len(trace.slots) == 31
    assert trace.ne_residual[-1] <= 1e-9
