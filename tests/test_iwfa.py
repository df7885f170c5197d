import numpy as np
import pytest

from eeiwfa.best_response import DinkelbachConfig, best_response
from eeiwfa.errors import InvalidInputError
from eeiwfa.iwfa import (
    UpdateSchedule,
    block_max_distance,
    kept_slots,
    make_schedule,
    ne_residual,
    run_iwfa,
    write_trace_csv,
)
from eeiwfa.model import (
    StrategyProfile,
    energy_efficiency,
    generate_scenario,
    reduce_scenario,
    scenario_from_matrices,
)

from test_best_response import vanishing_channel_game
from test_equilibrium import scaled_identity_scenario
from test_model import scalar_scenario


# --- schedules -------------------------------------------------------------------

def test_sequential_schedule_round_robin():
    sched = make_schedule("sequential", 3)
    rng = np.random.default_rng(0)
    for t in range(7):
        mask, ages = sched.draw_slot(t, rng)
        assert mask.sum() == 1 and mask[t % 3]
        assert ages.max() == 0


def test_synchronous_schedule_all_players():
    sched = make_schedule("synchronous", 4)
    mask, ages = sched.draw_slot(5, np.random.default_rng(0))
    assert mask.all() and ages.max() == 0


def test_asynchronous_schedule_statistics():
    sched = make_schedule("asynchronous", 4, {"rho": 0.3, "d_max": 5}, seed=1)
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
        make_schedule("asynchronous", 2, {"rho": 0.0})
    for rho in (float("nan"), [0.5, float("nan")], float("inf"), 1.5):
        with pytest.raises(InvalidInputError):
            make_schedule("asynchronous", 2, {"rho": rho})
    with pytest.raises(InvalidInputError):
        make_schedule("asynchronous", 2, {"rho": 0.5, "d_max": -1})
    with pytest.raises(InvalidInputError):
        make_schedule("jittery", 2)


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
    # the factory is the dataclass with the asynchronous parameters unpacked
    made = make_schedule("asynchronous", 3, {"rho": [0.2, 0.5, 1.0], "d_max": 2}, seed=4)
    direct = UpdateSchedule("asynchronous", 3, [0.2, 0.5, 1.0], 2, 4)
    assert made.rho.tolist() == direct.rho.tolist() == [0.2, 0.5, 1.0]
    assert (made.d_max, made.seed) == (direct.d_max, direct.seed) == (2, 4)
    # the asynchronous parameters do not apply to the other modes
    sync = UpdateSchedule("synchronous", 3, rho=0.0, d_max=4)
    assert sync.rho is None and sync.d_max == 0


def test_run_rejects_a_schedule_for_another_player_count():
    rs = reduce_scenario(generate_scenario(3, 2, 7.0, 0.0, seed=0))
    for sched in (make_schedule("synchronous", 5),
                  make_schedule("asynchronous", 5, {"rho": 0.5, "d_max": 2}),
                  make_schedule("sequential", 2)):
        with pytest.raises(InvalidInputError,
                           match=f"^schedule is for {sched.Q} players, the scenario has 3$"):
            run_iwfa(rs, sched, max_slots=5)


def test_non_integral_or_nan_settings_are_rejected():
    nan = float("nan")
    for d_max in (nan, 2.5, np.inf):
        with pytest.raises(InvalidInputError, match="d_max"):
            make_schedule("asynchronous", 2, {"rho": 0.5, "d_max": d_max})
    with pytest.raises(InvalidInputError, match="seed"):
        make_schedule("synchronous", 2, seed=nan)
    assert make_schedule("asynchronous", 2, {"rho": 0.5}).seed == 0
    rs = reduce_scenario(scalar_scenario())
    sched = make_schedule("synchronous", 1)
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
    trace = run_iwfa(rs, make_schedule("synchronous", 1), max_slots=50)
    assert trace.termination == "converged"
    br = best_response(rs, 0, trace.final_profile)
    assert np.abs(trace.final_profile[0] - br.Qbr).max() <= 1e-10
    # the profile stops moving right after the first update
    assert np.all(trace.block_residual[1:] <= 1e-12)


def test_decoupled_game_converges_in_one_sweep():
    rs = reduce_scenario(scaled_identity_scenario(3, 0.0, p=10.0))
    trace = run_iwfa(rs, make_schedule("synchronous", 3), max_slots=50)
    assert trace.termination == "converged"
    assert np.all(trace.block_residual[1:] <= 1e-10)
    assert trace.ne_residual[-1] <= 1e-8


def test_trace_records_and_feasibility():
    s = generate_scenario(3, 2, 7.0, 5.0, seed=30)
    rs = reduce_scenario(s)
    trace = run_iwfa(rs, make_schedule("sequential", 3), max_slots=60)
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
    sched = make_schedule("asynchronous", 4, {"rho": 0.4, "d_max": 2}, seed=5)
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
        sched = make_schedule(mode, 3, params, seed=2)
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
    from eeiwfa.equilibrium import criteria, interference_matrix_square, random_profile

    kept = 0
    for seed in range(6):
        rs = reduce_scenario(generate_scenario(4, 2, 7.0, 10.0, seed=seed, power=2.0))
        if not criteria(None, interference_matrix_square(rs)).interference_ok_contraction:
            continue
        kept += 1
        rng = np.random.default_rng(seed)
        starts = [StrategyProfile.uniform(rs), StrategyProfile.zeros(rs),
                  random_profile(rs, rng), random_profile(rs, rng, boundary=True)]
        finals = []
        for init in starts:
            for mode, params in (("synchronous", None),
                                 ("asynchronous", {"rho": 0.5, "d_max": 2})):
                tr = run_iwfa(rs, make_schedule(mode, 4, params, seed=seed), init=init,
                              max_slots=1000)
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
    tr = run_iwfa(rs, make_schedule("synchronous", 4), max_slots=200,
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
    trace = run_iwfa(rs, make_schedule("synchronous", 8), max_slots=400,
                     ne_every=0)
    assert trace.termination == "oscillating"
    assert len(trace.slots) < 400
    assert trace.block_residual[-1] > 1.0  # genuinely far from any fixed point


def test_error_termination_records_message():
    rs = reduce_scenario(scalar_scenario())
    cfg = DinkelbachConfig(epsilon=1e-13, max_iters=1)
    trace = run_iwfa(rs, make_schedule("synchronous", 1), max_slots=10, cfg=cfg)
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
    trace = run_iwfa(rs, make_schedule("synchronous", 2), max_slots=10)
    assert trace.termination == "error"
    assert "MUI covariance of player 0 is numerically singular" in trace.error
    assert len(trace.slots) == 0 and trace.ee.shape == (0, 2)


def test_input_validation_before_the_loop_still_raises():
    rs = reduce_scenario(singular_mui_scenario())
    over_budget = StrategyProfile([3.0 * np.eye(2), np.eye(2)])
    with pytest.raises(InvalidInputError):
        run_iwfa(rs, make_schedule("synchronous", 2), init=over_budget)


def test_synchronous_run_computes_each_best_response_once(monkeypatch):
    # The NE residual of slot t's profile is the set of updates of slot
    # t + 1, so T slots need Q (T + 1) Dinkelbach solves, not 2 Q T.
    import eeiwfa._kernels as kernels

    calls = []
    real = kernels.dinkelbach_gains

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "dinkelbach_gains", counted)
    Q = 4
    rs = reduce_scenario(generate_scenario(Q, 3, 7.0, 5.0, seed=3))
    trace = run_iwfa(rs, make_schedule("synchronous", Q), max_slots=200, ne_every=1)
    assert trace.termination == "converged"
    assert 0 < len(calls) <= Q * (len(trace.slots) + 1)


def plain_run(rs, schedule, slots, cfg):
    """The engine's slot loop written per player: every update, EE and NE
    residual evaluated from scratch against the measured profile."""
    rng = np.random.default_rng(schedule.seed)
    profiles = [StrategyProfile.uniform(rs)]   # profiles[k]: after k slots
    ees, nes = [], []
    for t in range(slots):
        mask, ages = schedule.draw_slot(t, rng)
        now = profiles[-1]
        mats = list(now)
        for q in np.flatnonzero(mask):
            measured = [
                now[q] if r == q else profiles[max(t - int(ages[q, r]), 0)][r]
                for r in range(rs.Q)
            ]
            mats[q] = best_response(rs, q, StrategyProfile(measured), cfg).Qbr
        new = StrategyProfile(mats)
        profiles.append(new)
        ees.append([energy_efficiency(rs, q, new) for q in range(rs.Q)])
        nes.append(max(
            np.linalg.norm(new[q] - best_response(rs, q, new, cfg).Qbr, "fro")
            for q in range(rs.Q)
        ))
    return np.array(ees), np.array(nes)


@pytest.mark.parametrize("mode,params", [
    ("synchronous", None),
    ("sequential", None),
    ("asynchronous", {"rho": 0.6, "d_max": 2}),
])
def test_batched_slots_match_the_per_player_loop(mode, params):
    rs = reduce_scenario(generate_scenario(4, 3, 7.0, 0.0, seed=8))
    sched = make_schedule(mode, 4, params, seed=5)
    cfg = DinkelbachConfig()
    slots = 12
    trace = run_iwfa(rs, sched, max_slots=slots, residual_tol=-1.0, cfg=cfg)
    assert len(trace.slots) == slots
    ees, nes = plain_run(rs, sched, slots, cfg)
    assert np.abs(trace.ee - ees).max() <= 1e-12 * np.abs(ees).max()
    assert np.abs(trace.ne_residual - nes).max() <= 1e-10


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
    trace = run_iwfa(rs, make_schedule("synchronous", 2), max_slots=40)
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
    tr = run_iwfa(rs, make_schedule("synchronous", 8), max_slots=100,
                  residual_tol=1e-9)
    assert tr.termination == "converged"
    first_below = int(np.argmax(tr.block_residual <= 1e-9)) + 1
    assert first_below <= 10


def test_quiet_async_slots_do_not_fake_convergence():
    # with a very low update probability, runs of >= 5 slots with no updates
    # are common early on; they must not trip the sustained-residual stop
    s = generate_scenario(3, 2, 7.0, 0.0, seed=36)
    rs = reduce_scenario(s)
    sched = make_schedule("asynchronous", 3, {"rho": 0.02, "d_max": 0}, seed=0)
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
    trace = run_iwfa(rs, make_schedule("synchronous", 3), max_slots=200)
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
    sched = make_schedule("asynchronous", 3, {"rho": 0.5, "d_max": 2}, seed=3)
    trace = run_iwfa(rs, sched, max_slots=400)
    assert np.array_equal(trace.weights, np.ones(3))
    assert trace.termination == "converged" and len(trace.slots) == 31
    assert trace.ne_residual[-1] <= 1e-9
