"""Totally asynchronous iterative waterfilling.

Each player periodically replaces its covariance by its EE best response
computed from possibly outdated interference measurements. Update schedules
(sequential round-robin, synchronous, Bernoulli-asynchronous with bounded
measurement delays) are drawn deterministically from a seed; the engine
keeps a ring buffer of recent profiles so delayed measurements index real
past states.
"""

import csv
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .best_response import DinkelbachConfig, _best_responses
from .equilibrium import interference_matrix_square
from .errors import ConvergenceError, InvalidInputError, check_count, check_number, is_real
from .linalg import W_FLOOR, spectral_radius
from .model import StrategyProfile, _rates, _stack_frob, _whitened_channels, block_max_distance

SUSTAIN_SLOTS = 5        # consecutive below-tolerance slots before stopping
OSC_WINDOW = 50          # residual history inspected for periodic recurrence
OSC_MAX_PERIOD = 8
OSC_REL_TOL = 1e-6


@dataclass
class UpdateSchedule:
    """When players update and how stale their measurements are.

    sequential: player (t mod Q) updates at slot t, zero delay.
    synchronous: every player updates every slot, zero delay.
    asynchronous: player q updates with probability rho[q] per slot and
    measures player r with a uniform integer age in [0, d_max].

    ``rho`` (scalar or per-player, in (0, 1], default 0.5) and ``d_max``
    (an integer >= 0) only apply to the asynchronous mode and are reset to
    None and 0 for the others. A starved player (rho = 0) is rejected
    because it would never update. ``seed`` seeds the asynchronous draws.
    """

    mode: str
    Q: int
    rho: np.ndarray | None = None
    d_max: int = 0
    seed: int = 0

    def __post_init__(self):
        self.seed = check_count(self.seed, "seed", 0)
        self.Q = check_count(self.Q, "Q", 1)
        if self.mode in ("sequential", "synchronous"):
            self.rho, self.d_max = None, 0
            return
        if self.mode != "asynchronous":
            raise InvalidInputError(f"unknown schedule mode {self.mode!r}")
        rho = 0.5 if self.rho is None else self.rho
        try:
            # entry by entry: numpy would read [true, 0.5] as [1.0, 0.5]
            if not all(map(is_real, np.asarray(rho, dtype=object).ravel())):
                raise TypeError
            rho = np.broadcast_to(np.asarray(rho, dtype=float), (self.Q,)).copy()
        except (TypeError, ValueError):
            raise InvalidInputError("rho must be a number or one per player") from None
        if not np.all((rho > 0.0) & (rho <= 1.0)):
            raise InvalidInputError("update probabilities must lie in (0, 1]")
        self.rho = rho
        self.d_max = check_count(self.d_max, "d_max", 0)

    def draw_slot(self, t, rng):
        """Update mask and per-pair measurement ages for slot ``t``.

        Draws are made for every player every slot so the stream consumed
        from ``rng`` does not depend on the trajectory.
        """
        if self.mode == "sequential":
            mask = np.zeros(self.Q, dtype=bool)
            mask[t % self.Q] = True
            return mask, np.zeros((self.Q, self.Q), dtype=int)
        if self.mode == "synchronous":
            return np.ones(self.Q, dtype=bool), np.zeros((self.Q, self.Q), dtype=int)
        mask = rng.random(self.Q) < self.rho
        ages = rng.integers(0, self.d_max + 1, size=(self.Q, self.Q))
        return mask, ages


def make_schedule(mode, Q, params=None, seed=0):
    """Build an update schedule; ``params`` holds the asynchronous mode's
    ``rho`` and ``d_max`` (see :class:`UpdateSchedule`)."""
    params = dict(params or {})
    return UpdateSchedule(mode, Q, params.get("rho"), params.get("d_max", 0), seed)


def default_weights(s):
    """Perron weights of the interference matrix; all-ones when the reduced
    channels are not square (no exact interference matrix there)."""
    try:
        S = interference_matrix_square(s)
    except InvalidInputError:
        return np.ones(s.Q)
    _, w, _ = spectral_radius(S.S)
    return np.maximum(w, W_FLOOR)


@dataclass
class IwfaTrace:
    """Per-slot record of one simulation run (slot 1 is the first update)."""

    slots: np.ndarray
    ee: np.ndarray               # (T, Q)
    block_residual: np.ndarray   # (T,)
    ne_residual: np.ndarray      # (T,), nan where not evaluated
    updated: np.ndarray          # (T, Q) bool
    weights: np.ndarray
    termination: str             # converged | max_slots | oscillating | error
    final_profile: StrategyProfile
    error: str | None = None
    meta: dict = field(default_factory=dict)


class _Evaluation:
    """One strategy profile evaluated for every player at once.

    The whitened direct channels of all players come from one batched pass
    and give every player's EE; best responses are computed from them on
    demand, in one batch, and kept in a (Q, K, K) stack, so the NE residual
    of a slot's profile is also the next slot's set of zero-delay updates.
    """

    def __init__(self, s, profile):
        self.s = s
        self.profile = profile
        self._X = None
        self._brs = np.zeros_like(profile.stack)
        self._computed = np.zeros(s.Q, dtype=bool)

    def whitened(self):
        if self._X is None:
            Q = self.s.Q
            self._X = _whitened_channels(self.s, range(Q), [self.profile.stack] * Q)
        return self._X

    def energy_efficiencies(self):
        rates = _rates(self.whitened(), self.profile.stack)
        return rates / (self.s.Psi + self.profile.traces())

    def best_responses(self, qs, cfg):
        todo = [q for q in qs if not self._computed[q]]
        if todo:
            self._brs[todo] = _best_responses(self.s, todo, self.whitened()[todo], cfg)[0]
            self._computed[todo] = True
        return self._brs[list(qs)]

    def ne_residual(self, cfg):
        moves = self.profile.stack - self.best_responses(range(self.s.Q), cfg)
        return float(_stack_frob(moves[:, None]).max())


def ne_residual(s, profile, cfg=None):
    """max_q ||Qbar_q - BR_q(Qbar_{-q})||_F; ~0 exactly at an equilibrium."""
    return _Evaluation(s, profile).ne_residual(cfg or DinkelbachConfig())


def _delayed_responses(s, qs, t, ages, history, cfg):
    """Best responses of players ``qs`` to their delayed measurements, as
    stack rows: player q sees player r as it was ``ages[q, r]`` slots ago
    (clipped to the first slot)."""
    past = np.stack(history)
    last = len(past) - 1
    players = np.arange(s.Q)
    # entry q of each gathered stack is never read: the MUI skips r = q
    stacks = [past[np.maximum(t - ages[q], 0) - t + last, players] for q in qs]
    return _best_responses(s, qs, _whitened_channels(s, qs, stacks), cfg)[0]


def _oscillating(residuals, tol):
    if len(residuals) < OSC_WINDOW:
        return False
    win = np.asarray(residuals[-OSC_WINDOW:])
    if win.min() <= tol or not np.all(np.isfinite(win)):
        return False
    scale = float(win.max())
    if scale <= 0.0:
        return False
    half = OSC_WINDOW // 2
    trending_down = win[half:].mean() < 0.95 * win[:half].mean()
    if trending_down:
        return False
    for k in range(1, OSC_MAX_PERIOD + 1):
        if np.abs(win[k:] - win[:-k]).max() <= OSC_REL_TOL * scale:
            return True
    return False


def run_iwfa(s, schedule, init=None, max_slots=1000, residual_tol=1e-9,
             cfg=None, ne_every=1):
    """Simulate the asynchronous EE waterfilling game.

    At every slot the scheduled players recompute their best response
    against the (possibly delayed) measured profile while the others hold.
    The run stops when the weighted block-max difference between
    consecutive profiles stays below ``residual_tol`` for 5 slots, when a
    periodic residual recurrence with no downward trend is detected
    ("oscillating"), or at ``max_slots``; the block difference is weighted
    by :func:`default_weights`. Fully deterministic given the schedule's
    seed. A negative ``residual_tol`` runs all ``max_slots``.

    ``ne_every`` controls how often the equilibrium residual is evaluated
    (0 = final slot only).

    Arguments are validated before the first slot and raise. A
    ConvergenceError or InvalidInputError raised while a slot is evaluated
    (say, a numerically singular MUI covariance) ends the run with
    termination "error" and the message in ``error``; that slot is not
    recorded.
    """
    cfg = cfg or DinkelbachConfig()
    max_slots = check_count(max_slots, "max_slots", 0)
    ne_every = check_count(ne_every, "ne_every", 0)
    residual_tol = check_number(residual_tol, "residual_tol")
    if schedule.Q != s.Q:
        raise InvalidInputError(
            f"schedule is for {schedule.Q} players, the scenario has {s.Q}"
        )
    profile = init if init is not None else StrategyProfile.uniform(s)
    profile.validate(s)
    w = default_weights(s)
    rng = np.random.default_rng(schedule.seed)

    evaluation = _Evaluation(s, profile)
    history = deque(maxlen=schedule.d_max + 1)   # profile stacks, newest last
    history.append(profile.stack)
    slots, ees, residuals, nes, upds = [], [], [], [], []
    termination = "max_slots"
    error = None
    streak = 0

    for t in range(max_slots):
        mask, ages = schedule.draw_slot(t, rng)
        slot = t + 1
        # A player measures the current profile when every age it sees is
        # zero (always at the first slot): its update is the best response
        # already computed, or now computed, for the current evaluation.
        stale = ages > 0
        np.fill_diagonal(stale, False)
        stale = stale.any(axis=1) & (t > 0)
        current = np.flatnonzero(mask & ~stale)
        delayed = np.flatnonzero(mask & stale)
        try:
            stack = profile.stack.copy()
            stack[current] = evaluation.best_responses(current, cfg)
            if delayed.size:
                stack[delayed] = _delayed_responses(s, delayed, t, ages, history, cfg)
            new_profile = StrategyProfile.from_stack(stack, profile.ranks)
            new_evaluation = _Evaluation(s, new_profile)
            ee = new_evaluation.energy_efficiencies()
            due = ne_every and slot % ne_every == 0
            ne = new_evaluation.ne_residual(cfg) if due else float("nan")
        except (ConvergenceError, InvalidInputError) as exc:
            termination = "error"
            error = str(exc)
            break
        r_t = block_max_distance(new_profile, profile, w)
        slots.append(slot)
        residuals.append(r_t)
        ees.append(ee)
        nes.append(ne)
        upds.append(mask.copy())
        history.append(new_profile.stack)
        profile = new_profile
        evaluation = new_evaluation

        # quiet asynchronous slots (nobody updated) have zero residual by
        # construction; they must not advance the convergence streak
        if mask.any():
            streak = streak + 1 if r_t <= residual_tol else 0
        if streak >= SUSTAIN_SLOTS:
            termination = "converged"
            break
        if _oscillating(residuals, residual_tol):
            termination = "oscillating"
            break

    if nes and np.isnan(nes[-1]) and termination != "error":
        try:
            nes[-1] = evaluation.ne_residual(cfg)
        except (ConvergenceError, InvalidInputError) as exc:
            termination = "error"
            error = str(exc)
    return IwfaTrace(
        slots=np.asarray(slots, dtype=int),
        ee=np.asarray(ees, dtype=float).reshape(len(slots), s.Q),
        block_residual=np.asarray(residuals, dtype=float),
        ne_residual=np.asarray(nes, dtype=float),
        updated=np.asarray(upds, dtype=bool).reshape(len(slots), s.Q),
        weights=w,
        termination=termination,
        final_profile=profile,
        error=error,
        meta={"mode": schedule.mode, "residual_tol": residual_tol,
              "max_slots": max_slots},
    )


def kept_slots(n, thin):
    """Indices of an ``n``-slot trace kept when thinning: every ``thin``-th
    slot plus the last."""
    thin = check_count(thin, "thin", 1)
    kept = list(range(0, n, thin))
    if n and kept[-1] != n - 1:
        kept.append(n - 1)
    return kept


def write_trace_csv(trace, path, thin=1):
    """Write a trace as CSV rows (slot, player, ee, block_residual,
    ne_residual, updated_flag), keeping every ``thin``-th slot plus the last."""
    kept = kept_slots(len(trace.slots), thin)
    with open(path, "w", newline="") as fh:
        fh.write("# eeiwfa trace schema v1\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["slot", "player", "ee", "block_residual", "ne_residual", "updated_flag"]
        )
        for i in kept:
            slot = int(trace.slots[i])
            for q in range(trace.ee.shape[1]):
                writer.writerow([
                    slot, q, repr(float(trace.ee[i, q])),
                    repr(float(trace.block_residual[i])),
                    repr(float(trace.ne_residual[i])),
                    int(trace.updated[i, q]),
                ])
