"""Totally asynchronous iterative waterfilling.

Each player periodically replaces its covariance by its EE best response
computed from possibly outdated interference measurements. Update schedules
(sequential round-robin, synchronous, Bernoulli-asynchronous with bounded
measurement delays) are drawn deterministically from a seed; the engine
keeps a ring buffer of recent profiles so delayed measurements index real
past states.
"""

import csv
import math
from collections import deque
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .best_response import DinkelbachConfig, _best_responses
from .equilibrium import interference_matrix_square
from .errors import ConvergenceError, InvalidInputError, check_count
from .linalg import W_FLOOR, spectral_radius
from .model import StrategyProfile, _rates, _whitened_channels, block_max_distance

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
    """

    mode: str
    Q: int
    rho: np.ndarray | None = None
    d_max: int = 0
    seed: int = 0

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
    """Build an update schedule.

    ``params`` is only consulted for the asynchronous mode: ``rho`` (scalar
    or per-player, in (0, 1]) and ``d_max`` (an integer >= 0). A starved
    player (rho = 0) is rejected because it would never update. ``seed``
    seeds the asynchronous draws.
    """
    params = dict(params or {})
    seed = check_count(seed, "seed", 0)
    if mode in ("sequential", "synchronous"):
        return UpdateSchedule(mode=mode, Q=Q, seed=seed)
    if mode != "asynchronous":
        raise InvalidInputError(f"unknown schedule mode {mode!r}")
    rho = np.broadcast_to(
        np.asarray(params.get("rho", 0.5), dtype=float), (Q,)
    ).copy()
    if not np.all((rho > 0.0) & (rho <= 1.0)):
        raise InvalidInputError("update probabilities must lie in (0, 1]")
    d_max = check_count(params.get("d_max", 0), "d_max", 0)
    return UpdateSchedule(mode=mode, Q=Q, rho=rho, d_max=d_max, seed=seed)


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


def _moved(profile, qs, brs):
    """``profile`` with each player of ``qs`` moved to its best response."""
    stack = profile.stack.copy()
    for q, br in zip(qs, brs):
        k = br.Qbr.shape[0]
        stack[q, :k, :k] = br.Qbr
    return StrategyProfile.from_stack(stack, profile.ranks)


class _Evaluation:
    """One strategy profile evaluated for every player at once.

    The whitened direct channels of all players come from one batched pass
    and give every player's EE; best responses are computed from them on
    demand, in one batch, and kept, so the NE residual of a slot's profile
    is also the next slot's set of zero-delay updates.
    """

    def __init__(self, s, profile):
        self.s = s
        self.profile = profile
        self._X = None
        self._brs = [None] * s.Q

    def whitened(self):
        if self._X is None:
            qs = range(self.s.Q)
            self._X = _whitened_channels(self.s, qs, [self.profile.stack] * self.s.Q)
        return self._X

    def energy_efficiencies(self):
        rates = _rates(self.whitened(), self.profile.stack)
        return rates / (self.s.Psi + self.profile.traces())

    def best_responses(self, qs, cfg):
        todo = [q for q in qs if self._brs[q] is None]
        if todo:
            brs = _best_responses(self.s, todo, self.whitened()[todo], cfg)
            for q, br in zip(todo, brs):
                self._brs[q] = br
        return [self._brs[q] for q in qs]

    def ne_residual(self, cfg):
        qs = range(self.s.Q)
        target = _moved(self.profile, qs, self.best_responses(qs, cfg))
        return block_max_distance(self.profile, target, 1.0)


def ne_residual(s, profile, cfg=None):
    """max_q ||Qbar_q - BR_q(Qbar_{-q})||_F; ~0 exactly at an equilibrium."""
    return _Evaluation(s, profile).ne_residual(cfg or DinkelbachConfig())


def _delayed_responses(s, qs, t, ages, history, cfg):
    """Best responses of players ``qs`` to their delayed measurements:
    player q sees player r as it was ``ages[q, r]`` slots ago (clipped to
    the first slot)."""
    past = np.stack(history)
    last = len(past) - 1
    players = np.arange(s.Q)
    # entry q of each gathered stack is never read: the MUI skips r = q
    stacks = [past[np.maximum(t - ages[q], 0) - t + last, players] for q in qs]
    X = _whitened_channels(s, qs, stacks)
    return _best_responses(s, qs, X, cfg)


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
             cfg=None, weights=None, ne_every=1):
    """Simulate the asynchronous EE waterfilling game.

    At every slot the scheduled players recompute their best response
    against the (possibly delayed) measured profile while the others hold.
    The run stops when the weighted block-max difference between
    consecutive profiles stays below ``residual_tol`` for 5 slots, when a
    periodic residual recurrence with no downward trend is detected
    ("oscillating"), or at ``max_slots``. Fully deterministic given the
    schedule's seed. A negative ``residual_tol`` runs all ``max_slots``.

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
    if not isinstance(residual_tol, Real) or math.isnan(residual_tol):
        raise InvalidInputError("residual_tol must be a number, not NaN")
    residual_tol = float(residual_tol)
    profile = init if init is not None else StrategyProfile.uniform(s)
    profile.validate(s)
    w = np.asarray(weights, dtype=float) if weights is not None else default_weights(s)
    if w.shape != (s.Q,) or not np.all(np.isfinite(w) & (w > 0)):
        raise InvalidInputError("weights must be Q finite positive numbers")
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
        updating = np.flatnonzero(mask).tolist()
        current = [q for q in updating if not stale[q]]
        delayed = [q for q in updating if stale[q]]
        try:
            brs = evaluation.best_responses(current, cfg)
            if delayed:
                brs += _delayed_responses(s, delayed, t, ages, history, cfg)
            new_profile = _moved(profile, current + delayed, brs)
            new_evaluation = _Evaluation(s, new_profile)
            ee = new_evaluation.energy_efficiencies()
            if ne_every and slot % ne_every == 0:
                ne = new_evaluation.ne_residual(cfg)
            else:
                ne = float("nan")
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
