"""Totally asynchronous iterative waterfilling.

Each player periodically replaces its covariance by its EE best response
computed from possibly outdated interference measurements. Update schedules
(sequential round-robin, synchronous, Bernoulli-asynchronous with bounded
measurement delays) are drawn deterministically from a seed; the engine
keeps a ring buffer of recent profiles so delayed measurements index real
past states.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .best_response import DinkelbachConfig, _best_responses
from .equilibrium import _floored_weights, interference_matrix_square
from .errors import ConvergenceError, InvalidInputError, check_count, check_number, is_real
from .linalg import spectral_radius
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


def default_weights(s):
    """Perron weights of the interference matrix, floored as the smoothness
    estimate floors them; all-ones when the reduced channels are not square
    (no exact interference matrix there)."""
    try:
        S = interference_matrix_square(s)
    except InvalidInputError:
        return np.ones(s.Q)
    return _floored_weights(spectral_radius(S.S)[1])


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


def _evaluate(s, P, rows, readers=(), *, cfg):
    """Whiten every player at the profile ``P[0]`` and compute the best
    responses of the players ``rows`` at it and of the players ``readers``
    at the stacks they measure, ``P[1:]``: one whitening pass over all of
    them and one best-response batch. Returns the (Q + len(readers), N, K)
    whitened channels, every player's at ``P[0]`` first, and the (len(rows)
    + len(readers), K, K) best responses, the ``rows``' first."""
    Q = s.Q
    X = _whitened_channels(s, P, [range(Q), *([q] for q in readers)])
    picked = [*rows, *range(Q, len(X))]
    return X, _best_responses(s, [*rows, *readers], X[picked], cfg)[0]


def _max_move(stack, brs):
    """max_q ||stack_q - brs_q||_F over the players of ``stack``."""
    return float(_stack_frob((stack - brs[:len(stack)])[:, None]).max())


def ne_residual(s, profile, cfg=None):
    """max_q ||Qbar_q - BR_q(Qbar_{-q})||_F; ~0 exactly at an equilibrium."""
    brs = _evaluate(s, profile.stack[None], range(s.Q), cfg=cfg or DinkelbachConfig())[1]
    return _max_move(profile.stack, brs)


def _readers(mask, ages):
    """The updating players of ``mask`` that measure the current profile and
    those that measure a delayed one: a player measures the current profile
    when every age (>= 0) it sees of another player is zero."""
    stale = ages.sum(axis=1) > ages.diagonal()
    return np.flatnonzero(mask & ~stale), np.flatnonzero(mask & stale)


def _measured(ring, t, ages, readers):
    """The (1 + len(readers), Q, K, K) profile stacks measured at slot
    ``t``: profile t, then each reader q's, in which player r is as it was
    ``ages[q, r]`` slots ago; ``ring[u % len(ring)]`` holds profile u for
    the last len(ring) profiles, and the ages are at most t and below
    len(ring)."""
    back = np.vstack((np.zeros(ring.shape[1], dtype=int), ages[readers]))
    # entry q of reader q's stack is never read: the MUI skips r = q
    return ring[(t - back) % len(ring), np.arange(ring.shape[1])]


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
    ConvergenceError or InvalidInputError raised while a profile is
    evaluated (say, a numerically singular MUI covariance) ends the run with
    termination "error" and the message in ``error``. Each slot's pass also
    computes the next slot's updates; when it raises, the slot's own part
    (its EE, and its NE residual when due) is evaluated alone: the slot is
    dropped if that raises too, and kept otherwise, the run ending with the
    pass's error.
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
    Q = s.Q

    stack = profile.stack   # profile t's
    ring = np.repeat(stack[None], schedule.d_max + 1, axis=0)   # profile u at u % len(ring)
    slots, ees, residuals, nes, upds = [], [], [], [], []
    termination, error, streak = "max_slots", None, 0
    stop, due = None, False

    # Profile t is the initial one at t = 0 and slot t's after it. The draws
    # do not depend on the trajectory and slot t + 1's updates only on the
    # profiles up to t, so slot t + 1 is drawn and its updates computed in
    # the pass that evaluates profile t. The last slot is known before its
    # pass and looks nothing ahead. A run of no slots evaluates nothing.
    for t in range(max_slots + 1) if max_slots else ():
        if t:
            new_profile = StrategyProfile.from_stack(stack, profile.ranks)
            residuals.append(block_max_distance(new_profile, profile, w))
            # quiet asynchronous slots (nobody updated) have zero residual by
            # construction; they must not advance the convergence streak
            if mask.any():
                streak = streak + 1 if residuals[-1] <= residual_tol else 0
            stop = ("converged" if streak >= SUSTAIN_SLOTS else
                    "oscillating" if _oscillating(residuals, residual_tol) else
                    "max_slots" if t == max_slots else None)
            due = bool(ne_every) and t % ne_every == 0
        full = due or stop is not None   # the NE residual is evaluated
        rows, readers, P = range(Q), [], stack[None]
        if stop is None:
            draw = schedule.draw_slot(t, rng)
            ages = np.minimum(draw[1], t)   # no profile before the first
            current, readers = _readers(draw[0], ages)
            # where the updating players' best responses are in the batch
            rows, at = (rows, current) if due else (current, range(len(current)))
            P = _measured(ring, t, ages, readers)
        failure = None
        try:
            try:
                X, brs = _evaluate(s, P, rows, readers, cfg=cfg)
            except (ConvergenceError, InvalidInputError) as exc:
                failure, full = exc, due   # evaluate slot t's own part alone
                X, brs = _evaluate(s, stack[None], range(Q) if due else [], cfg=cfg)
        except (ConvergenceError, InvalidInputError) as exc:
            termination, error = "error", str(exc)
            break
        if t:
            slots.append(t)
            ees.append(_rates(X[:Q], stack) / (s.Psi + new_profile.traces()))
            nes.append(_max_move(stack, brs) if full else float("nan"))
            upds.append(mask.copy())
            profile = new_profile
        if failure or stop:
            termination, error = ("error", str(failure)) if failure else (stop, None)
            break
        mask = draw[0]
        stack = stack.copy()
        stack[current] = brs[at]
        stack[readers] = brs[len(rows):]
        ring[(t + 1) % len(ring)] = stack

    return IwfaTrace(
        slots=np.asarray(slots, dtype=int),
        ee=np.asarray(ees, dtype=float).reshape(len(slots), Q),
        block_residual=np.asarray(residuals[:len(slots)], dtype=float),
        ne_residual=np.asarray(nes, dtype=float),
        updated=np.asarray(upds, dtype=bool).reshape(len(slots), Q),
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
            # the slot's fields, formatted once for all its player rows
            slot = int(trace.slots[i])
            block = repr(float(trace.block_residual[i]))
            ne = repr(float(trace.ne_residual[i]))
            writer.writerows(
                [slot, q, repr(ee), block, ne, int(flag)]
                for q, (ee, flag) in enumerate(zip(trace.ee[i].tolist(),
                                                   trace.updated[i].tolist()))
            )
