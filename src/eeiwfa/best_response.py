"""Per-player best response of the energy-efficiency game.

Two-step structure: the unconstrained EE-optimal power comes out of a
Dinkelbach ratio-maximization on the whitened channel's eigen-gains, the
power is clipped to the budget, and the covariance is the eigen-waterfilling
at that power. The projection form (Frobenius projection of -G^{-1} onto the
trace-p PSD set) is kept as an independent cross-check of the same map.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConvergenceError, InvalidInputError, check_count, is_real
from .linalg import _eigh_descending, hermitian_evd, hermitize, psd_trace_projection
from .model import _ct, _grams, _rank_groups, _whitened_channels, whitened_gram

_D_TINY = 1e-30


@dataclass
class DinkelbachConfig:
    epsilon: float = 1e-9
    max_iters: int = 200

    def __post_init__(self):
        # NaN fails every comparison, so it is rejected with the rest
        if not (is_real(self.epsilon) and 0.0 < self.epsilon < math.inf):
            raise InvalidInputError("epsilon must be finite and positive")
        check_count(self.max_iters, "max_iters", 1)


@dataclass
class BestResponseResult:
    Qbr: np.ndarray
    p_unconstrained: float
    p_hat: float
    water_level: float
    dinkelbach_iters: int
    zero_power: bool = False


def _waterfill_powers(D, p):
    """Per-eigenchannel powers (mu - 1/d_k)^+ with trace exactly p, for one
    row of gains or a stack of rows with one budget each."""
    return _kernels.water_level(-1.0 / np.asarray(D, dtype=np.float64), p)


def _unconstrained_power(s, q, d, cfg):
    """(p_u, iterations) of player q from the eigen-gains ``d`` of its
    whitened gram (descending), Dinkelbach started from the uniform
    covariance (P_q / r_q) I."""
    # Defensive: a vanishing channel cannot pay for its circuit power.
    if d[0] <= _D_TINY:
        return 0.0, 0
    if d[-1] <= 0:
        raise InvalidInputError(
            f"whitened gram of player {q} is not positive definite"
        )
    # nu^(1) only needs the rate and trace of the starting covariance.
    trace0 = float(s.P[q])
    rate0 = float(np.log1p(d * (trace0 / d.size)).sum())
    p_u, iters, delta, monotone = _kernels.dinkelbach_gains(
        np.ascontiguousarray(d, dtype=np.float64),
        float(s.Psi[q]), rate0, trace0, float(cfg.epsilon), int(cfg.max_iters),
    )
    if delta > cfg.epsilon:
        raise ConvergenceError(
            f"Dinkelbach did not reach epsilon={cfg.epsilon:g} within "
            f"{cfg.max_iters} iterations (last gap {delta:.3e})",
            delta=float(delta),
        )
    if not monotone:
        raise ConvergenceError(
            "Dinkelbach ratio sequence decreased; numerical failure",
            delta=float(delta),
        )
    return float(p_u), int(iters)


def _best_responses(s, qs, X, cfg):
    """Best responses of the players ``qs`` from their padded whitened
    direct channels (one (len(qs), N, K) array, see
    model._whitened_channels), each formed at the profile that player
    measures. Every best response, of one player or of many, is computed
    here: per rank, one batched eigendecomposition of the grams, one
    Dinkelbach solve per player and one stacked waterfilling. Returns the
    zero-padded (len(qs), K, K) stack of best responses (a zero row at zero
    power) and arrays over ``qs`` of p_unconstrained, p_hat, the water
    level (0 at zero power) and the Dinkelbach iterations."""
    grams = _grams(X)
    bad = np.flatnonzero(~np.isfinite(grams).all(axis=(1, 2)))
    if bad.size:
        raise InvalidInputError(f"whitened gram of player {qs[bad[0]]} has non-finite entries")
    Qbr = np.zeros(grams.shape, dtype=complex)
    p_u, p_hat, mu = np.zeros((3, len(qs)))
    iters = np.zeros(len(qs), dtype=int)
    for k, idx in _rank_groups(s.ranks[list(qs)]):
        D, U = _eigh_descending(grams[idx, :k, :k])
        for j, i in enumerate(idx):
            p_u[i], iters[i] = _unconstrained_power(s, qs[i], D[j], cfg)
            p_hat[i] = max(0.0, min(float(s.P[qs[i]]), p_u[i]))
        live = p_hat[idx] > 0
        mu[idx[live]], powers = _waterfill_powers(D[live], p_hat[idx[live]])
        Qbr[idx[live], :k, :k] = (U[live] * powers[:, None, :]) @ _ct(U[live])
    return Qbr, p_u, p_hat, mu, iters


def best_response(s, q, profile, cfg=None):
    """EE best response of player q against a fixed profile of the others.

    Returns the waterfilled covariance at p_hat = min(P_q, p_unconstrained)
    together with the powers, water level and Dinkelbach iteration count.
    """
    X = _whitened_channels(s, [q], [profile.stack])
    Qbr, p_u, p_hat, mu, iters = _best_responses(s, [q], X, cfg or DinkelbachConfig())
    k = s.ranks[q]
    return BestResponseResult(Qbr[0, :k, :k], float(p_u[0]), float(p_hat[0]), float(mu[0]),
                              int(iters[0]), zero_power=bool(p_hat[0] == 0.0))


def projection_best_response(s, q, profile, p_hat):
    """Best response as the projection of -G^{-1} onto {Q >= 0, tr Q = p_hat}.

    Equals the eigen-waterfilling of :func:`best_response` at the same
    p_hat; kept as an independent formulation for cross-checking.
    """
    if p_hat < 0:
        raise InvalidInputError("power must be >= 0")
    d, U = hermitian_evd(whitened_gram(s, q, profile))
    if d[-1] <= 0:
        raise InvalidInputError(
            f"whitened gram of player {q} is not positive definite"
        )
    X = -(U * (1.0 / d)) @ U.conj().T
    return psd_trace_projection(hermitize(X), float(p_hat))
