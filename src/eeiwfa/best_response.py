"""Per-player best response of the energy-efficiency game.

Two-step structure: the unconstrained EE-optimal power comes out of a
Dinkelbach ratio-maximization on the whitened channel's eigen-gains, the
power is clipped to the budget, and the covariance is the eigen-waterfilling
at that power. The projection form (Frobenius projection of -G^{-1} onto the
trace-p PSD set) is kept as an independent cross-check of the same map.
"""

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from . import _kernels
from .errors import ConvergenceError, InvalidInputError
from .linalg import _eigh_descending, hermitian_evd, hermitize, psd_trace_projection
from .model import _ct, _grams, _rank_groups, _rates, _whitened_channels

_D_TINY = 1e-30


@dataclass
class DinkelbachConfig:
    epsilon: float = 1e-9
    max_iters: int = 200
    init: str = "uniform"   # starting covariance rule: uniform = (P_q/r_q) I

    def __post_init__(self):
        # NaN fails every comparison, so it is rejected with the rest
        if not (isinstance(self.epsilon, Real) and 0.0 < self.epsilon < math.inf):
            raise InvalidInputError("epsilon must be finite and positive")
        if not (isinstance(self.max_iters, Real) and self.max_iters >= 1
                and float(self.max_iters).is_integer()):
            raise InvalidInputError("max_iters must be an integer >= 1")
        if self.init not in ("uniform", "current"):
            raise InvalidInputError("init must be 'uniform' or 'current'")


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


def waterfill(U, D, p):
    """Waterfilling covariance U diag((mu - 1/d_k)^+) U^H with trace p.

    ``U`` is the eigenbasis and ``D`` the positive eigen-gains of the
    whitened channel; the level mu is set so the trace equals ``p``
    (to 1e-12 * max(1, p)). ``p = 0`` returns the zero matrix.
    """
    D = np.asarray(D, dtype=float)
    if p < 0:
        raise InvalidInputError("power must be >= 0")
    if np.any(D <= 0):
        raise InvalidInputError("eigen-gains must be strictly positive")
    U = np.asarray(U, dtype=complex)
    if p == 0:
        return np.zeros((U.shape[0], U.shape[0]), dtype=complex)
    _, powers = _waterfill_powers(D, p)
    return (U * powers) @ U.conj().T


def _gain_space(s, q, profile):
    """Player q's whitened direct channel X (N x r_q) and the eigen-gains and
    eigenbasis of its gram X^H X; raises if that is not positive definite."""
    X = _whitened_channels(s, [q], [profile.stack])[0, :, : s.ranks[q]]
    d, U = hermitian_evd(_grams(X))
    _check_gains(q, d)
    return X, d, U


def _check_gains(q, d):
    if d[-1] <= 0 and d[0] > _D_TINY:
        raise InvalidInputError(
            f"whitened gram of player {q} is not positive definite"
        )


def _unconstrained_power(s, q, X, own, d, cfg):
    """(p_u, iterations) of player q from its whitened direct channel ``X``
    (N x r_q), its own covariance and the eigen-gains ``d`` of X^H X
    (descending, not yet checked)."""
    _check_gains(q, d)
    # Defensive: a vanishing channel cannot pay for its circuit power.
    if d[0] <= _D_TINY:
        return 0.0, 0
    # nu^(1) only needs the rate and trace of the starting covariance.
    own_trace = float(np.trace(own).real) if cfg.init == "current" else 0.0
    if own_trace > 0:
        rate0, trace0 = float(_rates(X[None], own[None])[0]), own_trace
    else:
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


def dinkelbach_power(s, q, profile, cfg=None):
    """Unconstrained EE-optimal power of player q, with iteration count.

    Iterates nu <- rate / (trace + Psi) followed by waterfilling at level
    1/nu until the parametric objective gap falls below epsilon; the nu
    sequence is checked to be non-decreasing.
    """
    cfg = cfg or DinkelbachConfig()
    X, d, _ = _gain_space(s, q, profile)
    return _unconstrained_power(s, q, X, profile[q], d, cfg)


def _respond(s, qs, X, D, U, owns, cfg):
    """Best responses of the players ``qs``, all of one rank, from their
    stacked whitened direct channels X, the eigendecompositions
    X^H X = U diag(D) U^H (each D descending, not yet checked) and their own
    current covariances; the covariances come from one stacked
    waterfilling."""
    k = D.shape[-1]
    p_u = np.zeros(len(qs))
    p_hat = np.zeros(len(qs))
    iters = [0] * len(qs)
    for i, q in enumerate(qs):
        p_u[i], iters[i] = _unconstrained_power(s, q, X[i], owns[i], D[i], cfg)
        p_hat[i] = min(float(s.P[q]), p_u[i])
    live = np.flatnonzero(p_hat > 0)
    mu, powers = _waterfill_powers(D[live], p_hat[live])
    Qbr = (U[live] * powers[:, None, :]) @ _ct(U[live])
    out = [None] * len(qs)
    for j, i in enumerate(live):
        out[i] = BestResponseResult(Qbr[j], float(p_u[i]), float(p_hat[i]),
                                    float(mu[j]), iters[i])
    for i in np.flatnonzero(p_hat <= 0):
        out[i] = BestResponseResult(np.zeros((k, k), dtype=complex), float(p_u[i]),
                                    0.0, 0.0, iters[i], zero_power=True)
    return out


def best_response(s, q, profile, cfg=None):
    """EE best response of player q against a fixed profile of the others.

    Returns the waterfilled covariance at p_hat = min(P_q, p_unconstrained)
    together with the powers, water level and Dinkelbach iteration count.
    """
    cfg = cfg or DinkelbachConfig()
    X, d, U = _gain_space(s, q, profile)
    return _respond(s, [q], X[None], d[None], U[None], profile[q][None], cfg)[0]


def _best_responses(s, qs, X, owns, cfg):
    """Best responses of the players ``qs`` from their padded whitened
    direct channels (one (len(qs), N, K) array, see
    model._whitened_channels) and their own current covariances (one padded
    (len(qs), K, K) stack); eigendecompositions and waterfillings are
    batched per rank."""
    out = [None] * len(qs)
    grams = _grams(X)
    for k, idx in _rank_groups(s.ranks[list(qs)]):
        G = grams[idx, :k, :k]
        bad = np.flatnonzero(~np.isfinite(G).all(axis=(1, 2)))
        if bad.size:
            raise InvalidInputError(
                f"whitened gram of player {qs[idx[bad[0]]]} has non-finite entries"
            )
        vals, vecs = _eigh_descending(G)
        group = _respond(s, [qs[i] for i in idx], X[idx, :, :k], vals, vecs,
                         owns[idx, :k, :k], cfg)
        for i, res in zip(idx, group):
            out[i] = res
    return out


def projection_best_response(s, q, profile, p_hat):
    """Best response as the projection of -G^{-1} onto {Q >= 0, tr Q = p_hat}.

    Equals :func:`waterfill` on the same inputs; kept as an independent
    formulation for cross-checking.
    """
    if p_hat < 0:
        raise InvalidInputError("power must be >= 0")
    _, d, U = _gain_space(s, q, profile)
    if d[-1] <= 0:
        raise InvalidInputError(
            f"whitened gram of player {q} is not positive definite"
        )
    X = -(U * (1.0 / d)) @ U.conj().T
    return psd_trace_projection(hermitize(X), float(p_hat))
