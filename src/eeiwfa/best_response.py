"""Per-player best response of the energy-efficiency game.

Two-step structure: the unconstrained EE-optimal power comes out of a
Dinkelbach ratio-maximization on the whitened channel's eigen-gains, the
power is clipped to the budget, and the covariance is the eigen-waterfilling
at that power. The projection form (Frobenius projection of -G^{-1} onto the
trace-p PSD set) is kept as an independent cross-check of the same map.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConvergenceError, InvalidInputError
from .linalg import _eigh_descending, hermitian_evd, hermitize, psd_trace_projection
from .model import _ct, _rank_groups, _rates_from_grams, whitened_gram

_D_TINY = 1e-30


@dataclass
class DinkelbachConfig:
    epsilon: float = 1e-9
    max_iters: int = 200
    init: str = "uniform"   # starting covariance rule: uniform = (P_q/r_q) I

    def __post_init__(self):
        if self.epsilon <= 0:
            raise InvalidInputError("epsilon must be positive")
        if self.max_iters < 1:
            raise InvalidInputError("max_iters must be >= 1")
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
    """Whitened gram and its eigen-gains; raises if not positive definite."""
    G = whitened_gram(s, q, profile)
    d, U = hermitian_evd(G)
    _check_gains(q, d)
    return G, d, U


def _check_gains(q, d):
    if d[-1] <= 0 and d[0] > _D_TINY:
        raise InvalidInputError(
            f"whitened gram of player {q} is not positive definite"
        )


def _initial_rate_trace(s, q, G, own, d, cfg):
    # nu^(1) only needs the rate and trace of the starting covariance.
    if cfg.init == "current":
        t0 = float(np.trace(own).real)
        if t0 > 0:
            return float(_rates_from_grams(G, own)), t0
    p0 = float(s.P[q])
    r = d.size
    return float(np.log1p(d * (p0 / r)).sum()), p0


def _dinkelbach_on_gains(s, q, G, own, d, cfg):
    rate0, trace0 = _initial_rate_trace(s, q, G, own, d, cfg)
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


def _unconstrained_power(s, q, G, own, d, cfg):
    """(p_u, iterations) of player q from its whitened gram ``G`` and its
    eigen-gains ``d`` (descending, not yet checked)."""
    _check_gains(q, d)
    # Defensive: a vanishing channel cannot pay for its circuit power.
    if d[0] <= _D_TINY:
        return 0.0, 0
    return _dinkelbach_on_gains(s, q, G, own, d, cfg)


def dinkelbach_power(s, q, profile, cfg=None):
    """Unconstrained EE-optimal power of player q, with iteration count.

    Iterates nu <- rate / (trace + Psi) followed by waterfilling at level
    1/nu until the parametric objective gap falls below epsilon; the nu
    sequence is checked to be non-decreasing.
    """
    cfg = cfg or DinkelbachConfig()
    G = whitened_gram(s, q, profile)
    d, _ = hermitian_evd(G)
    return _unconstrained_power(s, q, G, profile[q], d, cfg)


def _respond(s, qs, G, D, U, owns, cfg):
    """Best responses of the players ``qs``, all of one rank, from their
    stacked whitened grams G = U diag(D) U^H (each D descending, not yet
    checked) and their own current covariances; the covariances come from
    one stacked waterfilling."""
    k = D.shape[-1]
    p_u = np.zeros(len(qs))
    p_hat = np.zeros(len(qs))
    iters = [0] * len(qs)
    for i, q in enumerate(qs):
        p_u[i], iters[i] = _unconstrained_power(s, q, G[i], owns[i], D[i], cfg)
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
    G, d, U = _gain_space(s, q, profile)
    return _respond(s, [q], G[None], d[None], U[None], [profile[q]], cfg)[0]


def _best_responses(s, qs, grams, owns, cfg):
    """Best responses of the players ``qs`` from their padded whitened
    grams (one (len(qs), K, K) array, see model._whitened_grams) and their
    own current covariances; eigendecompositions and waterfillings are
    batched per rank."""
    out = [None] * len(qs)
    for k, idx in _rank_groups(s.ranks[list(qs)]):
        G = grams[idx, :k, :k]
        bad = np.flatnonzero(~np.isfinite(G).all(axis=(1, 2)))
        if bad.size:
            raise InvalidInputError(
                f"whitened gram of player {qs[idx[bad[0]]]} has non-finite entries"
            )
        vals, vecs = _eigh_descending(G)
        group = _respond(s, [qs[i] for i in idx], G, vals, vecs,
                         [owns[i] for i in idx], cfg)
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
