"""Hot numeric kernels.

Everything here operates on plain float64 arrays; the complex matrix work
(EVD, SVD, solves) stays in the callers, where LAPACK already does the
heavy lifting. The water level and the Dinkelbach iteration each take a
stack of rows and are exact on sorted prefix sums (Palomar & Fonollosa,
IEEE TSP 2005; Dinkelbach 1967).
"""

import math
from bisect import bisect_left
from functools import reduce
from itertools import accumulate
from operator import add

import numpy as np


def water_level(vals, p):
    """Level theta with sum_k max(vals[k] + theta, 0) = p, and those powers.

    ``vals`` is one row of n values or a stack (..., n) of rows, ``p`` the
    budget of each row (a scalar or shape (...)); theta has the budgets'
    broadcast shape. With k active entries (the k largest), theta = (p -
    their sum) / k; the active set is the largest k whose k-th largest
    entry stays above water. A row with ``p <= 0`` gets ``-max(vals)`` and
    zero powers.
    """
    p = np.asarray(p, dtype=np.float64)
    s = np.sort(vals, axis=-1)[..., ::-1]
    n = s.shape[-1]
    thetas = (p[..., None] - np.cumsum(s, axis=-1)) / np.arange(1, n + 1)
    above = s + thetas > 0.0
    above[..., 0] = True   # exact for p > 0; rounding can lose it when p << |vals|
    last = n - 1 - np.argmax(above[..., ::-1], axis=-1)
    theta = thetas[(*np.indices(last.shape, sparse=True), last)]
    powers = np.maximum(vals + theta[..., None], 0.0)
    dry = p <= 0.0
    if dry.any():
        theta = np.where(dry, -s[..., 0], theta)
        powers = np.where(dry[..., None], 0.0, powers)
    return theta[()], powers


# A largest gain at or below this cannot pay for circuit power: EE-optimal power 0.
VANISHING_GAIN = 1e-30
# The gap |rate - nu (trace + psi)| stalls near one ulp of the rate (at up to
# 2 on Q=4 n=3 games, SNR 7 dB, SIR 0 dB): twice that closes it whatever eps.
GAP_ULPS = 4
SOLVED, GAP_OPEN, DECREASED, NOT_POSITIVE = range(4)


def dinkelbach_gains(D, psi, p0, eps, max_iters):
    """Dinkelbach ratio iteration on each row of descending gains ``D`` (B,
    k), with circuit powers ``psi`` and budgets ``p0`` (B,), from the
    uniform covariance (p0 / k) I: one (trace, iterations, final gap,
    outcome) tuple per row. A gap of at most ``eps`` or GAP_ULPS ulps of the
    rate is closed: the outcome is SOLVED, or DECREASED when nu decreased (a
    numerical failure); GAP_OPEN when max_iters end the loop first. A row
    whose largest gain is at most VANISHING_GAIN is SOLVED at trace 0 with
    no iteration; one with a gain <= 0 is NOT_POSITIVE, with a NaN gap.

    Each iterate is the waterfilling at level 1/nu, so only the gains and
    the running rate/trace of the iterate are needed: the channels with
    1/d_k < level are active, and on them 1 + d_k q_k = d_k level.
    """
    log, ulp = math.log, math.ulp
    out = []
    for d, trace, psi in zip(D.tolist(), p0.tolist(), psi.tolist()):
        if d[0] <= VANISHING_GAIN:
            out.append((0.0, 0, 0.0, SOLVED))
            continue
        if not d[-1] > 0.0:
            out.append((0.0, 0, math.nan, NOT_POSITIVE))
            continue
        inv = [1.0 / x for x in d]   # ascending: the active channels are a prefix
        cinv = list(accumulate(inv))
        # libm's logs, not numpy's SIMD ones, whose last bit varies with the CPU
        clog = list(accumulate(map(log, d)))
        # nu^(1) only needs the rate and trace of the starting covariance
        share = trace / len(d)
        rate = _log1p_sum([x * share for x in d])
        nu_prev = 0.0
        monotone, outcome = True, GAP_OPEN
        delta = math.inf
        iters = 0
        while iters < max_iters:
            nu = rate / (trace + psi)
            if iters and nu < nu_prev - 1e-12 * max(1.0, abs(nu_prev)):
                monotone = False
            nu_prev = nu
            level = 1.0 / nu
            k = bisect_left(inv, level)
            if k:
                trace = k * level - cinv[k - 1]
                rate = k * log(level) + clog[k - 1]
            else:
                trace = rate = 0.0
            delta = abs(rate - nu * (trace + psi))
            iters += 1
            if delta <= eps or delta <= GAP_ULPS * ulp(rate):
                outcome = SOLVED if monotone else DECREASED
                break
        out.append((trace, iters, delta, outcome))
    return out


def _log1p_sum(xs):
    """sum_k log1p(xs[k]) from libm, added left to right: functools.reduce,
    as ``sum`` compensates its float additions from Python 3.12 on."""
    return reduce(add, map(math.log1p, xs), 0.0)


def power_iteration(A, w, tol, max_iters):
    """Perron pair of an entrywise-nonnegative matrix from the nonzero start
    vector ``w``: (radius, unit vector, converged).

    Iterating on A + I keeps periodic matrices (e.g. permutations)
    convergent; the shift moves every eigenvalue by exactly 1 and keeps the
    eigenvectors.
    """
    w = w / math.sqrt(float(w @ w))
    lam = 1.0
    converged = False
    for _ in range(max_iters):
        v = w + A @ w
        lam = float(w @ v)
        res = float(np.abs(v - lam * w).max())
        w = v / math.sqrt(float(v @ v))
        if res <= tol * max(1.0, abs(lam)):
            converged = True
            break
    return lam - 1.0, w, converged
