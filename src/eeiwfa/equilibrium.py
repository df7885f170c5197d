"""Nash-equilibrium uniqueness machinery.

Builds the nonnegative interference matrix in its exact-square,
pseudoinverse (full-row-rank: the exact matrix of the reduced game) and
sampled (full-column-rank) variants, evaluates the two uniqueness criteria
(variational-inequality form with the symmetrized spectral radius,
contraction form with the plain spectral radius), exposes the linear QVI
mapping, and numerically verifies its Lipschitz/strong-monotonicity
constants and the smoothness of the strategy-dependent power sets.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .best_response import DinkelbachConfig, _best_responses
from .errors import (
    CheckFailure,
    ConvergenceError,
    InvalidInputError,
    check_count,
    check_number,
    is_real,
)
from .linalg import (
    W_FLOOR,
    _psd_trace_projections,
    hermitize,
    spectral_radius,
)
from .model import (
    StrategyProfile,
    _complex_to_lists,
    _ct,
    _rank_groups,
    _received_covariance,
    _stack_frob,
    _unwide,
    _whitened_channels,
    _wide,
    reduce_scenario,
    scenario_from_matrices,
)

# Samples the verifiers evaluate per batched step: large enough to amortize
# the per-call overhead of the stacked numpy calls, small enough that the
# stacks add little to the peak memory.
_CHUNK = 16

VARIANTS = ("exact-square", "pseudoinverse-rowrank", "sampled-columnrank")


@dataclass
class InterferenceMatrix:
    """Q x Q nonnegative matrix of squared whitened cross-channel gains."""

    S: np.ndarray
    variant: str
    n_samples: int = 0

    def __post_init__(self):
        self.S = np.asarray(self.S, dtype=float)
        Q = self.S.shape[0]
        if self.S.shape != (Q, Q):
            raise InvalidInputError("interference matrix must be square")
        if self.variant not in VARIANTS:
            raise InvalidInputError(f"variant must be one of {VARIANTS}")
        if np.any(np.diagonal(self.S) != 0.0):
            raise InvalidInputError("interference matrix must have a zero diagonal")
        if self.S.size and self.S.min() < 0.0:
            raise InvalidInputError("interference matrix must be nonnegative")


def _sigma_max_sq(M):
    """Squared largest singular value of each matrix in a stack: the largest
    eigenvalue of its gram M^H M."""
    return np.linalg.eigvalsh(_ct(M) @ M)[..., -1]


def _solve_direct(s, q, B):
    """Hbar_qq^{-1} B for player q's reduced direct channel, which must be
    square (its direct channel full row rank) and nonsingular."""
    Hqq = s.Hbar[q][q]
    if Hqq.shape[0] != Hqq.shape[1]:
        raise InvalidInputError(
            f"direct channel of player {q} is not full row rank (reduced to"
            f" {Hqq.shape[0]}x{Hqq.shape[1]}); use interference_matrix_sampled"
            " for full-column-rank channels"
        )
    try:
        return np.linalg.solve(Hqq, B)
    except np.linalg.LinAlgError:
        raise InvalidInputError(
            f"reduced direct channel of player {q} is singular"
        ) from None


def _normalized_channels(s, q):
    """Hbar_qq^{-1} Hbar_qr for every r, one solve against [Hbar_q0 | Hbar_q1
    | ...]: a (Q, n, K) stack, n = ranks[q] (square channels only)."""
    n = s.Hbar[q][q].shape[0]
    return _unwide(_solve_direct(s, q, _wide(s.Hbar.array[q, :, :n])), s.Q)


def interference_matrix_square(s):
    """Exact interference matrix for square nonsingular direct channels:
    entry (q, r) = sigma_max^2(Hbar_qq^{-1} Hbar_qr)."""
    Q = s.Q
    S = np.zeros((Q, Q))
    for q in range(Q):
        S[q] = _sigma_max_sq(_normalized_channels(s, q))
        S[q, q] = 0.0
    return InterferenceMatrix(S, "exact-square")


def interference_matrix_rowrank(s):
    """Interference matrix of a scenario whose direct channels are all full
    row rank. Such an H_qq = U1 Sigma V1^H reduces to the square nonsingular
    Hbar_qq = U1 Sigma, so the pseudoinverse entry sigma_max^2(pinv(H_qq)
    H_qr V1_r) = sigma_max^2(V1_q Hbar_qq^{-1} Hbar_qr) is the reduced game's
    exact entry (V1_q has orthonormal columns)."""
    S = interference_matrix_square(reduce_scenario(s))
    return InterferenceMatrix(S.S, "pseudoinverse-rowrank")


# --- random sampling rules -------------------------------------------------

def _draw_offsets(ranks):
    """Where each player's block starts in a row of raw normal draws: its
    r x r real parts, then its r x r imaginary parts, players in order."""
    return np.cumsum([0] + [2 * r * r for r in ranks])


def _gaussians(Z, ranks, idx, k):
    """The complex k x k Gaussian matrices of the players ``idx`` (all of
    rank k) from rows ``Z`` (..., n_draws) of raw normal draws; one
    (..., len(idx), k, k) stack."""
    off = _draw_offsets(ranks)
    z = np.stack([Z[..., off[q] : off[q + 1]] for q in idx], axis=-2)
    z = z.reshape(Z.shape[:-1] + (len(idx), 2, k, k))
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def _random_covariances(rng, ranks, P, count, boundary=False, rule="wishart"):
    """``count`` random profiles of players with ``ranks`` and budgets
    ``P``; one (count, Q, K, K) stack, zero-padded beyond each player's rank.
    Every random profile is drawn here, under one of two rules:

    - ``"wishart"``: B B^H for a complex Gaussian r x r matrix B, scaled to
      a uniform random trace in [0, P_q], or to P_q on the ``boundary``;
    - ``"frame-simplex"``: U diag(P_q lambda) U^H with U the Haar unitary of
      the QR of B / sqrt(2), phases fixed (Mezzadri, Notices AMS 2007), and
      lambda ~ dirichlet(ones(r)) uniform on the simplex. These profiles are
      always on the budget, so ``boundary`` does not apply.

    The stream order is that of a per-player loop: for each profile and
    player, the 2 r^2 normal draws of B, then that player's trace or simplex
    draw. Only the draws are made one player at a time (one call for the
    whole stack on the Wishart boundary, where nothing sits between them);
    the algebra is batched per rank.
    """
    if rule not in ("wishart", "frame-simplex"):
        raise InvalidInputError(f"unknown sampling rule {rule!r}")
    simplex = rule == "frame-simplex"
    ranks = [int(r) for r in ranks]
    P = np.asarray(P, dtype=float)
    Q, K = len(ranks), max(ranks)
    off = _draw_offsets(ranks)
    Z = np.empty((count, off[-1]))
    own = np.zeros((count, Q, K if simplex else 1))   # simplex weights or traces
    if boundary and not simplex:
        rng.standard_normal(out=Z)
        own[:] = P[:, None]
    else:
        for m in range(count):
            for q, r in enumerate(ranks):
                rng.standard_normal(out=Z[m, off[q] : off[q + 1]])
                if simplex:
                    own[m, q, :r] = rng.dirichlet(np.ones(r))
                else:
                    own[m, q] = P[q] * rng.random()
    out = np.zeros((count, Q, K, K), dtype=complex)
    for k, idx in _rank_groups(ranks):
        B = _gaussians(Z, ranks, idx, k)
        if simplex:
            U, R = np.linalg.qr(B / np.sqrt(2))
            d = np.diagonal(R, axis1=-2, axis2=-1)
            U = U * (d / np.abs(d))[..., None, :]
            lam = P[idx, None] * own[:, idx, :k]
            out[:, idx, :k, :k] = hermitize((U * lam[..., None, :]) @ _ct(U))
            continue
        M = B @ _ct(B)
        tr = np.trace(M, axis1=-2, axis2=-1).real
        t = own[:, idx, 0]
        M *= np.divide(t, tr, out=np.zeros_like(t), where=tr > 0)[..., None, None]
        dry = tr <= 0
        M[dry] = (t[dry] / k)[:, None, None] * np.eye(k)
        out[:, idx, :k, :k] = M
    return out


def random_covariance(r, p, rng, boundary=False):
    """Random PSD matrix A A^H scaled to a random trace in [0, p]
    (or exactly p on the boundary)."""
    return _random_covariances(rng, [r], [float(p)], 1, boundary)[0, 0]


def random_profile(s, rng, boundary=False):
    """Random feasible strategy profile of the reduced game, Wishart-drawn
    (see :func:`_random_covariances`)."""
    P = _random_covariances(rng, s.ranks, s.P, 1, boundary)[0]
    return StrategyProfile.from_stack(P, s.ranks)


def interference_matrix_sampled(s, n_samples, seed):
    """Sampled interference matrix for full-column-rank direct channels.

    Entry (q, r) maximizes sigma_max^2 of the whitened cross-channel map
    G_qr = (Hqq^H R^{-1} Hqq)^{-1} Hqq^H R^{-1} Hqr over ``n_samples``
    full-power profiles. The inner maximization is nonconvex, so this is a
    Monte-Carlo LOWER bound on the true maximum; with the same seed the
    entries are non-decreasing in ``n_samples``. For square nonsingular
    direct channels G_qr is profile-independent and the result matches
    :func:`interference_matrix_square`.
    """
    n_samples = check_count(n_samples, "n_samples", 1)
    rng = np.random.default_rng(check_count(seed, "seed", 0))
    Q = s.Q
    S = np.zeros((Q, Q))
    for start in range(0, n_samples, _CHUNK):
        D = _random_covariances(rng, s.ranks, s.P, min(_CHUNK, n_samples - start),
                                rule="frame-simplex")
        # One sample at a time: the wide product in _received_covariance
        # rounds differently with more profiles side by side, which would
        # let an entry fall as n_samples grows.
        for delta in D:
            for q in range(Q):
                k = int(s.ranks[q])
                A = s.Hbar.array[q]
                R = hermitize(_received_covariance(A, s.Rn.stack[q], q, delta)[0])
                W = np.linalg.solve(R, A[q])[:, :k]
                T = _wide(_ct(W) @ A)
                G = _unwide(np.linalg.solve(hermitize(_ct(W) @ A[q][:, :k]), T), Q)
                S[q] = np.maximum(S[q], _sigma_max_sq(G))
                S[q, q] = 0.0
    return InterferenceMatrix(S, "sampled-columnrank", n_samples=n_samples)


# --- uniqueness criteria ---------------------------------------------------

@dataclass
class PowerSmoothnessConfig:
    n_pairs: int = 50
    seed: int = 0
    perturbation: float = 0.01
    dinkelbach: DinkelbachConfig = field(default_factory=DinkelbachConfig)

    def __post_init__(self):
        self.n_pairs = check_count(self.n_pairs, "n_pairs", 0)
        self.seed = check_count(self.seed, "seed", 0)
        # NaN fails both comparisons, so it is rejected with the rest
        if not (is_real(self.perturbation) and 0.0 <= self.perturbation <= 1.0):
            raise InvalidInputError("perturbation must lie in [0, 1]")


@dataclass
class PowerSmoothnessEstimate:
    max_ratio_l2: float
    max_ratio_weighted_inf: float
    n_pairs: int
    n_skipped: int


@dataclass
class CriteriaReport:
    """Constants and flags of the two uniqueness criteria.

    ``qvi_rhs_constant`` is (1 - sr(S^s)) / sigma_max(I + S) and
    ``contraction_rhs_constant`` is 1 - sr(S); each bounds how fast the
    optimal-power mapping may vary for its criterion to guarantee a unique
    equilibrium. The flags record the interference half of each criterion.
    """

    variant: str
    sr_S: float
    sr_Ssym: float
    sigma_max_IplusS: float
    perron_w: np.ndarray
    perron_degenerate: bool
    qvi_rhs_constant: float
    contraction_rhs_constant: float
    interference_ok_qvi: bool
    interference_ok_contraction: bool
    power_smoothness: PowerSmoothnessEstimate | None = None

    def to_dict(self):
        d = asdict(self)
        d["perron_w"] = [float(x) for x in self.perron_w]
        if self.power_smoothness is None:
            del d["power_smoothness"]
        return d


def criteria(s, S, smoothness_cfg=None):
    """Evaluate both uniqueness criteria for an interference matrix.

    ``s`` (a reduced scenario) is only needed when ``smoothness_cfg`` asks
    for the sampled power-mapping modulus; pass ``s=None`` otherwise.
    """
    M = S.S
    Q = M.shape[0]
    sr_S, w, degenerate = spectral_radius(M)
    sr_sym, _, _ = spectral_radius(0.5 * (M + M.T))
    sigma = float(np.linalg.norm(np.eye(Q) + M, 2))
    if sr_S > sr_sym + 1e-9:
        raise CheckFailure(
            f"spectral-radius ordering violated: sr(S)={sr_S} > sr(S^s)={sr_sym}"
        )
    if sigma < 1.0 - 1e-12:
        raise CheckFailure(f"sigma_max(I + S) = {sigma} < 1")
    qvi_rhs = (1.0 - sr_sym) / sigma
    contraction_rhs = 1.0 - sr_S
    ok_qvi = bool(sr_sym < 1.0)
    ok_contraction = bool(sr_S < 1.0)
    if ok_qvi and ok_contraction and qvi_rhs > contraction_rhs + 1e-9:
        raise CheckFailure("criterion constants are inconsistently ordered")
    smooth = None
    if smoothness_cfg is not None:
        if s is None:
            raise InvalidInputError("a scenario is required for the smoothness estimate")
        smooth = estimate_power_smoothness(s, smoothness_cfg, weights=w)
    return CriteriaReport(
        variant=S.variant,
        sr_S=float(sr_S),
        sr_Ssym=float(sr_sym),
        sigma_max_IplusS=sigma,
        perron_w=w,
        perron_degenerate=degenerate,
        qvi_rhs_constant=float(qvi_rhs),
        contraction_rhs_constant=float(contraction_rhs),
        interference_ok_qvi=ok_qvi,
        interference_ok_contraction=ok_contraction,
        power_smoothness=smooth,
    )


# --- the linear QVI mapping and its verified properties ---------------------

def _qvi_operator(s):
    """The game normalized by its direct channels (square channels only):
    channels X_qr = Hqq^{-1} Hbar_qr, the identity for r = q, as a (Q, Q,
    K, K) array and noises C_q = Hqq^{-1} Rn_q Hqq^{-H} as a (Q, K, K)
    stack, both zero-padded."""
    Q, K = s.Q, s.Hbar.array.shape[3]
    C = np.zeros((Q, K, K), dtype=complex)
    X = np.zeros((Q, Q, K, K), dtype=complex)
    for q in range(Q):
        n = s.Hbar[q][q].shape[0]
        X[q, :, :n] = _normalized_channels(s, q)
        C[q, :n, :n] = _ct(_solve_direct(s, q, _ct(_solve_direct(s, q, s.Rn[q]))))
    return C, X


def _qvi_apply(op, P):
    """F of each padded profile in an (M, Q, K, K) stack: F_q = P_q plus
    player q's received covariance in the normalized game ``op``, formed
    for the M profiles side by side."""
    C, X = op
    M, Q, K = P.shape[:3]
    # Pw[r] = [P_r of profile 0 | P_r of profile 1 | ...], K x (M K)
    Pw = P.transpose(1, 2, 0, 3).reshape(Q, K, M * K)
    F = np.stack([_received_covariance(X[q], C[q], q, Pw) for q in range(Q)], axis=1)
    return hermitize(F + P)


def qvi_map(s, profile):
    """The affine per-player mapping F_q whose variational inequality on the
    full-power sets characterizes the equilibria (square channels only):

    F_q = Hqq^{-1} Rn_q Hqq^{-H} + sum_r Hqq^{-1} Hqr Qbar_r Hqr^H Hqq^{-H},

    the sum over every r, so that F_q = Qbar_q + G_q^{-1} with G_q player
    q's whitened gram; returned as a profile whose entry q is F_q.
    """
    F = _qvi_apply(_qvi_operator(s), profile.stack[None])[0]
    return StrategyProfile.from_stack(F, s.ranks)


@dataclass
class VerifierReport:
    """One sampled bound check. ``max_ratio`` is the worst sampled value,
    or on a violation the value of the reported sample: for Lipschitz and
    power-set smoothness a ratio of the two sides, for monotonicity the
    smallest margin Re tr(dF^H dQ) - mu ||dQ||_F^2, not a ratio."""

    name: str
    status: str              # "ok" | "violation" | "skipped"
    n_samples: int
    constant: float
    max_ratio: float
    slack: float
    witness: dict | None = None
    notes: str = ""

    @property
    def passed(self):
        return self.status != "violation"

    def to_dict(self):
        return asdict(self)


def _witness(s, index, pa, pb):
    def lists(P):
        return [_complex_to_lists(m) for m in StrategyProfile.from_stack(P, s.ranks)]

    return {"pair_index": int(index), "profile_a": lists(pa), "profile_b": lists(pb)}


def _pair_chunks(s, n_pairs, rng, boundary):
    """(first pair index, Pa, Pb) for the sampled profile pairs in chunks of
    at most _CHUNK; Pa and Pb are padded (m, Q, K, K) stacks drawn in the
    order pa_0, pb_0, pa_1, ... of a per-pair loop."""
    for start in range(0, n_pairs, _CHUNK):
        m = min(_CHUNK, n_pairs - start)
        D = _random_covariances(rng, s.ranks, s.P, 2 * m, boundary)
        yield start, D[0::2], D[1::2]


def verify_lipschitz(s, n_pairs=500, seed=0, slack=1e-9):
    """Sample profile pairs and check the Lipschitz bound
    ||F(Q) - F(Q')||_F <= sigma_max(I + S) ||Q - Q'||_F.

    Pairs are evaluated in batched chunks; the report names the first
    violating pair in sample order, as a per-pair loop would.
    """
    n_pairs = check_count(n_pairs, "n_pairs", 0)
    slack = check_number(slack, "slack")
    S = interference_matrix_square(s)
    L = float(np.linalg.norm(np.eye(s.Q) + S.S, 2))
    op = _qvi_operator(s)
    rng = np.random.default_rng(seed)
    max_ratio = 0.0
    for start, Pa, Pb in _pair_chunks(s, n_pairs, rng, boundary=False):
        num = _stack_frob(_qvi_apply(op, Pa) - _qvi_apply(op, Pb))
        den = _stack_frob(Pa - Pb)
        used = den > 1e-12
        ratio = np.divide(num, den, out=np.zeros_like(num), where=used)
        bad = np.flatnonzero(used & (num > L * den + slack))
        if bad.size:
            j = bad[0]
            return VerifierReport(
                "lipschitz", "violation", start + j + 1, L, float(ratio[j]), slack,
                witness=_witness(s, start + j, Pa[j], Pb[j]),
            )
        if used.any():
            max_ratio = max(max_ratio, float(ratio[used].max()))
    return VerifierReport("lipschitz", "ok", n_pairs, L, max_ratio, slack)


def verify_monotonicity(s, n_pairs=500, seed=0, slack=1e-9):
    """Sample full-power profile pairs and check strong monotonicity
    Re tr((F - F')^H (Q - Q')) >= (1 - sr(S^s)) ||Q - Q'||_F^2.

    The bound is stated on the full-power boundary and only certifies a
    unique equilibrium when sr(S^s) < 1; above that the check is skipped.
    Pairs are evaluated in batched chunks; the report names the first
    violating pair in sample order.
    """
    n_pairs = check_count(n_pairs, "n_pairs", 0)
    slack = check_number(slack, "slack")
    S = interference_matrix_square(s)
    sr_sym, _, _ = spectral_radius(0.5 * (S.S + S.S.T))
    mu = 1.0 - float(sr_sym)
    if mu <= 0.0:
        return VerifierReport(
            "monotonicity", "skipped", 0, mu, float("nan"), slack,
            notes=f"sr(S^s) = {sr_sym:.6g} >= 1: bound gives no certificate",
        )
    op = _qvi_operator(s)
    rng = np.random.default_rng(seed)
    min_margin = float("inf")
    for start, Pa, Pb in _pair_chunks(s, n_pairs, rng, boundary=True):
        dF = _qvi_apply(op, Pa) - _qvi_apply(op, Pb)
        dP = Pa - Pb
        inner = (dF.real * dP.real + dF.imag * dP.imag).sum(axis=(-3, -2, -1))
        margin = inner - mu * _stack_frob(dP) ** 2
        bad = np.flatnonzero(margin < -slack)
        if bad.size:
            j = bad[0]
            return VerifierReport(
                "monotonicity", "violation", start + j + 1, mu, float(margin[j]),
                slack, witness=_witness(s, start + j, Pa[j], Pb[j]),
            )
        min_margin = min(min_margin, float(margin.min()))
    return VerifierReport("monotonicity", "ok", n_pairs, mu, min_margin, slack)


def verify_power_set_smoothness(s, n_triples=500, seed=0, slack=1e-9):
    """Check that projections onto full-power sets move at most as fast as
    the powers: per player ||[Y]_{tr=p} - [Y]_{tr=p'}||_F <= |p - p'| and
    in aggregate the Euclidean norm of the power difference.

    Triples are evaluated in batched chunks, each Y projected onto both
    traces from one eigendecomposition; the report names the first
    violation in sample order (within a triple, players before the
    aggregate)."""
    n_triples = check_count(n_triples, "n_triples", 0)
    slack = check_number(slack, "slack")
    rng = np.random.default_rng(seed)
    ranks = [int(r) for r in s.ranks]
    n_draws = _draw_offsets(ranks)[-1]
    scale = np.maximum(1.0, s.P)
    worst = 0.0
    for start in range(0, n_triples, _CHUNK):
        m = min(_CHUNK, n_triples - start)
        Z = np.empty((m, n_draws))
        pab = np.empty((m, 2, s.Q))
        for i in range(m):
            rng.standard_normal(out=Z[i])
            pab[i] = s.P * rng.random((2, s.Q))
        pa, pb = pab[:, 0], pab[:, 1]
        dists = np.empty((m, s.Q))
        for k, idx in _rank_groups(ranks):
            Yk = scale[idx][:, None, None] * hermitize(_gaussians(Z, ranks, idx, k))
            proj = _psd_trace_projections(Yk, np.stack([pa[:, idx], pb[:, idx]]))
            dists[:, idx] = np.linalg.norm(proj[0] - proj[1], axis=(-2, -1))
        gap = np.abs(pa - pb)
        player_bad = dists > gap + slack
        total = np.linalg.norm(dists, axis=1)
        bound = np.linalg.norm(pa - pb, axis=1)
        bad = np.flatnonzero(player_bad.any(axis=1) | (total > bound + slack))
        if bad.size:
            j = bad[0]
            i = start + j
            if player_bad[j].any():
                q = int(np.flatnonzero(player_bad[j])[0])
                return VerifierReport(
                    "power-set-smoothness", "violation", i + 1, 1.0,
                    float(dists[j, q] / max(gap[j, q], 1e-300)), slack,
                    witness={"triple_index": i, "player": q,
                             "p_a": float(pa[j, q]), "p_b": float(pb[j, q])},
                )
            return VerifierReport(
                "power-set-smoothness", "violation", i + 1, 1.0,
                float(total[j] / max(bound[j], 1e-300)), slack,
                witness={"triple_index": i, "p_a": pa[j].tolist(),
                         "p_b": pb[j].tolist()},
            )
        moved = bound > 1e-12
        if moved.any():
            worst = max(worst, float((total[moved] / bound[moved]).max()))
    return VerifierReport("power-set-smoothness", "ok", n_triples, 1.0, worst, slack)


def estimate_power_smoothness(s, cfg=None, weights=None):
    """Sampled lower bound on the Lipschitz modulus of the optimal-power map.

    Draws profile pairs (half independent, half small perturbations of one
    another), computes the clipped Dinkelbach powers, and reports the
    largest observed ||p(Q) - p(Q')|| / ||Q - Q'|| in the Euclidean/Frobenius
    metric and in the Perron-weighted max/block-max metric. Pairs on which
    Dinkelbach fails to converge are skipped and counted.
    """
    cfg = cfg or PowerSmoothnessConfig()
    if weights is None:
        S = interference_matrix_square(s)
        _, weights, _ = spectral_radius(S.S)
    w = np.maximum(np.asarray(weights, dtype=float), W_FLOOR)
    rng = np.random.default_rng(cfg.seed)
    t = cfg.perturbation
    max_l2 = max_winf = 0.0
    used = skipped = 0
    qs = list(range(s.Q)) * 2   # every player at profile a, then at profile b
    for start, Pa, Pb in _pair_chunks(s, cfg.n_pairs, rng, boundary=False):
        # an odd pair's second draw is the reference its first moves toward
        odd = (start + np.arange(len(Pa))) % 2 == 1
        Pb[odd] = (1.0 - t) * Pa[odd] + t * Pb[odd]
        den_f = _stack_frob(Pa - Pb)
        den_w = (_stack_frob((Pa - Pb)[:, :, None]) / w).max(axis=1)
        for j in np.flatnonzero((den_f > 1e-12) & (den_w > 1e-12)):
            try:
                X = _whitened_channels(s, qs, [Pa[j]] * s.Q + [Pb[j]] * s.Q)
                p_hat = _best_responses(s, qs, X, cfg.dinkelbach)[2]
            except ConvergenceError:
                skipped += 1
                continue
            used += 1
            pa, pb = p_hat.reshape(2, s.Q)
            dp = pa - pb
            max_l2 = max(max_l2, float(np.linalg.norm(dp)) / den_f[j])
            max_winf = max(max_winf, float(np.max(np.abs(dp) / w)) / den_w[j])
    return PowerSmoothnessEstimate(max_l2, max_winf, used, skipped)


# --- the sqrt(Q) identity-channel construction ------------------------------

def identity_channel_scenario(Q, n=2):
    """Scenario whose channels and noise covariances are all the n x n
    identity, with budget n and circuit power 1 for every player."""
    Q = check_count(Q, "Q", 1)
    H = [[np.eye(n, dtype=complex) for _ in range(Q)] for _ in range(Q)]
    Rn = [np.eye(n) for _ in range(Q)]
    return scenario_from_matrices(
        H, Rn, [float(n)] * Q, [1.0] * Q, meta={"identity_channels": True},
    )


def sqrtq_observed_ratio(s, seed=0):
    """||F(Q) - F(Q')||_F / ||Q - Q'||_F when player 0 alone is perturbed.

    With identity channels the numerator collapses to sqrt(Q) times the
    denominator exactly, which pins the best possible Lipschitz constant of
    the QVI mapping from below.
    """
    rng = np.random.default_rng(seed)
    pa = random_profile(s, rng, boundary=True)
    pb = pa.replace(0, random_covariance(int(s.ranks[0]), s.P[0], rng, boundary=True))
    num = _stack_frob(qvi_map(s, pa).stack - qvi_map(s, pb).stack)
    den = _stack_frob(pa.stack - pb.stack)
    return float(num / den)
