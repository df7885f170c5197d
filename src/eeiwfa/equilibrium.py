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
from itertools import accumulate

import numpy as np

from .best_response import DinkelbachConfig, _best_responses
from .errors import (
    CheckFailure,
    ConvergenceError,
    InvalidInputError,
    batch_of,
    check_count,
    check_number,
    is_real,
)
from .linalg import (
    W_FLOOR,
    _psd_trace_projections,
    _spectral_radii,
    hermitize,
)
from .model import (
    StrategyProfile,
    _block_sums,
    _complex_to_lists,
    _ct,
    _rank_groups,
    _received_covariances,
    _stack_frob,
    _unwide,
    _whitened_channels,
    _wide,
    reduce_scenario,
    scenario_from_matrices,
)

# Complex entries a sampled routine's batched products may hold per step:
# a chunk has as many samples as fit one channel table each (see _chunk).
_CHUNK_ENTRIES = 2 ** 15

VARIANTS = ("exact-square", "pseudoinverse-rowrank", "sampled-columnrank")


@dataclass
class InterferenceMatrix:
    """Q x Q nonnegative matrix of squared whitened cross-channel gains."""

    S: np.ndarray
    variant: str

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


def _normalized_rows(games):
    """The games of a list of reduced scenarios of one shape (Q, receive
    dimensions and ranks) normalized by their direct channels, one receiver
    at a time (square channels only): for each player q in order, (q,
    Hbar_qq, Hbar_qq^{-1} [Hbar_q0 | Hbar_q1 | ...]) as (trials, n, n) and
    (trials, Q, n, K) stacks, n = ranks[q], from one solve per receiver over
    the trials. Hbar_qq must be square (its direct channel full row rank)
    and nonsingular. One game's table is read in place, not copied."""
    s = games[0]
    if len(games) == 1:
        A = s.Hbar.array[None]
    elif all(g.Q == s.Q and g.Rn.rows == s.Rn.rows and np.array_equal(g.ranks, s.ranks)
             for g in games):
        A = np.stack([g.Hbar.array for g in games])
    else:
        raise InvalidInputError("the reduced scenarios of a list must share Q, nR and ranks")
    for q in range(s.Q):
        n, k = s.Hbar[q][q].shape
        if n != k:
            raise InvalidInputError(
                f"direct channel of player {q} is not full row rank (reduced to"
                f" {n}x{k}); use interference_matrix_sampled"
                " for full-column-rank channels"
            )
        Hqq = A[:, q, q, :n, :n]
        try:
            X = np.linalg.solve(Hqq, _wide(A[:, q, :, :n]))
        except np.linalg.LinAlgError:
            raise InvalidInputError(
                f"reduced direct channel of player {q} is singular"
            ) from None
        yield q, Hqq, _unwide(X, s.Q)


def interference_matrix_square(s):
    """Exact interference matrix for square nonsingular direct channels:
    entry (q, r) = sigma_max^2(Hbar_qq^{-1} Hbar_qr).

    ``s`` may also be a list or tuple of reduced scenarios of one shape, as
    ``reduce_scenario`` gives for a generated chunk; the result is then the
    list of their matrices, each the one its scenario gives alone. A list
    that fails raises the error of its lowest failing receiver over all items.
    """
    games, single = batch_of(s, "scenario")
    Q = games[0].Q
    S = np.zeros((len(games), Q, Q))
    for q, _, X in _normalized_rows(games):
        S[:, q] = _sigma_max_sq(X)
        S[:, q, q] = 0.0
    mats = [InterferenceMatrix(M, "exact-square") for M in S]
    return mats[0] if single else mats


def interference_matrix_rowrank(s):
    """Interference matrix of a scenario whose direct channels are all full
    row rank. Such an H_qq = U1 Sigma V1^H reduces to the square nonsingular
    Hbar_qq = U1 Sigma, so the pseudoinverse entry sigma_max^2(pinv(H_qq)
    H_qr V1_r) = sigma_max^2(V1_q Hbar_qq^{-1} Hbar_qr) is the reduced game's
    exact entry (V1_q has orthonormal columns)."""
    S = interference_matrix_square(reduce_scenario(s))
    return InterferenceMatrix(S.S, "pseudoinverse-rowrank")


def _chunk(s):
    """Samples the sampled routines draw and evaluate per batched step on
    the reduced scenario ``s``: as many as fit _CHUNK_ENTRIES entries of the
    QVI map's product, one channel table of Q^2 N K entries a profile (32
    at Q=8, n=4), and at least one. Enough to amortize numpy's per-call
    overhead on small games, one profile a step on large ones."""
    return max(1, _CHUNK_ENTRIES // s.Hbar.array.size)


# --- random sampling rules -------------------------------------------------

def _draw_offsets(ranks):
    """Where each player's block starts in a row of raw normal draws: its
    r x r real parts, then its r x r imaginary parts, players in order."""
    return list(accumulate([2 * r * r for r in ranks], initial=0))


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
    whole stack on the Wishart boundary, where nothing sits between them),
    each into a view of its profile's row at plain-int offsets; the
    uniforms or Dirichlet weights are collected and scaled by P once per
    call, and the algebra is batched per rank.
    """
    if rule not in ("wishart", "frame-simplex"):
        raise InvalidInputError(f"unknown sampling rule {rule!r}")
    simplex = rule == "frame-simplex"
    ranks = [int(r) for r in ranks]
    P = np.asarray(P, dtype=float)
    Q, K = len(ranks), max(ranks)
    off = _draw_offsets(ranks)
    Z = np.empty((count, off[-1]))
    # the normal draws of each profile's players, in stream order
    blocks = (row[a:b] for row in Z for a, b in zip(off[:-1], off[1:]))
    normal = rng.standard_normal
    if simplex:
        ones = {r: np.ones(r) for r in ranks}
        w = []
        for z, r in zip(blocks, ranks * count):
            normal(out=z)
            w.append(rng.dirichlet(ones[r]))
        W = np.concatenate(w).reshape(count, -1)   # each profile's weights, players in order
        w_off = list(accumulate(ranks, initial=0))
    elif boundary:
        normal(out=Z)
        traces = np.broadcast_to(P, (count, Q))
    else:
        uniform, u = rng.random, []
        for z in blocks:
            normal(out=z)
            u.append(uniform())
        traces = P * np.reshape(u, (count, Q))
    out = np.zeros((count, Q, K, K), dtype=complex)
    for k, idx in _rank_groups(ranks):
        B = _gaussians(Z, ranks, idx, k)
        if simplex:
            U, R = np.linalg.qr(B / np.sqrt(2))
            d = np.diagonal(R, axis1=-2, axis2=-1)
            U = U * (d / np.abs(d))[..., None, :]
            lam = P[idx, None] * np.stack([W[:, w_off[q]:w_off[q] + k] for q in idx], axis=1)
            out[:, idx, :k, :k] = hermitize((U * lam[..., None, :]) @ _ct(U))
            continue
        M = B @ _ct(B)
        tr = np.trace(M, axis1=-2, axis2=-1).real
        t = traces[:, idx]
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
    Q, A = s.Q, s.Hbar.array
    S = np.zeros((Q, Q))
    chunk = _chunk(s)
    for start in range(0, n_samples, chunk):
        D = _random_covariances(rng, s.ranks, s.P, min(chunk, n_samples - start),
                                rule="frame-simplex")
        # A covariance has the same bits whatever profiles sit beside it,
        # so the running maximum cannot fall as n_samples grows.
        R = hermitize(_received_covariances(s.HbarH, s.Rn.stack, D, [range(Q)] * len(D)))
        for i, Rq in enumerate(R):
            q = i % Q
            k = int(s.ranks[q])
            W = np.linalg.solve(Rq, A[q, q])[:, :k]
            T = _wide(_ct(W) @ A[q])
            G = _unwide(np.linalg.solve(hermitize(_ct(W) @ A[q, q][:, :k]), T), Q)
            S[q] = np.maximum(S[q], _sigma_max_sq(G))
            S[q, q] = 0.0
    return InterferenceMatrix(S, "sampled-columnrank")


# --- uniqueness criteria ---------------------------------------------------

def _floored_weights(w):
    """The Perron weights ``w`` of an interference matrix (spectral_radius's
    or a criteria report's) as a weighted block-max metric divides by them:
    floored at W_FLOOR, which spectral_radius's renormalization can leave an
    entry just below. The iwfa residual and the smoothness estimate both
    take their weights from here."""
    return np.maximum(np.asarray(w, dtype=float), W_FLOOR)


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

    def to_dict(self):
        d = asdict(self)
        d["perron_w"] = [float(x) for x in self.perron_w]
        return d


def criteria(S):
    """Evaluate both uniqueness criteria, which read only the interference
    matrix S. The power-mapping half of each is sampled on its own by
    :func:`estimate_power_smoothness`, weighted by the report's ``perron_w``.

    ``S`` may also be a list or tuple of interference matrices of one size;
    the result is then the list of their reports, each the one its matrix
    gives alone. A list that fails raises the error of the stack as a whole,
    from its stacked eig and SVD first, then from its reports in order.
    """
    mats, single = batch_of(S, "interference matrix")
    Q = mats[0].S.shape[0]
    if len(mats) == 1:
        M = mats[0].S[None]
    elif all(m.S.shape == (Q, Q) for m in mats):
        M = np.stack([m.S for m in mats])
    else:
        raise InvalidInputError("the interference matrices of a list must share Q")
    perron = _spectral_radii(M)
    sym_radii = _spectral_radii(0.5 * (M + M.swapaxes(-1, -2)))
    # the 2-norm, as np.linalg.norm(., 2) takes it: the largest singular value
    sigmas = np.linalg.svd(np.eye(Q) + M, compute_uv=False)[..., 0].tolist()
    reports = []
    for m, (sr_S, w, degenerate), (sr_sym, _, _), sigma in zip(
            mats, perron, sym_radii, sigmas):
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
        reports.append(CriteriaReport(
            variant=m.variant,
            sr_S=float(sr_S),
            sr_Ssym=float(sr_sym),
            sigma_max_IplusS=sigma,
            perron_w=w,
            perron_degenerate=degenerate,
            qvi_rhs_constant=float(qvi_rhs),
            contraction_rhs_constant=float(contraction_rhs),
            interference_ok_qvi=ok_qvi,
            interference_ok_contraction=ok_contraction,
        ))
    return reports[0] if single else reports


# --- the linear QVI mapping and its verified properties ---------------------

def _qvi_operator(s):
    """The game normalized by its direct channels (square channels only),
    laid out for :func:`model._block_sums`: the channels X_qr =
    Hqq^{-1} Hbar_qr conjugate-transposed into a (Q, K, Q, K) array G,
    G[r, :, q, :] = X_qr^H, and the noises C_q = Hqq^{-1} Rn_q Hqq^{-H} as a
    (Q, K, K) stack, both zero-padded and filled in one pass over the
    receivers. X_qq is computed and never read: the MUI skips r = q."""
    Q, K = s.Q, s.Hbar.array.shape[3]
    C = np.zeros((Q, K, K), dtype=complex)
    G = np.zeros((Q, K, Q, K), dtype=complex)
    for q, (Hqq,), (Xq,) in _normalized_rows([s]):
        n = Hqq.shape[0]
        G[:, :, q, :n] = _ct(Xq)
        C[q, :n, :n] = _ct(np.linalg.solve(Hqq, _ct(np.linalg.solve(Hqq, s.Rn[q]))))
    return C, G


def _qvi_apply(op, P):
    """F of each padded profile in an (M, Q, K, K) stack: F_q = P_q plus
    player q's received covariance in the normalized game ``op``, formed
    for the M profiles side by side. Every receiver is always asked for,
    so the receivers form one block, summed by one _block_sums call and
    conjugated in place."""
    C, G = op
    F = _block_sums(G, P, 0, P.shape[1])
    np.conjugate(F, out=F)
    F += C
    F += P
    return hermitize(F)


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
    at most _chunk(s) pairs; Pa and Pb are padded (m, Q, K, K) stacks drawn
    in the order pa_0, pb_0, pa_1, ... of a per-pair loop."""
    chunk = _chunk(s)
    for start in range(0, n_pairs, chunk):
        m = min(chunk, n_pairs - start)
        D = _random_covariances(rng, s.ranks, s.P, 2 * m, boundary)
        yield start, D[0::2], D[1::2]


def verify_lipschitz(s, n_pairs=500, seed=0, slack=1e-9):
    """Sample profile pairs and check the Lipschitz bound
    ||F(Q) - F(Q')||_F <= sigma_max(I + S) ||Q - Q'||_F, the constant
    taken from :func:`criteria` (which raises CheckFailure on a numerical
    fault in its constants).

    Pairs are evaluated in batched chunks; the report names the first
    violating pair in sample order, as a per-pair loop would.
    """
    n_pairs = check_count(n_pairs, "n_pairs", 0)
    slack = check_number(slack, "slack")
    L = criteria(interference_matrix_square(s)).sigma_max_IplusS
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
    sr(S^s) is taken from :func:`criteria`, as in :func:`verify_lipschitz`.
    Pairs are evaluated in batched chunks; the report names the first
    violating pair in sample order.
    """
    n_pairs = check_count(n_pairs, "n_pairs", 0)
    slack = check_number(slack, "slack")
    sr_sym = criteria(interference_matrix_square(s)).sr_Ssym
    mu = 1.0 - sr_sym
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
    chunk = _chunk(s)
    for start in range(0, n_triples, chunk):
        m = min(chunk, n_triples - start)
        Z = np.empty((m, n_draws))
        u = np.empty((m, 2, s.Q))
        for row, ui in zip(Z, u):
            rng.standard_normal(out=row)
            rng.random(out=ui)
        pa, pb = s.P * u[:, 0], s.P * u[:, 1]
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


def estimate_power_smoothness(s, cfg, weights):
    """Sampled lower bound on the Lipschitz modulus of the optimal-power map.

    Draws ``cfg.n_pairs`` profile pairs (half independent, half small
    perturbations of one another), computes the clipped Dinkelbach powers,
    and reports the largest observed ||p(Q) - p(Q')|| / ||Q - Q'|| in the
    Euclidean/Frobenius metric and in the max/block-max metric weighted by
    ``weights`` (a criteria report's ``perron_w``, floored at W_FLOOR).
    Pairs on which Dinkelbach fails to converge are skipped and counted.
    """
    w = _floored_weights(weights)
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
                X = _whitened_channels(s, np.stack([Pa[j], Pb[j]]), [range(s.Q)] * 2)
                p_hat = _best_responses(s, qs, X, cfg.dinkelbach)[2]
            except ConvergenceError:
                skipped += 1
                continue
            used += 1
            pa, pb = p_hat.reshape(2, s.Q)
            dp = pa - pb
            max_l2 = max(max_l2, float(np.linalg.norm(dp) / den_f[j]))
            max_winf = max(max_winf, float(np.max(np.abs(dp) / w) / den_w[j]))
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
