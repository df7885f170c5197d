"""Network scenarios and the interference game they induce.

Random channel generation at a target SNR/SIR, rank reduction of the direct
channels to a full-column-rank game, and the per-player interference-plus-
noise covariance, achievable rate and energy efficiency. Scenario objects
are immutable after construction; all evaluators are pure functions.
"""

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .linalg import _check_hermitian_stack, compact_svd, hermitize

SNR_CONVENTIONS = ("per-stream", "total-power")
CHANNEL_KINDS = ("full", "diagonal")


def _freeze(a):
    a.flags.writeable = False
    return a


class ChannelStack:
    """The channels into one receiver, stacked over the transmitters.

    ``array`` is one frozen (Q, N, K) array, N and K the largest receive and
    transmit dimensions: entry r holds the channel from r in its top-left
    nR x cols[r] block and zeros elsewhere. ``stack[r]`` is that block, a
    read-only view with the exact shape of the channel.
    """

    def __init__(self, array, nR, cols):
        self.array = _freeze(array)
        self._nR = int(nR)
        self._cols = cols

    def __len__(self):
        return self.array.shape[0]

    def __getitem__(self, r):
        return self.array[r, : self._nR, : self._cols[r]]


class ChannelTable:
    """All channels of a scenario in one frozen (Q, Q, N, M) complex array,
    N and M the largest receive and transmit dimensions: entry (q, r) holds
    H_qr in its top-left nR[q] x nT[r] block and zeros elsewhere.
    ``table[q]`` is receiver q's :class:`ChannelStack` and ``table[q][r]``
    the exact-shape read-only view of H_qr.
    """

    def __init__(self, array, nR, nT):
        self.array = _freeze(array)
        self._rows = [ChannelStack(array[q], n, nT) for q, n in enumerate(nR)]

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, q):
        return self._rows[q]


def _pack_channels(H, Q, nR, nT):
    """A Q x Q nested sequence of matrices as one zero-padded table."""
    if len(H) != Q or any(len(row) != Q for row in H):
        raise InvalidInputError("H must be a Q x Q table of matrices")
    T = np.zeros((Q, Q, nR.max(), nT.max()), dtype=complex)
    for q in range(Q):
        for r in range(Q):
            M = np.asarray(H[q][r], dtype=complex)
            want = (nR[q], nT[r])
            if M.shape != want:
                raise InvalidInputError(
                    f"H[{q}][{r}] has shape {M.shape}, expected {want}"
                )
            T[q, r, : nR[q], : nT[r]] = M
    return T


@dataclass
class NetworkScenario:
    """Q transmitter-receiver pairs over flat MIMO interference channels.

    ``H`` is the scenario's :class:`ChannelTable`: ``H[q][r]`` is the
    nR[q] x nT[r] channel from transmitter r to receiver q. It may be given
    as a Q x Q nested sequence of matrices (copied into a new table) or as
    a ChannelTable, whose array is kept without a copy. ``Rn[q]`` is the
    positive-definite noise covariance at receiver q, a view of
    ``Rn_stack``, the covariances padded to (Q, N, N) with identity.
    ``P[q]`` is the power budget and ``Psi[q]`` the circuit power of
    player q.
    """

    Q: int
    nT: np.ndarray
    nR: np.ndarray
    H: ChannelTable
    Rn: list
    P: np.ndarray
    Psi: np.ndarray
    seed: int | None = None
    meta: dict = field(default_factory=dict)
    Rn_stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.Q < 1:
            raise InvalidInputError("need at least one player")
        self.nT = np.asarray(self.nT, dtype=int)
        self.nR = np.asarray(self.nR, dtype=int)
        self.P = _freeze(np.asarray(self.P, dtype=float).copy())
        self.Psi = _freeze(np.asarray(self.Psi, dtype=float).copy())
        for name, arr in (("nT", self.nT), ("nR", self.nR)):
            if arr.shape != (self.Q,) or np.any(arr < 1):
                raise InvalidInputError(f"{name} must hold Q positive antenna counts")
        if self.P.shape != (self.Q,) or np.any(self.P <= 0):
            raise InvalidInputError("power budgets P must be positive")
        if self.Psi.shape != (self.Q,) or np.any(self.Psi <= 0):
            raise InvalidInputError("circuit powers Psi must be positive")
        if isinstance(self.H, ChannelTable):
            T = self.H.array
        else:
            T = _pack_channels(self.H, self.Q, self.nR, self.nT)
        N = int(self.nR.max())
        if T.shape != (self.Q, self.Q, N, int(self.nT.max())):
            raise InvalidInputError(f"channel table has shape {T.shape}")
        if not np.isfinite(T).all():
            raise InvalidInputError("H has non-finite entries")
        self.H = ChannelTable(T, self.nR, self.nT)
        if len(self.Rn) != self.Q:
            raise InvalidInputError("Rn must hold Q noise covariances")
        Rn = np.zeros((self.Q, N, N), dtype=complex)
        for q, n in enumerate(self.nR):
            R = np.asarray(self.Rn[q], dtype=complex)
            if R.shape != (n, n):
                raise InvalidInputError(f"Rn[{q}] has the wrong shape")
            Rn[q, :n, :n] = R
            Rn[q, n:, n:] = np.eye(N - n)
        if not np.isfinite(Rn).all():
            raise InvalidInputError("Rn has non-finite entries")
        _check_hermitian_stack(Rn)
        # identity padding adds eigenvalues 1, which cannot hide a bad one
        bad = np.flatnonzero(np.linalg.eigvalsh(hermitize(Rn)).min(axis=-1) <= 0)
        if bad.size:
            raise InvalidInputError(f"Rn[{bad[0]}] is not positive definite")
        self.Rn_stack = _freeze(Rn)
        self.Rn = [Rn[q, :n, :n] for q, n in enumerate(self.nR)]


def scenario_from_matrices(H, Rn, P, Psi, seed=None, meta=None):
    """Build a scenario from explicit matrices, inferring antenna counts."""
    Q = len(H)
    nR = [np.asarray(H[q][q]).shape[0] for q in range(Q)]
    nT = [np.asarray(H[q][q]).shape[1] for q in range(Q)]
    return NetworkScenario(
        Q=Q, nT=nT, nR=nR, H=H, Rn=Rn, P=P, Psi=Psi, seed=seed,
        meta=dict(meta or {}),
    )


def _channel_rng(seed, q, r):
    # Per-(q, r) stream from one master seed: matrices are reproducible and
    # unchanged by varying Q (up to the variance scale factor).
    return np.random.default_rng(np.random.SeedSequence((seed, q, r)))


def generate_scenario(Q, n, snr_db, sir_db, seed, power=None, circuit_power=1.0,
                      channel_kind="full", snr_convention="per-stream"):
    """Draw a random scenario at a target SNR/SIR.

    Direct-channel entries are i.i.d. circularly-symmetric complex Gaussian
    with unit variance; cross-channel entries have variance
    1 / ((Q-1) * SIR_linear) so the aggregate interference hits the target
    SIR. The noise level sets the per-stream SNR under uniform allocation,
    sigma_n^2 = (P/n) / SNR_linear (pass ``snr_convention="total-power"``
    for sigma_n^2 = P / SNR_linear instead).

    Parameters
    ----------
    Q, n : int
        Player count and antenna count (nT = nR = n for generated scenarios).
    snr_db, sir_db : float
        Targets in dB; ``sir_db = inf`` zeroes the cross channels.
    seed : int
        Master seed; every (q, r) channel gets its own derived stream.
    power, circuit_power : float
        Budget P (defaults to n, i.e. unit power per antenna) and circuit
        power Psi, shared by all players.
    channel_kind : "full" | "diagonal"
        "diagonal" draws diagonal channel matrices (parallel subchannels).
    """
    if Q < 1 or n < 1:
        raise InvalidInputError("Q and n must be >= 1")
    if seed is None or int(seed) < 0:
        raise InvalidInputError("seed must be a nonnegative integer")
    if channel_kind not in CHANNEL_KINDS:
        raise InvalidInputError(f"channel_kind must be one of {CHANNEL_KINDS}")
    if snr_convention not in SNR_CONVENTIONS:
        raise InvalidInputError(f"snr_convention must be one of {SNR_CONVENTIONS}")
    seed = int(seed)
    p = float(power) if power is not None else float(n)
    psi = float(circuit_power)
    snr_lin = 10.0 ** (float(snr_db) / 10.0)
    sigma_n2 = (p / n) / snr_lin if snr_convention == "per-stream" else p / snr_lin

    meta = {
        "snr_db": float(snr_db),
        "sir_db": float(sir_db),
        "snr_convention": snr_convention,
        "channel_kind": channel_kind,
    }
    sir_lin = 10.0 ** (float(sir_db) / 10.0)
    if Q == 1:
        if np.isfinite(sir_db):
            warnings.warn("single-player scenario: sir_db has no effect")
            meta["sir_ignored"] = True
        cross_var = 0.0
    else:
        cross_var = 1.0 / ((Q - 1) * sir_lin)

    # Each (q, r) stream draws its real parts, then its imaginary parts, in
    # one call straight into a row buffer; one table holds every channel.
    diagonal = channel_kind == "diagonal"
    T = np.zeros((Q, Q, n, n), dtype=complex)
    draws = np.empty((Q, 2, n) if diagonal else (Q, 2, n, n))
    k = np.arange(n)
    for q in range(Q):
        for r in range(Q):
            _channel_rng(seed, q, r).standard_normal(out=draws[r])
        scale = np.full(Q, np.sqrt(cross_var / 2.0))
        scale[q] = np.sqrt(0.5)
        if diagonal:
            T[q][:, k, k] = scale[:, None] * (draws[:, 0] + 1j * draws[:, 1])
        else:
            T[q] = scale[:, None, None] * (draws[:, 0] + 1j * draws[:, 1])
    Rn = [sigma_n2 * np.eye(n) for _ in range(Q)]
    return NetworkScenario(
        Q=Q, nT=[n] * Q, nR=[n] * Q, H=ChannelTable(T, [n] * Q, [n] * Q), Rn=Rn,
        P=[p] * Q, Psi=[psi] * Q, seed=seed, meta=meta,
    )


@dataclass
class ReducedScenario:
    """The full-column-rank game obtained by dropping the direct channels'
    null directions: Hbar[q][r] = H[q][r] @ V1[r], with V1[q] the right
    factor of the compact SVD of H[q][q] and ranks[q] its rank.

    ``Hbar[q]`` is receiver q's :class:`ChannelStack`. ``Rn_stack`` holds the
    noise covariances padded to (Q, N, N) with identity and ``direct`` the
    direct channels padded to (Q, N, K) with zeros, so that every player's
    covariance, Cholesky factor and gram is one slice of a batched array.
    """

    Q: int
    ranks: np.ndarray
    Hbar: list
    V1: list
    Rn: list
    P: np.ndarray
    Psi: np.ndarray
    Rn_stack: np.ndarray
    direct: np.ndarray
    meta: dict = field(default_factory=dict)


def reduce_scenario(s):
    """Reduce a scenario to its full-column-rank equivalent game.

    Raises if any player's direct channel is zero (such a player cannot
    communicate at all).
    """
    V1 = []
    for q in range(s.Q):
        _, _, v1, r = compact_svd(s.H[q][q])
        if r == 0:
            raise InvalidInputError(f"player {q} has a zero direct channel")
        V1.append(v1)
    ranks = np.array([v.shape[1] for v in V1])
    Q, K = s.Q, int(ranks.max())
    V = np.zeros((Q, s.H.array.shape[3], K), dtype=complex)
    for q, v1 in enumerate(V1):
        V[q, : s.nT[q], : ranks[q]] = v1
    _freeze(V)
    # (Q, Q, N, K): entry (q, r) is H_qr V1_r, zero-padded
    A = _freeze(s.H.array @ V)
    Hbar = [ChannelStack(A[q], s.nR[q], ranks) for q in range(Q)]
    direct = A[np.arange(Q), np.arange(Q)]
    return ReducedScenario(
        Q=Q, ranks=ranks, Hbar=Hbar,
        V1=[V[q, : s.nT[q], : ranks[q]] for q in range(Q)], Rn=s.Rn, P=s.P,
        Psi=s.Psi, Rn_stack=s.Rn_stack, direct=_freeze(direct), meta=dict(s.meta),
    )


class StrategyProfile:
    """The per-player transmit covariances of the reduced game.

    ``stack`` is one frozen (Q, K, K) complex array, K the largest rank:
    entry q holds Qbar_q in its top-left ranks[q] x ranks[q] block and
    zeros elsewhere. A list of matrices is copied into a new stack once;
    ``profile[q]`` is the exact-shape read-only view of Qbar_q.
    """

    def __init__(self, mats):
        mats = [np.asarray(m, dtype=complex) for m in mats]
        for q, m in enumerate(mats):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise InvalidInputError(f"Qbar[{q}] has the wrong shape")
        ranks = [len(m) for m in mats]
        stack = np.zeros((len(mats),) + (max(ranks, default=0),) * 2, dtype=complex)
        for q, (m, r) in enumerate(zip(mats, ranks)):
            stack[q, :r, :r] = m
        self.stack, self.ranks = _freeze(stack), _freeze(np.array(ranks, dtype=int))

    @classmethod
    def from_stack(cls, stack, ranks):
        """The profile whose padded (Q, K, K) stack is ``stack``, which is
        kept without a copy and frozen."""
        self = cls.__new__(cls)
        self.stack, self.ranks = _freeze(stack), _freeze(np.array(ranks, dtype=int))
        return self

    def __len__(self):
        return self.stack.shape[0]

    def __getitem__(self, q):
        r = self.ranks[q]
        return self.stack[q, :r, :r]

    @property
    def mats(self):
        return list(self)

    def copy(self):
        return StrategyProfile.from_stack(self.stack.copy(), self.ranks)

    def replace(self, q, mat):
        mats = self.mats
        mats[q] = mat
        return StrategyProfile(mats)

    def traces(self):
        return np.trace(self.stack, axis1=1, axis2=2).real

    @classmethod
    def uniform(cls, s, fraction=1.0):
        """Uniform allocation Qbar_q = (fraction * P_q / r_q) I."""
        return cls([
            (fraction * s.P[q] / s.ranks[q]) * np.eye(s.ranks[q])
            for q in range(s.Q)
        ])

    @classmethod
    def zeros(cls, s):
        return cls([np.zeros((r, r), dtype=complex) for r in s.ranks])

    def validate(self, s, tol=1e-10):
        """Check PSD (up to an eigenvalue floor) and the trace budgets."""
        if len(self) != s.Q:
            raise InvalidInputError("profile size does not match the scenario")
        bad = np.flatnonzero(self.ranks != s.ranks)
        if bad.size:
            raise InvalidInputError(f"Qbar[{bad[0]}] has the wrong shape")
        A = self.stack
        if not np.isfinite(A).all():
            raise InvalidInputError("matrix has non-finite entries")
        _check_hermitian_stack(A)
        # the zero padding adds eigenvalues 0, which pass the floor
        lo = np.linalg.eigvalsh(hermitize(A)).min(axis=-1)
        scale = np.maximum(1.0, np.abs(A).max(axis=(1, 2)))
        bad = np.flatnonzero(lo < -tol * scale)
        if bad.size:
            q = bad[0]
            raise InvalidInputError(f"Qbar[{q}] is not PSD (min eig {lo[q]:.3e})")
        tr = self.traces()
        bad = np.flatnonzero(tr > s.P + tol)
        if bad.size:
            q = bad[0]
            raise InvalidInputError(
                f"Qbar[{q}] exceeds the power budget: {tr[q]} > {s.P[q]}"
            )
        return self


# --- batched evaluation ----------------------------------------------------
#
# Every evaluator below works on zero-padded stacks: a profile is its
# (Q, K, K) ``stack``, a receiver's covariance one (N, N) slice padded with
# identity. The padding is exact (it adds zero terms and identity blocks)
# and is sliced away before anything leaves this module; the public
# single-player functions are views of the same batched formulas.

def _ct(A):
    """Conjugate transpose of a matrix or of a stack of matrices."""
    return A.conj().swapaxes(-1, -2)


def _wide(A):
    """(Q, m, k) stack as the m x (Q k) matrix [A_0 | A_1 | ...]."""
    return A.transpose(1, 0, 2).reshape(A.shape[1], -1)


def _unwide(M, Q):
    """Inverse of :func:`_wide`."""
    return M.reshape(M.shape[0], Q, -1).transpose(1, 0, 2)


def _received_covariance(s, q, P, own=False):
    """Rn_q + sum_r Hbar_qr P_r Hbar_qr^H at receiver q, over r != q (all r
    with ``own``), for a (Q, K, K) profile stack ``P``; (N, N), identity
    beyond nR_q, not yet hermitized."""
    A = s.Hbar[q].array
    T = A @ P
    if not own:
        T[q] = 0.0
    return s.Rn_stack[q] + _wide(T) @ _ct(_wide(A))


def _whitened_channels(s, qs, stacks):
    """Whitened direct channels X = L^{-1} Hbar_qq of the players ``qs``,
    L L^H = R_q the MUI covariance of each at its own (Q, K, K) profile
    stack; one (len(qs), N, K) array, zero beyond each player's receive
    dimension and rank. X^H X is the whitened gram Hbar_qq^H R_q^{-1} Hbar_qq."""
    N = s.Rn_stack.shape[1]
    R = np.empty((len(qs), N, N), dtype=complex)
    for i, (q, P) in enumerate(zip(qs, stacks)):
        R[i] = _received_covariance(s, q, P)
    R = hermitize(R)
    try:
        L = np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        for q, Rq in zip(qs, R):
            try:
                np.linalg.cholesky(Rq)
            except np.linalg.LinAlgError:
                raise InvalidInputError(
                    f"MUI covariance of player {q} is numerically singular"
                ) from None
        raise
    return np.linalg.solve(L, s.direct[list(qs)])


def _grams(X):
    """Whitened grams X^H X of stacked whitened channels."""
    return hermitize(_ct(X) @ X)


def _rates(X, P):
    """log det(I + X^H X Qbar) of stacked whitened channels ``X`` and
    covariances ``P`` (zero-padded or exact alike): the sum of log1p over
    the eigenvalues of X Qbar X^H, whose padding adds only zeros."""
    lam = np.linalg.eigvalsh(hermitize(X @ P @ _ct(X)))
    return np.log1p(np.maximum(lam, 0.0)).sum(axis=-1)


def _rank_groups(ranks):
    """(rank, indices) for each distinct value in ``ranks``."""
    ranks = np.asarray(ranks)
    for k in sorted(set(ranks.tolist())):
        yield k, np.flatnonzero(ranks == k)


def _stack_frob(D):
    """Frobenius norm of each padded profile in a (..., Q, K, K) stack."""
    return np.sqrt((D.real ** 2 + D.imag ** 2).sum(axis=(-3, -2, -1)))


def block_max_distance(pa, pb, w):
    """max_q ||Qbar_q - Qbar'_q||_F / w_q."""
    # each player's block as a one-player profile
    return float((_stack_frob((pa.stack - pb.stack)[:, None]) / w).max())


def mui_covariance(s, q, profile):
    """Interference-plus-noise covariance at receiver q."""
    n = s.Rn[q].shape[0]
    R = _received_covariance(s, q, profile.stack)
    return hermitize(R[:n, :n])


def whitened_gram(s, q, profile):
    """Gram matrix of player q's direct channel whitened by the MUI.

    Returns Hbar_qq^H R^{-1} Hbar_qq, positive definite whenever the
    reduced direct channel has full column rank.
    """
    r = s.ranks[q]
    return _grams(_whitened_channels(s, [q], [profile.stack]))[0, :r, :r]


def rate(s, q, profile):
    """Achievable rate of player q in nats, treating interference as noise.

    log det(I + G Qbar) evaluated as the sum of log1p over the eigenvalues
    of X Qbar X^H, X the whitened direct channel (G = X^H X).
    """
    X = _whitened_channels(s, [q], [profile.stack])
    return float(_rates(X, profile.stack[q][None])[0])


def energy_efficiency(s, q, profile):
    """Rate per unit of consumed power (circuit plus radiated), nats/power."""
    tr = float(np.trace(profile[q]).real)
    return rate(s, q, profile) / (float(s.Psi[q]) + tr)


# --- scenario file format -------------------------------------------------
#
# JSON with complex entries as [re, im] pairs. Python's json module emits
# shortest round-trip decimal representations, so write/read is bit-exact.

def _complex_to_lists(A):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(A, dtype=complex)]


def _lists_to_complex(L):
    return np.array([[complex(e[0], e[1]) for e in row] for row in L], dtype=complex)


def scenario_to_dict(s):
    return {
        "Q": int(s.Q),
        "nT": [int(x) for x in s.nT],
        "nR": [int(x) for x in s.nR],
        "H": [[_complex_to_lists(s.H[q][r]) for r in range(s.Q)] for q in range(s.Q)],
        "Rn": [_complex_to_lists(s.Rn[q]) for q in range(s.Q)],
        "P": [float(x) for x in s.P],
        "Psi": [float(x) for x in s.Psi],
        "seed": None if s.seed is None else int(s.seed),
        "meta": s.meta,
    }


def scenario_from_dict(d):
    try:
        H = [[_lists_to_complex(d["H"][q][r]) for r in range(d["Q"])] for q in range(d["Q"])]
        Rn = [_lists_to_complex(R) for R in d["Rn"]]
        return NetworkScenario(
            Q=d["Q"], nT=d["nT"], nR=d["nR"], H=H, Rn=Rn,
            P=d["P"], Psi=d["Psi"], seed=d.get("seed"), meta=d.get("meta", {}),
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise InvalidInputError(f"malformed scenario document: {exc}") from None


def save_scenario(s, path):
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(s), fh, indent=1)
        fh.write("\n")


def load_scenario(path):
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
