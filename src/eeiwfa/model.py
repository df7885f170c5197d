"""Network scenarios and the interference game they induce.

Random channel generation at a target SNR/SIR, rank reduction of the direct
channels to a full-column-rank game, and the per-player interference-plus-
noise covariance, achievable rate and energy efficiency. Every ragged
per-player array is a :class:`PaddedStack`. Scenario objects are immutable
after construction; all evaluators are pure functions.
"""

import copy
import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from ._kernels import _log1p_sum
from .errors import (InvalidInputError, batch_of, check_count, check_number, check_path,
                     check_real)
from .linalg import _check_hermitian_stack, _svd_ranks, hermitize

SNR_CONVENTIONS = ("per-stream", "total-power")
CHANNEL_KINDS = ("full", "diagonal")
PROFILE_TOL = 1e-10   # PSD floor (relative) and budget slack of a valid profile


def _freeze(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class PaddedStack:
    """Ragged matrices in one frozen padded array.

    ``stack`` is a (Q, R, C) array, R and C the largest of the int tuples
    ``rows`` and ``cols``: entry q holds a rows[q] x cols[q] matrix in its
    top-left block and padding elsewhere (zeros, or identity for noise
    covariances). ``ps[q]`` is that block as an exact-shape read-only view.
    """

    stack: np.ndarray
    rows: tuple
    cols: tuple

    def __post_init__(self):
        _freeze(self.stack)
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))

    def __len__(self):
        return self.stack.shape[0]

    def __getitem__(self, q):
        return self.stack[q, : self.rows[q], : self.cols[q]]


def _pack(mats, rows, cols, name):
    """Matrices q = 0, 1, ... of shapes rows[q] x cols[q] as one zero-padded
    (Q, max rows, max cols) complex array; a wrong count or shape raises,
    naming the entry as ``name[q]``."""
    if len(mats) != len(rows):
        raise InvalidInputError(f"{name} must hold {len(rows)} matrices")
    out = np.zeros((len(rows), max(rows, default=0), max(cols, default=0)), dtype=complex)
    for q, (m, n, k) in enumerate(zip(mats, rows, cols)):
        m = np.asarray(m, dtype=complex)
        if m.shape != (n, k):
            raise InvalidInputError(f"{name}[{q}] has the wrong shape {m.shape}, not {(n, k)}")
        out[q, :n, :k] = m
    return out


class ChannelTable:
    """All channels of a game in one frozen (Q, Q, N, M) complex array,
    N and M the largest receive and transmit dimensions: entry (q, r) holds
    H_qr in its top-left nR[q] x nT[r] block and zeros elsewhere.
    ``table[q]`` is receiver q's channels as a :class:`PaddedStack` over the
    transmitters and ``table[q][r]`` the exact-shape read-only view of H_qr;
    the Q stacks are built on first use, so a table only passed along whole
    (a sweep trial's) never builds them.
    """

    def __init__(self, array, nR, nT):
        self.array = _freeze(array)
        self._counts = tuple(map(int, nR)), tuple(map(int, nT))

    @cached_property
    def _rows(self):
        nR, nT = self._counts
        return [PaddedStack(self.array[q], (n,) * len(nT), nT) for q, n in enumerate(nR)]

    def __len__(self):
        return len(self._counts[0])

    def __getitem__(self, q):
        return self._rows[q]


@dataclass
class NetworkScenario:
    """Q transmitter-receiver pairs over flat MIMO interference channels.

    ``H`` is the scenario's :class:`ChannelTable`: ``H[q][r]`` is the
    nR[q] x nT[r] channel from transmitter r to receiver q. It may be given
    as a Q x Q nested sequence of matrices (copied into a new table) or as
    a ChannelTable built for the same antenna counts and zero outside its
    channels' blocks, which is kept as it is. ``Rn`` is a
    :class:`PaddedStack` whose entry q is the positive-definite noise
    covariance at receiver q, padded to (N, N) with identity; it may be
    given as any sequence of Q matrices. ``P[q]`` is the power budget and
    ``Psi[q]`` the circuit power of player q.
    """

    Q: int
    nT: np.ndarray
    nR: np.ndarray
    H: ChannelTable
    Rn: PaddedStack
    P: np.ndarray
    Psi: np.ndarray
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.Q < 1:
            raise InvalidInputError("need at least one player")
        if self.seed is not None:
            self.seed = check_count(self.seed, "seed", 0)
        if not isinstance(self.meta, dict):
            raise InvalidInputError("meta must be a dict")
        # the dtype kinds keep strings, booleans and fractions from being cast
        self.nT, self.nR, P, Psi = map(np.asarray, (self.nT, self.nR, self.P, self.Psi))
        for name, arr in (("nT", self.nT), ("nR", self.nR)):
            if arr.dtype.kind not in "iu" or arr.shape != (self.Q,) or np.any(arr < 1):
                raise InvalidInputError(f"{name} must hold Q positive antenna counts")
        for name, arr in (("power budgets P", P), ("circuit powers Psi", Psi)):
            if (arr.dtype.kind not in "iuf" or arr.shape != (self.Q,)
                    or not np.all(np.isfinite(arr) & (arr > 0))):
                raise InvalidInputError(f"{name} must be finite and positive")
        self.nT, self.nR = self.nT.astype(int, copy=False), self.nR.astype(int, copy=False)
        self.P, self.Psi = _freeze(P.astype(float)), _freeze(Psi.astype(float))
        N, M = int(self.nR.max()), int(self.nT.max())
        if not isinstance(self.H, ChannelTable):
            if len(self.H) != self.Q:
                raise InvalidInputError("H must be a Q x Q table of matrices")
            T = np.zeros((self.Q, self.Q, N, M), dtype=complex)
            for q, n in enumerate(self.nR):
                T[q, :, :n] = _pack(self.H[q], [n] * self.Q, self.nT, f"H[{q}]")
            self.H = ChannelTable(T, self.nR, self.nT)
        elif self.H._counts != (tuple(self.nR.tolist()), tuple(self.nT.tolist())):
            raise InvalidInputError("channel table was built for other antenna counts")
        T = self.H.array
        if T.shape != (self.Q, self.Q, N, M):
            raise InvalidInputError(f"channel table has shape {T.shape}")
        _check_tables(T[None], self.nR, self.nT)
        Rn = _pack(self.Rn, self.nR, self.nR, "Rn")
        q, k = np.nonzero(np.arange(N) >= self.nR[:, None])
        Rn[q, k, k] = 1.0   # identity on the padding
        if not np.isfinite(Rn).all():
            raise InvalidInputError("Rn has non-finite entries")
        _check_hermitian_stack(Rn)
        # identity padding adds eigenvalues 1, which cannot hide a bad one
        bad = np.flatnonzero(np.linalg.eigvalsh(hermitize(Rn)).min(axis=-1) <= 0)
        if bad.size:
            raise InvalidInputError(f"Rn[{bad[0]}] is not positive definite")
        self.Rn = PaddedStack(Rn, self.nR, self.nR)


def _check_tables(T, nR, nT):
    """Check a (trials, Q, Q, N, M) stack of channel tables of the antenna
    counts ``nR``, ``nT``: finite, and zero outside the channels' blocks."""
    if not np.isfinite(T).all():
        raise InvalidInputError("H has non-finite entries")
    rows = np.arange(T.shape[3]) < nR[:, None]
    cols = np.arange(T.shape[4]) < nT[:, None]
    if not (rows.all() and cols.all()):   # ragged counts: check the padding
        inside = rows[:, None, :, None] & cols[None, :, None, :]
        if T[:, ~inside].any():
            raise InvalidInputError(
                "channel table has nonzero entries outside its channels' blocks"
            )


def scenario_from_matrices(H, Rn, P, Psi, seed=None, meta=None):
    """Build a scenario from explicit matrices, inferring antenna counts."""
    Q = len(H)
    nR = [np.asarray(H[q][q]).shape[0] for q in range(Q)]
    nT = [np.asarray(H[q][q]).shape[1] for q in range(Q)]
    return NetworkScenario(
        Q=Q, nT=nT, nR=nR, H=H, Rn=Rn, P=P, Psi=Psi, seed=seed,
        meta=dict(meta or {}),
    )


# --- channel streams ----------------------------------------------------------
#
# Channel (q, r) is drawn from np.random.default_rng(SeedSequence((seed, q, r))),
# so that each matrix is reproducible and unchanged by varying Q (up to the
# variance scale factor). Building Q^2 SeedSequences costs several times their
# draws, so _stream_words runs NumPy's SeedSequence hash (O'Neill's seed_seq_fe,
# kept stable by NEP 19) as uint32 array operations over every stream at once.
# _SeedWords hands PCG64 a stream's hashed words through NumPy's ISeedSequence
# interface, and PCG64 seeds itself from them.

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_MIX_HASH = (0x43B0D7E5, 0x931E8875)     # (initial, multiplier) of mix_entropy
_STATE_HASH = (0x8B51F9DD, 0x58F38DED)   # (initial, multiplier) of generate_state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


class _Hash:
    """SeedSequence's hashmix with its running constant c: the k-th word it
    hashes is XORed with c_k and multiplied by c_(k+1), where c_k = initial
    * multiplier^k mod 2^32."""

    def __init__(self, initial, multiplier):
        self.c, self.multiplier = initial, multiplier

    def __call__(self, words, count):
        """Hash ``count`` rows of ``words`` (broadcast to them), in order."""
        c = [self.c]
        for _ in range(count):
            c.append(c[-1] * self.multiplier & _MASK32)
        self.c = c[-1]
        c = np.array(c, dtype=np.uint32)[:, None]
        words = (words ^ c[:-1]) * c[1:]
        return words ^ (words >> 16)


def _mix(x, y):
    z = x * _MIX_L - y * _MIX_R
    return z ^ (z >> 16)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """A SeedSequence whose ``generate_state(4, np.uint64)`` is the C-contiguous
    ``words`` (PCG64 reads their memory: a strided view seeds another stream)."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("only the four uint64 words PCG64 asks for are known")
        return self.words


def _seed_words(seed):
    """The 32-bit words of ``seed``, low first."""
    return [(seed >> k) & _MASK32 for k in range(0, max(seed.bit_length(), 1), 32)]


def _stream_words(seeds, Q):
    """``SeedSequence((seed, q, r)).generate_state(4, np.uint64)`` for every
    seed of ``seeds`` and q, r < Q: one C-contiguous (Q^2, 4) array per seed,
    in (q, r) row-major order. The entropy words of stream (q, r) are the
    seed's 32-bit words, low first, then q, then r; the hash runs at once
    over every stream of the seeds with as many words."""
    words = [_seed_words(seed) for seed in seeds]
    blocks = [None] * len(seeds)
    for count in set(map(len, words)):
        group = [i for i, w in enumerate(words) if len(w) == count]
        # one row per entropy word, zero rows up to the pool size; one
        # column per stream, the group's seeds one after another
        entropy = np.zeros((max(count + 2, _POOL_SIZE), len(group), Q * Q), dtype=np.uint32)
        entropy[:count] = np.array([words[i] for i in group], dtype=np.uint32).T[..., None]
        entropy[count], entropy[count + 1] = np.divmod(np.arange(Q * Q), Q)
        flat = _hashed_states(entropy.reshape(len(entropy), -1))
        for j, i in enumerate(group):
            blocks[i] = flat[j * Q * Q:(j + 1) * Q * Q]
    return blocks


def _hashed_states(entropy):
    """``generate_state(4, np.uint64)`` of the SeedSequence of each column
    of the uint32 ``entropy`` array, whose rows are the entropy words in
    order: one C-contiguous (columns, 4) uint64 array."""
    # uint32 products wrap, as the hash needs
    with np.errstate(over="ignore"):
        # mix_entropy: the 4-word pool, mixed with itself, then with the rest
        mix_hash = _Hash(*_MIX_HASH)
        pool = mix_hash(entropy[:_POOL_SIZE], _POOL_SIZE)
        for src in range(_POOL_SIZE):
            dst = [i for i in range(_POOL_SIZE) if i != src]
            pool[dst] = _mix(pool[dst], mix_hash(pool[src], len(dst)))
        for e in entropy[_POOL_SIZE:]:
            pool = _mix(pool, mix_hash(e, _POOL_SIZE))
        # eight uint32 words, the pool words in turn, hashed, paired low first
        out = _Hash(*_STATE_HASH)(pool[np.arange(8) % _POOL_SIZE], 8).astype(np.uint64)
    return np.ascontiguousarray((out[0::2] | (out[1::2] << 32)).T)


def _from_db(value, name):
    """10^(value / 10), inf where it overflows; InvalidInputError at 0."""
    try:
        linear = 10.0 ** (value / 10.0)
    except OverflowError:
        return np.inf
    if linear == 0.0:
        raise InvalidInputError(f"{name} = {value} is too low: 10^({name}/10) is 0")
    return linear


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
        Targets in dB; ``sir_db = inf`` zeroes the cross channels. An
        ``snr_db`` high enough to set a zero noise variance is an error.
    seed : int, or a list or tuple of ints
        Master seed; every (q, r) channel gets its own derived stream. For
        a list of seeds the result is a list: the scenario of each seed,
        as it alone would give it. They are drawn in one pass and their
        shared parts checked once.
    power, circuit_power : float
        Budget P (defaults to n, i.e. unit power per antenna) and circuit
        power Psi, shared by all players.
    channel_kind : "full" | "diagonal"
        "diagonal" draws diagonal channel matrices (parallel subchannels).
    """
    Q = check_count(Q, "Q", 1)
    n = check_count(n, "n", 1)
    seeds, single = batch_of(seed, "seed")
    seeds = [check_count(sd, "seed", 0) for sd in seeds]
    if channel_kind not in CHANNEL_KINDS:
        raise InvalidInputError(f"channel_kind must be one of {CHANNEL_KINDS}")
    if snr_convention not in SNR_CONVENTIONS:
        raise InvalidInputError(f"snr_convention must be one of {SNR_CONVENTIONS}")
    # A NaN or inf budget reaches NetworkScenario, which says what is wrong.
    p = check_real(power, "power") if power is not None else float(n)
    psi = check_real(circuit_power, "circuit_power")
    snr_db = check_number(snr_db, "snr_db")
    sir_db = check_number(sir_db, "sir_db")
    snr_lin = _from_db(snr_db, "snr_db")
    sigma_n2 = (p / n) / snr_lin if snr_convention == "per-stream" else p / snr_lin
    if 0.0 < p < np.inf:   # a bad budget reaches NetworkScenario
        if sigma_n2 == 0.0:
            raise InvalidInputError(
                f"snr_db = {snr_db} is too high: the noise variance it sets is 0"
            )
        if sigma_n2 == np.inf:   # 10^(snr_db/10) subnormal
            raise InvalidInputError(
                f"snr_db = {snr_db} is too low: the noise variance it sets is not finite"
            )

    meta = {
        "snr_db": snr_db,
        "sir_db": sir_db,
        "snr_convention": snr_convention,
        "channel_kind": channel_kind,
    }
    if Q == 1:
        if np.isfinite(sir_db):
            warnings.warn("single-player scenario: sir_db has no effect")
            meta["sir_ignored"] = True
        cross_var = 0.0
    else:
        cross_var = 1.0 / ((Q - 1) * _from_db(sir_db, "sir_db"))
        if cross_var == np.inf:   # 10^(sir_db/10) subnormal
            raise InvalidInputError(
                f"sir_db = {sir_db} is too low: the cross-channel variance it sets"
                " is not finite"
            )

    # Each (q, r) stream seeds a generator from its hashed words and draws its
    # real parts, then its imaginary parts, in one call straight into a row
    # buffer; receiver q's row of every seed is scaled into one table.
    diagonal = channel_kind == "diagonal"
    T = np.zeros((len(seeds), Q, Q, n, n), dtype=complex)
    draws = np.empty((len(seeds), Q, 2, n) if diagonal else (len(seeds), Q, 2, n, n))
    k = np.arange(n)
    words = _stream_words(seeds, Q)
    for q in range(Q):
        for row, seed_words in zip(draws, words):
            for out, w in zip(row, seed_words[q * Q:(q + 1) * Q]):
                np.random.Generator(np.random.PCG64(_SeedWords(w))).standard_normal(out=out)
        scale = np.full(Q, np.sqrt(cross_var / 2.0))
        scale[q] = np.sqrt(0.5)
        if diagonal:
            T[:, q][:, :, k, k] = scale[:, None] * (draws[:, :, 0] + 1j * draws[:, :, 1])
        else:
            T[:, q] = scale[:, None, None] * (draws[:, :, 0] + 1j * draws[:, :, 1])
    Rn = [np.diag(np.full(n, sigma_n2)) for _ in range(Q)]   # no inf * 0 off the diagonal
    first = NetworkScenario(
        Q=Q, nT=[n] * Q, nR=[n] * Q, H=ChannelTable(T[0], [n] * Q, [n] * Q), Rn=Rn,
        P=[p] * Q, Psi=[psi] * Q, seed=seeds[0], meta=meta,
    )
    if single:
        return first
    # The others share the first one's checked counts, noise and budgets;
    # only their tables are new. Whether a table passes depends on the
    # arguments alone (the draws are finite), so no table fails here that
    # the first one passed.
    _check_tables(T[1:], first.nR, first.nT)
    scenarios = [first]
    for table, sd in zip(T[1:], seeds[1:]):
        s = copy.copy(first)   # not constructed again: nothing is checked twice
        s.nT, s.nR, s.meta = first.nT.copy(), first.nR.copy(), dict(meta)
        s.H, s.seed = ChannelTable(table, first.nR, first.nT), sd
        scenarios.append(s)
    return scenarios


@dataclass
class ReducedScenario:
    """The full-column-rank game obtained by dropping the direct channels'
    null directions: Hbar[q][r] = H[q][r] @ V1[r], with V1[q] the right
    factor of the compact SVD of H[q][q] and ranks[q] its rank.

    ``Hbar`` is its :class:`ChannelTable`, K = max(ranks) columns wide;
    ``V1`` (entry q nT[q] x ranks[q]) and the noise covariances ``Rn`` are
    padded stacks, so that every player's covariance, Cholesky factor and
    gram is one slice of a batched array.
    """

    Q: int
    ranks: np.ndarray
    Hbar: ChannelTable
    V1: PaddedStack
    Rn: PaddedStack
    P: np.ndarray
    Psi: np.ndarray
    meta: dict = field(default_factory=dict)

    @cached_property
    def HbarH(self):
        """The conjugate-transposed channel table, one frozen (Q, K, Q, N)
        array: entry [r, :, q, :] is Hbar_qr^H, zero-padded. Transmitter r's
        row is one K x (Q N) matrix and receiver q's column one strided
        (Q K) x N view; see :func:`_received_covariances`. Built on first
        use, so a criteria trial, which forms no covariance, never pays for
        it."""
        A = self.Hbar.array
        G = np.empty((A.shape[1], A.shape[3], A.shape[0], A.shape[2]), dtype=complex)
        return _freeze(np.conjugate(A.transpose(1, 3, 0, 2), out=G))


def reduce_scenario(s):
    """Reduce a scenario to its full-column-rank equivalent game.

    Raises if any player's direct channel is zero (such a player cannot
    communicate at all). ``s`` may also be a list or tuple of scenarios of
    one Q and antenna counts, as ``generate_scenario`` gives for a list of
    seeds; the result is then the list of their reduced games, each the one
    its scenario gives alone, and a list with a zero direct channel raises
    the error of its first such scenario.
    """
    scenarios, single = batch_of(s, "scenario")
    s = scenarios[0]
    for other in scenarios[1:]:
        if other.Q != s.Q or other.H._counts != s.H._counts:
            raise InvalidInputError("the scenarios of a list must share Q, nR and nT")
    # (trials, Q, Q, N, M); one scenario's table is not copied
    T = s.H.array[None] if single else np.stack([x.H.array for x in scenarios])
    # one SVD per distinct direct-channel shape over every trial, each
    # player truncated by compact_svd's rank rule
    M = T.shape[4]
    ranks = np.zeros((len(T), s.Q), dtype=int)
    V = np.zeros((len(T), s.Q, M, M), dtype=complex)   # right singular vectors
    for nR, nT in set(zip(s.nR.tolist(), s.nT.tolist())):
        group = np.flatnonzero((s.nR == nR) & (s.nT == nT))
        _, sv, vh = np.linalg.svd(T[:, group, group, :nR, :nT], full_matrices=False)
        ranks[:, group] = _svd_ranks(sv)
        V[:, group, :nT, :vh.shape[-2]] = _ct(vh)
    bad = np.argwhere(ranks == 0)
    if bad.size:
        raise InvalidInputError(f"player {bad[0, 1]} has a zero direct channel")
    # each trial is K = max(ranks) columns wide: one product per width
    reduced = [None] * len(T)
    widths = ranks.max(axis=1)
    for K in set(widths.tolist()):
        idx = np.flatnonzero(widths == K)
        # V1[t, q] is V1_q of trial t, zero beyond its rank: (trials, Q, M, K)
        V1 = np.where(np.arange(K) < ranks[idx, :, None, None], V[idx, :, :, :K], 0.0)
        # (trials, Q, Q, N, K): entry (q, r) is H_qr V1_r, zero-padded
        Hbar = (T if len(idx) == len(T) else T[idx]) @ V1[:, None]
        for t, V1t, Ht in zip(idx, V1, Hbar):
            x = scenarios[t]
            reduced[t] = ReducedScenario(
                Q=s.Q, ranks=ranks[t].copy(), Hbar=ChannelTable(Ht, s.nR, ranks[t]),
                V1=PaddedStack(V1t, s.nT, ranks[t]), Rn=x.Rn, P=x.P, Psi=x.Psi,
                meta=dict(x.meta),
            )
    return reduced[0] if single else reduced


class StrategyProfile(PaddedStack):
    """The per-player transmit covariances of the reduced game: a
    :class:`PaddedStack` whose entry q is Qbar_q, ranks[q] x ranks[q],
    zero-padded to (K, K), K the largest rank. ``StrategyProfile(mats)``
    copies a list of matrices into a new stack once.
    """

    def __init__(self, mats):
        mats = [np.asarray(m, dtype=complex) for m in mats]
        ranks = [len(m) if m.ndim else 0 for m in mats]
        super().__init__(_pack(mats, ranks, ranks, "Qbar"), ranks, ranks)

    @classmethod
    def from_stack(cls, stack, ranks):
        """The profile whose padded (Q, K, K) stack is ``stack``, which is
        kept without a copy and frozen."""
        self = cls.__new__(cls)
        PaddedStack.__init__(self, stack, ranks, ranks)
        return self

    @property
    def ranks(self):
        return self.rows

    def traces(self):
        return np.trace(self.stack, axis1=1, axis2=2).real

    @classmethod
    def uniform(cls, s):
        """Uniform allocation Qbar_q = (P_q / r_q) I."""
        return cls([(s.P[q] / s.ranks[q]) * np.eye(s.ranks[q]) for q in range(s.Q)])

    @classmethod
    def zeros(cls, s):
        return cls([np.zeros((r, r), dtype=complex) for r in s.ranks])

    def validate(self, s):
        """Check PSD (eigenvalue floor) and the trace budgets within PROFILE_TOL."""
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
        bad = np.flatnonzero(lo < -PROFILE_TOL * scale)
        if bad.size:
            q = bad[0]
            raise InvalidInputError(f"Qbar[{q}] is not PSD (min eig {lo[q]:.3e})")
        tr = self.traces()
        bad = np.flatnonzero(tr > s.P + PROFILE_TOL)
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
    """(..., Q, m, k) stack as the m x (Q k) matrix [A_0 | A_1 | ...], or a
    stack of them."""
    return np.swapaxes(A, -3, -2).reshape(A.shape[:-3] + (A.shape[-2], -1))


def _unwide(M, Q):
    """Inverse of :func:`_wide`."""
    return np.swapaxes(M.reshape(M.shape[:-1] + (Q, -1)), -3, -2)


# Receivers per block of a scenario's channel table (see
# _received_covariances): few enough that a delayed reader, which forms
# its receiver's whole block alone, pays little for it.
_RECEIVER_BLOCK = 4


def _received_covariances(G, Rn, P, qs):
    """Rn_q + sum_{r != q} A_qr P_r A_qr^H of the receivers ``qs[m]`` at
    each profile m of the (M, Q, K, K) stack ``P``: one (total of
    len(qs[m]), N, N) stack, profile 0's receivers first, not yet
    hermitized. ``G`` is the (Q, K, Q, N) conjugate-transposed channel
    table, G[r, :, q, :] = A_qr^H, and ``Rn`` the (Q, N, N) noises.

    Each term is grouped as A_qr (P_r A_qr^H), formed per block of
    _RECEIVER_BLOCK receivers, [0, block), [block, 2 block), ..., for the
    profiles that read the block (see :func:`_block_sums`). BLAS can round
    a column of a product differently with the product's width, so a block
    is formed whole whichever of its receivers are asked for: with one
    block size for every table, a row has the same bits in every call that
    forms it."""
    Q, N, block = G.shape[0], G.shape[3], _RECEIVER_BLOCK
    q_of = [q for players in qs for q in players]
    reads = [[] for _ in range(-(-Q // block))]   # the profiles that read block b
    rows = []   # each row's block, its place among the block's profiles, its column
    for m, players in enumerate(qs):
        for q in players:
            b, j = divmod(q, block)
            if not reads[b] or reads[b][-1] != m:
                reads[b].append(m)
            rows.append((b, len(reads[b]) - 1, j))
    first = list(accumulate(map(len, reads), initial=0))   # block b's rows of Z
    Z = np.empty((first[-1], block, N, N), dtype=complex)
    for b, ms in enumerate(reads):
        if ms:
            Zb = _block_sums(G, P if len(ms) == len(qs) else P[ms], b * block, block)
            Z[first[b]:first[b + 1], :Zb.shape[1]] = Zb
    R = Z[[first[b] + i for b, i, _ in rows], [j for _, _, j in rows]]
    np.conjugate(R, out=R)
    R += Rn[q_of]
    return R


def _block_sums(G, P, start, block):
    """The conjugates of sum_{r != q} A_qr P_r A_qr^H of the receivers
    start <= q < start + block (see _received_covariances) at each profile
    of the (M, Q, K, K) stack ``P``: one (M, receivers, N, N) stack.

    The products P_r G[r] over the block's columns are one matmul batched
    over the transmitters r and the profiles. Conjugated in place, they
    give each receiver's sum as one matmul of its strided (Q K, N) views of
    G and of them, G_q^T conj(T_q) = conj(G_q^H T_q), with no conjugate
    copy of G."""
    Q, K, _, N = G.shape
    b = min(block, Q - start)
    Gb = G[:, :, start:start + b]
    # T[m, r, :, j] = P_r A_qr^H of profile m, q = start + j
    T = (P @ Gb.reshape(Q, K, b * N)).reshape(len(P), Q, K, b, N)
    j = np.arange(b)
    T[:, start + j, :, j] = 0.0   # the MUI skips r = q
    np.negative(T.imag, out=T.imag)
    return (Gb.reshape(Q * K, b, N).transpose(1, 2, 0)
            @ T.reshape(len(P), Q * K, b, N).transpose(0, 2, 1, 3))


def _whitened_channels(s, P, qs):
    """Whitened direct channels X = L^{-1} Hbar_qq of the players ``qs[m]``
    at each profile m of the (M, Q, K, K) stack ``P``, L L^H = R_q the MUI
    covariance of each; one (total of len(qs[m]), N, K) array, profile 0's
    players first, zero beyond each player's receive dimension and rank.
    X^H X is the whitened gram Hbar_qq^H R_q^{-1} Hbar_qq."""
    players = [q for group in qs for q in group]
    R = hermitize(_received_covariances(s.HbarH, s.Rn.stack, P, qs))
    try:
        L = np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        for q, Rq in zip(players, R):
            try:
                np.linalg.cholesky(Rq)
            except np.linalg.LinAlgError:
                raise InvalidInputError(
                    f"MUI covariance of player {q} is numerically singular"
                ) from None
        raise
    return np.linalg.solve(L, s.Hbar.array[players, players])


def _grams(X):
    """Whitened grams X^H X of stacked whitened channels."""
    return hermitize(_ct(X) @ X)


def _rates(X, P):
    """log det(I + X^H X Qbar) of stacked whitened channels ``X`` and
    covariances ``P`` (zero-padded or exact alike): the sum of log1p over
    the eigenvalues of X Qbar X^H, whose padding adds only zeros."""
    lam = np.maximum(np.linalg.eigvalsh(hermitize(X @ P @ _ct(X))), 0.0)
    return np.array(list(map(_log1p_sum, lam.tolist())))


def _rank_groups(ranks):
    """(rank, indices) for each distinct value in ``ranks``."""
    ranks = np.asarray(ranks)
    for k in sorted(set(ranks.tolist())):
        yield k, np.flatnonzero(ranks == k)


def _stack_frob(D):
    """Frobenius norm of each padded profile in a (..., Q, K, K) stack."""
    return np.sqrt((D.real ** 2 + D.imag ** 2).sum(axis=(-3, -2, -1)))


def _block_distances(A, B, w=1.0):
    """max_q ||A_q - B_q||_F / w_q for each pair of padded (..., Q, K, K) profiles."""
    # each player's block as a one-player profile
    return (_stack_frob((A - B)[..., None, :, :]) / w).max(axis=-1)


def mui_covariance(s, q, profile):
    """Interference-plus-noise covariance at receiver q."""
    n = s.Rn[q].shape[0]
    R = _received_covariances(s.HbarH, s.Rn.stack, profile.stack[None], [[q]])
    return hermitize(R[0, :n, :n])


def whitened_gram(s, q, profile):
    """Gram matrix of player q's direct channel whitened by the MUI.

    Returns Hbar_qq^H R^{-1} Hbar_qq, positive definite whenever the
    reduced direct channel has full column rank.
    """
    r = s.ranks[q]
    return _grams(_whitened_channels(s, profile.stack[None], [[q]]))[0, :r, :r]


def rate(s, q, profile):
    """Achievable rate of player q in nats, treating interference as noise.

    log det(I + G Qbar) evaluated as the sum of log1p over the eigenvalues
    of X Qbar X^H, X the whitened direct channel (G = X^H X).
    """
    X = _whitened_channels(s, profile.stack[None], [[q]])
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


def _lists_to_complex(L, name):
    try:
        return np.array([[complex(e[0], e[1]) for e in row] for row in L], dtype=complex)
    except (TypeError, ValueError, IndexError):
        raise InvalidInputError(f"{name} is not a matrix of [re, im] pairs") from None


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
        Q = check_count(d["Q"], "Q", 1)
        H = [[_lists_to_complex(M, f"H[{q}][{r}]") for r, M in enumerate(row)]
             for q, row in enumerate(d["H"])]
        Rn = [_lists_to_complex(R, f"Rn[{q}]") for q, R in enumerate(d["Rn"])]
        for key in ("nT", "nR", "P", "Psi"):   # numpy would read true as 1
            if any(isinstance(x, bool) for x in d[key]):
                raise InvalidInputError(f"{key} must hold numbers, not booleans")
        return NetworkScenario(
            Q=Q, nT=d["nT"], nR=d["nR"], H=H, Rn=Rn,
            P=d["P"], Psi=d["Psi"], seed=d.get("seed"), meta=d.get("meta", {}),
        )
    except InvalidInputError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise InvalidInputError(f"malformed scenario document: {exc}") from None


def save_scenario(s, path):
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(s), fh, indent=1)
        fh.write("\n")


def load_scenario(path):
    with open(check_path(path, "scenario file"), encoding="utf-8") as fh:   # RFC 8259
        return scenario_from_dict(json.load(fh))
