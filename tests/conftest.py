import numpy as np
import pytest

from eeiwfa.equilibrium import _random_covariances
from eeiwfa.model import StrategyProfile


def crandn(rng, *shape):
    """Circularly-symmetric complex Gaussian entries, unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_hermitian(rng, n, scale=1.0):
    A = crandn(rng, n, n)
    return scale * 0.5 * (A + A.conj().T)


def random_psd(rng, n, trace=None):
    A = crandn(rng, n, n)
    M = A @ A.conj().T
    if trace is not None:
        M *= trace / np.trace(M).real
    return M


def random_profile(s, rng, boundary=False):
    """A random feasible profile of the reduced game ``s``: one Wishart draw
    of the batched sampler."""
    return StrategyProfile.from_stack(
        _random_covariances(rng, s.ranks, s.P, 1, boundary)[0], s.ranks)


def with_player(profile, q, mat):
    """``profile`` with player ``q``'s covariance replaced by ``mat``."""
    mats = list(profile)
    mats[q] = mat
    return StrategyProfile(mats)


def rowrank_oracle(H):
    """Pseudoinverse interference matrix of the Q x Q channels ``H``, pair by
    pair: entry (q, r) is sigma_max^2(pinv(H_qq) H_qr V1_r), V1_r the right
    singular vectors of H_rr's nonzero singular values."""
    Q = len(H)
    V1 = []
    for r in range(Q):
        _, sv, Vh = np.linalg.svd(H[r][r])
        rank = int((sv > sv[0] * max(H[r][r].shape) * np.finfo(float).eps).sum())
        V1.append(Vh[:rank].conj().T)
    S = np.zeros((Q, Q))
    for q in range(Q):
        for r in range(Q):
            if r != q:
                S[q, r] = np.linalg.norm(np.linalg.pinv(H[q][q]) @ H[q][r] @ V1[r], 2) ** 2
    return S


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
