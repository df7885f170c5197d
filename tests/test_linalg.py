import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eeiwfa import _kernels
from eeiwfa.errors import InvalidInputError
from eeiwfa.linalg import (
    W_FLOOR,
    _perron_start,
    _psd_trace_projections,
    compact_svd,
    hermitian_evd,
    pseudo_inverse,
    psd_trace_projection,
    realify,
    spectral_radius,
)

from conftest import crandn, random_hermitian, random_psd


# --- Hermitian EVD ----------------------------------------------------------

def test_evd_identity():
    vals, vecs = hermitian_evd(np.eye(2))
    assert np.allclose(vals, [1.0, 1.0])
    assert np.allclose(vecs @ vecs.conj().T, np.eye(2), atol=1e-12)


def test_evd_diagonal_descending():
    vals, _ = hermitian_evd(np.diag([3.0, 1.0]))
    assert np.allclose(vals, [3.0, 1.0])


def test_evd_round_trip_random(rng):
    A = random_hermitian(rng, 4)
    vals, vecs = hermitian_evd(A)
    scale = max(1.0, np.abs(A).max())
    assert np.abs((vecs * vals) @ vecs.conj().T - A).max() <= 1e-9 * scale
    assert np.abs(vecs.conj().T @ vecs - np.eye(4)).max() <= 1e-9
    assert np.all(np.diff(vals) <= 1e-12)


def test_evd_rejects_non_hermitian(rng):
    A = crandn(rng, 3, 3)
    A[0, 1] += 1.0  # guarantee asymmetry
    with pytest.raises(InvalidInputError):
        hermitian_evd(A)


# --- compact SVD -------------------------------------------------------------

def test_svd_identity():
    U, s, V, r = compact_svd(np.eye(3))
    assert r == 3
    assert np.allclose(s, [1.0, 1.0, 1.0])


def test_svd_rank_one(rng):
    u = crandn(rng, 4)
    v = crandn(rng, 3)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    A = np.outer(u, v.conj())
    U, s, V, r = compact_svd(A)
    assert r == 1
    assert np.allclose(s, [1.0], atol=1e-12)


def test_svd_rectangular_round_trip(rng):
    A = crandn(rng, 4, 2)
    U, s, V, r = compact_svd(A)
    assert r == 2
    assert np.abs((U * s) @ V.conj().T - A).max() <= 1e-9 * s[0]
    assert np.all(s > 0)


def test_svd_zero_matrix():
    U, s, V, r = compact_svd(np.zeros((3, 2)))
    assert r == 0
    assert U.shape == (3, 0) and s.shape == (0,) and V.shape == (2, 0)


def test_evd_svd_round_trips_bulk():
    # 1000 random matrices up to 8x8, both factorizations
    rng = np.random.default_rng(7)
    for i in range(500):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        A = crandn(rng, m, n)
        U, s, V, r = compact_svd(A)
        scale = max(1.0, np.abs(A).max())
        assert np.abs((U * s) @ V.conj().T - A).max() <= 1e-9 * scale
        H = random_hermitian(rng, n)
        vals, vecs = hermitian_evd(H)
        hscale = max(1.0, np.abs(H).max())
        assert np.abs((vecs * vals) @ vecs.conj().T - H).max() <= 1e-9 * hscale


# --- pseudoinverse -----------------------------------------------------------

def test_pinv_invertible_matches_inverse():
    A = np.array([[2.0, 1.0], [0.5, 3.0]], dtype=complex)
    # 2x2 inverse by the adjugate formula
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    inv = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]]) / det
    assert np.abs(pseudo_inverse(A) - inv).max() <= 1e-12


def test_pinv_diagonal_with_zero():
    assert np.allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))


def test_pinv_full_row_rank_right_inverse(rng):
    A = crandn(rng, 2, 4)
    assert np.abs(A @ pseudo_inverse(A) - np.eye(2)).max() <= 1e-8


def test_pinv_moore_penrose_identities(rng):
    for _ in range(20):
        m, n, k = (int(x) for x in rng.integers(2, 7, size=3))
        A = crandn(rng, m, k) @ crandn(rng, k, n)  # rank <= k, often deficient
        P = pseudo_inverse(A)
        tol = 1e-8 * max(1.0, np.abs(A).max())
        assert np.abs(A @ P @ A - A).max() <= tol
        assert np.abs(P @ A @ P - P).max() <= tol
        assert np.abs((A @ P) - (A @ P).conj().T).max() <= tol
        assert np.abs((P @ A) - (P @ A).conj().T).max() <= tol


# --- PSD trace projection -----------------------------------------------------

def _projection_oracle(A, p):
    # independent route: sort the eigenvalues, scan active-set sizes, and
    # solve the shift in closed form
    vals, vecs = np.linalg.eigh(0.5 * (A + A.conj().T))
    lam = np.sort(vals)[::-1]
    n = lam.size
    theta = None
    for k in range(1, n + 1):
        t = (p - lam[:k].sum()) / k
        if lam[k - 1] + t > 0 and (k == n or lam[k] + t <= 0):
            theta = t
            break
    if theta is None:
        theta = (p - lam.sum()) / n
    powers = np.maximum(vals + theta, 0.0)
    return (vecs * powers) @ vecs.conj().T


def test_projection_literal_examples():
    out = psd_trace_projection(np.diag([3.0, 1.0]), 2.0)
    assert np.abs(out - np.diag([2.0, 0.0])).max() <= 1e-12
    out = psd_trace_projection(-np.eye(2), 4.0)
    assert np.abs(out - np.diag([2.0, 2.0])).max() <= 1e-12


def test_projection_feasible_fixed_point(rng):
    A = random_psd(rng, 3, trace=2.5)
    out = psd_trace_projection(A, 2.5)
    assert np.abs(out - A).max() <= 1e-10


def test_projection_zero_power():
    out = psd_trace_projection(np.diag([3.0, 1.0]), 0.0)
    assert np.abs(out).max() == 0.0


def test_projection_rejects_negative_power():
    with pytest.raises(InvalidInputError):
        psd_trace_projection(np.eye(2), -1.0)


def test_projection_matches_oracle_and_is_nearest(rng):
    for _ in range(100):
        n = int(rng.integers(1, 6))
        A = random_hermitian(rng, n, scale=3.0)
        p = float(rng.uniform(0.0, 5.0))
        out = psd_trace_projection(A, p)
        assert np.abs(out - _projection_oracle(A, p)).max() <= 1e-10
        assert abs(np.trace(out).real - p) <= 1e-10
        assert np.linalg.eigvalsh(out).min() >= -1e-12
        base = np.linalg.norm(out - A, "fro")
        for _ in range(50):
            cand = random_psd(rng, n, trace=p)
            assert np.linalg.norm(cand - A, "fro") >= base - 1e-9


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 6), st.integers(1, 5), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_stacked_projection_equals_single_projections(n, m, copies, seed, with_zeros):
    # Leading trace axes project the same stack onto several traces.
    rng = np.random.default_rng(seed)
    A = np.stack([random_hermitian(rng, n, scale=3.0) for _ in range(m)]) if n else \
        np.zeros((m, 0, 0), dtype=complex)
    p = rng.uniform(0.0, 5.0, size=(copies, m))
    if with_zeros:
        p[0, 0] = 0.0
    out = _psd_trace_projections(A, p)
    assert out.shape == (copies, m, n, n)
    for c in range(copies):
        for i in range(m):
            assert np.array_equal(out[c, i], psd_trace_projection(A[i], p[c, i]))


def test_projection_rejects_a_non_finite_target_trace(rng):
    A = random_hermitian(rng, 3)
    for p in (np.nan, np.inf):
        with pytest.raises(InvalidInputError, match=f"^target trace p must be finite, got {p}$"):
            psd_trace_projection(A, p)
    with pytest.raises(InvalidInputError, match="^target trace p must be finite, got nan$"):
        _psd_trace_projections(np.stack([A, A]), np.array([1.0, np.nan]))


def test_stacked_projection_rejects_what_the_single_one_rejects(rng):
    A = np.stack([random_hermitian(rng, 3) for _ in range(4)])
    with pytest.raises(InvalidInputError, match="target trace must be >= 0, got -0.5"):
        _psd_trace_projections(A, np.array([1.0, 2.0, -0.5, 1.0]))
    bad = A.copy()
    bad[2, 0, 1] += 1.0
    for call in (lambda: _psd_trace_projections(bad, np.ones(4)),
                 lambda: psd_trace_projection(bad[2], 1.0)):
        with pytest.raises(InvalidInputError, match="not Hermitian"):
            call()
    with pytest.raises(InvalidInputError, match="not square"):
        _psd_trace_projections(np.zeros((2, 2, 3)), np.ones(2))


# --- realify -------------------------------------------------------------------

def test_realify_scalar_one():
    assert np.array_equal(realify(np.array([[1.0 + 0j]])), np.eye(2))


def test_realify_scalar_j():
    R = realify(np.array([[1j]]))
    assert np.array_equal(R, np.array([[0.0, -1.0], [1.0, 0.0]]))
    eig = np.sort_complex(np.linalg.eigvals(R))
    assert np.allclose(eig, [-1j, 1j])


def test_realify_homomorphism(rng):
    X = crandn(rng, 3, 3)
    Y = crandn(rng, 3, 3)
    assert np.abs(realify(X @ Y) - realify(X) @ realify(Y)).max() <= 1e-12


def test_realify_symmetry_iff_hermitian(rng):
    H = random_hermitian(rng, 3)
    R = realify(H)
    assert np.abs(R - R.T).max() <= 1e-12
    N = crandn(rng, 3, 3)
    N[0, 1] += 1.0
    R = realify(N)
    assert np.abs(R - R.T).max() > 1e-6


def test_realify_doubled_eigenvalues(rng):
    H = random_hermitian(rng, 4)
    lam = np.sort(np.linalg.eigvalsh(H))
    lam2 = np.sort(np.linalg.eigvalsh(0.5 * (realify(H) + realify(H).T)))
    assert np.abs(np.repeat(lam, 2) - lam2).max() <= 1e-10


def test_realify_trace_and_frobenius_factors(rng):
    Z = crandn(rng, 3, 3)
    R = realify(Z)
    assert abs(np.trace(R) - 2.0 * np.trace(Z).real) <= 1e-12
    assert abs(np.linalg.norm(R, "fro") ** 2 - 2.0 * np.linalg.norm(Z, "fro") ** 2) <= 1e-10


def test_realify_round_trip(rng):
    Z = crandn(rng, 2, 4)
    R = realify(Z)
    assert np.array_equal(R[0::2, 0::2], R[1::2, 1::2])
    assert np.array_equal(R[1::2, 0::2], -R[0::2, 1::2])
    assert np.array_equal(R[0::2, 0::2] + 1j * R[1::2, 0::2], Z)


# --- spectral radius -----------------------------------------------------------

def test_spectral_radius_permutation():
    sr, w, degenerate = spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert abs(sr - 1.0) <= 1e-9
    assert np.abs(w - np.sqrt(0.5)).max() <= 1e-9
    assert not degenerate


def test_spectral_radius_zero_matrix():
    sr, w, degenerate = spectral_radius(np.zeros((3, 3)))
    assert sr == 0.0
    assert degenerate
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-12


def test_spectral_radius_char_poly_case():
    # characteristic polynomial lambda^2 = 1
    A = np.array([[0.0, 2.0], [0.5, 0.0]])
    sr, w, _ = spectral_radius(A)
    assert abs(sr - 1.0) <= 1e-9
    assert np.abs(A @ w - sr * w).max() <= 1e-9


def test_spectral_radius_matches_dense_eigensolver(rng):
    for _ in range(50):
        n = int(rng.integers(2, 9))
        A = rng.uniform(0.0, 2.0, size=(n, n))
        sr, w, degenerate = spectral_radius(A)
        dense = np.abs(np.linalg.eigvals(A)).max()
        assert abs(sr - dense) <= 1e-8 * max(1.0, dense)
        if not degenerate:
            assert np.abs(A @ w - sr * w).max() <= 1e-9 * max(1.0, sr)


def test_spectral_radius_entrywise_monotone(rng):
    for _ in range(200):
        n = int(rng.integers(2, 7))
        A = rng.uniform(0.0, 1.0, size=(n, n))
        B = A + rng.uniform(0.0, 1.0, size=(n, n))
        assert spectral_radius(A)[0] <= spectral_radius(B)[0] + 1e-9


def test_spectral_radius_rejects_negative():
    with pytest.raises(InvalidInputError):
        spectral_radius(np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_spectral_radius_reducible_flags_and_floors():
    # Perron vector (1, 0): the zero entry is flagged and floored for norm use
    sr, w, degenerate = spectral_radius(np.array([[1.0, 1.0], [0.0, 0.5]]))
    assert abs(sr - 1.0) <= 1e-9
    assert degenerate
    assert w.min() >= 1e-12
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-9


# --- the Perron start against a cold all-ones oracle ----------------------------

def cold_spectral_radius(A, tol=1e-13, max_iters=20000, w_floor=W_FLOOR):
    """The power iteration on A + I from the all-ones vector, with the same
    convergence test, flags and floors: the oracle for the dense start.
    Returns (sr, w, degenerate, converged)."""
    n = A.shape[0]
    w = np.full(n, 1.0 / math.sqrt(n))
    lam, converged = 1.0, False
    for _ in range(max_iters):
        v = w + A @ w
        lam = float(w @ v)
        res = float(np.abs(v - lam * w).max())
        w = v / math.sqrt(float(v @ v))
        if res <= tol * max(1.0, abs(lam)):
            converged = True
            break
    sr = max(lam - 1.0, 0.0)
    if sr <= tol * max(1.0, float(A.max())):
        sr = 0.0
    degenerate = (not converged) or sr <= w_floor or float(w.min()) < w_floor
    w = np.maximum(w, w_floor)
    return sr, w / np.linalg.norm(w), degenerate, converged


PERRON_FAMILIES = ("random", "zero", "triangular", "block-diagonal",
                   "equal-blocks", "permutation", "zero-row")


def perron_family(kind, n, seed):
    """A nonnegative n x n matrix (2 (n // 2) square, at least 2, for equal
    blocks): dense random, or one of the reducible families (zero,
    triangular, block-diagonal with distinct or equal blocks, permutation,
    a zero row)."""
    rng = np.random.default_rng(seed)
    R = rng.uniform(0.0, 1.0, size=(n, n))
    if kind == "random":
        return R
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "triangular":
        return np.triu(R) if seed % 2 else np.tril(R)
    if kind == "block-diagonal":
        k = int(rng.integers(1, n)) if n > 1 else 1
        B = np.zeros((n, n))
        B[:k, :k], B[k:, k:] = R[:k, :k], R[k:, k:]
        return B
    if kind == "equal-blocks":
        m = max(n // 2, 1)
        return np.kron(np.eye(2), R[:m, :m])
    if kind == "permutation":
        return np.eye(n)[rng.permutation(n)]
    Z = R.copy()
    Z[rng.integers(n)] = 0.0
    return Z


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(PERRON_FAMILIES), st.integers(1, 8), st.integers(0, 2**32 - 1))
@example("triangular", 2, 178)   # diagonal 0.76083, 0.76050: the oracle runs out of steps
@example("triangular", 8, 1419864121)   # the oracle stops 5.6e-10 short of the radius
def test_spectral_radius_matches_cold_all_ones_oracle(kind, n, seed):
    A = perron_family(kind, n, seed)
    sr, w, degenerate = spectral_radius(A)
    sr0, w0, degenerate0, converged0 = cold_spectral_radius(A)
    dense = float(np.abs(np.linalg.eigvals(A)).max())
    if converged0:
        assert degenerate == degenerate0
    if not converged0 or np.abs(w - w0).max() > 1e-10:
        # Out of steps, or stopped by its own test short of the Perron pair
        # (slow convergence), the oracle's weights are off; the dense start
        # must be at least as close to the Perron pair.
        assert abs(sr - dense) <= abs(sr0 - dense)
        assert np.abs(A @ w - sr * w).max() <= np.abs(A @ w0 - sr0 * w0).max()
    # 1e-12 relative, except where the oracle itself stopped further from the
    # dense eigenvalue (slow convergence, e.g. close diagonal entries of a
    # triangular matrix): there the dense start may only be closer.
    assert abs(sr - sr0) <= 1e-12 * sr0 + abs(sr0 - dense)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_power_iteration_from_the_dense_start_converges_at_once(n, seed):
    A = np.random.default_rng(seed).uniform(0.01, 1.0, size=(n, n))
    start = _perron_start(A)
    assert start.min() > W_FLOOR
    sr, w, converged = _kernels.power_iteration(A, start, 1e-13, 2)
    assert converged
    assert abs(sr - np.abs(np.linalg.eigvals(A)).max()) <= 1e-12 * max(1.0, sr)


def test_spectral_radius_non_finite_keeps_the_all_ones_start():
    # eig rejects non-finite input, so the start falls back to all-ones;
    # spectral_radius itself rejects such a matrix before iterating
    A = np.array([[np.inf, 1.0], [1.0, 0.0]])
    assert _perron_start(A).tolist() == [1.0, 1.0]
    for bad in (A, np.array([[np.nan, 1.0], [1.0, 0.0]])):
        with pytest.raises(InvalidInputError, match="^A has non-finite entries$"):
            spectral_radius(bad)
