"""Dense complex-matrix primitives.

Hermitian eigendecomposition, compact SVD, Moore-Penrose pseudoinverse,
Frobenius projection onto the trace-constrained PSD set, the complex-to-real
block form, and Perron/spectral-radius utilities for nonnegative
matrices. Everything is a pure function of its inputs.
"""

import numpy as np

from . import _kernels
from .errors import InvalidInputError

HERMITIAN_TOL = 1e-10      # relative deviation from Hermitian symmetry
RANK_TOL = 1e-10           # singular values below this times the largest are dropped
POWER_TOL = 1e-13          # stopping test of the Perron power iteration
POWER_MAX_ITERS = 20000
W_FLOOR = 1e-12            # Perron weights are floored here


def as_complex_matrix(A):
    """Validate and return ``A`` as a finite 2-d complex array."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise InvalidInputError(f"expected a 2-d matrix, got ndim={A.ndim}")
    if A.size and not np.all(np.isfinite(A)):
        raise InvalidInputError("matrix has non-finite entries")
    return A


def check_hermitian(A):
    """Validate that ``A`` is square and Hermitian within HERMITIAN_TOL."""
    A = as_complex_matrix(A)
    _check_hermitian_stack(A)
    return A


def _check_hermitian_stack(A):
    """:func:`check_hermitian` on a finite matrix or on each matrix of a
    stack, each relative to its own largest entry."""
    m, n = A.shape[-2:]
    if m != n:
        raise InvalidInputError(f"matrix is {m}x{n}, not square")
    if A.size == 0:
        return
    scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))
    dev = np.abs(A - A.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = dev > HERMITIAN_TOL * scale
    if bad.any():
        first = np.flatnonzero(bad)[0]
        raise InvalidInputError(
            f"matrix is not Hermitian: max |A - A^H| = {dev.flat[first]:.3e} "
            f"exceeds {HERMITIAN_TOL:.1e} relative"
        )


def hermitize(A):
    """Return the Hermitian part (A + A^H) / 2 of a matrix or of each matrix
    in a stack."""
    return 0.5 * (A + A.conj().swapaxes(-1, -2))


def hermitian_evd(A):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(vals, vecs)`` with ``A = vecs @ diag(vals) @ vecs^H`` and the
    columns of ``vecs`` orthonormal. Ties are broken by a stable sort, so
    degenerate eigenspaces come back in LAPACK's basis unchanged.
    """
    A = check_hermitian(A)
    return _eigh_descending(hermitize(A))


def _eigh_descending(A):
    """``np.linalg.eigh`` of a Hermitian matrix or stack, eigenvalues
    descending with ties kept in LAPACK's order: reversed when every matrix
    is tie-free, else (a tie, or a NaN) by a stable sort, since a reversal
    would swap tied eigenvectors."""
    vals, vecs = np.linalg.eigh(A)
    if (vals[..., 1:] > vals[..., :-1]).all():
        return vals[..., ::-1], vecs[..., ::-1]
    order = np.argsort(-vals, axis=-1, kind="stable")
    return (np.take_along_axis(vals, order, axis=-1),
            np.take_along_axis(vecs, order[..., None, :], axis=-1))


def compact_svd(A):
    """Compact SVD with relative-threshold rank truncation.

    Returns ``(U1, sigma, V1, rank)`` with ``A = U1 @ diag(sigma) @ V1^H``,
    ``sigma`` strictly positive descending, and singular values below
    ``RANK_TOL * sigma_max`` dropped. A zero matrix yields rank 0 with
    empty factors.
    """
    A = as_complex_matrix(A)
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    r = int(_svd_ranks(s))
    return U[:, :r], s[:r], Vh[:r, :].conj().T, r


def _svd_ranks(s):
    """Count of the singular values above RANK_TOL times the largest, for
    descending singular values ``s`` or a stack of them; 0 when all are 0."""
    return np.count_nonzero(s > RANK_TOL * s[..., :1], axis=-1)


def pseudo_inverse(A):
    """Moore-Penrose pseudoinverse via the compact SVD."""
    A = as_complex_matrix(A)
    U1, s, V1, r = compact_svd(A)
    if r == 0:
        return np.zeros((A.shape[1], A.shape[0]), dtype=complex)
    return (V1 / s) @ U1.conj().T


def psd_trace_projection(A, p):
    """Frobenius-nearest PSD matrix with trace exactly ``p``.

    Shifts the spectrum of the Hermitian input: the result is
    ``U (diag(lam) + theta I)^+ U^H`` with theta the unique shift that makes
    the trace ``p``. ``p = 0`` gives the zero matrix.
    """
    A = hermitize(check_hermitian(A))
    return _psd_trace_projections(A[None], np.asarray(p, dtype=float)[None])[0]


def _psd_trace_projections(A, p):
    """:func:`psd_trace_projection` of a finite (..., n, n) stack onto the
    traces ``p``, which broadcast against the stack shape ``A.shape[:-2]``.
    Leading axes of ``p`` beyond the stack's project the same matrices onto
    several traces with one eigendecomposition each. The stack must be
    exactly Hermitian, as :func:`hermitize` returns it: it is not checked
    here, and ``eigh`` reads its lower triangle only."""
    p = np.asarray(p, dtype=float)
    bad = np.flatnonzero(~np.isfinite(p))
    if bad.size:
        raise InvalidInputError(f"target trace p must be finite, got {p.flat[bad[0]]}")
    bad = np.flatnonzero(p < 0)
    if bad.size:
        raise InvalidInputError(
            f"target trace must be >= 0, got {p.flat[bad[0]]}"
        )
    if A.shape[-1] == 0:
        shape = np.broadcast_shapes(p.shape, A.shape[:-2]) + A.shape[-2:]
        return np.zeros(shape, dtype=complex)
    vals, vecs = np.linalg.eigh(A)
    _, powers = _kernels.water_level(vals, p)
    return (vecs * powers[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def realify(Z):
    """Map an M x N complex matrix to its 2M x 2N real block form.

    Each entry a+bj becomes the block [[a, -b], [b, a]] (unit scaling), so
    the map is a ring homomorphism: realify(X @ Y) = realify(X) @ realify(Y),
    Hermitian inputs map to symmetric outputs, and the eigenvalues of a
    Hermitian input appear with doubled multiplicity. Trace and squared
    Frobenius norm pick up a factor 2.
    """
    Z = as_complex_matrix(Z)
    m, n = Z.shape
    R = np.empty((2 * m, 2 * n))
    R[0::2, 0::2] = Z.real
    R[0::2, 1::2] = -Z.imag
    R[1::2, 0::2] = Z.imag
    R[1::2, 1::2] = Z.real
    return R


def _perron_starts(A):
    """Start vectors of the Perron power iteration for a (B, n, n) stack,
    one list entry per matrix, from one stacked ``np.linalg.eig``: the
    modulus of the dense eigenvector of the eigenvalue with the largest
    real part when every entry of it is above W_FLOOR (an irreducible
    matrix, where it is the Perron vector up to rounding), else the all-ones
    vector.

    A reducible matrix keeps the all-ones start, because its weights are the
    limit of the iteration from there (e.g. spread over equal blocks), not
    whichever eigenvector LAPACK returns.
    """
    ones = np.ones(A.shape[-1])
    try:
        vals, vecs = np.linalg.eig(A)
    except np.linalg.LinAlgError:   # non-finite entries, or no convergence
        return [ones] if len(A) == 1 else [_perron_starts(a[None])[0] for a in A]
    top = np.argmax(vals.real, axis=-1)[:, None, None]
    starts = []
    for w in np.abs(np.take_along_axis(vecs, top, axis=-1)[..., 0]):
        w /= np.linalg.norm(w)   # the 1-D norm: norm(..., axis=-1) rounds otherwise
        starts.append(w if w.min() > W_FLOOR else ones)
    return starts


def spectral_radius(A):
    """Spectral radius and right Perron vector of a nonnegative matrix.

    Power iteration from a dense eigenvector when that is positive, else
    from the all-ones vector (deterministic either way); the radius, the
    convergence test and the flags are those of the iteration. Returns
    ``(sr, w, degenerate)`` with ``w > 0`` and ``||w||_2 = 1``; the flag is
    set when the iteration failed to converge, the radius is zero, or the
    Perron vector has (near-)zero entries, in which case the weights are
    floored at W_FLOOR and renormalized before returning.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInputError("expected a square matrix")
    return _spectral_radii(A[None])[0]


def _spectral_radii(A):
    """:func:`spectral_radius` of each matrix of a float (B, n, n) stack, as
    a list; the start vectors come from one stacked eig."""
    if not np.isfinite(A).all():
        raise InvalidInputError("A has non-finite entries")
    if A.size and A.min() < 0.0:
        raise InvalidInputError("matrix must be entrywise nonnegative")
    if A.shape[-1] == 0:
        return [(0.0, np.empty(0), True) for _ in A]
    out = []
    for a, start in zip(A, _perron_starts(A)):
        a = np.ascontiguousarray(a, dtype=np.float64)
        sr, w, converged = _kernels.power_iteration(a, start, POWER_TOL, POWER_MAX_ITERS)
        sr = max(float(sr), 0.0)
        if sr <= POWER_TOL * max(1.0, float(a.max(initial=0.0))):
            sr = 0.0  # below the iteration's own resolution
        degenerate = (not converged) or sr <= W_FLOOR or float(w.min()) < W_FLOOR
        w = np.maximum(w, W_FLOOR)
        out.append((sr, w / np.linalg.norm(w), degenerate))
    return out
