"""Dense complex linear algebra on bipartite matrices.

Matrices are plain ``numpy`` arrays of ``complex128``; a bipartite split is a
``(dA, dB)`` pair whose product must equal the ambient dimension.  Everything
here is a pure function, dense, and sized for ambient dimensions up to ~81.

Tolerances are module constants, never arguments.  The package's one PSD
rule is ``is_psd``: ``psd_margin(M) >= -TOL_PSD``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DimMismatch, DomainError, NotHermitian, is_count

# A Hermitian M counts as PSD iff psd_margin(M) >= -TOL_PSD.
TOL_PSD = 1e-9

# A matrix counts as Hermitian iff max |M - M^dagger| <= TOL_HERM * max(1, max |M|).
TOL_HERM = 1e-10

# numerical_rank counts singular values above RANK_TOL times the largest.
RANK_TOL = 1e-10


def _as_matrix(M, stack: bool = False) -> np.ndarray:
    # A matrix, or with ``stack`` a (..., rows, cols) stack of them.
    A = np.asarray(M, dtype=complex)
    if A.ndim < 2 or (A.ndim > 2 and not stack):
        raise DimMismatch(f"expected a matrix, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise DomainError("matrix entries must be finite")
    return A


def _check_square(A: np.ndarray) -> int:
    if A.shape[-2] != A.shape[-1]:
        raise DimMismatch(f"expected square matrix, got shape {A.shape}")
    return A.shape[-1]


def _check_bipartite(A: np.ndarray, dims: Sequence[int]) -> tuple[int, int]:
    n = _check_square(A)
    dA, dB = dims[0], dims[1]
    if not (is_count(dA, 1) and is_count(dB, 1) and dA * dB == n):
        raise DimMismatch(f"dims {dims} do not factor ambient dimension {n}")
    return int(dA), int(dB)


def require_hermitian(M) -> np.ndarray:
    """Return M, a matrix or a (k, n, n) stack, as an array; NotHermitian if
    any matrix's defect exceeds ``TOL_HERM`` relative to max(1, its largest entry)."""
    return _hermitian(_as_matrix(M, stack=True))


def _hermitian(A: np.ndarray) -> np.ndarray:
    # require_hermitian's rule, on an array that _as_matrix has checked.
    _check_square(A)
    if A.size:
        defect = np.abs(A - A.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        bad = defect > TOL_HERM * np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))
        if bad.any():
            first = np.extract(bad, defect)[0]
            raise NotHermitian(f"hermiticity defect {first:.3e} exceeds tolerance")
    return A


def eig_hermitian(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, V)`` with eigenvalues ``w`` real ascending and ``V`` unitary,
    so that ``M = V @ diag(w) @ V.conj().T``.
    """
    return np.linalg.eigh(_hermitian(_as_matrix(M)))


def min_eig(M) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    A = _hermitian(_as_matrix(M))
    return float(np.linalg.eigvalsh(A)[0])


def psd_margin(M) -> float:
    """min_eig(M) / max(1, ||M||), the quantity the PSD rule thresholds."""
    w = np.linalg.eigvalsh(_hermitian(_as_matrix(M)))
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    return float(w[0]) / scale


def is_psd(M) -> bool:
    """The package's PSD rule: psd_margin(M) >= -TOL_PSD."""
    return psd_margin(M) >= -TOL_PSD


@lru_cache(maxsize=None)
def hvec_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Entries (x, y) that ``hvec`` reads from an n x n matrix: the diagonal,
    then the strict upper triangle in row-major order.  Cached and shared by
    every caller, hence read-only."""
    iu = np.triu_indices(n, 1)
    x = np.concatenate([np.arange(n), iu[0]])
    y = np.concatenate([np.arange(n), iu[1]])
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


def hvec(H) -> np.ndarray:
    """Isometric real coordinates of Hermitian matrices, over (..., n, n) stacks.

    The n^2 coordinates are the diagonal, then sqrt(2) times the real parts
    and then sqrt(2) times the imaginary parts of the strict upper triangle
    (row-major), so that hvec(A) @ hvec(B) == tr(A B) for Hermitian A, B.
    Only the entries at ``hvec_positions`` are read.
    """
    H = np.asarray(H)
    n = H.shape[-1]
    x, y = hvec_positions(n)
    up = H[..., x, y]
    return np.concatenate([up[..., :n].real, np.sqrt(2.0) * up[..., n:].real,
                           np.sqrt(2.0) * up[..., n:].imag], axis=-1)


def hvec_projectors(V) -> np.ndarray:
    """``hvec`` of the rank-one stack v v^dagger for each row v of V.

    The stack is never formed: the coordinates are |v_p|^2, then sqrt(2) Re
    and sqrt(2) Im of v_p conj(v_q) for p < q.  Each row p of v v^dagger is
    formed whole, as in the outer product, so the result equals ``hvec`` of
    the stack bit for bit while holding one row per vector at a time.
    """
    V = np.asarray(V)
    n = V.shape[-1]
    Vc = V.conj()
    k = n * (n - 1) // 2
    out = np.empty(V.shape[:-1] + (n * n,))
    lo = n
    for p in range(n):
        row = V[..., p, None] * Vc
        hi = lo + n - 1 - p
        out[..., p] = row[..., p].real
        out[..., lo:hi] = np.sqrt(2.0) * row[..., p + 1 :].real
        out[..., lo + k : hi + k] = np.sqrt(2.0) * row[..., p + 1 :].imag
        lo = hi
    return out


def hmat(v, n: int) -> np.ndarray:
    """Inverse of ``hvec``: Hermitian (..., n, n) matrices from (..., n^2) coordinates."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (n * n,):
        raise DimMismatch(f"expected {n * n} coordinates, got shape {v.shape}")
    x, y = hvec_positions(n)
    xu, yu = x[n:], y[n:]
    k = xu.size
    H = np.zeros(v.shape[:-1] + (n, n), dtype=complex)
    H.reshape(v.shape[:-1] + (n * n,))[..., :: n + 1] = v[..., :n]
    up = (v[..., n : n + k] + 1j * v[..., n + k :]) / np.sqrt(2.0)
    H[..., xu, yu] = up
    H[..., yu, xu] = up.conj()
    return H


def numerical_rank(M) -> int:
    """Number of singular values of a matrix above ``RANK_TOL`` times the
    largest; 0 for a zero matrix."""
    s = np.linalg.svd(_as_matrix(M), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


def operator_norm(M) -> float:
    """Largest singular value."""
    A = _as_matrix(M)
    return float(np.linalg.norm(A, 2)) if A.size else 0.0


def block_norm_sum(M, dims: Sequence[int]) -> float:
    """sum_ij ||M_ij||, the spectral norms of the dB x dB blocks of M.

    For a Choi matrix this bounds the map's operator norm, since
    ||L(X)|| <= sum_ij |X_ij| ||L(|i><j|)|| and |X_ij| <= ||X||.
    """
    A = _as_matrix(M)
    dA, dB = _check_bipartite(A, dims)
    blocks = A.reshape(dA, dB, dA, dB).transpose(0, 2, 1, 3)
    return float(np.linalg.svd(blocks, compute_uv=False)[..., 0].sum())


def _require_dim(d) -> None:
    if not is_count(d, 1):
        raise DimMismatch(f"dimension must be a positive integer, got {d!r}")


def max_entangled_vector(d: int) -> np.ndarray:
    """Unnormalized |Omega> = sum_i |i>|i> on C^d x C^d."""
    _require_dim(d)
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0
    return v


def max_entangled_projector(d: int) -> np.ndarray:
    """Unnormalized |Omega><Omega|; trace d, one eigenvalue d."""
    v = max_entangled_vector(d)
    return np.outer(v, v.conj())


def flip_operator(d: int) -> np.ndarray:
    """Swap F = sum_ij |ij><ji|; the Choi matrix of transposition."""
    _require_dim(d)
    F = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            F[i * d + j, j * d + i] = 1.0
    return F


def symplectic_form(n: int) -> np.ndarray:
    """Standard symplectic form on n modes, block-diagonal [[0,1],[-1,0]] per mode."""
    if not is_count(n, 1):
        raise DomainError(f"mode count must be a positive integer, got {n!r}")
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n, 2 * n))
    for k in range(n):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    return out


def partial_transpose(M, dims: Sequence[int], which: str = "A") -> np.ndarray:
    """Transpose one tensor factor of a square bipartite matrix, or of each
    matrix in a (..., n, n) stack."""
    A = _as_matrix(M, stack=True)
    dA, dB = _check_bipartite(A, dims)
    lead = A.shape[:-2]
    T = A.reshape(lead + (dA, dB, dA, dB))
    k = len(lead)
    if which == "A":
        T = np.swapaxes(T, k, k + 2)
    elif which == "B":
        T = np.swapaxes(T, k + 1, k + 3)
    else:
        raise DomainError(f"which must be 'A' or 'B', got {which!r}")
    return T.reshape(lead + (dA * dB, dA * dB)).copy()


def partial_trace(M, dims: Sequence[int], which: str = "B") -> np.ndarray:
    """Trace out one tensor factor; preserves the total trace."""
    A = _as_matrix(M)
    dA, dB = _check_bipartite(A, dims)
    T = A.reshape(dA, dB, dA, dB)
    if which == "B":
        return np.trace(T, axis1=1, axis2=3).copy()
    if which == "A":
        return np.trace(T, axis1=0, axis2=2).copy()
    raise DomainError(f"which must be 'A' or 'B', got {which!r}")


def realign(M, dims: Sequence[int]) -> np.ndarray:
    """Index reshuffle R(M)[(i,j),(k,l)] = M[(i,k),(j,l)].

    The output has shape dA^2 x dB^2; its singular values are the operator
    Schmidt coefficients of M, and R(A kron B) = vec(A) vec(B)^T (row-major
    vec), which pins the index convention.
    """
    A = _as_matrix(M)
    dA, dB = _check_bipartite(A, dims)
    T = A.reshape(dA, dB, dA, dB)
    return T.transpose(0, 2, 1, 3).reshape(dA * dA, dB * dB).copy()


def permute_systems(M, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder the tensor factors of a square multipartite matrix.

    ``perm[k]`` names which input factor lands in slot ``k`` of the output.
    """
    A = _as_matrix(M)
    if not all(is_count(d, 1) for d in dims):
        raise DimMismatch(f"dims {tuple(dims)} are not positive integers")
    dims = [int(d) for d in dims]
    n = int(np.prod(dims))
    if A.shape != (n, n):
        raise DimMismatch(f"dims {dims} do not match shape {A.shape}")
    perm = list(perm)
    if sorted(perm) != list(range(len(dims))):
        raise DomainError(f"perm {perm} is not a permutation of {len(dims)} factors")
    k = len(dims)
    T = A.reshape(dims + dims)
    axes = perm + [p + k for p in perm]
    out_dims = [dims[p] for p in perm]
    return T.transpose(axes).reshape(int(np.prod(out_dims)), -1).copy()


def random_hermitian(d: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (G + G.conj().T) / 2.0


def random_psd(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Wishart-style random PSD matrix, optionally rank-limited."""
    r = d if rank is None else int(rank)
    G = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    return G @ G.conj().T


def haar_unitary(d: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix (Mezzadri 2007).

    ``size=n`` returns an ``(n, d, d)`` stack from one draw and one stacked
    QR; it equals n successive single calls bit for bit and leaves ``rng``
    in the same state.
    """
    G = rng.normal(size=(1 if size is None else size, 2, d, d))
    Q, R = np.linalg.qr(G[:, 0] + 1j * G[:, 1])
    diag = np.diagonal(R, axis1=1, axis2=2)
    U = Q * (diag / np.abs(diag))[:, None, :]
    return U[0] if size is None else U


def random_pure_state(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)

