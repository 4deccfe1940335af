"""Semidefinite feasibility solver and the checks built on it.

Problems are block-diagonal SDPs over complex Hermitian PSD matrices with
trace equality constraints.  The solver is a homogeneous self-dual
interior-point method with Nesterov-Todd scaling (Todd, Toh and Tutuncu,
SIAM J. Optim. 8, 1998) and a Mehrotra predictor-corrector step.  Each block
is packed into its n^2 real coordinates with ``linalg.hvec``, and an
``SdpProblem`` is that packed system alone: a sparse equality matrix A, b
and c, checked when it is built.  All four wrappers (decomposability,
Gaussian split, cb-norm split, counterexample search) write their equalities
in these orthonormal coordinates directly, in O(D^2), with no basis matrix:
each row is a unit, signed-unit or sum row, b is ``hvec`` of the data, and
the partial transpose permutes coordinates up to sign, hvec(PT(X)) =
Q hvec(X) (``_pt_permutation``).  One scale rule, ``_unit_scale``, divides
each wrapper's data by a power of two, exactly, so it solves at unit scale
and multiplies its blocks back.  ``SdpProblem.from_matrices`` packs
hand-written problems, given as Hermitian coefficient matrices checked per
block as one stack by ``linalg.require_hermitian``.  The solver works per
size group, stacked: the blocks of one size n move through each
per-block stage as one (k, n, n) stack, one numpy or LAPACK call per group.
Per iteration each block's scaling takes two Cholesky factors and one SVD,
X = L L^H, S = R R^H and R^H L = U diag(d) Vh, and no eigendecomposition:
F = L Vh^H d^-1/2 and F^-1 = d^-1/2 U^H R^H give the scaled point
F^-1 X F^-H = F^H S F = diag(d), so the Lyapunov solve and the Mehrotra
corrector are elementwise, and the step search takes one batched
``eigvalsh`` over a group's 2k scaled directions.  The scaling X -> W X W,
W = F F^H, is one real n^2 x n^2 matrix per block, W (x) conj(W) in ``hvec``
coordinates, built in O(n^4); a group's operators lie in one
(k, n^2, n^2) stack, applied in one batched product.  The Schur
complement A W A^T is assembled from the structure of A (Fujisawa, Kojima
and Nakata, Math. Prog. 79, 1997), which ``SdpProblem`` reads once: a block
whose rows each take one signed, scaled coordinate at a permuted matrix
position (both decomposability blocks) adds its operator built at those
positions, scaled by its values, and any other block its sparse product.
Each solve allocates one workspace for the operators and for their scratch,
which a Fortran-ordered Schur matrix shares and the Cholesky factorization
overwrites in place, so an iteration makes no m x m temporaries on the
decomposability path and a check on D x D blocks costs O(D^4) outside the
factorization.
Every verdict is re-checked outside the solver: "feasible" is claimed only
after the returned blocks pass an independent residual and PSD audit (the
residual first, so a candidate that misses it costs no spectrum), and
"infeasible" only with a verified separating functional.  A feasibility
problem's candidate x/tau is first corrected onto A x = b through the last
factored Schur complement M = A W A^T, as x - W A^T M^-1 (A x - b): one
solve with its factor, so a solve ends once the iterate is inside the cone
rather than once its residual has decayed.  The PSD audits are
``linalg.psd_margin`` against ``PSD_TOL``, which is ``linalg.TOL_PSD``
itself: the package's one PSD rule.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

from . import choi, linalg
from .errors import DimMismatch, DomainError, PreconditionFailed, is_count
from .report import Report

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
INCONCLUSIVE = "inconclusive"

# Relative equality-residual bound a "feasible" verdict certifies.
FEAS_TOL = 1e-7

# Relative eigenvalue floor certified on returned PSD blocks (linalg.is_psd's).
PSD_TOL = linalg.TOL_PSD

# Relative duality measure mu/mu0 at which the solver enters its endgame.
GAP_TOL = 1e-9

# Interior-point iterations ``solve`` takes at most; the last five are its endgame.
MAX_ITERS = 200

# Counterexample search: an eigenvalue below SEARCH_VALUE_TOL is a violation;
# a restart ends after SEARCH_PATIENCE rounds improving by < SEARCH_IMPROVE_TOL.
SEARCH_VALUE_TOL = -1e-6
SEARCH_IMPROVE_TOL = 1e-10
SEARCH_PATIENCE = 5


# ---------------------------------------------------------------------------
# problem and result types


@dataclass(frozen=True)
class SdpProblem:
    """Minimize c.x subject to A x == b over block-diagonal Hermitian PSD X.

    ``blocks`` declares the variables X_j as ``(name, size)`` pairs, and x is
    their ``linalg.hvec`` coordinates laid end to end, N = sum n_j^2 in all:
    row i of A constrains sum_j tr(A_ij X_j) == b_i, with A_ij the ``hmat`` of
    its block of columns, and c = 0 asks for feasibility alone.  A is a scipy
    sparse or numpy array of shape (m, N), kept as a CSR array.  Sizes that
    are not positive integers and wrong shapes raise DimMismatch, repeated
    names PreconditionFailed, complex or non-finite data DomainError.
    ``from_matrices`` builds a hand-written problem from coefficient matrices.
    """

    blocks: tuple[tuple[str, int], ...]
    A: scipy.sparse.csr_array
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        blocks = _check_blocks(self.blocks)
        N = sum(n * n for _, n in blocks)
        if not (scipy.sparse.issparse(self.A) or isinstance(self.A, np.ndarray)):
            raise DomainError(f"A must be a numpy or scipy sparse array, not {type(self.A)}")
        b, c = _real_finite(self.b, "b"), _real_finite(self.c, "c")
        m = self.A.shape[0] if self.A.ndim == 2 else -1
        if self.A.shape != (m, N) or b.shape != (m,) or c.shape != (N,):
            raise DimMismatch(f"A, b and c must have shapes (m, {N}), (m,) and ({N},), "
                              f"got {self.A.shape}, {b.shape} and {c.shape}")
        A = self.A if scipy.sparse.issparse(self.A) else _real_finite(self.A, "A")
        A = scipy.sparse.csr_array(A, copy=True)
        A.data = _real_finite(A.data, "A")
        b.setflags(write=False)
        c.setflags(write=False)
        for name, value in (("blocks", blocks), ("A", A), ("b", b), ("c", c)):
            object.__setattr__(self, name, value)
        offsets = np.cumsum([0] + [n * n for _, n in blocks])
        a_blocks = [A[:, lo:hi] for lo, hi in zip(offsets, offsets[1:])]
        object.__setattr__(self, "_a_blocks", [_read_positions(Ak, n) or Ak
                                               for Ak, (_, n) in zip(a_blocks, blocks)])

    @classmethod
    def from_matrices(cls, blocks, equalities, objective: Optional[Mapping] = None) -> SdpProblem:
        """The problem sum_j tr(coeffs[j] @ X_j) == rhs for each ``(coeffs,
        rhs)`` in ``equalities``, minimizing ``objective`` (block name ->
        matrix) when given.

        Each block's coefficients, the objective's among them, are checked as
        one stack by ``linalg.require_hermitian`` (wrong shape DimMismatch,
        non-finite data DomainError, a defect beyond ``linalg.TOL_HERM``
        NotHermitian), and their Hermitian parts are packed into A and c.
        """
        blocks = _check_blocks(blocks)
        # Row m, past the equalities, is the objective.
        m = len(equalities)
        rows = [coeffs for coeffs, _ in equalities] + ([] if objective is None else [objective])
        gathered = {name: ([], []) for name, _ in blocks}
        for i, coeffs in enumerate(rows):
            for name, M in coeffs.items():
                if name not in gathered:
                    raise PreconditionFailed(f"unknown block name {name!r}")
                gathered[name][0].append(i)
                gathered[name][1].append(M)
        triplets = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))]
        lo = 0
        for name, n in blocks:
            idx, mats = gathered[name]
            if mats:
                try:
                    S = np.asarray(mats, dtype=complex)
                except ValueError:
                    S = None
                if S is None or S.shape[1:] != (n, n):
                    raise DimMismatch(f"coefficients for block {name!r} must be {n} x {n}")
                linalg.require_hermitian(S)
                coords = linalg.hvec((S + S.conj().swapaxes(-1, -2)) / 2.0)
                r, j = np.nonzero(coords)
                triplets.append((np.array(idx, dtype=np.intp)[r], j + lo, coords[r, j]))
            lo += n * n
        row, col, val = (np.concatenate(t) for t in zip(*triplets))
        eq = row < m
        A = scipy.sparse.csr_array((val[eq], (row[eq], col[eq])), shape=(m, lo))
        c = np.zeros(lo)
        c[col[~eq]] = val[~eq]
        return cls(blocks, A, [rhs for _, rhs in equalities], c)

    @property
    def equalities(self) -> tuple[tuple[np.ndarray, np.ndarray, float], ...]:
        """Each row of the packed system as ``(columns, values, rhs)``, built
        from A in O(nnz) on each read.  The solver reads A itself; this view is
        kept for callers that count or inspect the equalities, such as a
        benchmark's trace of problem sizes."""
        cuts = self.A.indptr[1:-1]
        cols, vals = np.split(self.A.indices.copy(), cuts), np.split(self.A.data.copy(), cuts)
        return tuple(zip(cols, vals, self.b.tolist()))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.blocks)


@dataclass(frozen=True)
class SdpResult:
    """Audited outcome of an SDP solve.

    ``status`` is one of "feasible", "infeasible", "inconclusive".  On
    "feasible", ``primal`` maps block names to Hermitian PSD matrices
    satisfying the equalities; on "infeasible", ``dual`` carries the verified
    separating functional (the Farkas multiplier vector, or a
    problem-specific witness for the wrappers below).  ``residuals`` holds
    numeric diagnostics; ``reason`` says why a verdict is inconclusive.
    """

    status: str
    primal: Optional[dict[str, np.ndarray]]
    dual: Optional[np.ndarray]
    residuals: dict[str, float]
    reason: str = ""


# ---------------------------------------------------------------------------
# checks and packing


def _check_blocks(blocks) -> tuple[tuple[str, int], ...]:
    """``blocks`` as (name, positive integer size) pairs, names unique; no bools."""
    try:
        blocks = tuple((str(name), dim) for name, dim in blocks)
    except (TypeError, ValueError) as exc:
        raise DimMismatch(f"blocks must be (name, size) pairs: {exc}") from exc
    if not blocks:
        raise PreconditionFailed("problem declares no blocks")
    names = [name for name, _ in blocks]
    if len(set(names)) != len(names):
        raise PreconditionFailed("block names must be unique")
    for name, dim in blocks:
        if not is_count(dim, 1):
            raise DimMismatch(f"block {name!r} needs a positive integer size, got {dim!r}")
    return tuple((name, int(dim)) for name, dim in blocks)


def _real_finite(values, what: str) -> np.ndarray:
    """``values`` as a new float array; DomainError unless real and finite."""
    try:
        out = None if np.iscomplexobj(values) else np.array(values, dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or not np.all(np.isfinite(out)):
        raise DomainError(f"{what} must be real and finite")
    return out


def _csr(groups, width: int):
    """CSR array from groups of rows, ``(columns, values)`` of shape (rows, r)."""
    cols = np.concatenate([c.ravel() for c, _ in groups])
    vals = np.concatenate([v.ravel() for _, v in groups])
    counts = np.concatenate([np.full(c.shape[0], c.shape[1]) for c, _ in groups])
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return scipy.sparse.csr_array((vals, cols, indptr), shape=(counts.size, width))


class _Positions(NamedTuple):
    """A column block of A that moves ``hvec`` positions, in CSR order.

    Row i is ``vals[i]`` times coordinate ``cols[i]``, of row i's own kind
    (diagonal, real or imaginary), and ``cols`` is a permutation.  The real
    and the imaginary row of position p read one position pi(p), whose
    entries are ``(x[p], y[p])``.
    """

    x: np.ndarray
    y: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def _read_positions(Ak, n: int) -> Optional[_Positions]:
    """``_Positions`` of the CSR column block ``Ak`` of an n x n block, or None."""
    m, k = n * n, n * (n - 1) // 2
    if Ak.shape[0] != m or np.any(np.diff(Ak.indptr) != 1):
        return None
    cols, kinds = Ak.indices, [n, n + k]
    rows = np.arange(m)
    if (np.array_equal(np.searchsorted(kinds, cols, "right"), np.searchsorted(kinds, rows, "right"))
            and np.array_equal(cols[n + k:] - k, cols[n : n + k])
            and np.array_equal(np.sort(cols), rows)):
        x, y = linalg.hvec_positions(n)
        pi = cols[: n + k]
        return _Positions(x[pi], y[pi], cols, Ak.data)
    return None


def _unpack(v: np.ndarray, dims: Sequence[int]) -> list[np.ndarray]:
    """The Hermitian blocks of sides ``dims`` from their ``linalg.hvec``
    coordinates, laid end to end in v."""
    out, lo = [], 0
    for n in dims:
        out.append(linalg.hmat(v[..., lo : lo + n * n], n))
        lo += n * n
    return out


# ---------------------------------------------------------------------------
# independent verification of solver claims


def _verify_feasible(A, b, dims, xs, obj=None, early=False):
    """Audit a primal candidate: equality residuals, then PSD blocks.

    Returns ``(ok, mats, info)``.  An ``early`` candidate, one found before
    the solver's endgame, must meet 1e-2 ``FEAS_TOL`` and 1e-1 ``PSD_TOL``;
    a feasibility problem's candidate meets the residual bound once the
    solver has corrected it onto A x = b.
    The residual, one sparse product, is tested first, and a candidate
    beyond it is rejected with no spectrum computed and ``mats`` None.
    """
    feas_tol, psd_tol = (1e-2 * FEAS_TOL, 1e-1 * PSD_TOL) if early else (FEAS_TOL, PSD_TOL)
    if b.size:
        rel = float(np.max(np.abs(A @ xs - b))) / (1.0 + float(np.max(np.abs(b))))
    else:
        rel = 0.0
    if not rel <= feas_tol:
        return False, None, {"equality_residual": rel}
    mats = _unpack(xs, dims)
    margin = min(linalg.psd_margin(M) for M in mats)
    info = {"primal_psd_margin": float(margin), "equality_residual": rel}
    if obj is not None:
        info["objective"] = float(obj @ xs)
    return margin >= -psd_tol, mats, info


def _verify_farkas(AT, b, dims, y):
    """Audit an infeasibility certificate: -A*(y) PSD and b.y > 0, given
    AT, the transpose of A."""
    gap = float(b @ y)
    if not np.isfinite(gap) or gap <= 0.0:
        return False, {}
    yn = y / gap
    slack = _unpack(-(AT @ yn), dims)
    margin = min((linalg.psd_margin(M) for M in slack), default=0.0)
    ok = margin >= -PSD_TOL
    return ok, {"farkas_gap": 1.0, "farkas_slack_margin": float(margin)}


# ---------------------------------------------------------------------------
# homogeneous self-dual interior-point core


def _ct(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return M.conj().swapaxes(-1, -2)


def _nt_scaling(X: np.ndarray, S: np.ndarray):
    """Nesterov-Todd factors ``(F, F_inv, d)`` of a block or a (k, n, n) stack
    of blocks, as in the module docstring.  Raises LinAlgError unless every X
    and S is positive definite."""
    L = np.linalg.cholesky(X)
    R = np.linalg.cholesky(S)
    U, d, Vh = np.linalg.svd(_ct(R) @ L)
    if not np.all(d[..., -1] > 0.0):
        raise np.linalg.LinAlgError("iterate left the interior of the cone")
    r = 1.0 / np.sqrt(d)
    return (L @ _ct(Vh)) * r[..., None, :], r[..., :, None] * (_ct(U) @ _ct(R)), d


def _diag(v: np.ndarray) -> np.ndarray:
    """Diagonal matrix of each row of v, as ``np.diag`` on each."""
    return v[..., :, None] * np.eye(v.shape[-1])


def _kron_scratch_size(n: int) -> int:
    """Complex entries of scratch ``_kron_operator`` takes for blocks of side <= n."""
    p = n * (n + 1) // 2
    return p * (3 * p - n)


def _kron_operator(W: np.ndarray, x: np.ndarray, y: np.ndarray, out: np.ndarray,
                   work: np.ndarray) -> np.ndarray:
    """Real n^2 x n^2 matrix of u -> hvec(W hmat(u) W) at positions (x, y),
    built in O(n^4) into ``out``.

    This is W (x) conj(W) in ``hvec`` coordinates.  Column j is W B_j W for
    the j-th ``hvec`` basis element B_j, read at the entries ``hvec`` reads.
    Index both the basis elements and the read entries by positions (x, y):
    the n diagonal ones, then n(n-1)/2 with x < y.  Since (W E_rs W)_xy =
    W_xr W_sy, the products T1 = W_xr W_sy and T2 = W_xs W_ry give every
    entry: E_rr yields T1, (E_rs + E_sr)/sqrt2 yields (T1 + T2)/sqrt2 and
    i(E_rs - E_sr)/sqrt2 yields i(T1 - T2)/sqrt2.  The diagonal rows keep the
    real part, the upper rows sqrt2 times the real and the imaginary part.

    At ``linalg.hvec_positions(n)`` this is the operator itself; at the positions
    pi(p) of a ``_Positions`` block it is the operator with rows and columns
    permuted by that block's ``cols``.  T1 and T2 and their gathers are
    views of ``work`` (see ``_kron_scratch_size``), filled by ``np.take`` in
    "clip" mode, which writes to ``out=`` without buffering.
    """
    n, p = W.shape[0], x.size
    k = p - n
    T1 = work[: p * p].reshape(p, p)
    gather = work[p * p : 2 * p * p]
    T2 = work[2 * p * p : p * (3 * p - n)].reshape(p, k)
    Wx, Wy = W[x], W.T[y]
    np.multiply(np.take(Wx, x, axis=1, out=T1, mode="clip"),
                np.take(Wy, y, axis=1, out=gather.reshape(p, p), mode="clip"), out=T1)
    # upper columns only; T2 = T1 at r = s
    np.multiply(np.take(Wx, y[n:], axis=1, out=T2, mode="clip"),
                np.take(Wy, x[n:], axis=1, out=gather[: p * k].reshape(p, k), mode="clip"),
                out=T2)
    T1u = T1[:, n:]
    r2 = np.sqrt(2.0)
    d, re, im = slice(0, n), slice(n, p), slice(p, None)
    out[d, d] = T1[:n, :n].real
    np.multiply(T1[n:, :n].real, r2, out=out[re, d])
    np.multiply(T1[n:, :n].imag, r2, out=out[im, d])
    np.add(T1u.real, T2.real, out=out[:p, re])
    np.subtract(T2.imag, T1u.imag, out=out[:p, im])
    np.add(T1u[n:].imag, T2[n:].imag, out=out[im, re])
    np.subtract(T1u[n:].real, T2[n:].real, out=out[im, im])
    out[d, n:] /= r2
    return out


def _schur(a_blocks, ops, out: np.ndarray) -> np.ndarray:
    """Schur complement M_ij = sum_k tr(A_ik W_k A_jk W_k), written into the
    Fortran-ordered m x m ``out``, which ``scipy.linalg.cho_factor`` then
    factors in place.

    ``a_blocks`` are ``SdpProblem._a_blocks``, ``ops`` the matching
    ``_kron_operator`` matrices.  A ``_Positions`` block A_k = diag(v) P,
    with P the permutation to ``cols``, adds (v v^T) o K for its operator K,
    built at the block's positions and added to ``out`` 64 rows at a time, so
    each product is a small temporary.  These terms are left as they fall,
    symmetric up to rounding, since the Cholesky factorization reads one
    triangle.  A sparse block adds A_k (A_k W_k)^T
    in O(nnz(A_k) n_k^2), and without a ``_Positions`` block the sum is
    symmetrized.
    """
    sparse = [Ak @ (Ak @ op).T for Ak, op in zip(a_blocks, ops) if not isinstance(Ak, _Positions)]
    if len(sparse) == len(ops):
        M = sum(sparse)
        np.add(M.T, M, out=out)
        out *= 0.5
        return out
    # out.T is C-ordered like the operators, so each pass runs in memory order
    total = out.T
    total.fill(0.0)
    for Ak, op in zip(a_blocks, ops):
        if isinstance(Ak, _Positions):
            for lo in range(0, len(op), 64):
                term = op[lo : lo + 64] * Ak.vals[lo : lo + 64, None]
                term *= Ak.vals
                total[lo : lo + 64] += term
    for S in sparse:
        out += S
    return out


def solve(problem: SdpProblem) -> SdpResult:
    """Solve a block SDP, returning only audited verdicts.

    At most ``MAX_ITERS`` interior-point iterations are taken.  Numerical
    breakdown is reported as "inconclusive" with diagnostics; it never raises.
    """
    names, dims = problem.names, [dim for _, dim in problem.blocks]
    A, b, c = problem.A, problem.b, problem.c
    m, N = A.shape
    has_obj = bool(np.any(c))
    if m == 0:
        # No equalities: with a PSD objective the zero matrix is feasible and
        # minimal; a negative direction of the objective is unbounded below.
        if min((linalg.psd_margin(C) for C in _unpack(c, dims)), default=0.0) < -PSD_TOL:
            return SdpResult(INCONCLUSIVE, None, None, {"iterations": 0.0},
                             "objective unbounded below over the PSD cone")
        _, mats, info = _verify_feasible(A, b, dims, np.zeros(N), obj=c if has_obj else None)
        return SdpResult(FEASIBLE, dict(zip(names, mats)), np.zeros(0), {"iterations": 0.0, **info})

    AT = A.T
    offsets = np.cumsum([0] + [n * n for n in dims])
    # Blocks of one size form a group, which moves through every stage below
    # as one (k, n, n) stack; the operators and ``a_blocks`` are listed group
    # by group.
    sizes = list(dict.fromkeys(dims))
    groups = [[j for j, n in enumerate(dims) if n == size] for size in sizes]
    order = [j for group in groups for j in group]
    a_blocks = [problem._a_blocks[j] for j in order]
    # Each operator's build positions, and per group the coordinates of x its
    # blocks take (``coords``) and those their operators act on (``gathers``):
    # a position block's operator, built at its positions, acts on them
    # permuted to its ``cols``.
    positions = [(Ak.x, Ak.y) if isinstance(Ak, _Positions) else linalg.hvec_positions(dims[j])
                 for j, Ak in zip(order, a_blocks)]
    cols = [Ak.cols if isinstance(Ak, _Positions) else np.arange(n * n)
            for Ak, n in zip(problem._a_blocks, dims)]
    coords = [offsets[group][:, None] + np.arange(n * n) for n, group in zip(sizes, groups)]
    pair_coords = [np.stack([g, N + g]) for g in coords]
    gathers = [offsets[group][:, None] + np.stack([cols[j] for j in group]) for group in groups]
    # One workspace per solve, which every iteration reuses and the return
    # frees whole: the kron scratch, the Schur matrix and the operators, one
    # (k, n^2, n^2) stack per group.  glibc trims its heap only past twice the
    # largest block it has freed, so the next solve finds this one in place
    # rather than faulting it in again.  The Schur matrix shares the kron
    # scratch's slot: its factor is dead while the operators are built
    # (``cho`` is reset first).
    scratch = 2 * _kron_scratch_size(max(dims))
    cuts = np.cumsum([0, max(scratch, m * m)]
                     + [len(group) * n**4 for n, group in zip(sizes, groups)])
    arena = np.empty(cuts[-1])
    work = arena[:scratch].view(complex)
    schur = arena[cuts[1] - m * m : cuts[1]].reshape((m, m), order="F")
    op_stacks = [arena[lo:hi].reshape(len(group), n * n, n * n)
                 for n, group, lo, hi in zip(sizes, groups, cuts[1:], cuts[2:])]
    ops = [op for stack in op_stacks for op in stack]

    def unpack(u, v):
        # per group, the (2, k, n, n) stack of its blocks of u and of v
        uv = np.concatenate([u, v])
        return [linalg.hmat(uv[g], n) for n, g in zip(sizes, pair_coords)]

    def pack(stacks):
        out = np.empty(N)
        for g, M in zip(coords, stacks):
            out[g] = linalg.hvec(M)
        return out

    def apply_w(u):
        # u -> hvec(W hmat(u) W) per block; an operator built at a block's
        # positions acts on its permuted coordinates.
        out = np.empty(N)
        for op, g in zip(op_stacks, gathers):
            out[g] = np.matmul(op, u[g][..., None])[..., 0]
        return out

    x = np.concatenate([linalg.hvec(np.eye(n)) for n in dims])
    s = x.copy()
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0
    cho = None
    nu = sum(dims) + 1
    mu0 = (float(x @ s) + tau * kappa) / nu

    def attempt_classify(diag, endgame):
        # Primal candidate: requires tau bounded away from zero and, when an
        # objective is present, a closed duality gap.  Before the endgame
        # only high-precision candidates are accepted, so that boundary
        # solutions keep polishing instead of exiting at contract tolerance.
        if tau > 1e-9:
            if not has_obj or (x @ s) / (tau * tau) <= 1e-8 * (1.0 + abs(c @ x) / tau):
                xs = x / tau
                if not has_obj and cho is not None:
                    # onto A x = b through the factored M = A W A^T: x - W A^T M^-1 (A x - b)
                    xs -= apply_w(AT @ scipy.linalg.cho_solve(cho, A @ xs - b, check_finite=False))
                ok, mats, info = _verify_feasible(A, b, dims, xs, c if has_obj else None,
                                                  early=not endgame)
                if ok:
                    return SdpResult(FEASIBLE, dict(zip(names, mats)), y / tau, {**diag, **info})
        ok, info = _verify_farkas(AT, b, dims, y)
        if ok:
            return SdpResult(INFEASIBLE, None, y.copy(), {**diag, **info})
        return None

    result = None
    reason = "iteration limit reached"
    it = 0
    try:
        for it in range(1, MAX_ITERS + 1):
            mu = (float(x @ s) + tau * kappa) / nu
            Rp = A @ x - b * tau
            Rd = -(AT @ y) + c * tau - s
            Rg = float(b @ y - c @ x - kappa)
            diag = {
                "iterations": float(it - 1),
                "mu": mu,
                "tau": tau,
                "kappa": kappa,
                "primal_infeas": float(np.linalg.norm(Rp)),
                "dual_infeas": float(np.linalg.norm(Rd)),
            }

            endgame = mu <= GAP_TOL * mu0 or it > MAX_ITERS - 5
            if mu <= 0.5e-2 * mu0 or endgame:
                result = attempt_classify(diag, endgame)
                if result is not None:
                    break
            if mu <= GAP_TOL * mu0 * 1e-4:
                reason = "gap closed without a certifiable verdict"
                break

            # Nesterov-Todd scaling per group, in the frame where the scaled
            # point F^-1 X F^-H = F^H S F = diag(d) is diagonal.
            Fs, Finvs, dls = zip(*(_nt_scaling(*XS) for XS in unpack(x, s)))
            cho = None  # the factor no longer matches the operators rebuilt below
            for W, op, (px, py) in zip((W for F in Fs for W in F @ _ct(F)), ops, positions):
                _kron_operator(W, px, py, op, work)
            # K X K^H = I for K in a group's first stack, K S K^H = I in its second.
            Ks = [np.stack([Fi, _ct(F)]) / np.sqrt(d)[..., None]
                  for F, Fi, d in zip(Fs, Finvs, dls)]

            # Schur complement, factored once per iteration in place; a failed
            # factorization leaves the buffer overwritten, so each attempt
            # rebuilds it from the operators.
            wc = apply_w(c)
            jitter = None
            for _ in range(8):
                _schur(a_blocks, ops, schur)
                if jitter is None:
                    jitter = 1e-14 * (1.0 + float(np.trace(schur)) / m)
                else:
                    jitter *= 100.0
                schur[np.diag_indices(m)] += jitter
                try:
                    cho = scipy.linalg.cho_factor(schur, check_finite=False, overwrite_a=True)
                    break
                except scipy.linalg.LinAlgError:
                    pass
            if cho is None:
                raise np.linalg.LinAlgError("Schur complement not factorable")

            awc = A @ wc
            bw = b - awc
            dy2 = scipy.linalg.cho_solve(cho, bw + 2.0 * awc, check_finite=False)
            # dy2 solves M dy2 = b + A(WcW); bw + 2 A wc == b + A wc.
            alpha_g = float(c @ wc) + kappa / tau

            def direction(eta, rhs_stacks, rtk):
                # diag(d) G + G diag(d) = 2 R per scaled-frame block R.
                r1 = -eta * Rp
                r2 = -eta * Rd
                r3 = -eta * Rg
                ghat = pack([
                    F @ (2.0 * R / (d[..., :, None] + d[..., None, :])) @ _ct(F)
                    for F, d, R in zip(Fs, dls, rhs_stacks)
                ])
                wr2 = apply_w(r2)
                rhs1 = r1 - A @ ghat - A @ wr2
                dy1 = scipy.linalg.cho_solve(cho, rhs1, check_finite=False)
                rhs3 = r3 + float(c @ ghat) + float(c @ wr2) + rtk / tau
                denom = float(bw @ dy2) + alpha_g
                dtau = (rhs3 - float(bw @ dy1)) / denom
                dy = dy1 + dtau * dy2
                ds = -(r2) - (AT @ dy) + c * dtau
                dx = ghat - apply_w(ds)
                dkappa = (rtk - kappa * dtau) / tau
                return dx, dy, ds, dtau, dkappa

            def max_step(dx, ds, dt, dk):
                # Largest alpha <= 1 keeping X, S, tau and kappa nonnegative:
                # one spectrum per group over its 2k scaled directions.
                alpha = 1.0
                for K, dM in zip(Ks, unpack(dx, ds)):
                    lam = float(np.min(np.linalg.eigvalsh(K @ dM @ _ct(K))[..., 0]))
                    if lam < 0:
                        alpha = min(alpha, -1.0 / lam)
                for v, dv in ((tau, dt), (kappa, dk)):
                    if dv < 0:
                        alpha = min(alpha, -v / dv)
                return alpha

            # Predictor (affine scaling) direction.
            aff_rhs = [-_diag(d**2) for d in dls]
            dxa, dya, dsa, dta, dka = direction(1.0, aff_rhs, -tau * kappa)
            a_aff = max_step(dxa, dsa, dta, dka)

            mu_aff = (
                float((x + a_aff * dxa) @ (s + a_aff * dsa))
                + (tau + a_aff * dta) * (kappa + a_aff * dka)
            ) / nu
            sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-8, 1.0 - 1e-8))

            # Corrector with Mehrotra second-order term in the scaled frame.
            corr_rhs = []
            for F, Fi, d, (dX, dS) in zip(Fs, Finvs, dls, unpack(dxa, dsa)):
                Dx = Fi @ dX @ _ct(Fi)
                Ds = _ct(F) @ dS @ F
                corr_rhs.append(_diag(sigma * mu - d**2) - (Dx @ Ds + Ds @ Dx) / 2.0)
            rtk = sigma * mu - tau * kappa - dta * dka
            dx, dy, ds, dt, dk = direction(1.0 - sigma, corr_rhs, rtk)
            alpha = 0.98 * max_step(dx, ds, dt, dk)

            x = x + alpha * dx
            s = s + alpha * ds
            y = y + alpha * dy
            tau += alpha * dt
            kappa += alpha * dk
            if tau <= 0 or kappa <= 0:
                raise np.linalg.LinAlgError("homogenizing variables collapsed")
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, FloatingPointError) as exc:
        reason = f"numerical failure: {exc}"

    if result is None:
        mu = (float(x @ s) + tau * kappa) / nu
        diag = {
            "iterations": float(it),
            "mu": mu,
            "tau": tau,
            "kappa": kappa,
        }
        result = attempt_classify(diag, True)
        if result is None:
            result = SdpResult(INCONCLUSIVE, None, None, diag, reason)
    return result


# ---------------------------------------------------------------------------
# unit scale and the partial transpose in hvec coordinates


def _unit_scale(M) -> float:
    """2**e > max |M|, e from ``np.frexp``: a wrapper's problem is homogeneous,
    so it divides its data by this, exactly, and multiplies its blocks back.
    DomainError unless max |M| is finite and 2**e does not overflow."""
    top = float(np.max(np.abs(M)))
    if not top < 2.0**1023:  # NaN and inf fail too; 2.0**1024 overflows
        raise DomainError("entries must be finite and below 2**1023 in magnitude")
    return 2.0 ** int(np.frexp(top)[1])


def _pt_permutation(dims: tuple[int, int], which: str) -> tuple[np.ndarray, np.ndarray]:
    """``(perm, sign)`` with hvec(PT(X)) = sign * hvec(X)[perm]: the signed
    permutation Q, Q[k, perm[k]] = sign[k], by which the partial transpose PT
    on factor ``which`` ("A" or "B") acts on ``hvec`` coordinates.

    Read off one index matrix: hvec's p-th position (x, y) is marked p + 1
    and its mirror (y, x) -(p + 1).  PT of the marks, read at hvec's
    positions, names the entry each coordinate is taken from; a negative mark
    is an entry below the diagonal, the conjugate of one above it, so an
    imaginary coordinate changes sign.  PT is an orthogonal involution, so Q
    is symmetric.
    """
    n = dims[0] * dims[1]
    x, y = linalg.hvec_positions(n)
    marks = np.zeros((n, n))
    marks[x, y] = np.arange(1, x.size + 1)
    marks[y[n:], x[n:]] = -marks[x[n:], y[n:]]
    moved = linalg.partial_transpose(marks, dims, which).real[x, y]
    pos = np.abs(moved).astype(np.intp) - 1
    perm = np.concatenate([pos, pos[n:] + x.size - n])
    return perm, np.concatenate([np.ones(x.size), np.sign(moved[n:])])


# ---------------------------------------------------------------------------
# decomposability


def decomposability_check(P: choi.QuantumMap) -> SdpResult:
    """Decide whether P splits as CP plus (CP composed with transposition).

    Feasible: ``primal`` holds Hermitian PSD Choi matrices ``cp_part`` and
    ``cocp_part`` with ``cp_part + PT_B(cocp_part)`` reconstructing the Choi
    matrix of P.  Infeasible: ``dual`` is a witness state W, PSD with PSD
    partial transpose and trace one, whose overlap with the Choi matrix of P
    is negative beyond its rounding allowance.
    """
    C = linalg.require_hermitian(P.choi)
    D = C.shape[0]
    N = D * D
    H = C / 2.0 + C.conj().T / 2.0
    unit = _unit_scale(H)
    perm, sign = _pt_permutation(P.dims, "B")
    # hvec(C1) + Q hvec(C2) == hvec(H): row k of [I | Q], at unit scale.
    A = _csr([(np.column_stack([np.arange(N), N + perm]), np.column_stack([np.ones(N), sign]))],
             2 * N)
    blocks = (("cp_part", D), ("cocp_part", D))
    res = solve(SdpProblem(blocks, A, linalg.hvec(H / unit), np.zeros(2 * N)))

    if res.status == FEASIBLE:
        # in place: fresh copies, kept by the caller, would raise a run's peak RSS
        C1, C2 = res.primal["cp_part"], res.primal["cocp_part"]
        C1 *= unit
        C2 *= unit
        recon = C1 + linalg.partial_transpose(C2, P.dims, "B")
        scale = 1.0 + float(np.max(np.abs(C)))
        err = float(np.max(np.abs(recon - C))) / scale
        m1, m2 = linalg.psd_margin(C1), linalg.psd_margin(C2)
        if err <= FEAS_TOL and m1 >= -PSD_TOL and m2 >= -PSD_TOL:
            return SdpResult(FEASIBLE, {"cp_part": C1, "cocp_part": C2}, None, {
                **res.residuals, "reconstruction_error": err, "cp_margin": m1, "cocp_margin": m2})
        return SdpResult(INCONCLUSIVE, None, None, {**res.residuals, "reconstruction_error": err},
                         "decomposition fails its re-check")

    if res.status == INFEASIBLE:
        V = -linalg.hmat(res.dual, D)
        t = float(np.real(np.trace(V)))
        if t <= 0.0:
            return SdpResult(INCONCLUSIVE, None, None, dict(res.residuals),
                             "witness has non-positive trace")
        # V is PPT only to the solver's tolerance.  W = V + delta I is PPT by
        # the computed spectra, and tr(W C) >= 0 for every decomposable C, so
        # only a tr(W C) negative beyond its rounding refutes decomposability.
        # The eigenvalues and the trace of the product are each within a few
        # D * eps of the norms involved; an error e in delta moves tr(W C) by
        # e tr C.  All of it is computed on C / unit, exact and free of
        # overflow, and reported at C's scale.
        V, C = V / t, C / unit
        mV, mG = linalg.min_eig(V), linalg.min_eig(linalg.partial_transpose(V, P.dims, "B"))
        delta = max(0.0, -mV, -mG)
        trace_c = float(np.real(np.trace(C)))
        overlap = float(np.real(np.trace(V @ C))) + delta * trace_c
        rounding = 8.0 * D * np.finfo(float).eps * float(np.linalg.norm(V)) * (
            float(np.linalg.norm(C)) + abs(trace_c))
        info = {**res.residuals, "witness_overlap": overlap * unit, "witness_margin": mV,
                "witness_pt_margin": mG, "witness_shift": delta,
                "rounding_allowance": rounding * unit}
        if overlap >= -rounding:
            return SdpResult(INCONCLUSIVE, None, None, info, "witness fails its re-check")
        if delta > 0.0:  # W / tr W; unshifted, that is V as it stands
            W = V + delta * np.eye(D)
            t = float(np.real(np.trace(W)))
            V, info["witness_overlap"] = W / t, overlap / t * unit
        return SdpResult(INFEASIBLE, None, V, info)

    return res


# ---------------------------------------------------------------------------
# Gaussian split


def gaussian_eb_split(Y, X) -> SdpResult:
    """Split Y = N + M with M - i*sigma >= 0 and N - i*X sigma X^T >= 0.

    Existence of such a split certifies entanglement breaking for the
    Gaussian channel with matrices (X, Y).  Feasible: ``primal`` holds the
    real symmetric parts {"M": M, "N": N}, re-audited on the complex side.
    Complex-typed, non-numeric or non-finite Y or X raises DomainError; a
    float cast would drop an imaginary part.
    """
    Y, X = _real_finite(Y, "Y"), _real_finite(X, "X")
    if Y.ndim != 2 or Y.shape[0] != Y.shape[1] or Y.shape[0] % 2:
        raise DimMismatch(f"Y must be square even-dimensional, got {Y.shape}")
    if X.shape != Y.shape:
        raise DimMismatch(f"X shape {X.shape} does not match Y shape {Y.shape}")
    linalg.require_hermitian(Y)
    scale = max(1.0, float(np.max(np.abs(Y))))
    n = Y.shape[0] // 2
    sig = linalg.symplectic_form(n)
    xsx = X @ sig @ X.T
    K = Y - 1j * (sig + xsx)
    # The split is homogeneous in (Y, sigma, X sigma X^T) jointly: solve at unit scale.
    unit = _unit_scale(K)
    K = (K / 2.0 + K.conj().T / 2.0) / unit

    width = 4 * n * n
    k = np.arange(width)
    # hvec(M) + hvec(N) == hvec(K): row k of [I | I]; then the imaginary part
    # of M is pinned to -sigma: the trailing coordinates read sqrt2 Im M_pq (p < q).
    im = k[n * (2 * n + 1) :]
    A = _csr([(np.column_stack([k, width + k]), np.ones((width, 2))),
              (im[:, None], np.ones((im.size, 1)))], 2 * width)
    b = np.concatenate([linalg.hvec(K), -np.sqrt(2.0) * sig[np.triu_indices(2 * n, 1)] / unit])
    res = solve(SdpProblem((("part_m", 2 * n), ("part_n", 2 * n)), A, b, np.zeros(2 * width)))

    if res.status == FEASIBLE:
        Mt = res.primal["part_m"] * unit
        M = Mt.real
        M = (M + M.T) / 2.0
        N = Y - M
        im_err = float(np.max(np.abs(Mt.imag + sig)))
        mM = linalg.psd_margin(M - 1j * sig)
        mN = linalg.psd_margin(N - 1j * xsx)
        if mM >= -PSD_TOL and mN >= -PSD_TOL and im_err <= FEAS_TOL * scale:
            return SdpResult(FEASIBLE, {"M": M, "N": N}, None,
                             {**res.residuals, "measured_margin": mM, "remainder_margin": mN})
        return SdpResult(INCONCLUSIVE, None, None, {**res.residuals, "im_error": im_err},
                         "split fails its re-check")
    return res


# ---------------------------------------------------------------------------
# operator-norm bound by a transpose split


def cb_split_bound(P: choi.QuantumMap) -> SdpResult:
    """Upper bound on ||P||_{inf->inf} from a split P = A + B∘θ (θ the transpose).

    θ is an isometry of the operator norm, so ||P|| <= ||A||_cb + ||B||_cb,
    and the bound minimizes the right side (for P = -p θ it is |p|, with
    A = 0).  ||A||_cb is the diamond norm of the adjoint (Watrous, "Simpler
    semidefinite programs for completely bounded norms", 2013); for a
    Hermitian Choi matrix J(A) it is the least ||Tr_in Y|| over Y >= +-J(A),
    attained at Y = P_A + N_A with J(A) = P_A - N_A and P_A, N_A PSD.  The
    Hermitian part H of J(P) is split as J(A) + PT_A(J(B)); the
    anti-Hermitian part adds its block-norm sum.

    Feasible: ``residuals["upper_bound"]`` is re-derived from the returned
    blocks alone.  J(B) = P_B - N_B, J(A) is defined as H - PT_A(J(B)) so
    that the split is exact, each Y is shifted up until Y >= +-J holds by
    its computed eigenvalues, and a rounding allowance is added; every
    margin counts against the bound.  ``primal`` holds ``j_a``, ``j_b`` and
    the shifted ``y_a``, ``y_b``.
    """
    C = P.choi
    if not np.all(np.isfinite(C)):
        raise DomainError("Choi matrix entries must be finite")
    din, dout = P.dims
    D = din * dout
    H = C / 2.0 + C.conj().T / 2.0
    anti = linalg.block_norm_sum(C - H, P.dims)
    unit = _unit_scale(H)  # the bound is homogeneous: solve at unit scale
    H = H / unit
    N, n_out = D * D, dout * dout
    t = 4 * N + 2 * n_out
    perm, sign = _pt_permutation(P.dims, "A")
    k = np.arange(N)
    # hvec(P_A - N_A) + Q hvec(P_B - N_B) == hvec(H): row k of [I | -I | Q | -Q].
    one = np.ones(N)
    groups = [(np.column_stack([k, N + k, 2 * N + perm, 3 * N + perm]),
               np.column_stack([one, -one, sign, -sign]))]
    # ||Tr_in(P_X + N_X)|| <= t_X, as Tr_in(P_X + N_X) + S_X = t_X I, S_X PSD: row j,
    # for coordinate j of M_dout at (a, b), sums P_X and N_X at (i dout + a, i dout + b),
    # i < din, and coordinate j of S_X, less t_X when a == b.
    x, y = linalg.hvec_positions(D)
    position = np.zeros((D, D), dtype=np.intp)
    position[x, y] = np.arange(x.size)
    xo, yo, i = *linalg.hvec_positions(dout), dout * np.arange(din)[:, None]
    lifted = position[xo + i, yo + i].T
    lifted = np.concatenate([lifted, lifted[dout:] + (x.size - D)])  # imaginary coordinates
    for side in (0, 1):  # A, then B
        cols = np.hstack([2 * side * N + lifted, (2 * side + 1) * N + lifted,
                          4 * N + side * n_out + np.arange(n_out)[:, None]])
        vals = np.ones(cols.shape)
        groups += [(np.hstack([cols[:dout], np.full((dout, 1), t + side)]),
                    np.hstack([vals[:dout], np.full((dout, 1), -1.0)])), (cols[dout:], vals[dout:])]
    blocks = tuple((k, D) for k in ("pa", "na", "pb", "nb")) + (("sa", dout), ("sb", dout),
                                                                 ("ta", 1), ("tb", 1))
    c = np.concatenate([np.zeros(t), [1.0, 1.0]])
    b = np.concatenate([linalg.hvec(H), np.zeros(2 * n_out)])
    res = solve(SdpProblem(blocks, _csr(groups, c.size), b, c))
    if res.status != FEASIBLE:
        return res

    X = res.primal
    j_b = X["pb"] - X["nb"]
    j_a = H - linalg.partial_transpose(j_b, P.dims, "A")
    primal, norms = {"j_a": j_a, "j_b": j_b}, {}
    for key, J, Y in (("a", j_a, X["pa"] + X["na"]), ("b", j_b, X["pb"] + X["nb"])):
        shift = max(0.0, -float(np.linalg.eigvalsh(Y - J)[0]), -float(np.linalg.eigvalsh(Y + J)[0]))
        primal["y_" + key] = Y + shift * np.eye(D)
        norms[key] = linalg.operator_norm(linalg.partial_trace(primal["y_" + key], P.dims, "A"))
    # eigenvalues, partial traces and the subtractions above are each within
    # a few D * eps of their matrices' norms, and a shift of the blocks by
    # that much moves ||Tr_in Y|| by din times it
    scale = sum(linalg.operator_norm(M) for M in (H, j_b, X["pa"] + X["na"], X["pb"] + X["nb"]))
    rounding = float(8.0 * din * D * np.finfo(float).eps * scale) * unit
    norms = {k: v * unit for k, v in norms.items()}
    upper = norms["a"] + norms["b"] + anti + rounding
    return SdpResult(FEASIBLE, {k: M * unit for k, M in primal.items()}, None, {
        **res.residuals, "cb_norm_a": norms["a"], "cb_norm_b": norms["b"],
        "anti_hermitian_bound": anti, "rounding_allowance": rounding, "upper_bound": upper,
    })


# ---------------------------------------------------------------------------
# counterexample search


def _seesaw_problem(d: int) -> SdpProblem:
    """The inner SDP over PPT inputs T on M_d, with a zero objective: blocks
    ``choi_t`` = C_T and ``choi_t_pt`` = PT_B(C_T), both PSD, and tr C_T = d."""
    D = d * d
    N = D * D
    perm, sign = _pt_permutation((d, d), "B")
    # Q hvec(C_T) - hvec(G) == 0 couples G to the partial transpose: row k of
    # [Q | -I]; the last row is tr C_T == d.
    A = _csr([(np.column_stack([perm, N + np.arange(N)]), np.column_stack([sign, -np.ones(N)])),
              (np.arange(D)[None, :], np.ones((1, D)))], 2 * N)
    b = np.zeros(N + 1)
    b[-1] = d
    return SdpProblem((("choi_t", D), ("choi_t_pt", D)), A, b, np.zeros(2 * N))


def counterexample_search(
    P: choi.QuantumMap, restarts: int = 16, max_rounds: int = 40, seed: int = 0
) -> Report:
    """Seesaw hunt for a PPT input T making P compose T non-decomposable.

    Alternates an SDP over PPT Choi matrices C_T minimizing
    <psi| (id (x) P)(C_T) |psi> with an exact eigenvector update of psi, for
    up to ``max_rounds`` rounds in each of ``restarts`` seeded restarts.
    The objective is non-increasing across rounds.  On finding a negative
    value the composition P after T is handed to ``decomposability_check``
    and its verdict, with verified evidence, enters the report.  Budgets
    and the seed must be integers >= 0 (DomainError otherwise); past that
    check it never raises, and solver breakdowns are reported in the trace.
    """
    for name, value in (("restarts", restarts), ("max_rounds", max_rounds), ("seed", seed)):
        if not is_count(value, 0):
            raise DomainError(f"{name} must be an integer >= 0, got {value!r}")
    d, dp = P.din, P.dout
    problem = _seesaw_problem(d)
    id_in = choi.identity_map(d)
    adjP = choi.adjoint(P)
    probe = choi.tensor(id_in, adjP)

    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(restarts)]
    trace: list[dict] = []
    best = {"value": np.inf, "choi_t": None, "psi": None, "restart": -1}
    sdp_failures = 0

    for r in range(restarts):
        if r == 0 and d == dp:
            psi = linalg.max_entangled_vector(d) / np.sqrt(d)
        else:
            psi = linalg.random_pure_state(d * dp, rngs[r])
        prev = np.inf
        stall = 0
        for k in range(max_rounds):
            F = choi.apply(probe, np.outer(psi, psi.conj()))
            F = (F + F.conj().T) / 2.0
            c = np.concatenate([linalg.hvec(F), np.zeros(F.size)])  # no choi_t_pt term
            res = solve(dataclasses.replace(problem, c=c))
            if res.status != FEASIBLE:
                sdp_failures += 1
                trace.append(
                    {"restart": r, "round": k, "status": res.status, "value": None}
                )
                break
            CT = res.primal["choi_t"]
            T = choi.QuantumMap(d, d, CT)
            comp = choi.compose(P, T).choi
            w, V = linalg.eig_hermitian(comp)
            value = float(w[0])
            psi = V[:, 0]
            trace.append(
                {
                    "restart": r,
                    "round": k,
                    "status": res.status,
                    "sdp_objective": float(res.residuals.get("objective", np.nan)),
                    "value": value,
                }
            )
            if value < best["value"]:
                best = {"value": value, "choi_t": CT, "psi": psi, "restart": r}
            if value < SEARCH_VALUE_TOL:
                break
            if prev - value < SEARCH_IMPROVE_TOL:
                stall += 1
                if stall >= SEARCH_PATIENCE:
                    break
            else:
                stall = 0
            prev = value
        if best["value"] < SEARCH_VALUE_TOL:
            break

    CT = best["choi_t"]
    evidence = [
        {"name": "best-objective", "data": None if CT is None else float(best["value"])},
        {"name": "sdp-failures", "data": sdp_failures},
    ]
    tolerances = {"success_value": SEARCH_VALUE_TOL, "improve_tol": SEARCH_IMPROVE_TOL,
                  "psd_tol": PSD_TOL, "equality_tol": FEAS_TOL}

    def report(status):
        return Report("counterexample_search", status, evidence, seed, tolerances, trace)

    if CT is None:
        return report("inconclusive")
    # The returned input map with its audit: PSD, PPT, normalized trace.
    margins = {
        "psd": linalg.psd_margin(CT),
        "pt": linalg.psd_margin(linalg.partial_transpose(CT, (d, d), "B")),
        "trace_error": abs(float(np.real(np.trace(CT))) - d),
    }
    evidence += [{"name": "input-choi", "data": CT}, {"name": "probe-state", "data": best["psi"]},
                 {"name": "input-ppt-margins", "data": margins}]
    if best["value"] >= SEARCH_VALUE_TOL:
        return report("no-violation-found")

    dec = decomposability_check(choi.compose(P, choi.QuantumMap(d, d, CT)))
    evidence.append({"name": "composition-decomposability",
                     "data": {"status": dec.status, "residuals": dec.residuals}})
    if dec.status == FEASIBLE:
        return report("composition-decomposable")
    if dec.status == INFEASIBLE:
        evidence.append({"name": "non-decomposability-witness", "data": dec.dual})
        return report("composition-not-decomposable")
    return report("decomposability-unresolved")
