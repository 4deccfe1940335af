"""Semidefinite feasibility solver and the checks built on it.

Problems are block-diagonal SDPs over complex Hermitian PSD matrices with
trace equality constraints.  The solver is a homogeneous self-dual
interior-point method with Nesterov-Todd scaling (Todd, Toh and Tutuncu,
SIAM J. Optim. 8, 1998) and a Mehrotra predictor-corrector step.  Each block
is packed into its n^2 real coordinates with ``linalg.hvec``, and an
``SdpProblem`` is that packed system alone: a sparse equality matrix A, b
and c, checked when it is built.  ``SdpProblem.from_matrices`` packs
equalities given as Hermitian coefficient matrices, each block's checked as
one stack under ``linalg.require_hermitian``.  The decomposability,
Gaussian-split and counterexample-search problems are written in ``hvec``
coordinates directly, in O(D^2): the Hermitian basis element B_k is s_k
times the k-th ``hvec`` unit vector (s from ``_basis_scale``), and the
partial transpose permutes ``hvec`` coordinates up to sign, hvec(PT(X)) =
Q hvec(X) (``_pt_permutation``), so each of their equalities has one
nonzero per block.  Per iteration each block's scaling takes two Cholesky
factors and one SVD, X = L L^H, S = R R^H and R^H L = U diag(d) Vh, and no
eigendecomposition: F = L Vh^H d^-1/2 and F^-1 = d^-1/2 U^H R^H give the
scaled point F^-1 X F^-H = F^H S F = diag(d), so the Lyapunov solve is
elementwise.  The scaling X -> W X W, W = F F^H, is one real n^2 x n^2
matrix, W (x) conj(W) in ``hvec`` coordinates, built in O(n^4); the Schur
complement A W A^T is assembled from it and the sparse A (Fujisawa, Kojima
and Nakata, Math. Prog. 79, 1997), so a decomposability check on D x D
blocks costs O(D^4) outside the Cholesky factorization.
Every verdict is re-checked outside the solver: "feasible" is claimed only
after the returned blocks pass an independent PSD and residual audit, and
"infeasible" only with a verified separating functional.  The PSD audits
are ``linalg.psd_margin`` against ``PSD_TOL``, which is ``linalg.TOL_PSD``
itself: the package's one PSD rule.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

from . import choi, linalg
from .errors import DimMismatch, DomainError, PreconditionFailed
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
    ``from_matrices`` builds a problem from coefficient matrices.
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
        object.__setattr__(self, "_a_blocks", [A[:, lo:hi] for lo, hi in zip(offsets, offsets[1:])])

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
        if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
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


def _pack(mats: Sequence[np.ndarray]) -> np.ndarray:
    """``linalg.hvec`` coordinates of Hermitian blocks, or stacks of them, end to end."""
    return np.concatenate([linalg.hvec(M) for M in mats], axis=-1)


def _unpack(v: np.ndarray, dims: Sequence[int]) -> list[np.ndarray]:
    """Inverse of ``_pack``: the Hermitian blocks of sides ``dims``."""
    out, lo = [], 0
    for n in dims:
        out.append(linalg.hmat(v[..., lo : lo + n * n], n))
        lo += n * n
    return out


# ---------------------------------------------------------------------------
# independent verification of solver claims


def _verify_feasible(A, b, dims, xs, obj=None):
    """Audit a primal candidate: PSD blocks and equality residuals."""
    mats = _unpack(xs, dims)
    margin = min((linalg.psd_margin(M) for M in mats), default=0.0)
    if b.size:
        rel = float(np.max(np.abs(A @ xs - b))) / (1.0 + float(np.max(np.abs(b))))
    else:
        rel = 0.0
    ok = margin >= -PSD_TOL and rel <= FEAS_TOL
    info = {"primal_psd_margin": float(margin), "equality_residual": rel}
    if obj is not None:
        info["objective"] = float(obj @ xs)
    return ok, mats, info


def _verify_farkas(A, b, dims, y):
    """Audit an infeasibility certificate: -A*(y) PSD and b.y > 0."""
    gap = float(b @ y)
    if not np.isfinite(gap) or gap <= 0.0:
        return False, {}
    yn = y / gap
    slack = _unpack(-(A.T @ yn), dims)
    margin = min((linalg.psd_margin(M) for M in slack), default=0.0)
    ok = margin >= -PSD_TOL
    return ok, {"farkas_gap": 1.0, "farkas_slack_margin": float(margin)}


# ---------------------------------------------------------------------------
# homogeneous self-dual interior-point core


def _nt_scaling(X: np.ndarray, S: np.ndarray):
    """Nesterov-Todd factor ``(F, F_inv, d)`` of one block, as in the module
    docstring.  Raises LinAlgError unless X and S are positive definite."""
    L = np.linalg.cholesky(X)
    R = np.linalg.cholesky(S)
    U, d, Vh = np.linalg.svd(R.conj().T @ L)
    if not d[-1] > 0.0:
        raise np.linalg.LinAlgError("iterate left the interior of the cone")
    r = 1.0 / np.sqrt(d)
    return (L @ Vh.conj().T) * r, r[:, None] * (U.conj().T @ R.conj().T), d


@lru_cache(maxsize=None)
def _hvec_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Entries (x, y) that ``linalg.hvec`` reads: the diagonal, then the strict
    # upper triangle in row-major order.
    iu = np.triu_indices(n, 1)
    x = np.concatenate([np.arange(n), iu[0]])
    y = np.concatenate([np.arange(n), iu[1]])
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


def _kron_operator(W: np.ndarray) -> np.ndarray:
    """Real n^2 x n^2 matrix of u -> hvec(W hmat(u) W), built in O(n^4).

    This is W (x) conj(W) in ``hvec`` coordinates.  Column j is W B_j W for
    the j-th ``hvec`` basis element B_j, read at the entries ``hvec`` reads.
    Index both the basis elements and the read entries by positions (x, y),
    x <= y.  Since (W E_rs W)_xy = W_xr W_sy, the products T1 = W_xr W_sy
    and T2 = W_xs W_ry give every entry: E_rr yields T1, (E_rs + E_sr)/sqrt2
    yields (T1 + T2)/sqrt2 and i(E_rs - E_sr)/sqrt2 yields i(T1 - T2)/sqrt2.
    The diagonal rows keep the real part, the upper rows sqrt2 times the real
    and the imaginary part.
    """
    n = W.shape[0]
    k = n * (n - 1) // 2
    x, y = _hvec_positions(n)
    Wx, Wy = W[x], W.T[y]
    T1 = Wx[:, x] * Wy[:, y]
    T2 = Wx[:, y[n:]] * Wy[:, x[n:]]  # upper columns only; T2 = T1 at r = s
    T1u = T1[:, n:]
    r2 = np.sqrt(2.0)
    d, re, im = slice(0, n), slice(n, n + k), slice(n + k, None)
    out = np.empty((n * n, n * n))
    out[d, d] = T1[:n, :n].real
    out[re, d] = r2 * T1[n:, :n].real
    out[im, d] = r2 * T1[n:, :n].imag
    np.add(T1u.real, T2.real, out=out[: n + k, re])
    np.subtract(T2.imag, T1u.imag, out=out[: n + k, im])
    np.add(T1u[n:].imag, T2[n:].imag, out=out[im, re])
    np.subtract(T1u[n:].real, T2[n:].real, out=out[im, im])
    out[d, n:] /= r2
    return out


def _schur(A_blocks, Wops) -> np.ndarray:
    """Schur complement M_ij = sum_k tr(A_ik W_k A_jk W_k), symmetrized in place.

    ``A_blocks`` are the sparse column blocks of A, ``Wops`` the matching
    ``_kron_operator`` matrices; each block costs O(nnz(A_k) n_k^2).
    """
    M = sum(Ak @ (Ak @ Wk).T for Ak, Wk in zip(A_blocks, Wops))
    M = M.T + M
    M *= 0.5
    return M


def solve(problem: SdpProblem, max_iters: int = 200) -> SdpResult:
    """Solve a block SDP, returning only audited verdicts.

    At most ``max_iters`` interior-point iterations are taken.  Numerical
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
    spans = list(zip(offsets, offsets[1:]))

    x = _pack([np.eye(n) for n in dims])
    s = x.copy()
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0
    nu = sum(dims) + 1
    mu0 = (float(x @ s) + tau * kappa) / nu

    def attempt_classify(diag, endgame):
        # Primal candidate: requires tau bounded away from zero and, when an
        # objective is present, a closed duality gap.  Before the endgame
        # only high-precision candidates are accepted, so that boundary
        # solutions keep polishing instead of exiting at contract tolerance.
        feas_tol = FEAS_TOL if endgame else 1e-2 * FEAS_TOL
        psd_tol = PSD_TOL if endgame else 1e-1 * PSD_TOL
        if tau > 1e-9:
            if not has_obj or (x @ s) / (tau * tau) <= 1e-8 * (1.0 + abs(c @ x) / tau):
                ok, mats, info = _verify_feasible(
                    A, b, dims, x / tau, obj=c if has_obj else None
                )
                certified = (
                    info["primal_psd_margin"] >= -psd_tol
                    and info["equality_residual"] <= feas_tol
                )
                if ok and certified:
                    return SdpResult(
                        FEASIBLE,
                        dict(zip(names, mats)),
                        y / tau,
                        {**diag, **info},
                    )
        ok, info = _verify_farkas(A, b, dims, y)
        if ok:
            return SdpResult(INFEASIBLE, None, y.copy(), {**diag, **info})
        return None

    result = None
    reason = "iteration limit reached"
    it = 0
    try:
        for it in range(1, max_iters + 1):
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

            endgame = mu <= GAP_TOL * mu0 or it > max_iters - 5
            if mu <= 0.5e-2 * mu0 or endgame:
                result = attempt_classify(diag, endgame)
                if result is not None:
                    break
            if mu <= GAP_TOL * mu0 * 1e-4:
                reason = "gap closed without a certifiable verdict"
                break

            # Nesterov-Todd scaling per block, in the frame where the scaled
            # point F^-1 X F^-H = F^H S F = diag(d) is diagonal.
            Fs, Finvs, dls = zip(*map(_nt_scaling, _unpack(x, dims), _unpack(s, dims)))
            Wops = [_kron_operator(F @ F.conj().T) for F in Fs]
            # K X K^H = I for K in Kx, K S K^H = I for K in Ks.
            Kx = [Fi / np.sqrt(d)[:, None] for Fi, d in zip(Finvs, dls)]
            Ks = [F.conj().T / np.sqrt(d)[:, None] for F, d in zip(Fs, dls)]

            def apply_w(u):
                # u -> hvec(W hmat(u) W) per block.
                return np.concatenate([Wk @ u[lo:hi] for Wk, (lo, hi) in zip(Wops, spans)])

            # Schur complement, factored once per iteration.
            wc = apply_w(c)
            Schur = _schur(problem._a_blocks, Wops)
            jitter = 1e-14 * (1.0 + float(np.trace(Schur)) / max(m, 1))
            cho = None
            for _ in range(8):
                try:
                    # jitter on a copy's diagonal, factored in place: one m x m array, not four
                    shifted = Schur.copy()
                    shifted[np.diag_indices(m)] += jitter
                    cho = scipy.linalg.cho_factor(shifted, check_finite=False, overwrite_a=True)
                    break
                except scipy.linalg.LinAlgError:
                    jitter *= 100.0
            if cho is None:
                raise np.linalg.LinAlgError("Schur complement not factorable")

            bw = b - A @ wc
            dy2 = scipy.linalg.cho_solve(cho, bw + 2.0 * (A @ wc), check_finite=False)
            # dy2 solves M dy2 = b + A(WcW); bw + 2 A wc == b + A wc.
            alpha_g = float(c @ wc) + kappa / tau

            def direction(eta, rhs_blocks, rtk):
                # diag(d) G + G diag(d) = 2 R per scaled-frame block R.
                r1 = -eta * Rp
                r2 = -eta * Rd
                r3 = -eta * Rg
                ghat = _pack([
                    F @ (2.0 * Rk / (d[:, None] + d[None, :])) @ F.conj().T
                    for F, d, Rk in zip(Fs, dls, rhs_blocks)
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
                # Largest alpha <= 1 keeping X, S, tau and kappa nonnegative.
                alpha = 1.0
                for K, dM in zip(Kx + Ks, _unpack(dx, dims) + _unpack(ds, dims)):
                    lam = float(np.linalg.eigvalsh(K @ dM @ K.conj().T)[0])
                    if lam < 0:
                        alpha = min(alpha, -1.0 / lam)
                for v, dv in ((tau, dt), (kappa, dk)):
                    if dv < 0:
                        alpha = min(alpha, -v / dv)
                return alpha

            # Predictor (affine scaling) direction.
            aff_rhs = [-np.diag(d**2) for d in dls]
            dxa, dya, dsa, dta, dka = direction(1.0, aff_rhs, -tau * kappa)
            a_aff = max_step(dxa, dsa, dta, dka)

            mu_aff = (
                float((x + a_aff * dxa) @ (s + a_aff * dsa))
                + (tau + a_aff * dta) * (kappa + a_aff * dka)
            ) / nu
            sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-8, 1.0 - 1e-8))

            # Corrector with Mehrotra second-order term in the scaled frame.
            corr_rhs = []
            for F, Fi, d, dX, dS in zip(Fs, Finvs, dls, _unpack(dxa, dims), _unpack(dsa, dims)):
                Dx = Fi @ dX @ Fi.conj().T
                Ds = F.conj().T @ dS @ F
                corr_rhs.append(np.diag(sigma * mu - d**2) - (Dx @ Ds + Ds @ Dx) / 2.0)
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
# Hermitian basis


def _basis_scale(n: int) -> np.ndarray:
    # B_k = scale_k hmat(e_k): 1 on the diagonal coordinates, sqrt2 elsewhere.
    scale = np.full(n * n, np.sqrt(2.0))
    scale[:n] = 1.0
    return scale


def _hermitian_basis(n: int) -> np.ndarray:
    """Orthogonal Hermitian basis of M_n as an (n^2, n, n) stack.

    In ``linalg.hvec`` order: E_pp, then E_pq + E_qp, then i E_pq - i E_qp
    for p < q in row-major order.
    """
    return linalg.hmat(np.diag(_basis_scale(n)), n)


def _basis_coords(M: np.ndarray) -> np.ndarray:
    """Re tr(B_k M) for the ``_hermitian_basis`` elements B_k, without the basis.

    This is ``hvec`` of the Hermitian part of M scaled by ``_basis_scale``:
    Re M_pp, then Re(M_pq + M_qp) and Im(M_pq - M_qp) for p < q.  An entry
    that overflows is left infinite for ``SdpProblem`` to reject.
    """
    n = M.shape[-1]
    x, y = _hvec_positions(n)
    upper, lower = M[x, y], M[y, x]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate([upper[:n].real, (upper + lower)[n:].real,
                               (upper - lower)[n:].imag])


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
    x, y = _hvec_positions(n)
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
    s = _basis_scale(D)
    perm, sign = _pt_permutation(P.dims, "B")
    # tr(B_k C1) + tr(PT_B(B_k) C2) == tr(B_k C) for each basis element B_k:
    # row k of [diag(s) | diag(s) Q].
    A = _csr([(np.column_stack([np.arange(N), N + perm]), np.column_stack([s, s * sign]))], 2 * N)
    blocks = (("cp_part", D), ("cocp_part", D))
    res = solve(SdpProblem(blocks, A, _basis_coords(C), np.zeros(2 * N)))

    if res.status == FEASIBLE:
        C1, C2 = res.primal["cp_part"], res.primal["cocp_part"]
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
        V = -linalg.hmat(res.dual * s, D)
        t = float(np.real(np.trace(V)))
        if t <= 0.0:
            return SdpResult(INCONCLUSIVE, None, None, dict(res.residuals),
                             "witness has non-positive trace")
        # V is PPT only to the solver's tolerance.  W = V + delta I is PPT by
        # the computed spectra, and tr(W C) >= 0 for every decomposable C, so
        # only a tr(W C) negative beyond its rounding refutes decomposability.
        # The eigenvalues and the trace of the product are each within a few
        # D * eps of the norms involved; an error e in delta moves tr(W C) by
        # e tr C.
        V = V / t
        mV, mG = linalg.min_eig(V), linalg.min_eig(linalg.partial_transpose(V, P.dims, "B"))
        delta = max(0.0, -mV, -mG)
        trace_c = float(np.real(np.trace(C)))
        overlap = float(np.real(np.trace(V @ C))) + delta * trace_c
        rounding = 8.0 * D * np.finfo(float).eps * float(np.linalg.norm(V)) * (
            float(np.linalg.norm(C)) + abs(trace_c))
        info = {**res.residuals, "witness_overlap": overlap, "witness_margin": mV,
                "witness_pt_margin": mG, "witness_shift": delta, "rounding_allowance": rounding}
        if overlap >= -rounding:
            return SdpResult(INCONCLUSIVE, None, None, info, "witness fails its re-check")
        if delta > 0.0:  # W / tr W; unshifted, that is V as it stands
            W = V + delta * np.eye(D)
            t = float(np.real(np.trace(W)))
            V, info["witness_overlap"] = W / t, overlap / t
        return SdpResult(INFEASIBLE, None, V, info)

    return res


# ---------------------------------------------------------------------------
# Gaussian split


def gaussian_eb_split(Y, X) -> SdpResult:
    """Split Y = N + M with M - i*sigma >= 0 and N - i*X sigma X^T >= 0.

    Existence of such a split certifies entanglement breaking for the
    Gaussian channel with matrices (X, Y).  Feasible: ``primal`` holds the
    real symmetric parts {"M": M, "N": N}, re-audited on the complex side.
    """
    Y = np.asarray(Y, dtype=float)
    X = np.asarray(X, dtype=float)
    if Y.ndim != 2 or Y.shape[0] != Y.shape[1] or Y.shape[0] % 2:
        raise DimMismatch(f"Y must be square even-dimensional, got {Y.shape}")
    if X.shape != Y.shape:
        raise DimMismatch(f"X shape {X.shape} does not match Y shape {Y.shape}")
    if not np.all(np.isfinite(X)):
        raise DomainError("X entries must be finite")
    linalg.require_hermitian(Y)
    scale = max(1.0, float(np.max(np.abs(Y))))
    n = Y.shape[0] // 2
    sig = linalg.symplectic_form(n)
    xsx = X @ sig @ X.T
    K = Y - 1j * (sig + xsx)

    width = 4 * n * n
    s = _basis_scale(2 * n)
    k = np.arange(width)
    # tr(B_k M) + tr(B_k N) == tr(B_k K) for each basis element B_k of M_2n:
    # row k of [diag(s) | diag(s)]; then the imaginary part of M is pinned to
    # -sigma: the trailing coordinates, of i E_pq - i E_qp (p < q), give
    # tr(B_k M) = 2 Im M_pq.
    im = k[n * (2 * n + 1) :]
    A = _csr([(np.column_stack([k, width + k]), np.column_stack([s, s])),
              (im[:, None], s[im, None])], 2 * width)
    b = np.concatenate([_basis_coords(K), -2.0 * sig[np.triu_indices(2 * n, 1)]])
    res = solve(SdpProblem((("part_m", 2 * n), ("part_n", 2 * n)), A, b, np.zeros(2 * width)))

    if res.status == FEASIBLE:
        Mt = res.primal["part_m"]
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
    # The bound is homogeneous, so solve at unit scale; a power of two
    # rescales exactly.
    exponent = int(np.frexp(np.max(np.abs(H)))[1])
    if exponent > 1023:  # 2.0**1024 overflows
        raise DomainError("Choi matrix entries must be below 2**1023 in magnitude")
    unit = 2.0**exponent
    H = H / unit
    basis = _hermitian_basis(D)
    basis_pt = linalg.partial_transpose(basis, P.dims, "A")
    rhs = np.einsum("kij,ji->k", basis, H).real
    eqs = [({"pa": G, "na": -G, "pb": Gt, "nb": -Gt}, float(r))
           for G, Gt, r in zip(basis, basis_pt, rhs)]
    # ||Tr_in(P_X + N_X)|| <= t_X, as Tr_in(P_X + N_X) + S_X = t_X I with S_X PSD
    one = np.ones((1, 1))
    for X in ("a", "b"):
        for g in _hermitian_basis(dout):
            lifted = np.kron(np.eye(din), g)
            eqs.append(({"p" + X: lifted, "n" + X: lifted, "s" + X: g,
                         "t" + X: -np.trace(g).real * one}, 0.0))
    blocks = tuple((k, D) for k in ("pa", "na", "pb", "nb")) + (("sa", dout), ("sb", dout),
                                                                 ("ta", 1), ("tb", 1))
    res = solve(SdpProblem.from_matrices(blocks, eqs, objective={"ta": one, "tb": one}))
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
    s = _basis_scale(D)
    perm, sign = _pt_permutation((d, d), "B")
    # tr(PT_B(B_k) C_T) - tr(B_k G) == 0 couples G to the partial transpose:
    # row k of [diag(s) Q | -diag(s)]; the last row is tr C_T == d.
    A = _csr([(np.column_stack([perm, N + np.arange(N)]), np.column_stack([s * sign, -s])),
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
    and its verdict, with verified evidence, enters the report.  Never
    raises; solver breakdowns are reported in the trace.
    """
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
