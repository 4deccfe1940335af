"""Entanglement and Schmidt-number criteria.

The PPT and realignment tests, the 2-entanglement-breaking certificates
(depolarizing ball, operator rank, dimension-3 characterization,
dimension-4 PT-invariance), Schmidt-number tools (the fidelity lower bound,
sub-blocks, the trimming bound and the iteration count), heuristic
k-positivity falsification, and separability certification:
a closed-form twirl decomposition over mutually unbiased bases for PPT
Werner- and isotropic-type states, and for the rest a product-state pursuit:
an NNLS refit of fixed seed atoms, then polish rounds, each one stacked
seesaw that re-fits every atom at once and one NNLS refit.

Verdicts are :class:`~ebcompose.report.Report` objects carrying named
evidence, so "unknown" is always distinguishable from a certified answer.
PSD and PPT tests use ``linalg.is_psd`` and ranks ``linalg.numerical_rank``.
The other tolerances, and the search lengths that no caller sets, are the
constants below, not arguments: an argument can set how much a search
explores (a budget, a seed), never the bar its result must clear.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.optimize import nnls

from . import _kernels, linalg, sdp
from .choi import QuantumMap, compose, is_cocp, is_cp, operator_schmidt_rank, transposition_map
from .errors import DimMismatch, DimOutOfRange, DomainError, IndexOutOfRange, NotPSD, is_count
from .report import Report

PT_INVARIANCE_TOL = 1e-9  # ||PT(X) - X|| <= PT_INVARIANCE_TOL * max(1, ||X||)
WITNESS_TOL = 1e-9  # a k-positivity witness needs <psi|C|psi> < -WITNESS_TOL
CCNR_TOL = 1e-9  # realignment_criterion passes a realigned trace norm <= 1 + CCNR_TOL
FIDELITY_TIE_TOL = 1e-12  # sn_lower_fidelity: fidelity ties this close do not raise the bound
JOHNSTON_TOL = 1e-12  # johnston_block_check: ||X||^2 <= rhs + JOHNSTON_TOL * max(1, |rhs|)
SEP_RESIDUAL_TOL = 1e-7  # a decomposition is returned only with ||residual|| <= this * ||X||
KPOS_RESTARTS = 32  # k_positivity_falsify's default number of seesaw restarts
KPOS_ITERS = 200  # seesaw rounds per k_positivity_falsify restart


@dataclass(frozen=True)
class BipartiteState:
    """PSD matrix on C^dA (x) C^dB with declared factor dimensions."""

    dims: tuple[int, int]
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        M = np.array(self.mat, dtype=complex)
        dA, dB = linalg.factor_dims(self.dims)
        if M.shape != (dA * dB, dA * dB):
            raise DimMismatch(f"state shape {M.shape} does not match dims {self.dims}")
        linalg.require_hermitian(M)
        if not linalg.is_psd(M):
            raise NotPSD("bipartite state must be PSD within tolerance")
        M.setflags(write=False)
        object.__setattr__(self, "mat", M)
        object.__setattr__(self, "dims", (dA, dB))


# Report statuses of the entanglement-breaking decisions below.
EB_CERTIFIED = "EB-certified"
NOT_EB_CERTIFIED = "notEB-certified"
UNKNOWN = "unknown"


def schmidt_rank(psi, dims: Sequence[int]) -> int:
    """Schmidt rank of a vector: ``linalg.numerical_rank`` of its dA x dB reshape.

    Dimensions that are not two positive integers, or a vector whose length
    is not dA * dB, raise DimMismatch; non-finite entries raise DomainError.
    """
    dA, dB = linalg.factor_dims(dims)
    v = np.asarray(psi, dtype=complex)
    if v.size != dA * dB:
        raise DimMismatch(f"vector of length {v.size} does not match dims {tuple(dims)}")
    return linalg.numerical_rank(v.reshape(dA, dB))


def is_ppt_state(X: BipartiteState) -> bool:
    """Positive partial transpose on factor A."""
    return linalg.is_psd(linalg.partial_transpose(X.mat, X.dims, "A"))


def realignment_criterion(X: BipartiteState) -> bool:
    """CCNR: trace norm of the realigned, trace-normalized state is <= 1."""
    tr = float(np.trace(X.mat).real)
    if tr <= 0.0:
        return True
    s = np.linalg.svd(linalg.realign(X.mat / tr, X.dims), compute_uv=False)
    return float(np.sum(s)) <= 1.0 + CCNR_TOL


def sn_lower_fidelity(X: BipartiteState) -> int:
    """Schmidt-number lower bound from maximally-entangled fidelity.

    Returns the smallest k with <Omega|X|Omega>/(d Tr X) <= k/d; ties within
    ``FIDELITY_TIE_TOL`` do not raise the bound.
    """
    dA, dB = X.dims
    if dA != dB:
        raise DimMismatch("fidelity bound needs equal factor dimensions")
    tr = float(np.trace(X.mat).real)
    if tr <= 0.0:
        return 1
    omega = linalg.max_entangled_vector(dA)
    fidelity = float((omega.conj() @ (X.mat @ omega)).real) / (dA * tr)
    k = int(math.ceil(dA * fidelity - FIDELITY_TIE_TOL))
    return max(1, min(dA, k))


def _pt_invariant(M: np.ndarray, dims: Sequence[int], which: str) -> bool:
    dev = linalg.operator_norm(linalg.partial_transpose(M, dims, which) - M)
    return dev <= PT_INVARIANCE_TOL * max(1.0, linalg.operator_norm(M))


def subblock(X: BipartiteState, indices: Sequence[int]) -> BipartiteState:
    """Principal sub-block over a subset of factor-A basis indices (0-based)."""
    dA, dB = X.dims
    idx = [int(i) for i in indices]
    if len(set(idx)) != len(idx) or any(i < 0 or i >= dA for i in idx):
        raise IndexOutOfRange(f"indices {indices} invalid for factor dimension {dA}")
    T = X.mat.reshape(dA, dB, dA, dB)
    Y = T.take(idx, axis=0).take(idx, axis=2)
    m = len(idx)
    return BipartiteState((m, dB), Y.reshape(m * dB, m * dB))


def k_positivity_falsify(
    T: QuantumMap, k: int, restarts: int = KPOS_RESTARTS, seed: int = 0
) -> Optional[np.ndarray]:
    """Search for a Schmidt-rank-<=k unit vector with <psi|C_T|psi> < -WITNESS_TOL.

    Heuristic falsification of k-positivity (block positivity of the Choi
    matrix on rank-<=k vectors), ``KPOS_ITERS`` seesaw rounds per restart.
    Restart 0, the warm start, runs alone first and is returned if it
    verifies.  Otherwise the other ``restarts - 1`` random starts, drawn once
    per (d1, d2, k, restarts, seed), run as one batch, and the best of all
    restarts (restart 0 winning ties) is verified, so verdict and vector are
    those of one batch of all restarts.  A returned witness is re-verified
    independently; absence of a witness proves nothing.  A k outside
    [1, min(d1, d2)], restarts < 1 or a seed < 0, or any of them not an
    integer, raises DomainError before any search runs.
    """
    C = np.ascontiguousarray(linalg.require_hermitian(T.choi))
    d1, d2 = T.din, T.dout
    if not (is_count(k, 1) and k <= min(d1, d2)):
        raise DomainError(f"k={k!r} is not an integer in [1, {min(d1, d2)}]")
    if not is_count(restarts, 1):
        raise DomainError(f"restarts must be an integer >= 1, got {restarts!r}")
    if not is_count(seed, 0):
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")

    # warm start from the bottom eigenvector, Schmidt-truncated to rank k
    V = np.linalg.eigh(C)[1]
    U0, s0, Vh0 = np.linalg.svd(V[:, 0].reshape(d1, d2))
    a0 = (U0[:, :k] * np.sqrt(s0[:k]))[None]
    b0 = (np.sqrt(s0[:k])[:, None] * Vh0[:k, :])[None]
    value, psi = _kernels.kpos_seesaw(C, d1, d2, k, a0, b0, KPOS_ITERS)
    witness = _verified_witness(C, psi, d1, d2, k)
    if witness is not None or restarts == 1:
        return witness
    a_starts, b_starts = _kpos_random_starts(d1, d2, k, restarts, seed)
    value_r, psi_r = _kernels.kpos_seesaw(C, d1, d2, k, a_starts, b_starts, KPOS_ITERS)
    # restart 0 already failed the verification, and it wins ties
    return _verified_witness(C, psi_r, d1, d2, k) if value_r < value else None


@functools.lru_cache(maxsize=16, typed=True)
def _kpos_random_starts(d1: int, d2: int, k: int, restarts: int, seed: int):
    """Read-only (A, B) stacks of k_positivity_falsify's restarts 1 .. restarts - 1.

    Restart r draws A (d1 x k) then B (k x d2), each as real plus i times
    imaginary standard normals, from the r-th child of SeedSequence(seed).
    """
    a_list, b_list = [], []
    for s in np.random.SeedSequence(seed).spawn(restarts - 1):
        gen = np.random.default_rng(s)
        a_list.append(gen.normal(size=(d1, k)) + 1j * gen.normal(size=(d1, k)))
        b_list.append(gen.normal(size=(k, d2)) + 1j * gen.normal(size=(k, d2)))
    a_starts, b_starts = np.stack(a_list), np.stack(b_list)
    a_starts.setflags(write=False)
    b_starts.setflags(write=False)
    return a_starts, b_starts


def _verified_witness(C, psi, d1: int, d2: int, k: int) -> Optional[np.ndarray]:
    # independent verification: project exactly onto Schmidt rank <= k, then
    # re-evaluate; only a still-negative value counts
    Up, sp, Vhp = np.linalg.svd(psi.reshape(d1, d2))
    M = (Up[:, :k] * sp[:k]) @ Vhp[:k, :]
    nrm = np.linalg.norm(M)
    if nrm == 0.0:
        return None
    psi = (M / nrm).ravel()
    value = float((psi.conj() @ (C @ psi)).real)
    if value < -WITNESS_TOL and schmidt_rank(psi, (d1, d2)) <= k:
        return psi
    return None


def _reflection_starts(d: int, restarts: int, seed: int) -> np.ndarray:
    """Identity, +-1 diagonal reflections, then Haar unitaries up to restarts."""
    starts = [np.eye(d, dtype=complex)]
    if 2 ** d <= max(0, restarts - 1):
        patterns = range(1, 2 ** d)
    else:
        # pattern 0 is the identity, already the first start
        patterns = 1 + np.random.default_rng(seed).choice(
            2 ** d - 1, size=max(0, min(2 ** d, restarts) - 1), replace=False
        )
    for bits in patterns:
        signs = np.array([1.0 if (int(bits) >> j) & 1 == 0 else -1.0 for j in range(d)])
        starts.append(np.diag(signs).astype(complex))
    gen = np.random.default_rng(seed + 1)
    starts.extend(linalg.haar_unitary(d, gen, size=max(0, restarts - len(starts))))
    return np.ascontiguousarray(np.stack(starts[:restarts])).astype(np.complex128)


def deviation_from_depolarizing(
    T: QuantumMap,
    samples: int = 2000,
    restarts: int = 64,
    iters: int = 100,
    seed: int = 0,
) -> float:
    """Estimate sup_X ||T(X) - Tr[X] I||_inf / ||X||_inf from below.

    The supremum over the unit ball of the spectral norm is attained at a
    unitary X (the extreme points of that ball), so the search alternates
    exact steps over unitaries and rank-1 directions, then confirms with a
    batched random-unitary sweep.  The value is a lower bound that depends
    on the search budget; no certificate uses it (the ball certificate
    brackets the norm with :func:`depolarizing_ball_bounds` instead).
    Budgets and the seed must be integers: ``samples >= 0``, ``restarts >= 1``,
    ``iters >= 1`` and ``seed >= 0`` (DomainError otherwise).
    """
    if T.din != T.dout:
        raise DimMismatch("deviation from depolarizing needs a square map")
    for name, value, minimum in (("samples", samples, 0), ("restarts", restarts, 1),
                                 ("iters", iters, 1), ("seed", seed, 0)):
        if not is_count(value, minimum):
            raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    d = T.din
    C4 = (T.choi - np.eye(d * d)).reshape(d, d, d, d)
    fwd = np.ascontiguousarray(C4.transpose(1, 3, 0, 2).reshape(d * d, d * d))
    adj = np.ascontiguousarray(C4.transpose(0, 2, 1, 3).conj().reshape(d * d, d * d))

    starts = _reflection_starts(d, restarts, seed)
    best, _ = _kernels.ball_seesaw(fwd, adj, starts, iters)

    if samples > 0:
        gen = np.random.default_rng(seed + 2)
        batch = linalg.haar_unitary(d, gen, size=samples)
        Q = (fwd @ batch.reshape(samples, d * d).T).T.reshape(samples, d, d)
        svals = np.linalg.svd(Q, compute_uv=False)
        best = max(best, float(svals[:, 0].max()))
    return float(best)


class BallBounds(NamedTuple):
    """lower <= ||T - Tr(.) I||_{inf->inf} <= upper."""

    lower: float
    upper: float


_EPS = Fraction(np.finfo(float).eps)


def _two_sum(a, b):
    """fl(a + b) and its exact rounding error, entrywise (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _abs_up(z) -> Fraction:
    """Exact upper bound on |z|: abs is exact on an axis and within one ulp off it."""
    z = complex(z)
    if z.real == 0.0 or z.imag == 0.0:
        return Fraction(abs(z.real) + abs(z.imag))
    return Fraction(math.nextafter(abs(z), math.inf))


def _float_up(x: Fraction) -> float:
    f = float(x)
    return math.nextafter(f, math.inf) if Fraction(f) < x else f


def depolarizing_ball_bounds(T: QuantumMap) -> BallBounds:
    """Bracket ||D||_{inf->inf}, D = T - Tr(.) I, from one projection of J(D) = C - I.

    The entries <01|J(D)|01>, <01|J(D)|10> and <00|J(D)|11> are the
    coefficients gamma, alpha and beta of I (x) I, the flip F and
    |Omega><Omega|, the Choi matrices of Tr(.) I, the transpose and the
    identity, whose operator norms are d, 1 and 1.  The remainder
    J(E) = J(D) - gamma I (x) I - alpha F - beta |Omega><Omega| is bounded by
    r = sum_ij ||J(E)_ij||, the spectral norms of its d x d blocks, which
    holds for any coefficients because |X_ij| <= ||X||.  Then
    upper = d|gamma| + |alpha| + |beta| + r, and lower is the largest of the
    three term norms minus the other two and r.  Entries so large that the
    remainder overflows raise DomainError.

    ``upper`` is rigorous in floating point: the rounding errors of forming
    J(E) are captured exactly (TwoSum) and added, the block norms carry the
    backward error of the SVD, and the sum is exact.  Where no rounding
    occurs nothing is added, so Holevo-Werner maps I - p F give |p| exactly
    when p is a binary fraction.  ``lower`` is a plain float.
    """
    if T.din != T.dout:
        raise DimMismatch("the depolarizing ball needs a square map")
    d = T.din
    if d < 2:
        raise DimOutOfRange("the depolarizing ball needs d >= 2")
    if not np.all(np.isfinite(T.choi)):
        raise DomainError("Choi matrix entries must be finite")
    eye = np.eye(d * d)
    J, err = _two_sum(T.choi, -eye)
    coeffs = (J[1, 1], J[1, d], J[0, d + 1])
    E, errs = J, [err]
    for c, pattern in zip(coeffs, (eye, linalg.flip_operator(d), linalg.max_entangled_projector(d))):
        E, err = _two_sum(E, -c * pattern)
        errs.append(err)
    norm_sum = linalg.block_norm_sum(E, (d, d))
    # |error| summed over all entries bounds every block's norm of it; the
    # float sums below are within n eps of exact, hence the factors
    lost = float(sum(np.abs(e.real).sum() + np.abs(e.imag).sum() for e in errs))
    if not (math.isfinite(norm_sum) and math.isfinite(lost)):
        raise DomainError("Choi matrix entries too large for a finite bound")
    r = Fraction(norm_sum) * (1 + (d * d + 2 * d) * _EPS) + 2 * Fraction(lost)
    terms = [d * _abs_up(coeffs[0]), _abs_up(coeffs[1]), _abs_up(coeffs[2])]
    lower = 2 * max(terms) - sum(terms) - r
    return BallBounds(float(lower), _float_up(sum(terms) + r))


def two_eb_ball_certificate(T: QuantumMap) -> bool:
    """Depolarizing-ball certificate of 2-entanglement breaking.

    A Hermiticity-preserving map with ||T - Tr(.) I||_{inf->inf} <= 1/2 is
    2-EB, and True is returned only from a checkable upper bound on that
    norm, with every rounding error counted against the verdict:

    - ``depolarizing_ball_bounds`` gives upper <= 1/2: certified.  This
      settles every Holevo-Werner map I - p F inside the ball exactly.
    - lower <= 1/2 < upper: ``sdp.cb_split_bound`` bounds the norm by
      min ||A||_cb + ||B||_cb over D = A + B∘θ; its audited bound must be
      <= 1/2.
    - lower > 1/2: the map is outside the ball, and no SDP runs.

    Maps outside the ball can still be 2-EB.  As a fallback the
    certificate accepts any map shown entanglement breaking outright: CP,
    coCP, and a verified separable decomposition of the Choi matrix (EB
    implies n-EB for every n).  A False is inconclusive, not a
    refutation.  Non-square maps raise DimMismatch, a
    Choi matrix beyond ``linalg.TOL_HERM`` of Hermitian NotHermitian; one
    within it but not exactly Hermitian gives False, since a map that does
    not preserve Hermiticity is not positive, let alone 2-EB.
    """
    C = linalg.require_hermitian(T.choi)
    if not np.array_equal(C, C.conj().T):
        return False
    bounds = depolarizing_ball_bounds(T)
    if bounds.upper <= 0.5:
        return True
    if bounds.lower <= 0.5:
        J, err = _two_sum(C, -np.eye(T.din * T.dout))
        split = sdp.cb_split_bound(QuantumMap(T.din, T.dout, J))
        if split.status == sdp.FEASIBLE:
            # forming J rounds only on the diagonal, and 2 sum|err| covers
            # those blocks; the sum is rounded up
            u = split.residuals["upper_bound"] + 2.0 * float(np.abs(err).sum())
            if math.nextafter(u, math.inf) <= 0.5:
                return True
    if not (is_cp(T) and is_cocp(T)):
        return False
    tr = np.trace(T.choi).real
    state = BipartiteState((T.din, T.dout), T.choi / tr if tr > 0.0 else T.choi)
    return heuristic_sep_certify(state) is not None


def johnston_block_check(rho, X, sigma) -> bool:
    """Sufficient separability check for a PSD 2xd block state.

    For [[rho, X],[X^dagger, sigma]] PSD, ||X||_inf^2 <= lmin(rho) lmin(sigma)
    certifies separability.
    """
    rho = np.asarray(rho, dtype=complex)
    X = np.asarray(X, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    block = np.block([[rho, X], [X.conj().T, sigma]])
    if not linalg.is_psd(block):
        raise NotPSD("assembled 2xd block matrix is not PSD within tolerance")
    lhs = linalg.operator_norm(X) ** 2
    rhs = linalg.min_eig(rho) * linalg.min_eig(sigma)
    return lhs <= rhs + JOHNSTON_TOL * max(1.0, abs(rhs))


def two_eb_rank_certificate(T: QuantumMap) -> bool:
    """Operator-rank certificate: rank <= 3 plus 2-positivity.

    Only CP maps are certified, since complete positivity proves
    2-positivity exactly.  A search that finds no 2-positivity witness
    proves nothing, so False means "not certified", not "not 2-EB".
    """
    return operator_schmidt_rank(T) <= 3 and is_cp(T)


def two_eb_d3_certificate(T: QuantumMap) -> Report:
    """2-EB decision for maps on M_3: 2-positive and 2-copositive iff 2-EB.

    CP + coCP certifies at once; otherwise ``k_positivity_falsify`` at its
    default budget looks for a 2-positivity witness (unless T is CP; seed 0)
    and a 2-copositivity witness (unless T is coCP; seed 1).  Finding
    neither gives "unknown".  Each search tries its warm start alone first,
    which already refutes HW(3, p > 1/2); the random starts run only when it
    fails, and the verdicts are those of one batch of all restarts.
    """
    if T.din != 3 or T.dout != 3:
        raise DimOutOfRange("the exact characterization applies to maps on M_3")

    def report(status, name, data):
        sense = {"name": "sense", "data": "2-EB"}
        return Report("two_eb_d3_certificate", status, (sense, {"name": name, "data": data}))

    cp, cocp = is_cp(T), is_cocp(T)
    if cp and cocp:
        return report(EB_CERTIFIED, "exact-regime",
                      {"rule": "CP and coCP imply 2-positive and 2-copositive",
                       "choi_min_eig": linalg.min_eig(T.choi)})
    witness = None
    if not cp:
        M, name = T, "two-positivity-witness"
        witness = k_positivity_falsify(M, 2)
    if witness is None and not cocp:
        M, name = compose(transposition_map(3), T), "two-copositivity-witness"
        witness = k_positivity_falsify(M, 2, seed=1)
    if witness is not None:
        value = float((witness.conj() @ (M.choi @ witness)).real)
        return report(NOT_EB_CERTIFIED, name, {"value": value, "vector": witness})
    budget = {"restarts": KPOS_RESTARTS, "iters": KPOS_ITERS}
    return report(UNKNOWN, "no-witness-within-budget", budget)


def d4_ptinv_2eb_certificate(S: QuantumMap, T: QuantumMap) -> bool:
    """Certificate that S∘T is 2-EB on M_4 via PT-invariance of S.

    Requires T to be CP and coCP, S to be CP, and S to absorb transposition
    on one side (theta∘S = S or S∘theta = S, checked on Choi matrices).
    """
    if (S.din, S.dout) != (4, 4) or (T.din, T.dout) != (4, 4):
        raise DimOutOfRange("PT-invariance certificate applies to maps on M_4")
    if not (is_cp(T) and is_cocp(T) and is_cp(S)):
        return False
    return _pt_invariant(S.choi, S.dims, "B") or _pt_invariant(S.choi, S.dims, "A")


def sn_trim_bound(l: int, n: int) -> int:
    """Schmidt-number ceiling after an n-EB map acts on one side."""
    if not (is_count(l, 1) and is_count(n, 1)):
        raise DomainError(f"trim bound needs integers l, n >= 1, got l={l!r}, n={n!r}")
    return max(l - n + 1, 1)


def iteration_count(d: int, n: int) -> int:
    """Compositions of n-EB maps needed to reach entanglement breaking."""
    if not (is_count(d, 2) and is_count(n, 2) and n <= d):
        raise DomainError(
            f"iteration count needs integers d >= 2 and 2 <= n <= d, got d={d!r}, n={n!r}"
        )
    return -((d - 1) // -(n - 1))


@dataclass(frozen=True)
class SepDecomposition:
    """X ~= sum_t weights[t] a[t] a[t]^dag (x) b[t] b[t]^dag, with a (n, dA) and b (n, dB)."""

    weights: np.ndarray
    a: np.ndarray
    b: np.ndarray
    residual: float
    atoms_searched: int

    def __post_init__(self):
        shapes = [np.shape(x) for x in (self.weights, self.a, self.b)]
        if [len(s) for s in shapes] != [1, 2, 2] or len({s[0] for s in shapes}) != 1:
            raise DimMismatch(f"separable factors need (n,), (n, dA), (n, dB), got {shapes}")

    @property
    def terms(self) -> tuple:
        """The PSD product terms (A_t, B_t), with X ~= sum_t kron(A_t, B_t)."""
        return tuple((w * np.outer(a, a.conj()), np.outer(b, b.conj()))
                     for w, a, b in zip(self.weights, self.a, self.b))

    def reconstruct(self) -> np.ndarray:
        dA, dB = self.a.shape[1], self.b.shape[1]
        V = (self.a[:, :, None] * self.b[:, None, :]).reshape(-1, dA * dB)
        return (V.T * self.weights) @ V.conj()


@functools.lru_cache(maxsize=None)
def _mub_vectors(d: int) -> np.ndarray:
    """Rows: the vectors of d+1 mutually unbiased bases (d prime or 4), a
    projective 2-design; basis-major, so vector i of basis b is row b d + i.
    Cached, hence read-only.
    """
    vecs = [np.eye(d, dtype=complex)[:, j] for j in range(d)]
    if d == 2:
        for basis in ([[1, 1], [1, -1]], [[1, 1j], [1, -1j]]):
            for v in basis:
                vecs.append(np.array(v, dtype=complex) / np.sqrt(2))
    elif d == 4:
        # common eigenbases of the four non-diagonal maximal commuting
        # two-qubit Pauli classes; distinct eigenvalues of A + 2B make
        # eigh return the shared basis directly
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        eye2 = np.eye(2, dtype=complex)
        classes = [
            (np.kron(sx, eye2), np.kron(eye2, sx)),
            (np.kron(sy, eye2), np.kron(eye2, sy)),
            (np.kron(sx, sy), np.kron(sy, sz)),
            (np.kron(sy, sx), np.kron(sz, sy)),
        ]
        for first, second in classes:
            _, basis = np.linalg.eigh(first + 2.0 * second)
            vecs.extend(basis[:, k] for k in range(4))
    else:
        omega = np.exp(2j * np.pi / d)
        js = np.arange(d)
        for m in range(d):
            for k in range(d):
                vecs.append(omega ** (m * js * js + k * js) / np.sqrt(d))
    V = np.array(vecs)
    V.setflags(write=False)
    return V


def _twirl_decomposition(X: BipartiteState, target: float) -> Optional[SepDecomposition]:
    """Closed-form decomposition of a PPT state alpha I + beta F or alpha I + beta Omega.

    Over d+1 mutually unbiased bases b (a projective 2-design, d = 2-5),
    sum_v (v v^dag)^(x)2 = I + F and sum_b sum_{i != j} b_i b_i^dag (x) b_j b_j^dag
    = d I - F; conjugating the second factor turns F into Omega =
    |Omega><Omega|, and the computational product basis sums to I.  PPT
    means alpha >= beta and alpha >= -d beta, so beta (I + F) + (alpha - beta) I
    for beta >= 0 and |beta| (d I - F) + (alpha - d |beta|) I for beta < 0
    (F -> Omega alike) have nonnegative weights.  Inputs outside both
    spans (entrywise remainder above ``target``), with dA != dB or
    d outside 2-5, or with a negative weight (NPT) leave before any atom is
    built.  The decomposition is returned only when the operator norm of
    X minus its reconstruction is at most ``target``; otherwise None.
    """
    (d, dB), M = X.dims, X.mat
    if d != dB or d not in (2, 3, 4, 5):
        return None
    eye = np.eye(d * d)
    alpha = M[1, 1].real
    for beta, pattern, conj in ((M[1, d].real, linalg.flip_operator(d), False),
                                (M[0, d + 1].real, linalg.max_entangled_projector(d), True)):
        if np.max(np.abs(M - alpha * eye - beta * pattern)) <= target:
            break
    else:
        return None
    w_sym, w_pairs = max(beta, 0.0), max(-beta, 0.0)
    w_prod = alpha - w_sym - d * w_pairs
    if w_prod < -target:
        return None
    V = _mub_vectors(d)
    i, j = np.nonzero(~np.eye(d, dtype=bool))
    start = np.arange(d + 1)[:, None] * d
    basis = np.eye(d, dtype=complex)
    groups = [(wt, A, B) for wt, A, B in (
        (w_sym, V, V),
        (w_pairs, V[(start + i).ravel()], V[(start + j).ravel()]),
        (w_prod, np.repeat(basis, d, axis=0), np.tile(basis, (d, 1))),
    ) if wt > 0.0]
    if not groups:
        return None
    w = np.concatenate([np.full(len(A), wt) for wt, A, _ in groups])
    A = np.concatenate([A for _, A, _ in groups])
    B = np.concatenate([B for _, _, B in groups])
    if conj:
        B = B.conj()
    dec = SepDecomposition(w, A, B, 0.0, 0)
    resid = linalg.operator_norm(M - dec.reconstruct())
    return SepDecomposition(w, A, B, resid, 0) if resid <= target else None


def _seed_atoms(dims: tuple[int, int], rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Starting atom stacks A (n, dA) and B (n, dB); atom t is A[t] (x) B[t]."""
    dA, dB = dims
    ia, ib = np.divmod(np.arange(dA * dB), dB)
    FA = np.exp(2j * np.pi * np.outer(np.arange(dA), np.arange(dA)) / dA) / np.sqrt(dA)
    FB = np.exp(2j * np.pi * np.outer(np.arange(dB), np.arange(dB)) / dB) / np.sqrt(dB)
    A = [np.eye(dA, dtype=complex)[ia], FA.T[ia]]
    B = [np.eye(dB, dtype=complex)[ib], FB.T[ib].conj()]
    if dA == dB:
        # both pairings: (v, conj v) spans isotropic-type targets, (v, v)
        # symmetric-projector-type ones (each family is a 2-design sum)
        vecs = list(_mub_vectors(dA)) if dA in (2, 3, 4, 5) else []
        vecs += [linalg.random_pure_state(dA, rng) for _ in range(4 * dA * dA)]
        W = np.array(vecs)
        A.append(np.repeat(W, 2, axis=0))
        B.append(np.stack([W.conj(), W], axis=1).reshape(-1, dB))
    return np.concatenate(A), np.concatenate(B)


def _refit(X, A, B):
    """NNLS over the atoms' projectors: kept atoms, their weights and the residual;
    None, a stalled fit, when NNLS reaches its iteration cap."""
    V = (A[:, :, None] * B[:, None, :]).reshape(len(A), A.shape[1] * B.shape[1])
    try:
        w, _ = nnls(linalg.hvec_projectors(V).T, linalg.hvec(X))
    except RuntimeError:  # scipy's bare "Maximum number of iterations reached."
        return None
    keep = w > 0.0
    V, w = V[keep], w[keep]
    return A[keep], B[keep], w, X - (V.T * w) @ V.conj()


def _polish_refit(X, A, B, w, R):
    """Jacobi polish of a refit (``_refit``'s output): in one stacked seesaw, atom t
    re-fits against the residual with its own term added back, warm-started at
    itself.  One NNLS refit keeps the old atoms beside the new, so the Frobenius
    error never rises."""
    V = (A[:, :, None] * B[:, None, :]).reshape(len(A), A.shape[1] * B.shape[1])
    R_t = R + (w[:, None, None] * V[:, :, None]) * V.conj()[:, None, :]
    _, A2, B2 = _kernels.pursuit_atom(R_t, A.shape[1], B.shape[1], A, B, 10)
    return _refit(X, np.vstack([A, A2]), np.vstack([B, B2]))


def heuristic_sep_certify(
    X: BipartiteState, budget: int = 5000, seed: int = 0
) -> Optional[SepDecomposition]:
    """Separable decomposition: a closed-form twirl rung, then a product-state
    pursuit of stacked polish rounds with NNLS refits.

    A PPT state alpha I + beta F or alpha I + beta |Omega><Omega| at d = 2-5
    is decomposed in closed form (``_twirl_decomposition``; no atoms are
    searched and no random numbers drawn).  Anything else goes to the pursuit.

    In the pursuit, atom t is the product vector v_t = A[t] (x) B[t] of two
    stacks, and NNLS fits weights w over the projectors v_t v_t^dagger.  The
    seed atoms (``_seed_atoms``; ``seed`` draws their random part) are refit
    first.  Each polish round (``_polish_refit``) then re-fits every kept
    atom against its own residual in one stacked seesaw and refits over the
    old and new atoms; there is no greedy step.  The first refit whose
    residual meets the bound below is returned.  ``budget`` caps the atoms
    the rounds re-fit (each round counts its atoms), and a round that leaves
    the refit's Frobenius error within rounding of the last one ends the
    search.

    Returns a verified separable decomposition whose residual has operator
    norm at most ``SEP_RESIDUAL_TOL`` times that of X, or None; absence is
    inconclusive, not a verdict.  No argument moves that bound.  A budget
    or seed that is not an integer >= 0 raises DomainError.
    """
    for name, value in (("budget", budget), ("seed", seed)):
        if not is_count(value, 0):
            raise DomainError(f"{name} must be an integer >= 0, got {value!r}")
    dA, dB = X.dims
    scale = linalg.operator_norm(X.mat)
    if scale == 0.0:
        return SepDecomposition(np.zeros(0), np.zeros((0, dA)), np.zeros((0, dB)), 0.0, 0)
    target = SEP_RESIDUAL_TOL * scale
    twirled = _twirl_decomposition(X, target)
    if twirled is not None:
        return twirled
    fit = _refit(X.mat, *_seed_atoms(X.dims, np.random.default_rng(seed)))
    searched, prev = 0, np.inf
    while fit is not None:
        A, B, w, R = fit
        resid = linalg.operator_norm(R)
        if resid <= target:
            return SepDecomposition(w, A, B, resid, searched)
        # the union refit never raises the Frobenius error, so a round that
        # leaves it within rounding (D ulps) of the last one has stalled
        err = np.linalg.norm(R)
        if searched >= budget or err >= prev * (1.0 - len(R) * np.finfo(float).eps):
            return None
        searched, prev = searched + len(A), err
        fit = _polish_refit(X.mat, A, B, w, R)
    return None
