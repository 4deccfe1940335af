"""Choi-matrix calculus for linear maps between matrix algebras.

A map L: M_din -> M_dout is represented canonically by its Choi matrix
C_L = sum_ij |i><j| (x) L(|i><j|), an operator on C^din (x) C^dout.  The
entry convention is C[(i,a),(j,b)] = L(|i><j|)[a,b].  Maps are built from
a Choi matrix, a linear callable or Kraus operators.  CP and coCP use the
PSD rule of ``linalg.is_psd``; the linearity spot-check's tolerance is the
constant below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import DimMismatch, DomainError, LinearityViolation, is_count

LINEARITY_TOL = 1e-8  # relative, choi_from_action's spot-check


@dataclass(frozen=True)
class QuantumMap:
    """Linear map M_din -> M_dout held as an immutable Choi matrix.

    ``din`` and ``dout`` must be positive integers (DimMismatch otherwise).
    """

    din: int
    dout: int
    choi: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (is_count(self.din, 1) and is_count(self.dout, 1)):
            raise DimMismatch(
                f"map dimensions must be positive integers, got ({self.din!r}, {self.dout!r})"
            )
        object.__setattr__(self, "din", int(self.din))
        object.__setattr__(self, "dout", int(self.dout))
        C = np.array(self.choi, dtype=complex)
        n = self.din * self.dout
        if C.shape != (n, n):
            raise DimMismatch(
                f"Choi matrix shape {C.shape} does not match dimensions "
                f"({self.din}, {self.dout})"
            )
        C.setflags(write=False)
        object.__setattr__(self, "choi", C)

    @property
    def dims(self) -> tuple[int, int]:
        return (self.din, self.dout)

    def choi_tensor(self) -> np.ndarray:
        """Choi matrix reshaped to (din, dout, din, dout)."""
        return self.choi.reshape(self.din, self.dout, self.din, self.dout)


def identity_map(d: int) -> QuantumMap:
    return QuantumMap(d, d, linalg.max_entangled_projector(d))


def transposition_map(d: int) -> QuantumMap:
    return QuantumMap(d, d, linalg.flip_operator(d))


def depolarizing_map(d: int) -> QuantumMap:
    """X -> Tr[X] * identity; Choi is I (x) I."""
    if not is_count(d, 1):
        raise DimMismatch(f"dimension must be a positive integer, got {d!r}")
    return QuantumMap(d, d, np.eye(d * d, dtype=complex))


def choi_from_action(
    apply_fn: Callable[[np.ndarray], np.ndarray],
    din: int,
    dout: int,
) -> QuantumMap:
    """Build the Choi matrix of a callable by probing matrix units.

    The callable must be linear; this is spot-checked on a random linear
    combination and a LinearityViolation is raised beyond ``LINEARITY_TOL``
    relative deviation.
    """
    C = np.zeros((din * dout, din * dout), dtype=complex)
    unit = np.zeros((din, din), dtype=complex)
    for i in range(din):
        for j in range(din):
            unit[i, j] = 1.0
            block = np.asarray(apply_fn(unit), dtype=complex)
            if block.shape != (dout, dout):
                raise DimMismatch(
                    f"action returned shape {block.shape}, expected {(dout, dout)}"
                )
            C[i * dout : (i + 1) * dout, j * dout : (j + 1) * dout] = block
            unit[i, j] = 0.0

    spot = np.random.default_rng(0)
    X1 = spot.normal(size=(din, din)) + 1j * spot.normal(size=(din, din))
    X2 = spot.normal(size=(din, din)) + 1j * spot.normal(size=(din, din))
    a, b = complex(*spot.normal(size=2)), complex(*spot.normal(size=2))
    lhs = np.asarray(apply_fn(a * X1 + b * X2), dtype=complex)
    rhs = a * np.asarray(apply_fn(X1)) + b * np.asarray(apply_fn(X2))
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if np.max(np.abs(lhs - rhs)) > LINEARITY_TOL * scale:
        raise LinearityViolation("callable failed the random linearity spot-check")
    return QuantumMap(din, dout, C)


def apply(T: QuantumMap, X) -> np.ndarray:
    """Evaluate T(X) = Tr_A[(X^T (x) I) C_T] for X of shape (din, din)."""
    X = np.asarray(X, dtype=complex)
    if X.shape != (T.din, T.din):
        raise DimMismatch(f"input shape {X.shape}, map expects {(T.din, T.din)}")
    return np.einsum("iajb,ij->ab", T.choi_tensor(), X)


def compose(T2: QuantumMap, T1: QuantumMap) -> QuantumMap:
    """Choi matrix of T2 ∘ T1, computed as (id (x) T2) acting on C_T1."""
    if T1.dout != T2.din:
        raise DimMismatch(
            f"cannot compose: inner dimensions {T1.dout} and {T2.din} differ"
        )
    C = np.einsum("iajb,acbd->icjd", T1.choi_tensor(), T2.choi_tensor())
    n = T1.din * T2.dout
    return QuantumMap(T1.din, T2.dout, C.reshape(n, n))


def adjoint(T: QuantumMap) -> QuantumMap:
    """Hilbert-Schmidt adjoint: Tr[A† T(B)] = Tr[adjoint(T)(A)† B].

    On Choi matrices this is entrywise conjugation composed with swapping the
    input/output tensor factors.
    """
    swapped = linalg.permute_systems(T.choi, [T.din, T.dout], [1, 0])
    return QuantumMap(T.dout, T.din, swapped.conj())


def tensor(T1: QuantumMap, T2: QuantumMap) -> QuantumMap:
    """Choi matrix of T1 (x) T2 in (in1,in2 ; out1,out2) factor order."""
    big = np.kron(T1.choi, T2.choi)
    C = linalg.permute_systems(big, [T1.din, T1.dout, T2.din, T2.dout], [0, 2, 1, 3])
    din, dout = T1.din * T2.din, T1.dout * T2.dout
    return QuantumMap(din, dout, C)


def is_cp(T: QuantumMap) -> bool:
    """Complete positivity: the Choi matrix is PSD."""
    return linalg.is_psd(T.choi)


def is_cocp(T: QuantumMap) -> bool:
    """Complete copositivity: the output-side partial transpose of the Choi is PSD."""
    return linalg.is_psd(linalg.partial_transpose(T.choi, T.dims, "B"))


def operator_schmidt_rank(T: QuantumMap) -> int:
    """Rank of T as a linear operator: ``linalg.numerical_rank`` of the realigned Choi."""
    return linalg.numerical_rank(linalg.realign(T.choi, T.dims))


def choi_from_kraus(ops: Sequence[np.ndarray], din: int, dout: int) -> QuantumMap:
    """Assemble the Choi matrix of X -> sum_k K_k X K_k†."""
    C = np.zeros((din * dout, din * dout), dtype=complex)
    for K in ops:
        K = np.asarray(K, dtype=complex)
        if K.shape != (dout, din):
            raise DimMismatch(f"Kraus shape {K.shape}, expected {(dout, din)}")
        v = K.T.ravel()
        C += np.outer(v, v.conj())
    return QuantumMap(din, dout, C)


def switch_map(T1: QuantumMap, T2: QuantumMap) -> QuantumMap:
    """Two-channel switch on M_d (x) M_2.

    Input sector 0 of the flag qubit routes through T1 into sector 1, and
    sector 1 through T2 into sector 0, so applying the switch twice to
    Y (x) |0><0| yields T2(T1(Y)) (x) |0><0|.
    """
    if not (T1.din == T1.dout == T2.din == T2.dout):
        raise DimMismatch("switch requires two square maps of equal dimension")
    d = T1.din
    e00 = np.diag([1.0, 0.0]).astype(complex)
    e11 = np.diag([0.0, 1.0]).astype(complex)

    def action(X: np.ndarray) -> np.ndarray:
        blocks = X.reshape(d, 2, d, 2)
        out = np.kron(apply(T1, blocks[:, 0, :, 0]), e11)
        out += np.kron(apply(T2, blocks[:, 1, :, 1]), e00)
        return out

    return choi_from_action(action, 2 * d, 2 * d)


def random_cp_cocp_map(d: int, seed: int) -> QuantumMap:
    """Random CP and coCP map on M_d (a "PPT Choi" sample).

    Starts from a Wishart matrix and alternates eigenvalue clipping between
    the Choi matrix and its partial transpose (at most 500 rounds); a final
    uniform identity shift lifts both spectra to be exactly nonnegative
    (the shift commutes with partial transposition).  The result is scaled
    to trace d.  A d that is not an integer >= 1 raises DimMismatch, and a
    seed that is not an integer >= 0 DomainError.
    """
    if not is_count(d, 1):
        raise DimMismatch(f"map dimension must be a positive integer, got {d!r}")
    if not is_count(seed, 0):
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    dims = (d, d)
    C = linalg.random_psd(d * d, rng)
    C *= d / np.trace(C).real

    def clip(M: np.ndarray) -> np.ndarray:
        w, V = np.linalg.eigh((M + M.conj().T) / 2.0)
        return (V * np.maximum(w, 0.0)) @ V.conj().T

    for _ in range(500):
        C = clip(C)
        C = linalg.partial_transpose(clip(linalg.partial_transpose(C, dims, "B")), dims, "B")
        margin = min(
            np.linalg.eigvalsh(C)[0],
            np.linalg.eigvalsh(linalg.partial_transpose(C, dims, "B"))[0],
        )
        if margin >= 0.0:
            break
    lift = -min(0.0, float(margin))  # the last round's margin is that of C as it stands
    C = C + lift * np.eye(d * d)
    C *= d / np.trace(C).real
    return QuantumMap(d, d, C)

