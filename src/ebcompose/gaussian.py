"""Gaussian channels on covariance-matrix data.

A channel on n modes is the pair (X, Y) acting on covariance matrices as
gamma -> X gamma X^T + Y.  Means are omitted throughout; no Fock-space
objects appear.  Validity, complete copositivity, and entanglement breaking
are all linear matrix inequalities against the symplectic form, checked
directly as complex Hermitian PSD conditions with ``linalg.is_psd``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import numpy as np

from . import linalg, sdp
from .errors import (
    DimMismatch, DomainError, ModeMismatch, NotHermitian, PreconditionFailed, is_count,
)

# Y counts as symmetric iff max |Y - Y^T| <= SYMMETRY_TOL * max(1, max |Y|); 100x
# stricter than linalg.TOL_HERM.
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class GaussianChannel:
    """Gaussian channel (X, Y) on n modes; ``valid`` records, once and without
    enforcing it, the channel condition Y + i(sigma - X sigma X^T) >= 0."""

    n: int
    X: np.ndarray
    Y: np.ndarray
    valid: bool = field(init=False)

    def __post_init__(self):
        if not is_count(self.n, 1):
            raise DimMismatch(f"mode count must be a positive integer, got {self.n!r}")
        n = int(self.n)
        # complex or non-numeric entries raise DomainError; a float cast would drop them
        X, Y = (sdp._real_finite(M, "channel matrices") for M in (self.X, self.Y))
        if X.shape != (2 * n, 2 * n) or Y.shape != (2 * n, 2 * n):
            raise DimMismatch(
                f"X, Y must be {(2 * n, 2 * n)} matrices, got {X.shape} and {Y.shape}"
            )
        if float(np.max(np.abs(Y - Y.T))) > SYMMETRY_TOL * max(1.0, float(np.max(np.abs(Y)))):
            raise NotHermitian("Y must be symmetric")
        Y = (Y + Y.T) / 2.0
        X.setflags(write=False)
        Y.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        sig = linalg.symplectic_form(n)
        object.__setattr__(self, "valid", linalg.is_psd(Y + 1j * (sig - X @ sig @ X.T)))


def is_cocp(C: GaussianChannel) -> bool:
    """Complete copositivity condition Y - i(sigma + X sigma X^T) >= 0."""
    sig = linalg.symplectic_form(C.n)
    return linalg.is_psd(C.Y - 1j * (sig + C.X @ sig @ C.X.T))


def is_eb(C: GaussianChannel) -> sdp.SdpResult:
    """Entanglement-breaking test via the noise-splitting SDP.

    Feasible results carry the explicit witness pair (N, M) and are
    re-audited here: adding the two split inequalities must recover both the
    validity and the coCP conditions under the ``linalg.is_psd`` rule.
    """
    res = sdp.gaussian_eb_split(C.Y, C.X)
    if res.status != sdp.FEASIBLE:
        return res
    sig = linalg.symplectic_form(C.n)
    xsx = C.X @ sig @ C.X.T
    residuals = {
        **res.residuals,
        "cocp_margin": linalg.psd_margin(C.Y - 1j * (sig + xsx)),
        "valid_margin": linalg.psd_margin(C.Y + 1j * (sig - xsx)),
    }
    if min(residuals["cocp_margin"], residuals["valid_margin"]) < -linalg.TOL_PSD:
        return sdp.SdpResult(sdp.INCONCLUSIVE, None, None, residuals,
                             "channel fails the validity or coCP re-audit of the split")
    return replace(res, residuals=residuals)


def compose(C2: GaussianChannel, C1: GaussianChannel) -> GaussianChannel:
    """Concatenation C2 after C1: X = X2 X1, Y = X2 Y1 X2^T + Y2."""
    if C1.n != C2.n:
        raise ModeMismatch(f"mode counts {C1.n} and {C2.n} differ")
    X = C2.X @ C1.X
    Y = C2.X @ C1.Y @ C2.X.T + C2.Y
    return GaussianChannel(C1.n, X, (Y + Y.T) / 2.0)


def ppt2_witness(C2: GaussianChannel, C1: GaussianChannel) -> tuple[np.ndarray, np.ndarray, bool]:
    """Explicit entanglement-breaking split for a two-step coCP concatenation.

    For valid, completely copositive C1 and C2, the concatenation C2 after C1
    is entanglement breaking, witnessed by N = X2 Y1 X2^T and M = Y2.  Both
    linear matrix inequalities are verified and the flag returned; under the
    stated preconditions it can only be true.
    """
    if C1.n != C2.n:
        raise ModeMismatch(f"mode counts {C1.n} and {C2.n} differ")
    for label, C in (("first", C1), ("second", C2)):
        if not C.valid:
            raise PreconditionFailed(f"{label} channel fails the validity condition")
        if not is_cocp(C):
            raise PreconditionFailed(f"{label} channel is not completely copositive")
    sig = linalg.symplectic_form(C1.n)
    N = C2.X @ C1.Y @ C2.X.T
    N = (N + N.T) / 2.0
    M = C2.Y
    Xc = C2.X @ C1.X
    ok_n = linalg.is_psd(N - 1j * (Xc @ sig @ Xc.T))
    ok_m = linalg.is_psd(M - 1j * sig)
    return N, M, bool(ok_n and ok_m)


def random_cocp_channel(n: int, seed: int) -> GaussianChannel:
    """Random channel passing both the validity and coCP conditions.

    X has uniform entries in [-1, 1]; Y is a random PSD matrix shifted by
    the smallest multiple of the identity that gives both conditions an
    absolute eigenvalue margin of at least 0.01.  An n that is not an
    integer >= 1 raises DimMismatch, and a seed that is not an integer >= 0
    DomainError.
    """
    if not is_count(n, 1):
        raise DimMismatch(f"mode count must be a positive integer, got {n!r}")
    if not is_count(seed, 0):
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    two_n = 2 * n
    X = rng.uniform(-1.0, 1.0, size=(two_n, two_n))
    A = rng.uniform(-1.0, 1.0, size=(two_n, two_n))
    Y0 = A @ A.T
    sig = linalg.symplectic_form(n)
    xsx = X @ sig @ X.T
    floor = min(
        linalg.min_eig(Y0 + 1j * (sig - xsx)),
        linalg.min_eig(Y0 - 1j * (sig + xsx)),
    )
    lam = max(0.0, 0.01 - floor)
    return GaussianChannel(n, X, Y0 + lam * np.eye(two_n))

