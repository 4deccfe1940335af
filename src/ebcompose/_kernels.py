"""Hot numerical kernels of the seesaw searches, in plain numpy.

``ball_seesaw`` and ``kpos_seesaw`` run all restarts as one batch: every
iteration is a handful of stacked LAPACK calls, and a mask retires each
restart at its own stopping point, so each restart takes the same steps it
would take alone.  ``pursuit_atom`` does the same and returns every
restart's result; the separable pursuit calls it once per polish round,
with one restart per atom, each against its own residual.  None of them
builds an embedding matrix: each half step contracts the reshaped
four-index operator with the passive factor by matmul.
"""

from __future__ import annotations

import numpy as np

# No kernel is compiled; kept for the environment block of perfbench/run.py.
JIT_ENABLED = False


def ball_seesaw(fwd, adj, starts, iters):
    """Maximize ||D(X)||_inf over unitary X by alternating exact steps.

    fwd and adj are the n^2 x n^2 matrix representations of the shifted map D
    and its Hilbert-Schmidt adjoint acting on row-major vectorized matrices;
    starts is a stack of unit starting unitaries.  Given X, the optimal rank-1
    direction is the top singular pair of D(X); given the pair, the optimal
    unitary is the polar factor of the adjoint-propagated dyad.  Both half
    steps are exact maximizations, so the objective is non-decreasing.
    Returns the best (value, x); the first best restart wins ties.
    """
    r, n = starts.shape[0], starts.shape[1]
    x = starts.reshape(r, n * n).astype(np.complex128)
    prev = np.full(r, -1.0)
    live = np.arange(r)
    for _ in range(iters):
        if live.size == 0:
            break
        U, s, Vh = np.linalg.svd((x[live] @ fwd.T).reshape(-1, n, n))
        val = s[:, 0]
        m = (U[:, :, 0, None] * Vh[:, None, 0, :]).reshape(-1, n * n)
        Ua, _, Vha = np.linalg.svd((m @ adj.T).reshape(-1, n, n))
        x[live] = (Ua @ Vha).reshape(-1, n * n)
        done = np.abs(val - prev[live]) <= 1e-13 * np.maximum(1.0, val)
        prev[live] = val
        live = live[~done]
    s_fin = np.linalg.svd((x @ fwd.T).reshape(r, n, n), compute_uv=False)[:, 0]
    best = int(np.argmax(s_fin))
    return s_fin[best], x[best].copy()


def kpos_seesaw(C, d1, d2, k, a_starts, b_starts, iters):
    """Minimize <psi|C|psi> over unit vectors of Schmidt rank <= k.

    psi is parametrized as vec(A @ B) with A of shape (d1, k) and B of shape
    (k, d2).  With the passive factor orthonormalized, each half step is an
    exact smallest-eigenvector computation, so the value is non-increasing.
    Returns the best (value, psi); the first best restart wins ties.
    """
    # C4[i, a, j, b] = C[(i a), (j b)], flattened for the two contractions
    C4 = C.reshape(d1, d2, d1, d2)
    C_b = C4.reshape(d1 * d2 * d1, d2)
    C_j = C4.transpose(0, 1, 3, 2).reshape(d1 * d2 * d2, d1)
    A = a_starts.astype(np.complex128)
    B = b_starts.astype(np.complex128)
    prev = np.full(A.shape[0], np.inf)
    live = np.arange(A.shape[0])
    for _ in range(iters):
        if live.size == 0:
            break
        # orthonormalize rows of B, then solve exactly for A:
        # HA[(i s), (j t)] = sum_ab conj(Bt[s, a]) C4[i, a, j, b] Bt[t, b]
        Bt = np.linalg.qr(B[live].conj().transpose(0, 2, 1))[0].conj().transpose(0, 2, 1)
        HA = Bt.conj()[:, None] @ (C_b @ Bt.transpose(0, 2, 1)).reshape(-1, d1, d2, d1 * k)
        VA = np.linalg.eigh(HA.reshape(-1, d1 * k, d1 * k))[1]
        # orthonormalize columns of A, then solve exactly for B:
        # HB[(s a), (t b)] = sum_ij conj(At[i, s]) C4[i, a, j, b] At[j, t]
        At = np.linalg.qr(VA[:, :, 0].reshape(-1, d1, k))[0]
        HB = At.conj().transpose(0, 2, 1) @ (C_j @ At).reshape(-1, d1, d2 * d2 * k)
        HB = HB.reshape(-1, k, d2, d2, k).transpose(0, 1, 2, 4, 3)
        wB, VB = np.linalg.eigh(HB.reshape(-1, k * d2, k * d2))
        A[live] = At
        B[live] = VB[:, :, 0].reshape(-1, k, d2)
        val = wB[:, 0]
        done = np.abs(val - prev[live]) <= 1e-14 * np.maximum(1.0, np.abs(val))
        prev[live] = val
        live = live[~done]
    psi = (A @ B).reshape(A.shape[0], d1 * d2)
    nrm = np.linalg.norm(psi, axis=1)
    psi[nrm > 0] /= nrm[nrm > 0, None]
    values = np.einsum("ri,ij,rj->r", psi.conj(), C, psi).real
    best = int(np.argmin(values))
    return values[best], psi[best].copy()


def pursuit_atom(R, dA, dB, a_starts, b_starts, iters):
    """Maximize <a (x) b|R_r|a (x) b> over unit product vectors, per restart.

    Alternates exact top-eigenvector steps for each factor.  R is one
    Hermitian dA*dB square matrix shared by every restart, or a stack with
    one per restart.  Each restart stops once its value changes by at most
    1e-13 relative.  Returns per-restart (values, a, b).
    """
    # R4[r, i, k, j, l] = R_r[(i k), (j l)], flattened for the two contractions
    R4 = np.broadcast_to(R.reshape(-1, dA, dB, dA, dB), (len(a_starts), dA, dB, dA, dB))
    R_l = R4.reshape(-1, dA * dB * dA, dB)
    R_j = R4.transpose(0, 1, 2, 4, 3).reshape(-1, dA * dB * dB, dA)
    a = a_starts.astype(np.complex128)
    b = b_starts.astype(np.complex128)
    val = np.full(a.shape[0], -np.inf)
    live = np.arange(a.shape[0])
    for _ in range(iters):
        if live.size == 0:
            break
        # Ma[r, i, j] = sum_kl conj(b[k]) R4[r, i, k, j, l] b[l]
        bl = b[live]
        Ma = bl.conj()[:, None, None, :] @ (R_l[live] @ bl[:, :, None]).reshape(-1, dA, dB, dA)
        al = np.linalg.eigh(Ma[:, :, 0, :])[1][:, :, dA - 1]
        # Mb[k, l] = sum_ij conj(a[i]) R4[r, i, k, j, l] a[j]
        Mb = al.conj()[:, None, :] @ (R_j[live] @ al[:, :, None]).reshape(-1, dA, dB * dB)
        wb, Vb = np.linalg.eigh(Mb.reshape(-1, dB, dB))
        new_val = wb[:, dB - 1]
        done = np.abs(new_val - val[live]) <= 1e-13 * np.maximum(1.0, np.abs(new_val))
        a[live], b[live], val[live] = al, Vb[:, :, dB - 1], new_val
        live = live[~done]
    return val, a, b
