import itertools

import numpy as np
import pytest

from ebcompose import _kernels, catalog, choi, criteria, linalg


def _ball_operators(T):
    d = T.din
    C4 = (T.choi - np.eye(d * d)).reshape(d, d, d, d)
    fwd = np.ascontiguousarray(C4.transpose(1, 3, 0, 2).reshape(d * d, d * d))
    adj = np.ascontiguousarray(C4.transpose(0, 2, 1, 3).conj().reshape(d * d, d * d))
    return fwd, adj


@pytest.fixture(scope="module")
def ball_inputs():
    d = 3
    fwd, adj = _ball_operators(choi.QuantumMap(d, d, np.eye(d * d) - 0.6 * linalg.flip_operator(d)))
    rng = np.random.default_rng(0)
    starts = np.stack([np.eye(d, dtype=complex), np.diag([1.0, 1.0, -1.0]).astype(complex),
                       linalg.haar_unitary(d, rng)])
    return fwd, adj, starts.astype(np.complex128)


def _ball_reference(fwd, adj, start, iters):
    """One restart of the ball seesaw, written as the per-restart loop."""
    n = start.shape[0]
    x = start.ravel().copy()
    prev = -1.0
    for _ in range(iters):
        U, s, Vh = np.linalg.svd((fwd @ x).reshape(n, n))
        Ua, _, Vha = np.linalg.svd((adj @ np.outer(U[:, 0], Vh[0]).ravel()).reshape(n, n))
        x = (Ua @ Vha).ravel()
        if abs(s[0] - prev) <= 1e-13 * max(1.0, s[0]):
            break
        prev = s[0]
    return np.linalg.svd((fwd @ x).reshape(n, n), compute_uv=False)[0]


def _kpos_reference(C, d1, d2, k, A, B, iters):
    """One restart of the Schmidt-rank-k seesaw with explicit embeddings."""
    prev = np.inf
    for _ in range(iters):
        Bt = np.linalg.qr(B.conj().T)[0].conj().T
        KB = np.kron(np.eye(d1), Bt.T)      # vec(A @ Bt) = KB @ vec(A)
        A = np.linalg.eigh(KB.conj().T @ C @ KB)[1][:, 0].reshape(d1, k)
        A = np.linalg.qr(A)[0]
        KA = np.kron(A, np.eye(d2))         # vec(A @ B) = KA @ vec(B)
        w, V = np.linalg.eigh(KA.conj().T @ C @ KA)
        B = V[:, 0].reshape(k, d2)
        if abs(w[0] - prev) <= 1e-14 * max(1.0, abs(w[0])):
            break
        prev = w[0]
    psi = (A @ B).ravel()
    psi = psi / np.linalg.norm(psi)
    return (psi.conj() @ C @ psi).real


def _pursuit_reference(R, dA, dB, a, b, iters):
    """One restart of the product-vector pursuit with explicit embeddings."""
    val = -np.inf
    for _ in range(iters):
        Pb = np.kron(np.eye(dA), b[:, None])   # a (x) b = Pb @ a
        a = np.linalg.eigh(Pb.conj().T @ R @ Pb)[1][:, -1]
        Pa = np.kron(a[:, None], np.eye(dB))   # a (x) b = Pa @ b
        w, V = np.linalg.eigh(Pa.conj().T @ R @ Pa)
        b = V[:, -1]
        if abs(w[-1] - val) <= 1e-13 * max(1.0, abs(w[-1])):
            return w[-1], a, b
        val = w[-1]
    return val, a, b


# the whole batch and every pair: each restart that beats another one wins
# some call, so its masked trajectory is checked
SUBSETS = [list(range(6))] + [list(pair) for pair in itertools.combinations(range(6), 2)]


def _stopping_iterations(run, count, iters):
    """Iteration at which each single-start call stops changing its output.

    A stopped restart returns the same bits for every larger budget, so the
    first such budget is found by bisection.
    """
    stops = []
    for r in range(count):
        final = run(r, iters)[1]
        lo, hi = 0, iters
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if np.array_equal(run(r, mid)[1], final) else (mid + 1, hi)
        stops.append(lo)
    return stops


class TestPathsAgree:
    """The restart-batched kernels reach known optima, agree with the
    per-restart loop they replace, and agree with their single-start calls."""

    def test_ball_seesaw(self, ball_inputs):
        fwd, adj, starts = ball_inputs
        v, x = _kernels.ball_seesaw(fwd, adj, starts, 60)
        assert v == pytest.approx(0.6, abs=1e-9)
        assert np.linalg.svd((fwd @ x).reshape(3, 3), compute_uv=False)[0] == pytest.approx(v, abs=1e-12)

    def test_kpos_seesaw(self):
        C = np.ascontiguousarray(linalg.flip_operator(3))
        rng = np.random.default_rng(1)
        a = (rng.normal(size=(4, 3, 2)) + 1j * rng.normal(size=(4, 3, 2))).astype(np.complex128)
        b = (rng.normal(size=(4, 2, 3)) + 1j * rng.normal(size=(4, 2, 3))).astype(np.complex128)
        v, psi = _kernels.kpos_seesaw(C, 3, 3, 2, a, b, 80)
        # the flip operator's rank-2 minimum is the singlet value -1; the
        # minimizer is degenerate, so check the output on its own merits
        assert v == pytest.approx(-1.0, abs=1e-10)
        assert (psi.conj() @ C @ psi).real == pytest.approx(-1.0, abs=1e-10)
        s = np.linalg.svd(psi.reshape(3, 3), compute_uv=False)
        assert s[2] <= 1e-10

    def test_pursuit_atom(self):
        rng = np.random.default_rng(2)
        R = linalg.random_psd(9, rng)
        a = np.stack([linalg.random_pure_state(3, rng) for _ in range(3)]).astype(np.complex128)
        b = np.stack([linalg.random_pure_state(3, rng) for _ in range(3)]).astype(np.complex128)
        vs, aj, bj = _kernels.pursuit_atom(np.ascontiguousarray(R), 3, 3, a, b, 30)
        best = int(np.argmax(vs))
        prod = np.kron(aj[best], bj[best])
        assert (prod.conj() @ R @ prod).real == pytest.approx(vs[best], abs=1e-10)

    @pytest.mark.parametrize("d,p", [(3, 0.6), (4, -0.8), (5, 0.3)])
    def test_ball_seesaw_matches_per_restart_loop(self, d, p):
        fwd, adj = _ball_operators(catalog.holevo_werner(d, p).map)
        starts = criteria._reflection_starts(d, 12, seed=d)
        v, _ = _kernels.ball_seesaw(fwd, adj, starts, 100)
        ref = max(_ball_reference(fwd, adj, s, 100) for s in starts)
        assert v == pytest.approx(ref, abs=1e-12)
        assert v == pytest.approx(abs(p), abs=1e-9)

    @pytest.mark.parametrize("d1,d2,k", [(3, 3, 2), (3, 4, 2), (4, 3, 3), (2, 2, 1)])
    def test_kpos_seesaw_matches_per_restart_loop(self, d1, d2, k):
        rng = np.random.default_rng(10 * d1 + d2)
        C = linalg.random_hermitian(d1 * d2, rng)
        a = rng.normal(size=(6, d1, k)) + 1j * rng.normal(size=(6, d1, k))
        b = rng.normal(size=(6, k, d2)) + 1j * rng.normal(size=(6, k, d2))
        v, psi = _kernels.kpos_seesaw(C, d1, d2, k, a, b, 200)
        ref = min(_kpos_reference(C, d1, d2, k, a[r], b[r], 200) for r in range(6))
        assert v == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))
        assert (psi.conj() @ C @ psi).real == pytest.approx(v, abs=1e-12 * max(1.0, abs(v)))

    @pytest.mark.parametrize("dA,dB", [(3, 3), (2, 4), (4, 3)])
    def test_pursuit_atom_matches_per_restart_loop(self, dA, dB):
        rng = np.random.default_rng(10 * dA + dB)
        R = linalg.random_hermitian(dA * dB, rng)
        a = np.stack([linalg.random_pure_state(dA, rng) for _ in range(6)])
        b = np.stack([linalg.random_pure_state(dB, rng) for _ in range(6)])
        vs, aj, bj = _kernels.pursuit_atom(R, dA, dB, a, b, 200)
        best = int(np.argmax(vs))
        v = vs[best]
        refs = [_pursuit_reference(R, dA, dB, a[r], b[r], 200) for r in range(6)]
        ref_v, ref_a, ref_b = refs[int(np.argmax([rv for rv, _, _ in refs]))]
        assert v == pytest.approx(ref_v, abs=1e-12 * max(1.0, abs(ref_v)))
        prod, ref_prod = np.kron(aj[best], bj[best]), np.kron(ref_a, ref_b)
        assert (prod.conj() @ R @ prod).real == pytest.approx(v, abs=1e-12 * max(1.0, abs(v)))
        assert abs(ref_prod.conj() @ prod) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("shared", [False, True], ids=["stacked", "shared"])
    @pytest.mark.parametrize("dA,dB", [(3, 3), (2, 4), (4, 3)])
    def test_pursuit_atom_each_restart_matches_per_restart_loop(self, dA, dB, shared):
        # with one residual per restart, as in the stacked polish, or one
        # shared residual: every restart ends where the per-restart loop
        # ends on its own residual
        rng = np.random.default_rng(100 + 10 * dA + dB)
        R = np.stack([linalg.random_hermitian(dA * dB, rng) for _ in range(6)])
        if shared:
            R = np.broadcast_to(R[0], R.shape)
        a = np.stack([linalg.random_pure_state(dA, rng) for _ in range(6)])
        b = np.stack([linalg.random_pure_state(dB, rng) for _ in range(6)])
        vs, aj, bj = _kernels.pursuit_atom(R[0] if shared else R, dA, dB, a, b, 200)
        assert vs.shape == (6,) and aj.shape == (6, dA) and bj.shape == (6, dB)
        for r in range(6):
            ref_v, ref_a, ref_b = _pursuit_reference(R[r], dA, dB, a[r], b[r], 200)
            tol = 1e-12 * max(1.0, abs(ref_v))
            assert vs[r] == pytest.approx(ref_v, abs=tol)
            prod, ref_prod = np.kron(aj[r], bj[r]), np.kron(ref_a, ref_b)
            assert (prod.conj() @ R[r] @ prod).real == pytest.approx(vs[r], abs=tol)
            assert abs(ref_prod.conj() @ prod) == pytest.approx(1.0, abs=1e-8)

    def test_pursuit_atom_first_best_restart_wins_ties(self):
        # |00> and |11> both reach the maximum 1 exactly; the argmax takes
        # the first start's product vector
        R = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
        e = np.eye(2, dtype=complex)
        for first, second in ((0, 1), (1, 0)):
            starts = np.stack([e[first], e[second]])
            vs, a, b = _kernels.pursuit_atom(R, 2, 2, starts, starts, 10)
            best = int(np.argmax(vs))
            v, a, b = vs[best], a[best], b[best]
            assert v == 1.0
            assert abs(a[first]) == pytest.approx(1.0) and abs(b[first]) == pytest.approx(1.0)

    def test_ball_seesaw_batch_is_best_single_start(self):
        # a non-positive map with several local maxima, reached after
        # different numbers of iterations; some late-stopping restarts beat
        # earlier-stopping ones
        rng = np.random.default_rng(0)
        fwd, adj = _ball_operators(choi.QuantumMap(4, 4, linalg.random_hermitian(16, rng)))
        starts = linalg.haar_unitary(4, rng, size=6)

        def single(r, iters):
            return _kernels.ball_seesaw(fwd, adj, starts[r:r + 1], iters)

        singles = [single(r, 300)[0] for r in range(6)]
        assert np.ptp(singles) > 0.5
        assert len(set(_stopping_iterations(single, 6, 300))) > 1
        for subset in SUBSETS:
            v, x = _kernels.ball_seesaw(fwd, adj, starts[subset], 300)
            assert v == pytest.approx(max(singles[r] for r in subset), abs=1e-12)
            assert np.linalg.svd((fwd @ x).reshape(4, 4), compute_uv=False)[0] == pytest.approx(v, abs=1e-12)

    def test_kpos_seesaw_batch_is_best_single_start(self):
        # product-vector minimization with three distinct local minima; a
        # late-stopping restart is best
        rng = np.random.default_rng(7)
        C = linalg.random_hermitian(16, rng)
        a = rng.normal(size=(6, 4, 1)) + 1j * rng.normal(size=(6, 4, 1))
        b = rng.normal(size=(6, 1, 4)) + 1j * rng.normal(size=(6, 1, 4))

        def single(r, iters):
            return _kernels.kpos_seesaw(C, 4, 4, 1, a[r:r + 1], b[r:r + 1], iters)

        singles = [single(r, 300)[0] for r in range(6)]
        assert np.ptp(singles) > 0.1
        assert len(set(_stopping_iterations(single, 6, 300))) > 1
        for subset in SUBSETS:
            v, psi = _kernels.kpos_seesaw(C, 4, 4, 1, a[subset], b[subset], 300)
            assert v == pytest.approx(min(singles[r] for r in subset), abs=1e-12)
            assert (psi.conj() @ C @ psi).real == pytest.approx(v, abs=1e-12)

    def test_pursuit_atom_batch_is_each_single_start(self):
        # restarts that stop after different numbers of iterations, at
        # different local maxima; each keeps its single-start result
        rng = np.random.default_rng(4)
        R = linalg.random_hermitian(16, rng)
        a = np.stack([linalg.random_pure_state(4, rng) for _ in range(6)])
        b = np.stack([linalg.random_pure_state(4, rng) for _ in range(6)])

        def single(r, iters):
            return _kernels.pursuit_atom(R, 4, 4, a[r:r + 1], b[r:r + 1], iters)

        singles = [single(r, 300) for r in range(6)]
        assert np.ptp([v[0] for v, _, _ in singles]) > 0.1
        assert len(set(_stopping_iterations(single, 6, 300))) > 1
        for subset in SUBSETS:
            vs, aj, bj = _kernels.pursuit_atom(R, 4, 4, a[subset], b[subset], 300)
            for k, r in enumerate(subset):
                v, a1, b1 = singles[r]
                assert vs[k] == pytest.approx(v[0], abs=1e-12)
                overlap = np.kron(a1[0], b1[0]).conj() @ np.kron(aj[k], bj[k])
                assert abs(overlap) == pytest.approx(1.0, abs=1e-8)

    def test_ball_seesaw_first_best_restart_wins_ties(self):
        # D is linear, so the run from -X is the negated run from X and both
        # restarts end on the same value; the first one's point is returned
        rng = np.random.default_rng(0)
        fwd, adj = _ball_operators(choi.QuantumMap(4, 4, linalg.random_hermitian(16, rng)))
        X = linalg.haar_unitary(4, rng)
        _, x_alone = _kernels.ball_seesaw(fwd, adj, X[None], 300)
        for sign in (1.0, -1.0):
            _, x = _kernels.ball_seesaw(fwd, adj, np.stack([sign * X, -sign * X]), 300)
            np.testing.assert_allclose(x, sign * x_alone, atol=1e-10)
