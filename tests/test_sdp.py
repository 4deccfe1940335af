"""Tests for the block SDP solver and the checks built on it."""

import json

import numpy as np
import pytest

from ebcompose import choi, gaussian, linalg, sdp
from ebcompose.errors import DimMismatch, DomainError, NotHermitian, PreconditionFailed
from ebcompose.report import Report, from_json, to_json


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def choi_map() -> choi.QuantumMap:
    """Positive indecomposable map on M_3; the classic witness target."""

    def action(x):
        return np.array(
            [
                [x[0, 0] + x[2, 2], -x[0, 1], -x[0, 2]],
                [-x[1, 0], x[1, 1] + x[0, 0], -x[1, 2]],
                [-x[2, 0], -x[2, 1], x[2, 2] + x[1, 1]],
            ],
            dtype=complex,
        )

    return choi.choi_from_action(action, 3, 3)


def random_pd(n: int, rng: np.random.Generator) -> np.ndarray:
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return G @ G.conj().T + 0.1 * np.eye(n)


def solved_by_wrapper(monkeypatch, call):
    """The first problem a wrapper hands to ``sdp.solve``, and what it returned."""
    seen = []
    solve = sdp.solve

    def spy(problem, **kwargs):
        seen.append((problem, solve(problem, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(sdp, "solve", spy)
    call()
    monkeypatch.setattr(sdp, "solve", solve)
    return seen[0]


def problem_passed_to_solve(monkeypatch, call) -> sdp.SdpProblem:
    """The problem a wrapper hands to ``sdp.solve``."""
    return solved_by_wrapper(monkeypatch, call)[0]


class TestProblemValidation:
    def test_duplicate_block_names(self):
        with pytest.raises(PreconditionFailed):
            sdp.SdpProblem(blocks=(("x", 2), ("x", 3)), equalities=())

    def test_unknown_block_in_constraint(self):
        with pytest.raises(PreconditionFailed):
            sdp.SdpProblem(
                blocks=(("x", 2),), equalities=(({"y": np.eye(2)}, 1.0),)
            )

    def test_asymmetric_coefficient(self):
        with pytest.raises(NotHermitian):
            sdp.SdpProblem(
                blocks=(("x", 2),),
                equalities=(({"x": np.array([[0.0, 1.0], [0.0, 0.0]])}, 1.0),),
            )

    def test_coefficient_shape_mismatch(self):
        with pytest.raises(DimMismatch):
            sdp.SdpProblem(
                blocks=(("x", 3),), equalities=(({"x": np.eye(2)}, 1.0),)
            )

    def test_no_blocks(self):
        with pytest.raises(PreconditionFailed):
            sdp.SdpProblem(blocks=(), equalities=())

    def test_nan_coefficient_is_domain_error(self):
        M = np.eye(2)
        M[0, 1] = M[1, 0] = np.nan
        with pytest.raises(DomainError):
            sdp.SdpProblem(blocks=(("x", 2),), equalities=(({"x": M}, 1.0),))

    def test_nan_rhs_is_domain_error(self):
        with pytest.raises(DomainError):
            sdp.SdpProblem(blocks=(("x", 2),), equalities=(({"x": np.eye(2)}, np.nan),))

    def test_inf_objective_is_domain_error(self):
        with pytest.raises(DomainError):
            sdp.SdpProblem(
                blocks=(("x", 2),),
                equalities=(({"x": np.eye(2)}, 1.0),),
                objective={"x": np.diag([1.0, np.inf])},
            )

    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.eye(3), DimMismatch),
            (np.ones(4), DimMismatch),
            (np.triu(np.ones((4, 4))), NotHermitian),
            (np.diag([1.0, 1.0, np.nan, 1.0]), DomainError),
            (np.diag([1.0, -np.inf, 1.0, 1.0]), DomainError),
        ],
    )
    def test_one_bad_coefficient_in_a_batch(self, bad, error):
        eqs = [({"x": H, "y": H}, 0.0) for H in sdp._hermitian_basis(4)]
        eqs[11] = ({"x": eqs[11][0]["x"], "y": bad}, 0.0)
        with pytest.raises(error):
            sdp.SdpProblem(blocks=(("x", 4), ("y", 4)), equalities=tuple(eqs))

    def test_stored_coefficients_keep_their_form(self):
        A = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
        prob = sdp.SdpProblem(
            blocks=(("x", 2), ("y", 1)),
            equalities=(({"y": [[1.0]], "x": A}, 1.0), ({"x": np.eye(2)}, 2)),
        )
        (c0, r0), (c1, r1) = prob.equalities
        assert list(c0) == ["y", "x"] and list(c1) == ["x"]
        assert (r0, r1) == (1.0, 2.0) and isinstance(r1, float)
        np.testing.assert_array_equal(c0["x"], (A + A.T) / 2.0)
        assert c0["x"].shape == (2, 2) and c0["x"].dtype == complex
        assert not c0["x"].flags.writeable


class TestPacking:
    """A problem is validated and packed once, at construction."""

    @pytest.mark.parametrize("seed", range(6))
    def test_packed_data_match_dense_reference(self, seed):
        rng = rng_for(seed)
        names = ["a", "b", "c", "d", "unused"]
        dims = [int(n) for n in rng.integers(1, 5, size=len(names))]

        def coeff(n):
            # a Hermitian matrix, or a real symmetric one, off by a defect within the rule
            H = linalg.random_hermitian(n, rng)
            H = H.real if rng.random() < 0.5 else H
            return H + 1e-3 * linalg.TOL_HERM * rng.normal(size=(n, n))

        def terms(p):
            # a random subset of the used blocks, in a shuffled order
            return {names[k]: coeff(dims[k]) for k in rng.permutation(4) if rng.random() < p}

        eqs = [(terms(0.6), float(rng.normal())) for _ in range(7)]
        objective = terms(0.5)
        prob = sdp.SdpProblem(blocks=tuple(zip(names, dims)), equalities=tuple(eqs),
                              objective=objective)

        offsets = np.cumsum([0] + [n * n for n in dims])

        def dense_row(coeffs):
            row = np.zeros(offsets[-1])
            for name, M in coeffs.items():
                k = names.index(name)
                row[offsets[k] : offsets[k + 1]] = linalg.hvec((M + M.conj().T) / 2.0)
            return row

        A, b, c = prob._packed
        np.testing.assert_array_equal(A.toarray(), np.array([dense_row(co) for co, _ in eqs]))
        np.testing.assert_array_equal(b, [r for _, r in eqs])
        np.testing.assert_array_equal(c, dense_row(objective))

        pairs = [(co, given) for (co, _), (given, _) in zip(prob.equalities, eqs)]
        for stored, given in pairs + [(prob.objective, objective)]:
            assert list(stored) == list(given)
            for name, M in given.items():
                np.testing.assert_array_equal(stored[name], (M + M.conj().T) / 2.0)
                assert stored[name].dtype == complex and not stored[name].flags.writeable


class TestSolve:
    def test_unit_trace_feasible(self):
        prob = sdp.SdpProblem(
            blocks=(("x", 4),), equalities=(({"x": np.eye(4)}, 1.0),)
        )
        res = sdp.solve(prob)
        assert res.status == "feasible"
        X = res.primal["x"]
        assert linalg.psd_margin(X) >= -1e-9
        assert abs(np.trace(X) - 1.0) <= 1e-7 * 2.0

    def test_negative_trace_infeasible(self):
        prob = sdp.SdpProblem(
            blocks=(("x", 4),), equalities=(({"x": np.eye(4)}, -1.0),)
        )
        res = sdp.solve(prob)
        assert res.status == "infeasible"
        # Re-verify the separating functional from scratch.
        y = np.asarray(res.dual)
        assert float(np.array([-1.0]) @ y) > 0.0
        slack = -y[0] * np.eye(4)
        assert linalg.psd_margin(slack) >= -1e-9

    def test_known_minimum(self):
        C = np.diag([3.0, 1.0, 2.0, 5.0])
        prob = sdp.SdpProblem(
            blocks=(("x", 4),),
            equalities=(({"x": np.eye(4)}, 1.0),),
            objective={"x": C},
        )
        res = sdp.solve(prob)
        assert res.status == "feasible"
        assert res.residuals["objective"] == pytest.approx(1.0, abs=1e-7)

    def test_no_equalities_psd_objective_feasible_at_zero(self):
        prob = sdp.SdpProblem(
            blocks=(("x", 2), ("y", 3)), equalities=(),
            objective={"x": np.diag([1.0, 0.0]), "y": np.eye(3)},
        )
        res = sdp.solve(prob)
        assert res.status == "feasible"
        assert res.residuals["objective"] == 0.0
        assert np.array_equal(res.primal["y"], np.zeros((3, 3)))

    def test_no_equalities_unbounded_objective_inconclusive(self):
        # tr(-X) has no minimum over X >= 0
        prob = sdp.SdpProblem(blocks=(("x", 2),), equalities=(), objective={"x": -np.eye(2)})
        res = sdp.solve(prob)
        assert res.status == "inconclusive"
        assert res.primal is None
        assert "unbounded" in res.reason

    def test_two_blocks_coupled(self):
        # tr(X) - tr(Y) = 1 and tr(X) + tr(Y) = 3: X, Y exist with traces 2, 1.
        prob = sdp.SdpProblem(
            blocks=(("x", 2), ("y", 3)),
            equalities=(
                ({"x": np.eye(2), "y": -np.eye(3)}, 1.0),
                ({"x": np.eye(2), "y": np.eye(3)}, 3.0),
            ),
        )
        res = sdp.solve(prob)
        assert res.status == "feasible"
        assert np.trace(res.primal["x"]) == pytest.approx(2.0, abs=1e-6)
        assert np.trace(res.primal["y"]) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_feasible_audited(self, seed):
        rng = rng_for(seed)
        n, m = 6, 8
        X0 = linalg.random_psd(n, rng).real
        X0 = (X0 + X0.T) / 2
        mats = []
        b = []
        for _ in range(m):
            Ai = rng.normal(size=(n, n))
            Ai = (Ai + Ai.T) / 2
            mats.append(Ai)
            b.append(float(np.trace(Ai @ X0)))
        prob = sdp.SdpProblem(
            blocks=(("x", n),),
            equalities=tuple(({"x": Ai}, bi) for Ai, bi in zip(mats, b)),
        )
        res = sdp.solve(prob)
        assert res.status == "feasible"
        X = res.primal["x"]
        assert linalg.psd_margin(X) >= -1e-9
        scale = 1.0 + max(abs(v) for v in b)
        for Ai, bi in zip(mats, b):
            assert abs(np.trace(Ai @ X) - bi) <= 1e-7 * scale

    def test_iteration_cap_gives_inconclusive(self):
        prob = sdp.SdpProblem(
            blocks=(("x", 4),), equalities=(({"x": np.eye(4)}, 1.0),)
        )
        res = sdp.solve(prob, max_iters=1)
        assert res.status == "inconclusive"
        assert res.reason
        assert all(isinstance(v, float) for v in res.residuals.values())

    def test_infeasible_needs_verified_certificate(self):
        # Conflicting traces on the same block.
        prob = sdp.SdpProblem(
            blocks=(("x", 3),),
            equalities=(
                ({"x": np.eye(3)}, 1.0),
                ({"x": 2.0 * np.eye(3)}, 3.0),
            ),
        )
        res = sdp.solve(prob)
        assert res.status == "infeasible"
        y = np.asarray(res.dual)
        b = np.array([1.0, 3.0])
        gap = float(b @ y)
        assert gap > 0.0
        slack = -(y[0] * np.eye(3) + y[1] * 2.0 * np.eye(3)) / gap
        assert linalg.psd_margin(slack) >= -1e-9


def reference_nt_point(X, S):
    """W = X^1/2 (X^1/2 S X^1/2)^-1/2 X^1/2, the point with W S W = X, by eigh."""

    def power(M, t):
        w, Q = np.linalg.eigh(M)
        return (Q * w**t) @ Q.conj().T

    root = power(X, 0.5)
    return root @ power(root @ S @ root, -0.5) @ root


class TestNtScaling:
    """One Nesterov-Todd factor per block from two Choleskys and one SVD."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_factor_identities(self, n):
        rng = rng_for(100 + n)
        X, S = random_pd(n, rng), random_pd(n, rng)
        F, F_inv, d = sdp._nt_scaling(X, S)
        assert d.shape == (n,) and np.all(d > 0)
        np.testing.assert_allclose(F @ F_inv, np.eye(n), atol=1e-10)
        tol = 1e-10 * np.max(d)
        np.testing.assert_allclose(F_inv @ X @ F_inv.conj().T, np.diag(d), atol=tol)
        np.testing.assert_allclose(F.conj().T @ S @ F, np.diag(d), atol=tol)
        W = reference_nt_point(X, S)
        assert np.linalg.norm(F @ F.conj().T - W) <= 1e-10 * np.linalg.norm(W)

    @pytest.mark.parametrize("which", ["X", "S"])
    def test_non_pd_block_raises(self, which):
        good, bad = np.eye(3), np.diag([1.0, -1e-3, 2.0]).astype(complex)
        X, S = (bad, good) if which == "X" else (good, bad)
        with pytest.raises(np.linalg.LinAlgError):
            sdp._nt_scaling(X, S)


class TestKronOperator:
    """The Schur complement from one Kronecker-form operator per block."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_per_column_reference(self, n):
        W = random_pd(n, rng_for(n))
        ref = np.stack(
            [linalg.hvec(W @ linalg.hmat(e, n) @ W) for e in np.eye(n * n)], axis=1
        )
        got = sdp._kron_operator(W)
        assert got.shape == (n * n, n * n) and got.dtype == float
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", ["decomposability", "gaussian-split", "counterexample"])
    def test_schur_matches_dense_reference(self, case, monkeypatch):
        if case == "decomposability":
            P = choi.random_cp_cocp_map(3, 4)
            problem = problem_passed_to_solve(
                monkeypatch, lambda: sdp.decomposability_check(P)
            )
        elif case == "gaussian-split":
            C = gaussian.random_cocp_channel(2, 4)
            problem = problem_passed_to_solve(
                monkeypatch, lambda: sdp.gaussian_eb_split(C.Y, C.X)
            )
        else:
            blocks, eqs = sdp._seesaw_problem_parts(choi.random_cp_cocp_map(3, 4))
            F = linalg.random_hermitian(9, rng_for(4))
            problem = sdp.SdpProblem(blocks=blocks, equalities=eqs, objective={"choi_t": F})
        dims = [n for _, n in problem.blocks]
        A, b, c = problem._packed
        # every constraint family has O(1) nonzeros per row
        assert A.nnz <= 2 * A.shape[0] + max(dims)
        rng = rng_for(11)
        Ws = [random_pd(n, rng) for n in dims]
        offsets = np.cumsum([0] + [n * n for n in dims])
        A_blocks = [A[:, lo:hi] for lo, hi in zip(offsets, offsets[1:])]
        got = sdp._schur(A_blocks, [sdp._kron_operator(W) for W in Ws])
        Ad = A.toarray()
        op_w_A = sdp._pack([W @ M @ W for W, M in zip(Ws, sdp._unpack(Ad, dims))])
        ref = Ad @ op_w_A.T
        ref = (ref + ref.T) / 2.0
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestHermitianEmbedding:
    """Complex Hermitian data enters the solver directly, not through a real embedding."""

    def test_rejects_non_hermitian(self):
        # Complex symmetric but not Hermitian: a real-cast check would pass it.
        with pytest.raises(NotHermitian):
            sdp.SdpProblem(
                blocks=(("x", 2),),
                equalities=(({"x": np.array([[0.0, 1j], [1j, 0.0]])}, 1.0),),
            )

    def test_pauli_y_spectrum(self):
        # min tr(sigma_y X) over density matrices is the eigenvalue -1.
        sy = np.array([[0.0, -1j], [1j, 0.0]])
        prob = sdp.SdpProblem(
            blocks=(("x", 2),),
            equalities=(({"x": np.eye(2)}, 1.0),),
            objective={"x": sy},
        )
        res = sdp.solve(prob)
        assert res.status == "feasible"
        assert res.residuals["objective"] == pytest.approx(-1.0, abs=1e-7)
        X = res.primal["x"]
        assert linalg.hermiticity_defect(X) <= 1e-12
        assert linalg.psd_margin(X) >= -1e-9
        assert np.trace(sy @ X).real == pytest.approx(-1.0, abs=1e-7)

    @pytest.mark.parametrize("seed", range(50))
    def test_min_eig_preserved(self, seed):
        H = linalg.random_hermitian(5, rng_for(seed))
        prob = sdp.SdpProblem(
            blocks=(("x", 5),), equalities=(({"x": np.eye(5)}, 1.0),), objective={"x": H}
        )
        res = sdp.solve(prob)
        assert res.status == "feasible"
        assert res.residuals["objective"] == pytest.approx(linalg.min_eig(H), abs=1e-7)

    def test_round_trip(self, rng):
        H = linalg.random_hermitian(4, rng)
        prob = sdp.SdpProblem(
            blocks=(("x", 4),), equalities=(({"x": np.eye(4)}, 1.0),), objective={"x": H}
        )
        back = from_json(json.loads(json.dumps(to_json(prob))))
        assert np.array_equal(back.objective["x"], prob.objective["x"])
        assert np.abs(back.objective["x"].imag).max() > 0.0
        assert sdp.solve(back).residuals["objective"] == pytest.approx(
            linalg.min_eig(H), abs=1e-7
        )


class TestDecomposability:
    def test_identity_decomposable(self):
        res = sdp.decomposability_check(choi.identity_map(3))
        assert res.status == "feasible"
        C1, C2 = res.primal["cp_part"], res.primal["cocp_part"]
        assert linalg.psd_margin(C1) >= -1e-9
        assert linalg.psd_margin(C2) >= -1e-9
        recon = C1 + linalg.partial_transpose(C2, (3, 3), "B")
        target = choi.identity_map(3).choi
        assert np.max(np.abs(recon - target)) <= 1e-6

    def test_transposition_decomposable(self):
        res = sdp.decomposability_check(choi.transposition_map(3))
        assert res.status == "feasible"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_ppt_maps_decomposable(self, seed):
        P = choi.random_cp_cocp_map(3, seed)
        res = sdp.decomposability_check(P)
        assert res.status == "feasible"

    def test_choi_map_not_decomposable(self):
        P = choi_map()
        res = sdp.decomposability_check(P)
        assert res.status == "infeasible"
        V = res.dual
        # The witness is a verified PPT state seeing the map go negative.
        assert linalg.psd_margin(V) >= -1e-9
        assert linalg.psd_margin(linalg.partial_transpose(V, (3, 3), "B")) >= -1e-9
        assert np.trace(V).real == pytest.approx(1.0, abs=1e-9)
        assert float(np.real(np.trace(V @ P.choi))) < 0.0

    def test_random_cp_cocp_map_at_d6_decomposable(self):
        P = choi.random_cp_cocp_map(6, 3)
        res = sdp.decomposability_check(P)
        assert res.status == "feasible"
        C1, C2 = res.primal["cp_part"], res.primal["cocp_part"]
        assert linalg.psd_margin(C1) >= -1e-9
        assert linalg.psd_margin(C2) >= -1e-9
        recon = C1 + linalg.partial_transpose(C2, P.dims, "B")
        err = np.max(np.abs(recon - P.choi)) / (1.0 + np.max(np.abs(P.choi)))
        assert err <= sdp.FEAS_TOL

    def test_cp_plus_cocp_sum_decomposable(self, rng):
        A = linalg.random_psd(9, rng)
        B = linalg.random_psd(9, rng)
        C = A + linalg.partial_transpose(B, (3, 3), "B")
        res = sdp.decomposability_check(choi.QuantumMap(3, 3, C))
        assert res.status == "feasible"


class TestGaussianSplit:
    def test_zero_gain_identity_noise_feasible(self):
        res = sdp.gaussian_eb_split(np.eye(2), np.zeros((2, 2)))
        assert res.status == "feasible"
        M, N = res.primal["M"], res.primal["N"]
        sig = linalg.symplectic_form(1)
        assert linalg.psd_margin(M - 1j * sig) >= -1e-9
        assert linalg.psd_margin(N) >= -1e-9
        assert np.max(np.abs(M + N - np.eye(2))) <= 1e-7

    def test_identity_gain_zero_noise_infeasible(self):
        res = sdp.gaussian_eb_split(np.zeros((2, 2)), np.eye(2))
        assert res.status == "infeasible"

    def test_identity_gain_double_noise_feasible(self):
        res = sdp.gaussian_eb_split(2.0 * np.eye(2), np.eye(2))
        assert res.status == "feasible"
        M, N = res.primal["M"], res.primal["N"]
        assert np.allclose(M, np.eye(2), atol=1e-5)
        assert np.allclose(N, np.eye(2), atol=1e-5)

    def test_threshold_bracket(self):
        assert sdp.gaussian_eb_split(1.9 * np.eye(2), np.eye(2)).status == "infeasible"
        assert sdp.gaussian_eb_split(2.1 * np.eye(2), np.eye(2)).status == "feasible"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_noise_padding_keeps_feasible(self, n):
        rng = rng_for(100 + n)
        O = np.linalg.qr(rng.normal(size=(2 * n, 2 * n)))[0]
        X = 0.4 * O
        Y = 2.0 * np.eye(2 * n)
        r1 = sdp.gaussian_eb_split(Y, X)
        assert r1.status == "feasible"
        r2 = sdp.gaussian_eb_split(Y + 0.7 * np.eye(2 * n), X)
        assert r2.status == "feasible"

    def test_infeasible_certificate_is_audited(self):
        res = sdp.gaussian_eb_split(0.5 * np.eye(2), np.eye(2))
        assert res.status == "infeasible"
        assert res.residuals["farkas_slack_margin"] >= -1e-9

    def test_asymmetric_noise_rejected(self):
        with pytest.raises(NotHermitian):
            sdp.gaussian_eb_split(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimMismatch):
            sdp.gaussian_eb_split(np.eye(3), np.eye(3))


class TestCbSplitBound:
    @staticmethod
    def bound(J, din, dout=None):
        res = sdp.cb_split_bound(choi.QuantumMap(din, dout or din, J))
        assert res.status == sdp.FEASIBLE
        return res

    @pytest.mark.parametrize("d", [2, 3])
    def test_known_norms(self, d):
        # id and the transpose have norm 1, X -> Tr[X] I has norm d
        cases = [(linalg.max_entangled_projector(d), 1.0), (linalg.flip_operator(d), 1.0),
                 (np.eye(d * d), float(d))]
        for J, norm in cases:
            upper = self.bound(J, d).residuals["upper_bound"]
            assert norm <= upper <= norm + 1e-6

    @pytest.mark.parametrize("p", [-0.8, -0.5, 0.3, 0.5])
    def test_holevo_werner_deviation(self, p):
        # D = -p θ splits as A = 0, B = -p id
        upper = self.bound(-p * linalg.flip_operator(3), 3).residuals["upper_bound"]
        assert abs(p) <= upper <= abs(p) + 1e-6

    def test_rectangular_map(self):
        # X -> Tr[X] |0><0| from M_2 to M_3 has norm 2
        J = np.kron(np.eye(2), np.diag([1.0, 0.0, 0.0]))
        upper = self.bound(J, 2, 3).residuals["upper_bound"]
        assert 2.0 <= upper <= 2.0 + 1e-6

    @pytest.mark.parametrize("scale", [1e-150, 1e12, 1e150])
    def test_badly_scaled_maps(self, scale):
        # X -> (sum_ij X_ij) J_3 has norm 9; the problem is solved at unit scale
        upper = self.bound(scale * np.ones((9, 9)), 3).residuals["upper_bound"]
        assert 9.0 <= upper / scale <= 9.0 + 1e-6

    def test_evidence_re_derives_the_bound(self):
        rng = rng_for(3)
        H = linalg.random_hermitian(9, rng)
        res = self.bound(H, 3)
        X = res.primal
        split = X["j_a"] + linalg.partial_transpose(X["j_b"], (3, 3), "A")
        assert np.max(np.abs(split - H)) <= 1e-12
        for key in ("a", "b"):
            Y, J = X["y_" + key], X["j_" + key]
            assert np.linalg.eigvalsh(Y - J)[0] >= -1e-12
            assert np.linalg.eigvalsh(Y + J)[0] >= -1e-12
        norms = sum(linalg.operator_norm(linalg.partial_trace(X["y_" + k], (3, 3), "A"))
                    for k in ("a", "b"))
        assert res.residuals["rounding_allowance"] > 0.0
        assert res.residuals["upper_bound"] >= norms + res.residuals["rounding_allowance"]

    def test_anti_hermitian_part_is_bounded_separately(self):
        # X -> i X^T has norm 1; its Choi matrix i F has no Hermitian part
        res = self.bound(1j * linalg.flip_operator(2), 2)
        assert res.residuals["anti_hermitian_bound"] == pytest.approx(4.0)
        assert res.residuals["upper_bound"] >= 1.0

    def test_non_finite_entries(self):
        J = np.eye(4, dtype=complex)
        J[1, 2] = np.inf
        with pytest.raises(DomainError):
            sdp.cb_split_bound(choi.QuantumMap(2, 2, J))


def count_constructions(monkeypatch) -> list:
    """Record every ``SdpProblem`` construction from here on."""
    calls = []
    post_init = sdp.SdpProblem.__post_init__

    def counting(self):
        calls.append(len(self.equalities))
        post_init(self)

    monkeypatch.setattr(sdp.SdpProblem, "__post_init__", counting)
    return calls


def basis_rhs(M):
    """tr(B_k M) over the Hermitian basis, as a dense contraction."""
    return np.einsum("kij,ji->k", sdp._hermitian_basis(M.shape[0]), M).real


def fresh_decomposability_problem(P):
    D = P.din * P.dout
    basis = sdp._hermitian_basis(D)
    basis_pt = linalg.partial_transpose(basis, P.dims, "B")
    eqs = [({"cp_part": H, "cocp_part": G}, float(r))
           for H, G, r in zip(basis, basis_pt, basis_rhs(P.choi))]
    return sdp.SdpProblem(blocks=(("cp_part", D), ("cocp_part", D)), equalities=tuple(eqs))


def fresh_gaussian_problem(Y, X):
    n = Y.shape[0] // 2
    sig = linalg.symplectic_form(n)
    K = Y - 1j * (sig + X @ sig @ X.T)
    basis = sdp._hermitian_basis(2 * n)
    eqs = [({"part_m": H, "part_n": H}, float(r)) for H, r in zip(basis, basis_rhs(K))]
    iu = np.triu_indices(2 * n, 1)
    eqs += [({"part_m": H}, -2.0 * float(v)) for H, v in zip(basis[-len(iu[0]):], sig[iu])]
    return sdp.SdpProblem(blocks=(("part_m", 2 * n), ("part_n", 2 * n)), equalities=tuple(eqs))


TEMPLATE_CASES = {
    "decomposability-d3": (sdp._decomposability_template,
                           lambda: choi.random_cp_cocp_map(3, 21),
                           sdp.decomposability_check, fresh_decomposability_problem),
    "decomposability-d4": (sdp._decomposability_template,
                           lambda: choi.random_cp_cocp_map(4, 22),
                           sdp.decomposability_check, fresh_decomposability_problem),
    "decomposability-choi-witness": (sdp._decomposability_template, choi_map,
                                     sdp.decomposability_check,
                                     fresh_decomposability_problem),
}
for _n in (1, 2, 3):
    TEMPLATE_CASES[f"gaussian-n{_n}"] = (
        sdp._gaussian_template,
        lambda n=_n: gaussian.random_cocp_channel(n, 30 + n),
        lambda C: sdp.gaussian_eb_split(C.Y, C.X),
        lambda C: fresh_gaussian_problem(C.Y, C.X),
    )


class TestTemplates:
    """Each wrapper compiles its problem once per dimension and rebinds the data."""

    @pytest.mark.parametrize("case", sorted(TEMPLATE_CASES))
    def test_matches_a_fresh_problem(self, case, monkeypatch):
        template, make, wrapper, fresh = TEMPLATE_CASES[case]
        template.cache_clear()
        data = make()
        calls = count_constructions(monkeypatch)
        problem, got = solved_by_wrapper(monkeypatch, lambda: wrapper(data))
        assert len(calls) == 1
        solved_by_wrapper(monkeypatch, lambda: wrapper(data))
        assert len(calls) == 1, "a second call with the same dimensions constructed again"

        ref_problem = fresh(data)
        ref = sdp.solve(ref_problem)
        (A, b, c), (A_ref, b_ref, c_ref) = problem._packed, ref_problem._packed
        assert (A != A_ref).nnz == 0
        np.testing.assert_array_equal(b, b_ref)
        np.testing.assert_array_equal(c, c_ref)
        assert len(problem.equalities) == len(ref_problem.equalities)
        assert [r for _, r in problem.equalities] == [r for _, r in ref_problem.equalities]
        assert problem.blocks == ref_problem.blocks

        assert got.status == ref.status
        assert got.residuals["iterations"] == ref.residuals["iterations"]
        if ref.status == sdp.FEASIBLE:
            scale = max(1.0, max(np.max(np.abs(X)) for X in ref.primal.values()))
            for name, X in ref.primal.items():
                assert np.max(np.abs(got.primal[name] - X)) <= 1e-12 * scale
        else:
            assert ref.status == sdp.INFEASIBLE
            scale = max(1.0, np.max(np.abs(ref.dual)))
            assert np.max(np.abs(got.dual - ref.dual)) <= 1e-12 * scale

    def test_rebind_checks_only_the_new_data(self):
        template = sdp._gaussian_template(1)
        A, b, c = template._packed
        rebound = template._rebind(b=np.arange(b.size, dtype=float))
        assert rebound._packed[0] is A and rebound._a_blocks is template._a_blocks
        assert [r for _, r in rebound.equalities] == list(range(b.size))
        assert all(new is old for (new, _), (old, _) in
                   zip(rebound.equalities, template.equalities))
        np.testing.assert_array_equal(template._packed[1], b)
        for bad in (np.full(b.size, np.nan), np.full(b.size, np.inf)):
            with pytest.raises(DomainError):
                template._rebind(b=bad)
        with pytest.raises(DimMismatch):
            template._rebind(b=np.zeros(b.size + 1))

        objective = {"part_n": np.array([[1.0, 2.0 - 1j], [2.0 + 1j, 0.5]])}
        rebound = template._rebind(objective=objective)
        ref = sdp.SdpProblem(blocks=template.blocks, equalities=template.equalities,
                             objective=objective)
        np.testing.assert_array_equal(rebound._packed[2], ref._packed[2])
        assert list(rebound.objective) == ["part_n"]
        for bad, error in ((np.array([[0.0, 1.0], [0.0, 0.0]]), NotHermitian),
                           (np.diag([1.0, np.nan]), DomainError),
                           (np.eye(3), DimMismatch)):
            with pytest.raises(error):
                template._rebind(objective={"part_m": bad})
        with pytest.raises(PreconditionFailed):
            template._rebind(objective={"elsewhere": np.eye(2)})

    def test_typed_errors_survive(self):
        nan = np.eye(9, dtype=complex)
        nan[1, 2] = np.nan
        huge = np.full((9, 9), 1e308, dtype=complex)
        skew = np.eye(9, dtype=complex)
        skew[0, 1] = 1.0
        for C, error in ((nan, DomainError), (huge, DomainError), (skew, NotHermitian)):
            with pytest.raises(error):
                sdp.decomposability_check(choi.QuantumMap(3, 3, C))
        for C in (nan, huge):
            with pytest.raises(DomainError):
                sdp.cb_split_bound(choi.QuantumMap(3, 3, C))
        Y, X = 2.0 * np.eye(4), 0.3 * np.eye(4)
        with pytest.raises(DomainError):
            sdp.gaussian_eb_split(Y, np.where(np.eye(4) > 0, np.nan, X))
        with pytest.raises(DomainError):
            sdp.gaussian_eb_split(np.full((4, 4), 1e308), X)
        with pytest.raises(NotHermitian):
            sdp.gaussian_eb_split(Y + np.triu(np.ones((4, 4)), 1), X)


class TestCounterexampleSearch:
    def test_choi_map_composition_stays_decomposable(self):
        rep = sdp.counterexample_search(choi_map(), restarts=2, max_rounds=10, seed=5)
        assert rep.op == "counterexample_search"
        assert rep.status == "composition-decomposable"
        names = [e["name"] for e in rep.evidence]
        assert "composition-decomposability" in names
        assert "input-ppt-margins" in names
        margins = next(e for e in rep.evidence if e["name"] == "input-ppt-margins")
        assert margins["data"]["psd"] >= -1e-8
        assert margins["data"]["pt"] >= -1e-8
        assert margins["data"]["trace_error"] <= 1e-6
        # The returned input really produces a negative composition direction.
        CT = next(e for e in rep.evidence if e["name"] == "input-choi")["data"]
        T = choi.QuantumMap(3, 3, (CT + CT.conj().T) / 2)
        comp = choi.compose(choi_map(), T).choi
        assert linalg.min_eig(comp) < -1e-6

    def test_transposition_finds_no_violation(self):
        rep = sdp.counterexample_search(
            choi.transposition_map(3), restarts=2, max_rounds=5, seed=1
        )
        assert rep.status == "no-violation-found"
        for row in rep.trace:
            if row["value"] is not None:
                assert row["value"] >= -1e-9

    def test_objective_non_increasing_within_restart(self):
        rep = sdp.counterexample_search(
            choi.transposition_map(3), restarts=1, max_rounds=6, seed=3
        )
        vals = [r["value"] for r in rep.trace if r["value"] is not None]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-7

    def test_search_rebinds_one_problem_per_search(self, monkeypatch):
        P = choi.random_cp_cocp_map(3, 5)
        calls = count_constructions(monkeypatch)
        rep = sdp.counterexample_search(P, restarts=2, max_rounds=5, seed=3)
        assert len(calls) <= 1

        # reference: a fresh problem from the same fixed equalities every round
        blocks, eqs = sdp._seesaw_problem_parts(P)
        monkeypatch.setattr(sdp.SdpProblem, "_rebind", lambda self, objective: sdp.SdpProblem(
            blocks=blocks, equalities=eqs, objective=objective))
        ref = sdp.counterexample_search(P, restarts=2, max_rounds=5, seed=3)
        assert len(calls) > len(ref.trace)

        assert rep.status == ref.status
        assert [r["status"] for r in rep.trace] == [r["status"] for r in ref.trace]
        assert {r["restart"] for r in rep.trace} == {0, 1}
        for got, want in zip(rep.trace, ref.trace):
            assert got["sdp_objective"] == pytest.approx(want["sdp_objective"], rel=1e-9)
        best = [next(e["data"] for e in r.evidence if e["name"] == "best-objective")
                for r in (rep, ref)]
        assert best[0] == pytest.approx(best[1], rel=1e-9, abs=1e-12)

    def test_report_serializes(self):
        rep = sdp.counterexample_search(choi_map(), restarts=1, max_rounds=4, seed=0)
        back = from_json(json.loads(json.dumps(to_json(rep))))
        assert isinstance(back, Report)
        assert back.status == rep.status
        assert back.seed == 0
