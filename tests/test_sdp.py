"""Tests for the block SDP solver and the checks built on it."""

import copy
import dataclasses
import gc
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from ebcompose import catalog, choi, gaussian, linalg, sdp
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


def solves_of(monkeypatch, call):
    """What ``call`` returned, and each (problem, result) it got from ``sdp.solve``."""
    seen = []
    solve = sdp.solve

    def spy(problem, **kwargs):
        res = solve(problem, **kwargs)
        # a copy, as returned: a wrapper may scale the blocks back in place
        seen.append((problem, copy.deepcopy(res)))
        return res

    monkeypatch.setattr(sdp, "solve", spy)
    out = call()
    monkeypatch.setattr(sdp, "solve", solve)
    return out, seen


def solved_by_wrapper(monkeypatch, call):
    """The first problem a wrapper hands to ``sdp.solve``, and what it returned."""
    return solves_of(monkeypatch, call)[1][0]


def problem_passed_to_solve(monkeypatch, call) -> sdp.SdpProblem:
    """The problem a wrapper hands to ``sdp.solve``."""
    return solved_by_wrapper(monkeypatch, call)[0]


class TestProblemValidation:
    def test_duplicate_block_names(self):
        with pytest.raises(PreconditionFailed):
            sdp.SdpProblem.from_matrices(blocks=(("x", 2), ("x", 3)), equalities=())

    def test_unknown_block_in_constraint(self):
        with pytest.raises(PreconditionFailed):
            sdp.SdpProblem.from_matrices(
                blocks=(("x", 2),), equalities=(({"y": np.eye(2)}, 1.0),)
            )

    def test_asymmetric_coefficient(self):
        with pytest.raises(NotHermitian):
            sdp.SdpProblem.from_matrices(
                blocks=(("x", 2),),
                equalities=(({"x": np.array([[0.0, 1.0], [0.0, 0.0]])}, 1.0),),
            )

    def test_coefficient_shape_mismatch(self):
        with pytest.raises(DimMismatch):
            sdp.SdpProblem.from_matrices(
                blocks=(("x", 3),), equalities=(({"x": np.eye(2)}, 1.0),)
            )

    def test_no_blocks(self):
        with pytest.raises(PreconditionFailed):
            sdp.SdpProblem.from_matrices(blocks=(), equalities=())

    def test_nan_coefficient_is_domain_error(self):
        M = np.eye(2)
        M[0, 1] = M[1, 0] = np.nan
        with pytest.raises(DomainError):
            sdp.SdpProblem.from_matrices(blocks=(("x", 2),), equalities=(({"x": M}, 1.0),))

    def test_nan_rhs_is_domain_error(self):
        with pytest.raises(DomainError):
            sdp.SdpProblem.from_matrices(blocks=(("x", 2),),
                                         equalities=(({"x": np.eye(2)}, np.nan),))

    def test_inf_objective_is_domain_error(self):
        with pytest.raises(DomainError):
            sdp.SdpProblem.from_matrices(
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
        eqs = [({"x": H, "y": H}, 0.0) for H in hermitian_basis(4)]
        eqs[11] = ({"x": eqs[11][0]["x"], "y": bad}, 0.0)
        with pytest.raises(error):
            sdp.SdpProblem.from_matrices(blocks=(("x", 4), ("y", 4)), equalities=tuple(eqs))

    def test_stored_coefficients_keep_their_form(self):
        # what is stored is the packed row: hvec of each Hermitian part, blocks end to end
        A = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
        prob = sdp.SdpProblem.from_matrices(
            blocks=(("x", 2), ("y", 1)),
            equalities=(({"y": [[1.0]], "x": A}, 1.0), ({"x": np.eye(2)}, 2)),
        )
        (cols0, vals0, r0), (cols1, vals1, r1) = prob.equalities
        assert (r0, r1) == (1.0, 2.0) and isinstance(r1, float)
        np.testing.assert_array_equal(cols0, [0, 1, 2, 4])
        np.testing.assert_array_equal(vals0, np.append(linalg.hvec((A + A.T) / 2.0)[:3], 1.0))
        np.testing.assert_array_equal(cols1, [0, 1])
        np.testing.assert_array_equal(vals1, [1.0, 1.0])
        assert prob.A.shape == (2, 5) and prob.A.dtype == float
        assert not (prob.b.flags.writeable or prob.c.flags.writeable)

    @pytest.mark.parametrize("size", [2.7, True, "2", 0, -1, None])
    def test_non_integer_block_size(self, size):
        with pytest.raises(DimMismatch):
            sdp.SdpProblem(blocks=(("x", size),), A=np.ones((1, 4)), b=[1.0], c=np.zeros(4))
        with pytest.raises(DimMismatch):
            sdp.SdpProblem.from_matrices(blocks=(("x", size),), equalities=())

    @pytest.mark.parametrize("blocks", [(("x",),), (("x", 2, 3),), (5,)])
    def test_malformed_blocks(self, blocks):
        with pytest.raises(DimMismatch):
            sdp.SdpProblem(blocks=blocks, A=np.ones((1, 4)), b=[1.0], c=np.zeros(4))

    def test_numpy_integer_block_size(self):
        prob = sdp.SdpProblem(blocks=(("x", np.int64(2)),), A=np.eye(4)[:1], b=[1.0],
                              c=np.zeros(4))
        assert prob.blocks == (("x", 2),) and type(prob.blocks[0][1]) is int
        assert sdp.solve(prob).status == sdp.FEASIBLE

    @pytest.mark.parametrize(
        "A, b, c, error",
        [
            (np.eye(4)[:1], [1.0, 2.0], np.zeros(4), DimMismatch),
            (np.eye(5)[:1], [1.0], np.zeros(4), DimMismatch),
            (np.ones(4), [1.0], np.zeros(4), DimMismatch),
            (np.eye(4)[:1], [1.0], np.zeros(3), DimMismatch),
            ([[1.0, 0.0, 0.0, 0.0]], [1.0], np.zeros(4), DomainError),
            (np.eye(4)[:1] * 1j, [1.0], np.zeros(4), DomainError),
            (np.eye(4)[:1], [np.inf], np.zeros(4), DomainError),
            (np.eye(4)[:1], [1.0], np.full(4, np.nan), DomainError),
        ],
    )
    def test_packed_form_is_checked(self, A, b, c, error):
        with pytest.raises(error):
            sdp.SdpProblem(blocks=(("x", 2),), A=A, b=b, c=c)


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
        prob = sdp.SdpProblem.from_matrices(blocks=tuple(zip(names, dims)), equalities=tuple(eqs),
                                            objective=objective)

        offsets = np.cumsum([0] + [n * n for n in dims])

        def dense_row(coeffs):
            row = np.zeros(offsets[-1])
            for name, M in coeffs.items():
                k = names.index(name)
                row[offsets[k] : offsets[k + 1]] = linalg.hvec((M + M.conj().T) / 2.0)
            return row

        np.testing.assert_array_equal(prob.A.toarray(),
                                      np.array([dense_row(co) for co, _ in eqs]))
        np.testing.assert_array_equal(prob.b, [r for _, r in eqs])
        np.testing.assert_array_equal(prob.c, dense_row(objective))
        for (cols, vals, rhs), (coeffs, given) in zip(prob.equalities, eqs):
            row = dense_row(coeffs)
            np.testing.assert_array_equal(cols, np.flatnonzero(row))
            np.testing.assert_array_equal(vals, row[row != 0])
            assert rhs == given


class TestSolve:
    def test_unit_trace_feasible(self):
        prob = sdp.SdpProblem.from_matrices(
            blocks=(("x", 4),), equalities=(({"x": np.eye(4)}, 1.0),)
        )
        res = sdp.solve(prob)
        assert res.status == "feasible"
        X = res.primal["x"]
        assert linalg.psd_margin(X) >= -1e-9
        assert abs(np.trace(X) - 1.0) <= 1e-7 * 2.0

    def test_negative_trace_infeasible(self):
        prob = sdp.SdpProblem.from_matrices(
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
        prob = sdp.SdpProblem.from_matrices(
            blocks=(("x", 4),),
            equalities=(({"x": np.eye(4)}, 1.0),),
            objective={"x": C},
        )
        res = sdp.solve(prob)
        assert res.status == "feasible"
        assert res.residuals["objective"] == pytest.approx(1.0, abs=1e-7)

    def test_no_equalities_psd_objective_feasible_at_zero(self):
        prob = sdp.SdpProblem.from_matrices(
            blocks=(("x", 2), ("y", 3)), equalities=(),
            objective={"x": np.diag([1.0, 0.0]), "y": np.eye(3)},
        )
        res = sdp.solve(prob)
        assert res.status == "feasible"
        assert res.residuals["objective"] == 0.0
        assert np.array_equal(res.primal["y"], np.zeros((3, 3)))

    def test_no_equalities_unbounded_objective_inconclusive(self):
        # tr(-X) has no minimum over X >= 0
        prob = sdp.SdpProblem.from_matrices(blocks=(("x", 2),), equalities=(),
                                            objective={"x": -np.eye(2)})
        res = sdp.solve(prob)
        assert res.status == "inconclusive"
        assert res.primal is None
        assert "unbounded" in res.reason

    def test_two_blocks_coupled(self):
        # tr(X) - tr(Y) = 1 and tr(X) + tr(Y) = 3: X, Y exist with traces 2, 1.
        prob = sdp.SdpProblem.from_matrices(
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
        prob = sdp.SdpProblem.from_matrices(
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

    def test_iteration_cap_gives_inconclusive(self, monkeypatch):
        # x00 = 0 and Re x01 = 1 is weakly infeasible: no candidate and no
        # certificate settles it, however the first iterate is corrected
        prob = sdp.SdpProblem.from_matrices(
            blocks=(("x", 2),),
            equalities=(({"x": np.diag([1.0, 0.0])}, 0.0),
                        ({"x": np.array([[0.0, 0.5], [0.5, 0.0]])}, 1.0)),
        )
        monkeypatch.setattr(sdp, "MAX_ITERS", 1)
        res = sdp.solve(prob)
        assert res.status == "inconclusive"
        assert res.reason
        assert all(isinstance(v, float) for v in res.residuals.values())

    def test_infeasible_needs_verified_certificate(self):
        # Conflicting traces on the same block.
        prob = sdp.SdpProblem.from_matrices(
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


def mixed_problem(dims, seed=19):
    """A feasible problem on blocks of sizes ``dims``: random dense equalities
    through an interior point, minimizing the sum of the traces."""
    rng = rng_for(seed)
    x0 = np.concatenate([linalg.hvec(linalg.random_psd(n, rng) + np.eye(n)) for n in dims])
    A = rng.normal(size=(2 * len(dims) + 4, x0.size))
    c = np.concatenate([linalg.hvec(np.eye(n)) for n in dims])
    return sdp.SdpProblem(tuple((f"x{j}", n) for j, n in enumerate(dims)), A, A @ x0, c)


class TestMixedSizes:
    """Blocks of one size move through the solver as one stack, whatever the
    mix of sizes.  Statuses, iteration counts and values were recorded with
    the solver that took each block alone."""

    @pytest.mark.parametrize("dims, objective", [((3, 3, 2, 1), 27.904377426805105),
                                                 ((2, 3, 1, 3), 25.611352895462495)])
    def test_hand_built_problem(self, dims, objective):
        res = sdp.solve(mixed_problem(dims))
        assert res.status == sdp.FEASIBLE and res.residuals["iterations"] == 10.0
        assert res.residuals["objective"] == pytest.approx(objective, rel=1e-9)
        assert [res.primal[f"x{j}"].shape for j in range(len(dims))] == [(n, n) for n in dims]

    def test_interleaved_sizes_solve_as_grouped(self):
        # the blocks of (2, 3, 1, 3) listed size by size as (3, 3, 2, 1)
        problem = mixed_problem((2, 3, 1, 3))
        order = [1, 3, 0, 2]
        offsets = np.cumsum([0] + [n * n for _, n in problem.blocks])
        cols = np.concatenate([np.arange(offsets[j], offsets[j + 1]) for j in order])
        grouped = sdp.SdpProblem(tuple(problem.blocks[j] for j in order),
                                 problem.A.toarray()[:, cols], problem.b, problem.c[cols])
        got, want = sdp.solve(problem), sdp.solve(grouped)
        assert got.status == want.status == sdp.FEASIBLE
        assert got.residuals["iterations"] == want.residuals["iterations"]
        for name, X in want.primal.items():
            assert np.max(np.abs(got.primal[name] - X)) <= 1e-9 * max(1.0, np.max(np.abs(X)))

    def test_cb_split_bound_three_groups(self, monkeypatch):
        P = catalog.holevo_werner(3, 0.6).map
        problem, _ = solved_by_wrapper(monkeypatch, lambda: sdp.cb_split_bound(P))
        assert [n for _, n in problem.blocks] == [9, 9, 9, 9, 3, 3, 1, 1]
        res = sdp.cb_split_bound(P)
        assert res.status == sdp.FEASIBLE and res.residuals["iterations"] == 8.0
        assert res.residuals["upper_bound"] == pytest.approx(2.4000000003152633, rel=1e-9)


class TestCorrectedCandidate:
    """A feasibility problem's candidate is corrected onto A x = b through the
    last factored Schur complement before its audit, so a solve ends as soon as
    the iterate is inside the cone, not once its residual has decayed."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decomposability_in_four_iterations(self, seed):
        res = sdp.decomposability_check(choi.random_cp_cocp_map(3, seed))
        assert res.status == sdp.FEASIBLE
        assert res.residuals["iterations"] <= 4.0
        assert res.residuals["equality_residual"] <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_three_mode_gaussian_split_in_four_iterations(self, seed):
        rng = rng_for(seed)
        X = 0.4 * np.linalg.qr(rng.normal(size=(6, 6)))[0]
        res = sdp.gaussian_eb_split(2.0 * np.eye(6), X)
        assert res.status == sdp.FEASIBLE
        assert res.residuals["iterations"] <= 4.0
        assert res.residuals["equality_residual"] <= 1e-12


class TestPrimalAudit:
    def test_residual_is_tested_before_any_spectrum(self, monkeypatch):
        problem = mixed_problem((3, 3, 2, 1))
        res = sdp.solve(problem)
        xs = np.concatenate([linalg.hvec(res.primal[name]) for name in problem.names])
        dims = [n for _, n in problem.blocks]
        spectra = []
        margin = linalg.psd_margin
        monkeypatch.setattr(linalg, "psd_margin", lambda M: spectra.append(M) or margin(M))
        ok, mats, info = sdp._verify_feasible(problem.A, problem.b, dims, xs)
        assert ok and len(mats) == len(spectra) == 4
        assert info["primal_psd_margin"] >= -sdp.PSD_TOL
        for bad in (xs + 1e-3, np.full_like(xs, np.nan)):
            spectra.clear()
            ok, mats, info = sdp._verify_feasible(problem.A, problem.b, dims, bad)
            assert not ok and mats is None and spectra == []
            assert list(info) == ["equality_residual"]


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

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_stack_matches_each_block(self, k, n):
        rng = rng_for(10 * k + n)
        X = np.stack([random_pd(n, rng) for _ in range(k)])
        S = np.stack([random_pd(n, rng) for _ in range(k)])
        stacked = sdp._nt_scaling(X, S)
        for j in range(k):
            for got, want in zip(stacked, sdp._nt_scaling(X[j], S[j])):
                assert got[j].shape == want.shape
                assert np.max(np.abs(got[j] - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))
        bad = np.eye(n, dtype=complex)
        bad[-1, -1] = -1e-3
        for member in range(k):
            for which in ("X", "S"):
                Xb, Sb = X.copy(), S.copy()
                (Xb if which == "X" else Sb)[member] = bad
                with pytest.raises(np.linalg.LinAlgError):
                    sdp._nt_scaling(Xb, Sb)


def kron_operator(W, x=None, y=None):
    """``sdp._kron_operator`` into fresh buffers, at ``hvec``'s positions by default."""
    n = W.shape[0]
    if x is None:
        x, y = linalg.hvec_positions(n)
    return sdp._kron_operator(W, x, y, np.empty((n * n, n * n)),
                              np.empty(sdp._kron_scratch_size(n), complex))


def block_operators(problem, Ws):
    """Each block's operator as ``sdp.solve`` builds it: at a ``_Positions``
    block's positions, else at ``hvec``'s."""
    return [kron_operator(W, Ak.x, Ak.y) if isinstance(Ak, sdp._Positions) else kron_operator(W)
            for Ak, W in zip(problem._a_blocks, Ws)]


def pt_block(dims, which):
    """The CSR column block Q of the partial transpose on ``which``."""
    n = dims[0] * dims[1]
    perm, sign = sdp._pt_permutation(dims, which)
    return sdp._csr([(perm[:, None], sign[:, None])], n * n)


class TestKronOperator:
    """The Schur complement from one Kronecker-form operator per block."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_per_column_reference(self, n):
        W = random_pd(n, rng_for(n))
        ref = np.stack(
            [linalg.hvec(W @ linalg.hmat(e, n) @ W) for e in np.eye(n * n)], axis=1
        )
        got = kron_operator(W)
        assert got.shape == (n * n, n * n) and got.dtype == float
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("which", ["A", "B"])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)])
    def test_built_at_positions_is_the_permuted_operator(self, dims, which):
        n = dims[0] * dims[1]
        block = sdp._read_positions(pt_block(dims, which), n)
        np.testing.assert_array_equal(block.cols, sdp._pt_permutation(dims, which)[0])
        W = random_pd(n, rng_for(n))
        c = block.cols
        np.testing.assert_array_equal(kron_operator(W, block.x, block.y), kron_operator(W)[c][:, c])

    def test_reads_position_blocks_from_A_alone(self, monkeypatch):
        def moved(problem):
            return [isinstance(Ak, sdp._Positions) for Ak in problem._a_blocks]

        for din, dout in ((2, 3), (3, 2), (3, 3)):
            P = choi.random_cp_cocp_map(3, 1) if din == dout else random_cp_map(din, dout, 5)
            problem = problem_passed_to_solve(monkeypatch, lambda: sdp.decomposability_check(P))
            assert moved(problem) == [True, True]
            assert moved(fresh_decomposability_problem(P)) == [True, True]
        C = gaussian.random_cocp_channel(2, 4)
        problem = problem_passed_to_solve(monkeypatch, lambda: sdp.gaussian_eb_split(C.Y, C.X))
        assert moved(problem) == [False, False]
        assert moved(sdp._seesaw_problem(3)) == [False, False]
        problem = problem_passed_to_solve(
            monkeypatch, lambda: sdp.cb_split_bound(choi.random_cp_cocp_map(2, 3)))
        assert not any(moved(problem))
        # one nonzero per row: a swap of two diagonal coordinates moves
        # positions; a diagonal row reading a real coordinate, or a real and an
        # imaginary row of one position reading two, does not
        assert sdp._read_positions(scipy.sparse.csr_array(np.eye(4)[[1, 0, 2, 3]]), 2)
        assert sdp._read_positions(scipy.sparse.csr_array(np.eye(4)[[2, 1, 0, 3]]), 2) is None
        cols = [0, 1, 2, 3, 4, 5, 7, 6, 8]
        assert sdp._read_positions(scipy.sparse.csr_array(np.eye(9)[cols]), 3) is None

    @pytest.mark.parametrize("case", ["decomposability", "decomposability-2x3",
                                      "decomposability-3x2", "gaussian-split", "counterexample",
                                      "cb-split", "mixed"])
    def test_schur_matches_dense_reference(self, case, monkeypatch):
        if case.startswith("decomposability"):
            P = {"decomposability": lambda: choi.random_cp_cocp_map(3, 4),
                 "decomposability-2x3": lambda: random_cp_map(2, 3, 23),
                 "decomposability-3x2": lambda: random_cp_map(3, 2, 32)}[case]()
            problem = problem_passed_to_solve(
                monkeypatch, lambda: sdp.decomposability_check(P)
            )
        elif case == "gaussian-split":
            C = gaussian.random_cocp_channel(2, 4)
            problem = problem_passed_to_solve(
                monkeypatch, lambda: sdp.gaussian_eb_split(C.Y, C.X)
            )
        elif case == "cb-split":
            P = choi.random_cp_cocp_map(2, 6)
            problem = problem_passed_to_solve(monkeypatch, lambda: sdp.cb_split_bound(P))
        elif case == "mixed":  # a block that moves positions beside a sparse one
            A = np.hstack([np.diag([1.0, -2.0, 0.5, 3.0])[:, [1, 0, 2, 3]],
                           rng_for(3).normal(size=(4, 1))])
            problem = sdp.SdpProblem((("x", 2), ("y", 1)), A, np.ones(4), np.zeros(5))
            assert isinstance(problem._a_blocks[0], sdp._Positions)
            assert not isinstance(problem._a_blocks[1], sdp._Positions)
        else:
            F = linalg.random_hermitian(9, rng_for(4))
            problem = dataclasses.replace(sdp._seesaw_problem(3),
                                          c=np.concatenate([linalg.hvec(F), np.zeros(81)]))
        dims = [n for _, n in problem.blocks]
        A = problem.A
        if case not in ("cb-split", "mixed"):
            # every hot constraint family has O(1) nonzeros per row
            assert A.nnz <= 2 * A.shape[0] + max(dims)
        rng = rng_for(11)
        Ws = [random_pd(n, rng) for n in dims]
        m = A.shape[0]
        got = np.full((m, m), np.nan, order="F")
        sdp._schur(problem._a_blocks, block_operators(problem, Ws), got)
        Ad = A.toarray()
        op_w_A = np.concatenate(
            [linalg.hvec(W @ M @ W) for W, M in zip(Ws, sdp._unpack(Ad, dims))], axis=-1)
        ref = Ad @ op_w_A.T
        ref = (ref + ref.T) / 2.0
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", ["decomposability", "gaussian-split"])
    def test_failed_factorization_retries_on_the_rebuilt_matrix(self, case, monkeypatch):
        if case == "decomposability":
            P = choi.random_cp_cocp_map(3, 6)

            def call():
                return sdp.decomposability_check(P)
        else:
            C = gaussian.random_cocp_channel(2, 6)

            def call():
                return sdp.gaussian_eb_split(C.Y, C.X)
        want = call()
        solve, schur, cho_factor = sdp.solve, sdp._schur, scipy.linalg.cho_factor
        built, factored = [], []

        def spy_solve(problem, **kwargs):
            factored.clear()
            return solve(problem, **kwargs)

        def spy_schur(*args):
            out = schur(*args)
            built.append(out.copy())
            return out

        def fails_once(a, **kwargs):
            factored.append(a.copy())
            if len(factored) == 1:
                a.fill(np.nan)  # as a factorization that broke off midway
                raise scipy.linalg.LinAlgError("not positive definite")
            return cho_factor(a, **kwargs)

        monkeypatch.setattr(sdp, "solve", spy_solve)
        monkeypatch.setattr(sdp, "_schur", spy_schur)
        monkeypatch.setattr(scipy.linalg, "cho_factor", fails_once)
        got = call()
        assert got.status == want.status
        first, retry = factored[:2]
        # the first iteration's two builds: before the first attempt and the retry
        np.testing.assert_array_equal(built[0], built[1])
        off = ~np.eye(len(retry), dtype=bool)
        np.testing.assert_array_equal(retry[off], built[1][off])
        jitter = np.diag(first) - np.diag(built[0])
        assert np.all(jitter > 0.0)
        np.testing.assert_allclose(np.diag(retry) - np.diag(built[1]), 100.0 * jitter, rtol=0.1)


class TestHermitianEmbedding:
    """Complex Hermitian data enters the solver directly, not through a real embedding."""

    def test_rejects_non_hermitian(self):
        # Complex symmetric but not Hermitian: a real-cast check would pass it.
        with pytest.raises(NotHermitian):
            sdp.SdpProblem.from_matrices(
                blocks=(("x", 2),),
                equalities=(({"x": np.array([[0.0, 1j], [1j, 0.0]])}, 1.0),),
            )

    def test_pauli_y_spectrum(self):
        # min tr(sigma_y X) over density matrices is the eigenvalue -1.
        sy = np.array([[0.0, -1j], [1j, 0.0]])
        prob = sdp.SdpProblem.from_matrices(
            blocks=(("x", 2),),
            equalities=(({"x": np.eye(2)}, 1.0),),
            objective={"x": sy},
        )
        res = sdp.solve(prob)
        assert res.status == "feasible"
        assert res.residuals["objective"] == pytest.approx(-1.0, abs=1e-7)
        X = res.primal["x"]
        assert np.max(np.abs(X - X.conj().T)) <= 1e-12
        assert linalg.psd_margin(X) >= -1e-9
        assert np.trace(sy @ X).real == pytest.approx(-1.0, abs=1e-7)

    @pytest.mark.parametrize("seed", range(50))
    def test_min_eig_preserved(self, seed):
        H = linalg.random_hermitian(5, rng_for(seed))
        prob = sdp.SdpProblem.from_matrices(
            blocks=(("x", 5),), equalities=(({"x": np.eye(5)}, 1.0),), objective={"x": H}
        )
        res = sdp.solve(prob)
        assert res.status == "feasible"
        assert res.residuals["objective"] == pytest.approx(linalg.min_eig(H), abs=1e-7)

    def test_round_trip(self, rng):
        H = linalg.random_hermitian(4, rng)
        prob = sdp.SdpProblem.from_matrices(
            blocks=(("x", 4),), equalities=(({"x": np.eye(4)}, 1.0),), objective={"x": H}
        )
        back = from_json(json.loads(json.dumps(to_json(prob))))
        assert (back.A != prob.A).nnz == 0
        assert np.array_equal(back.b, prob.b) and np.array_equal(back.c, prob.c)
        assert np.abs(linalg.hmat(back.c, 4).imag).max() > 0.0
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

    @pytest.mark.parametrize("din, dout", [(2, 2), (3, 3), (2, 3), (3, 2), (4, 4), (2, 4)])
    def test_low_rank_cp_maps_are_not_refuted(self, din, dout):
        # a CP map is decomposable (C1 = C, C2 = 0); these sit on the boundary,
        # where the solver's witness is PPT only to its tolerance
        for seed in range(15):
            for rank in (1, 2):
                rng = rng_for(seed)
                P = choi.choi_from_kraus([rng.normal(size=(dout, din))
                                          + 1j * rng.normal(size=(dout, din))
                                          for _ in range(rank)], din, dout)
                assert sdp.decomposability_check(P).status != sdp.INFEASIBLE, (seed, rank)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [1e12, 1e100, 1e300])
    def test_badly_scaled_cp_map_is_decomposable(self, t):
        # t J_9 is rank-one PSD, so the map is CP; the check solves at unit scale
        P = choi.QuantumMap(3, 3, t * np.ones((9, 9)))
        res = sdp.decomposability_check(P)
        assert res.status == sdp.FEASIBLE
        C1, C2 = res.primal["cp_part"], res.primal["cocp_part"]
        recon = C1 + linalg.partial_transpose(C2, P.dims, "B")
        assert np.max(np.abs(recon - P.choi)) <= sdp.FEAS_TOL * t

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [1e12, 1e100, 1e300])
    def test_badly_scaled_choi_map_is_refuted(self, t):
        P = choi.QuantumMap(3, 3, t * choi_map().choi)
        res = sdp.decomposability_check(P)
        assert res.status == sdp.INFEASIBLE
        V = res.dual
        assert linalg.psd_margin(V) >= -1e-9
        assert linalg.psd_margin(linalg.partial_transpose(V, (3, 3), "B")) >= -1e-9
        assert np.trace(V).real == pytest.approx(1.0, abs=1e-9)
        # overlap and allowance are reported at the map's scale
        overlap = res.residuals["witness_overlap"]
        assert overlap < -res.residuals["rounding_allowance"] < 0.0
        assert overlap == pytest.approx(float(np.real(np.trace(V @ P.choi))), rel=1e-9)

    def test_witness_is_ppt_by_its_shift(self):
        res = sdp.decomposability_check(choi_map())
        assert res.residuals["witness_shift"] == 0.0
        assert res.residuals["witness_overlap"] < -res.residuals["rounding_allowance"]

    def test_a_check_keeps_nothing_for_its_dimension(self):
        sdp.decomposability_check(choi.random_cp_cocp_map(3, 1))
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            assert sdp.decomposability_check(choi.random_cp_cocp_map(5, 2)).status == "feasible"
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 1e6

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


def hermitian_basis(n):
    """The orthonormal basis B_k = hmat(e_k) of M_n as an (n^2, n, n) stack:
    E_pp, then (E_pq + E_qp) / sqrt2, then (i E_pq - i E_qp) / sqrt2."""
    return linalg.hmat(np.eye(n * n), n)


def basis_rhs(M):
    """tr(B_k M) over the Hermitian basis: ``hvec`` of the Hermitian part of M."""
    return linalg.hvec(M / 2.0 + M.conj().T / 2.0)


def fresh_decomposability_problem(P):
    D = P.din * P.dout
    H = P.choi / 2.0 + P.choi.conj().T / 2.0
    H = H / sdp._unit_scale(H)  # the wrapper's unit scale
    basis = hermitian_basis(D)
    basis_pt = linalg.partial_transpose(basis, P.dims, "B")
    eqs = [({"cp_part": B, "cocp_part": G}, float(r))
           for B, G, r in zip(basis, basis_pt, basis_rhs(H))]
    return sdp.SdpProblem.from_matrices(blocks=(("cp_part", D), ("cocp_part", D)),
                                        equalities=tuple(eqs))


def fresh_gaussian_problem(Y, X):
    n = Y.shape[0] // 2
    sig = linalg.symplectic_form(n)
    K = Y - 1j * (sig + X @ sig @ X.T)
    unit = sdp._unit_scale(K)  # the wrapper's unit scale
    basis = hermitian_basis(2 * n)
    eqs = [({"part_m": H, "part_n": H}, float(r)) for H, r in zip(basis, basis_rhs(K / unit))]
    iu = np.triu_indices(2 * n, 1)
    eqs += [({"part_m": H}, -np.sqrt(2.0) * float(v) / unit)
            for H, v in zip(basis[-len(iu[0]):], sig[iu])]
    return sdp.SdpProblem.from_matrices(blocks=(("part_m", 2 * n), ("part_n", 2 * n)),
                                        equalities=tuple(eqs))


def fresh_seesaw_problem(d):
    D = d * d
    basis = hermitian_basis(D)
    basis_pt = linalg.partial_transpose(basis, (d, d), "B")
    eqs = [({"choi_t": G, "choi_t_pt": -H}, 0.0) for H, G in zip(basis, basis_pt)]
    eqs.append(({"choi_t": np.eye(D)}, float(d)))
    return sdp.SdpProblem.from_matrices(blocks=(("choi_t", D), ("choi_t_pt", D)),
                                        equalities=tuple(eqs))


def fresh_cb_split_problem(P):
    din, dout = P.dims
    D = din * dout
    H = P.choi / 2.0 + P.choi.conj().T / 2.0
    H = H / sdp._unit_scale(H)  # the wrapper's unit scale
    basis = hermitian_basis(D)
    basis_pt = linalg.partial_transpose(basis, P.dims, "A")
    eqs = [({"pa": G, "na": -G, "pb": Gt, "nb": -Gt}, float(r))
           for G, Gt, r in zip(basis, basis_pt, basis_rhs(H))]
    one = np.ones((1, 1))
    for X in ("a", "b"):
        for g in hermitian_basis(dout):
            lifted = np.kron(np.eye(din), g)
            eqs.append(({"p" + X: lifted, "n" + X: lifted, "s" + X: g,
                         "t" + X: -np.trace(g).real * one}, 0.0))
    blocks = tuple((k, D) for k in ("pa", "na", "pb", "nb")) + (("sa", dout), ("sb", dout),
                                                                 ("ta", 1), ("tb", 1))
    return sdp.SdpProblem.from_matrices(blocks, tuple(eqs), objective={"ta": one, "tb": one})


def random_hermitian_map(din, dout, seed):
    return choi.QuantumMap(din, dout, linalg.random_hermitian(din * dout, rng_for(seed)))


def random_cp_map(din, dout, seed):
    rng = rng_for(seed)
    return choi.choi_from_kraus([rng.normal(size=(dout, din)) + 1j * rng.normal(size=(dout, din))
                                 for _ in range(2)], din, dout)


REFERENCE_CASES = {
    "decomposability-cp-2x3": lambda: random_cp_map(2, 3, 23),
    "decomposability-cp-3x2": lambda: random_cp_map(3, 2, 32),
    "decomposability-choi-witness": choi_map,
}
for _d in (2, 3, 4):
    REFERENCE_CASES[f"decomposability-d{_d}"] = lambda d=_d: choi.random_cp_cocp_map(d, 20 + d)
for _n in (1, 2, 3):
    REFERENCE_CASES[f"gaussian-n{_n}"] = lambda n=_n: gaussian.random_cocp_channel(n, 30 + n)
for _din, _dout in ((1, 2), (2, 1), (2, 3), (3, 2), (3, 3)):
    REFERENCE_CASES[f"cb-split-{_din}x{_dout}"] = (
        lambda din=_din, dout=_dout: random_hermitian_map(din, dout, 40 + 10 * din + dout))


def assert_same_problem(problem, ref_problem):
    """The same packed problem, bit for bit."""
    assert problem.blocks == ref_problem.blocks
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(problem.A, name), getattr(ref_problem.A, name))
    np.testing.assert_array_equal(problem.b, ref_problem.b)
    np.testing.assert_array_equal(problem.c, ref_problem.c)


def assert_same_solve(problem, got, ref_problem, ref):
    """The same packed problem, bit for bit, and the same solve to 1e-12."""
    assert_same_problem(problem, ref_problem)
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


class TestReferenceProblems:
    """Each family's equalities, written in hvec coordinates, equal the ones
    packed from its dense Hermitian-basis coefficients."""

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_matches_the_dense_reference(self, case, monkeypatch):
        data = REFERENCE_CASES[case]()
        if case.startswith("gaussian"):
            problem, got = solved_by_wrapper(monkeypatch,
                                             lambda: sdp.gaussian_eb_split(data.Y, data.X))
            ref_problem = fresh_gaussian_problem(data.Y, data.X)
        elif case.startswith("cb-split"):
            problem, got = solved_by_wrapper(monkeypatch, lambda: sdp.cb_split_bound(data))
            ref_problem = fresh_cb_split_problem(data)
        else:
            problem, got = solved_by_wrapper(monkeypatch, lambda: sdp.decomposability_check(data))
            ref_problem = fresh_decomposability_problem(data)
        assert_same_solve(problem, got, ref_problem, sdp.solve(ref_problem))

    @pytest.mark.parametrize("d", [4, 5])
    def test_large_cb_split_matches_the_dense_reference(self, d, monkeypatch):
        # the packed problem alone: solving it would add seconds
        P = random_hermitian_map(d, d, 50 + d)

        class Packed(Exception):
            pass

        def stop(problem):
            raise Packed(problem)

        monkeypatch.setattr(sdp, "solve", stop)
        with pytest.raises(Packed) as packed:
            sdp.cb_split_bound(P)
        assert_same_problem(packed.value.args[0], fresh_cb_split_problem(P))

    def test_search_matches_the_dense_reference(self, monkeypatch):
        P = choi.random_cp_cocp_map(3, 5)

        def search():
            return solves_of(monkeypatch, lambda: sdp.counterexample_search(
                P, restarts=2, max_rounds=5, seed=3))

        rep, got = search()
        monkeypatch.setattr(sdp, "_seesaw_problem", fresh_seesaw_problem)
        ref, want = search()
        assert rep.status == ref.status and rep.trace == ref.trace
        assert {r["restart"] for r in rep.trace} == {0, 1}
        assert len(got) == len(want) >= len(rep.trace)
        for (problem, res), (ref_problem, ref_res) in zip(got, want):
            assert_same_solve(problem, res, ref_problem, ref_res)


class TestPtPermutation:
    """hvec(PT(X)) = Q hvec(X) for the signed permutation Q."""

    @pytest.mark.parametrize("which", ["A", "B"])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)])
    def test_matches_partial_transpose(self, dims, which):
        n = dims[0] * dims[1]
        perm, sign = sdp._pt_permutation(dims, which)
        Q = np.zeros((n * n, n * n))
        Q[perm, np.arange(n * n)] = sign
        np.testing.assert_array_equal(Q, Q.T)
        np.testing.assert_array_equal(Q @ Q, np.eye(n * n))
        rng = rng_for(n)
        for _ in range(3):
            X = linalg.random_hermitian(n, rng)
            np.testing.assert_array_equal(
                linalg.hvec(linalg.partial_transpose(X, dims, which)), Q @ linalg.hvec(X))


TYPED_ERRORS = (DimMismatch, DomainError, NotHermitian, PreconditionFailed)
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


class TestMalformedInput:
    """Malformed input raises a typed error and never yields a verdict."""

    @given(st.integers(0, 2**32 - 1), NON_FINITE,
           st.sampled_from(["A", "sparse A", "b", "c", "b length", "A columns", "A type",
                            "c shape"]))
    @settings(max_examples=60, deadline=None)
    def test_packed_problem(self, seed, bad, defect):
        rng = rng_for(seed)
        blocks = (("x", 2), ("y", 1))
        m = int(rng.integers(1, 5))
        A, b, c = rng.normal(size=(m, 5)), rng.normal(size=m), rng.normal(size=5)
        i, j = int(rng.integers(m)), int(rng.integers(5))
        if defect in ("A", "sparse A"):
            A[i, j] = bad
        elif defect == "b":
            b[i] = bad
        elif defect == "c":
            c[j] = bad
        elif defect == "b length":
            b = rng.normal(size=m + int(rng.choice([-1, 1])))
        elif defect == "A columns":
            A = rng.normal(size=(m, 5 + int(rng.choice([-1, 1, 4]))))
        elif defect == "A type":
            A = [A.tolist(), str(A), None, {"A": 1}][j % 4]
        else:
            c = rng.normal(size=(5, 1) if j % 2 else 4)
        sparse = defect == "sparse A" or (defect == "A columns" and j % 2 == 1)
        if sparse:
            A = scipy.sparse.csr_array(A)
        with pytest.raises(TYPED_ERRORS):
            sdp.SdpProblem(blocks, A, b, c)

    @given(st.integers(0, 2**32 - 1), NON_FINITE,
           st.sampled_from(["coefficient", "rhs", "objective", "shape"]))
    @settings(max_examples=40, deadline=None)
    def test_from_matrices(self, seed, bad, defect):
        rng = rng_for(seed)
        blocks = (("x", 3), ("y", 2))
        eqs = [({"x": linalg.random_hermitian(3, rng), "y": linalg.random_hermitian(2, rng)},
                float(rng.normal())) for _ in range(3)]
        objective = {"y": linalg.random_hermitian(2, rng)}
        k = int(rng.integers(3))
        M = eqs[k][0]["x"].copy()
        if defect == "coefficient":
            M[k, k] = bad
            eqs[k] = ({"x": M}, eqs[k][1])
        elif defect == "rhs":
            eqs[k] = (eqs[k][0], bad)
        elif defect == "objective":
            objective = {"y": np.full((2, 2), bad)}
        else:
            eqs[k] = ({"x": M[: 1 + k % 2]}, eqs[k][1])
        with pytest.raises(TYPED_ERRORS):
            sdp.SdpProblem.from_matrices(blocks, tuple(eqs), objective)

    @given(st.integers(0, 2**32 - 1), NON_FINITE, st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_decomposability_check(self, seed, bad, misshapen):
        rng = rng_for(seed)
        din, dout = (int(k) for k in rng.integers(2, 4, size=2))
        C = linalg.random_psd(din * dout, rng)
        if misshapen:
            C = C[:-1]
        else:
            i, j = (int(k) for k in rng.integers(din * dout, size=2))
            C[i, j] = bad
        with pytest.raises(TYPED_ERRORS):
            sdp.decomposability_check(choi.QuantumMap(din, dout, C))

    @given(st.integers(0, 2**32 - 1), NON_FINITE,
           st.sampled_from(["Y", "X", "odd", "mismatch", "complex-Y", "complex-X"]))
    @settings(max_examples=40, deadline=None)
    def test_gaussian_eb_split(self, seed, bad, defect):
        rng = rng_for(seed)
        n = int(rng.integers(1, 4))
        C = gaussian.random_cocp_channel(n, int(seed % 1000))
        Y, X = C.Y.copy(), C.X.copy()
        i, j = (int(k) for k in rng.integers(2 * n, size=2))
        if defect == "Y":
            Y[i, j] = Y[j, i] = bad
        elif defect == "X":
            X[i, j] = bad
        elif defect == "complex-Y":  # Hermitian, so only the type is at fault
            Y = Y + 1j * (np.eye(2 * n, k=1) - np.eye(2 * n, k=-1))
        elif defect == "complex-X":
            X = X + 5j * np.eye(2 * n)
        elif defect == "odd":
            Y, X = Y[:-1, :-1], X[:-1, :-1]
        else:
            X = X[:, :-1]
        with pytest.raises(TYPED_ERRORS):
            sdp.gaussian_eb_split(Y, X)

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

    def test_report_serializes(self):
        rep = sdp.counterexample_search(choi_map(), restarts=1, max_rounds=4, seed=0)
        back = from_json(json.loads(json.dumps(to_json(rep))))
        assert isinstance(back, Report)
        assert back.status == rep.status
        assert back.seed == 0
