import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebcompose import catalog, choi, criteria, linalg, sdp
from ebcompose.criteria import BipartiteState
from ebcompose.errors import (
    DimMismatch,
    DimOutOfRange,
    DomainError,
    IndexOutOfRange,
    NotHermitian,
    NotPSD,
)


def holevo_werner(d: int, p: float) -> choi.QuantumMap:
    """T(X) = Tr[X] I - p X^T, Choi = I - p F."""
    return choi.QuantumMap(d, d, np.eye(d * d) - p * linalg.flip_operator(d))


def state(dims, mat) -> BipartiteState:
    return BipartiteState(tuple(dims), np.asarray(mat, dtype=complex))


def random_state(dims, rng, rank=None) -> BipartiteState:
    dA, dB = dims
    return state(dims, linalg.random_psd(dA * dB, rng, rank))


class TestBipartiteState:
    def test_dims_shape_mismatch(self):
        with pytest.raises(DimMismatch):
            state((2, 3), np.eye(4))

    def test_rejects_non_psd(self):
        with pytest.raises(NotPSD):
            state((2, 2), np.diag([1.0, 1.0, 1.0, -1.0]))

    def test_matrix_is_frozen(self):
        X = state((2, 2), np.eye(4))
        with pytest.raises(ValueError):
            X.mat[0, 0] = 5.0


class TestIsPptState:
    def test_identity_is_ppt(self):
        assert criteria.is_ppt_state(state((2, 2), np.eye(4)))

    def test_max_entangled_is_npt(self):
        omega = linalg.max_entangled_projector(2)
        assert not criteria.is_ppt_state(state((2, 2), omega))

    def test_product_states_are_ppt(self, rng):
        for _ in range(10):
            A = linalg.random_psd(2, rng)
            B = linalg.random_psd(3, rng)
            assert criteria.is_ppt_state(state((2, 3), np.kron(A, B)))


class TestRealignmentCriterion:
    def test_product_state_passes(self, rng):
        A = linalg.random_psd(3, rng)
        B = linalg.random_psd(3, rng)
        assert criteria.realignment_criterion(state((3, 3), np.kron(A, B)))

    @pytest.mark.parametrize("d", [2, 3])
    def test_max_entangled_fails(self, d):
        # realigned trace norm of omega_d/d is d
        X = state((d, d), linalg.max_entangled_projector(d) / d)
        assert not criteria.realignment_criterion(X)

    def test_max_mixed_passes(self):
        assert criteria.realignment_criterion(state((3, 3), np.eye(9) / 9))


class TestSnLowerFidelity:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_max_entangled_saturates(self, d):
        X = state((d, d), linalg.max_entangled_projector(d) / d)
        assert criteria.sn_lower_fidelity(X) == d

    def test_max_mixed_is_one(self):
        assert criteria.sn_lower_fidelity(state((3, 3), np.eye(9) / 9)) == 1

    def test_slightly_mixed_keeps_full_bound(self):
        X = state((3, 3), 0.99 * linalg.max_entangled_projector(3) / 3 + 0.01 * np.eye(9) / 9)
        assert criteria.sn_lower_fidelity(X) == 3

    def test_exact_tie_does_not_raise_bound(self):
        # p solves 3F = 2 exactly; the bound must stay at 2
        p = 5.0 / 8.0
        X = state((3, 3), p * linalg.max_entangled_projector(3) / 3 + (1 - p) * np.eye(9) / 9)
        assert criteria.sn_lower_fidelity(X) == 2

    def test_rejects_rectangular(self):
        with pytest.raises(DimMismatch):
            criteria.sn_lower_fidelity(state((2, 3), np.eye(6)))


class TestSubblock:
    def test_full_index_set_is_identity(self, rng):
        X = random_state((3, 3), rng)
        Y = criteria.subblock(X, [0, 1, 2])
        assert np.allclose(Y.mat, X.mat)

    def test_max_entangled_subblock_is_npt(self):
        X = state((3, 3), linalg.max_entangled_projector(3))
        Y = criteria.subblock(X, [0, 1])
        assert Y.dims == (2, 3)
        assert not criteria.is_ppt_state(Y)

    def test_product_subblock_is_ppt(self, rng):
        A = linalg.random_psd(3, rng)
        B = linalg.random_psd(3, rng)
        Y = criteria.subblock(state((3, 3), np.kron(A, B)), [1, 2])
        assert criteria.is_ppt_state(Y)

    @pytest.mark.parametrize("bad", [[0, 0], [0, 3], [-1, 1]])
    def test_rejects_bad_indices(self, bad):
        with pytest.raises(IndexOutOfRange):
            criteria.subblock(state((3, 3), np.eye(9)), bad)

    def test_near_max_entangled_two_subblocks_are_npt(self, rng):
        # fidelity lower bound 3 forces every 2-element sub-block NPT
        for _ in range(50):
            noise = linalg.random_psd(9, rng)
            X = state((3, 3), 0.95 * linalg.max_entangled_projector(3) / 3
                      + 0.05 * noise / np.trace(noise).real)
            assert criteria.sn_lower_fidelity(X) == 3
            for subset in ((0, 1), (0, 2), (1, 2)):
                assert not criteria.is_ppt_state(criteria.subblock(X, subset)), subset


class TestSchmidtRank:
    def test_product_and_entangled(self):
        assert criteria.schmidt_rank(np.kron([1.0, 0.0], [0.6, 0.8, 0.0]), (2, 3)) == 1
        assert criteria.schmidt_rank(linalg.max_entangled_vector(3), (3, 3)) == 3

    @pytest.mark.parametrize("length", [5, 7, 12])
    def test_length_mismatch(self, length):
        with pytest.raises(DimMismatch):
            criteria.schmidt_rank(np.ones(length), (2, 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries(self, bad):
        psi = np.ones(6, dtype=complex)
        psi[4] = bad
        with pytest.raises(DomainError):
            criteria.schmidt_rank(psi, (2, 3))


BAD_SEARCH_BUDGETS = [{"restarts": 0}, {"restarts": -3}, {"iters": 0}, {"iters": -1},
                      {"restarts": 2.5}, {"iters": True}]


def budget_id(kwargs) -> str:
    return ",".join(f"{k}={v!r}" for k, v in kwargs.items())


class TestSearchBudgets:
    @pytest.mark.parametrize(
        "kwargs",
        [{"samples": -5}, {"samples": 2.5}, {"samples": "10"}, {"iters": 0}, {"iters": 1.0},
         {"restarts": 0}, {"restarts": np.float64(8)}],
        ids=budget_id,
    )
    def test_deviation_from_depolarizing(self, kwargs):
        with pytest.raises(DomainError):
            criteria.deviation_from_depolarizing(holevo_werner(3, 0.3), **kwargs)

    @pytest.mark.parametrize("kwargs", BAD_SEARCH_BUDGETS, ids=budget_id)
    def test_k_positivity_falsify(self, kwargs):
        # restarts is still an argument and checked; iters is KPOS_ITERS
        error = TypeError if "iters" in kwargs else DomainError
        with pytest.raises(error):
            criteria.k_positivity_falsify(holevo_werner(3, 0.9), 2, **kwargs)

    @pytest.mark.parametrize("kwargs", BAD_SEARCH_BUDGETS, ids=budget_id)
    def test_two_eb_d3_certificate(self, kwargs):
        # the d = 3 search budget is fixed (KPOS_RESTARTS, KPOS_ITERS), so any
        # value of a budget is a TypeError, malformed or not
        with pytest.raises(TypeError):
            criteria.two_eb_d3_certificate(holevo_werner(3, 0.9), **kwargs)

    @pytest.mark.parametrize("kwargs", BAD_SEARCH_BUDGETS, ids=budget_id)
    def test_two_eb_d3_certificate_on_cp_cocp_map(self, kwargs):
        # rejected even where the CP + coCP shortcut would skip the search
        with pytest.raises(TypeError):
            criteria.two_eb_d3_certificate(choi.depolarizing_map(3), **kwargs)

    def test_integer_budgets_of_any_integer_type(self):
        T = holevo_werner(3, 0.3)
        dev = criteria.deviation_from_depolarizing(T, samples=np.int64(0), restarts=np.int32(4),
                                                  iters=np.int64(20))
        assert dev == pytest.approx(0.3, abs=1e-8)


class TestKPositivityFalsify:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_identity_map_has_no_witness(self, k):
        assert criteria.k_positivity_falsify(choi.identity_map(3), k) is None

    def test_transposition_rank2_witness(self):
        psi = criteria.k_positivity_falsify(choi.transposition_map(3), 2)
        assert psi is not None
        C = choi.transposition_map(3).choi
        value = (psi.conj() @ C @ psi).real
        # the flip operator's minimum over Schmidt-rank-2 vectors is -1
        assert value == pytest.approx(-1.0, abs=1e-9)
        assert criteria.schmidt_rank(psi, (3, 3)) <= 2

    def test_copositivity_witness_for_hw(self):
        co = choi.compose(choi.transposition_map(3), holevo_werner(3, 0.9))
        psi = criteria.k_positivity_falsify(co, 2, seed=7)
        assert psi is not None
        assert (psi.conj() @ co.choi @ psi).real < -1e-9

    def test_cp_maps_have_no_witness(self, rng):
        for seed in range(5):
            T = choi.random_cp_cocp_map(3, seed)
            assert criteria.k_positivity_falsify(T, 2, restarts=8) is None

    def test_witnesses_are_sound(self):
        # every returned witness must re-verify: rank <= k and negative value
        maps = [(choi.transposition_map(3), 2),
                (holevo_werner(3, 0.9), 3),
                (choi.compose(choi.transposition_map(3), holevo_werner(3, 0.7)), 2)]
        found = 0
        for T, k in maps:
            psi = criteria.k_positivity_falsify(T, k, seed=3)
            if psi is not None:
                found += 1
                assert criteria.schmidt_rank(psi, T.dims) <= k
                assert (psi.conj() @ T.choi @ psi).real < 0
        assert found >= 2

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            criteria.k_positivity_falsify(choi.identity_map(3), 4)

    @staticmethod
    def _record(monkeypatch):
        """Record the restart count of each kpos_seesaw call and each random-start draw."""
        seesaw, draw = criteria._kernels.kpos_seesaw, criteria._kpos_random_starts
        seen = {"seesaw": [], "draws": 0}

        def recording_seesaw(C, d1, d2, k, a_starts, b_starts, iters):
            seen["seesaw"].append(len(a_starts))
            return seesaw(C, d1, d2, k, a_starts, b_starts, iters)

        def recording_draw(*args):
            seen["draws"] += 1
            return draw(*args)

        monkeypatch.setattr(criteria._kernels, "kpos_seesaw", recording_seesaw)
        monkeypatch.setattr(criteria, "_kpos_random_starts", recording_draw)
        return seen

    @pytest.mark.parametrize("p", [0.55, 0.75, 0.9, None])
    def test_warm_start_alone_is_the_witness(self, monkeypatch, p):
        # the copositivity search of HW(3, p > 1/2) and the transposition:
        # the bottom eigenvector, truncated to rank 2, reaches the optimum
        if p is None:
            M, optimum = choi.transposition_map(3), -1.0
        else:
            M, optimum = choi.compose(choi.transposition_map(3), holevo_werner(3, p)), 1 - 2 * p
        seen = self._record(monkeypatch)
        psi = criteria.k_positivity_falsify(M, 2, seed=1)
        assert seen == {"seesaw": [1], "draws": 0}
        assert (psi.conj() @ M.choi @ psi).real == pytest.approx(optimum, abs=1e-12)

    @pytest.mark.parametrize("restarts,seesaw,draws", [(5, [1, 4], 1), (1, [1], 0)])
    def test_no_warm_witness_runs_the_other_restarts(self, monkeypatch, restarts, seesaw, draws):
        seen = self._record(monkeypatch)
        assert criteria.k_positivity_falsify(choi.identity_map(3), 2, restarts=restarts) is None
        assert seen == {"seesaw": seesaw, "draws": draws}

    @pytest.mark.parametrize("d1,d2,k,restarts,seed", [(3, 3, 2, 32, 0), (2, 4, 1, 5, 7)])
    def test_cached_starts(self, d1, d2, k, restarts, seed):
        a_starts, b_starts = criteria._kpos_random_starts(d1, d2, k, restarts, seed)
        assert a_starts.shape == (restarts - 1, d1, k) and b_starts.shape == (restarts - 1, k, d2)
        assert not a_starts.flags.writeable and not b_starts.flags.writeable
        for r, s in enumerate(np.random.SeedSequence(seed).spawn(restarts - 1)):
            gen = np.random.default_rng(s)
            a = gen.normal(size=(d1, k)) + 1j * gen.normal(size=(d1, k))
            b = gen.normal(size=(k, d2)) + 1j * gen.normal(size=(k, d2))
            assert a_starts[r].tobytes() == a.tobytes() and b_starts[r].tobytes() == b.tobytes()
        again = criteria._kpos_random_starts(d1, d2, k, restarts, seed)
        assert again[0] is a_starts and again[1] is b_starts

    @staticmethod
    def _one_batch(T, k, restarts=criteria.KPOS_RESTARTS, seed=0):
        """The search as a single batch of all restarts, with its verification."""
        C = linalg.require_hermitian(T.choi)
        d1, d2 = T.din, T.dout
        w, V = np.linalg.eigh(C)
        U0, s0, Vh0 = np.linalg.svd(V[:, 0].reshape(d1, d2))
        a_list = [U0[:, :k] * np.sqrt(s0[:k])]
        b_list = [(np.sqrt(s0[:k])[:, None]) * Vh0[:k, :]]
        for s in np.random.SeedSequence(seed).spawn(restarts - 1):
            gen = np.random.default_rng(s)
            a_list.append(gen.normal(size=(d1, k)) + 1j * gen.normal(size=(d1, k)))
            b_list.append(gen.normal(size=(k, d2)) + 1j * gen.normal(size=(k, d2)))
        a_starts = np.ascontiguousarray(np.stack(a_list)).astype(np.complex128)
        b_starts = np.ascontiguousarray(np.stack(b_list)).astype(np.complex128)
        _, psi = criteria._kernels.kpos_seesaw(np.ascontiguousarray(C), d1, d2, k, a_starts,
                                               b_starts, criteria.KPOS_ITERS)
        Up, sp, Vhp = np.linalg.svd(psi.reshape(d1, d2))
        M = (Up[:, :k] * sp[:k]) @ Vhp[:k, :]
        nrm = np.linalg.norm(M)
        if nrm == 0.0:
            return None
        psi = (M / nrm).ravel()
        value = float((psi.conj() @ (C @ psi)).real)
        if value < -criteria.WITNESS_TOL and criteria.schmidt_rank(psi, (d1, d2)) <= k:
            return psi
        return None

    @staticmethod
    def _shifted_map(d, seed, shift):
        """Random Hermitian Choi matrix on C^d (x) C^d with bottom eigenvalue -shift."""
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        H = (G + G.conj().T) / 2
        return choi.QuantumMap(d, d, H - (np.linalg.eigvalsh(H)[0] + shift) * np.eye(d * d))

    def test_matches_one_batch_of_all_restarts(self):
        # d = 2, 3, 4 in turn; bottom eigenvalue -0.05, -1 or -2; k from 1 to d
        cases = [(self._shifted_map(2 + s % 3, s, (0.05, 1.0, 2.0)[s // 3 % 3]),
                  1 + s // 9 % (2 + s % 3), s) for s in range(90)]
        # maps where only a random restart finds the witness
        cases += [(self._shifted_map(d, s, shift), 1, s)
                  for d, s, shift in ((3, 289, 1.0), (4, 236, 2.0), (3, 301, 2.0))]
        cases += [(choi.transposition_map(d), k, 5) for d in (2, 3, 4) for k in range(1, d + 1)]
        cases += [(choi.compose(choi.transposition_map(3), holevo_werner(3, p)), 2, seed)
                  for p in (0.2, 0.5, 0.7) for seed in (0, 1)]
        assert len(cases) >= 100
        random_only = 0
        for T, k, seed in cases:
            expected = self._one_batch(T, k, seed=seed)
            got = criteria.k_positivity_falsify(T, k, seed=seed)
            assert (got is None) == (expected is None), (T.dims, k, seed)
            if criteria.k_positivity_falsify(T, k, restarts=1) is None:
                assert got is None or got.tobytes() == expected.tobytes(), (T.dims, k, seed)
                random_only += got is not None
        assert random_only >= 3


class TestBallCertificate:
    def test_depolarizing_has_zero_deviation(self):
        dev = criteria.deviation_from_depolarizing(choi.depolarizing_map(3), samples=100)
        assert dev == pytest.approx(0.0, abs=1e-12)
        assert criteria.two_eb_ball_certificate(choi.depolarizing_map(3))

    @pytest.mark.parametrize("d,p", [(3, 0.1), (3, 0.4), (4, 0.3), (5, 0.45)])
    def test_hw_deviation_equals_p(self, d, p):
        dev = criteria.deviation_from_depolarizing(holevo_werner(d, p), samples=200)
        assert dev == pytest.approx(p, abs=1e-8)

    def test_hw_inside_and_outside(self):
        assert criteria.two_eb_ball_certificate(holevo_werner(3, 0.4))
        assert not criteria.two_eb_ball_certificate(holevo_werner(3, 0.6))

    def test_hw_boundary_d5(self):
        assert criteria.two_eb_ball_certificate(holevo_werner(5, 0.5))

    def test_reflection_extremum_is_found(self):
        # T(X) = (4/3) Tr[X] I - X/3 has deviation 2/3, attained at the
        # reflection diag(1, 1, -1) but invisible to rank-1 Hermitian probes
        T = choi.choi_from_action(lambda X: (4.0 / 3.0) * np.trace(X) * np.eye(3) - X / 3.0, 3, 3)
        dev = criteria.deviation_from_depolarizing(T, samples=200)
        assert dev == pytest.approx(2.0 / 3.0, abs=1e-8)
        # outside the ball, but the Choi matrix is a separable isotropic
        # state, so the entanglement-breaking fallback still accepts
        assert criteria.two_eb_ball_certificate(T)

    @pytest.mark.parametrize("d,restarts", [(3, 8), (4, 10), (5, 64), (6, 64)])
    def test_reflection_starts_are_distinct(self, d, restarts):
        starts = criteria._reflection_starts(d, restarts, seed=0)
        assert starts.shape == (restarts, d, d)
        np.testing.assert_array_equal(starts[0], np.eye(d))
        assert len({S.tobytes() for S in starts}) == restarts

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_no_restarts_is_domain_error(self, restarts):
        T = holevo_werner(3, 0.3)
        with pytest.raises(DomainError):
            criteria.deviation_from_depolarizing(T, restarts=restarts)

    def test_negative_parameter_accepted_via_fallback(self):
        # deviation is 0.8 > 1/2, but the map is entanglement breaking
        assert criteria.two_eb_ball_certificate(holevo_werner(3, -0.8))

    def test_outside_ball_and_not_cocp_rejected(self):
        assert not criteria.two_eb_ball_certificate(holevo_werner(4, 0.7))

    def test_rejects_rectangular(self):
        rect = choi.QuantumMap(2, 3, np.eye(6))
        with pytest.raises(DimMismatch):
            criteria.two_eb_ball_certificate(rect)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.filterwarnings("error")
    def test_zero_map_is_certified(self, d):
        # the zero map is CP, coCP and EB; its Choi matrix has trace 0, so
        # the fallback decomposes it without normalizing
        assert criteria.two_eb_ball_certificate(choi.QuantumMap(d, d, np.zeros((d * d, d * d))))


def random_shifted_map(d: int, rng, flip: float, size: float) -> choi.QuantumMap:
    """Choi matrix I - flip * F + size * G with G Hermitian of operator norm 1."""
    G = linalg.random_hermitian(d * d, rng)
    G /= np.linalg.norm(G, 2)
    return choi.QuantumMap(d, d, np.eye(d * d) - flip * linalg.flip_operator(d) + size * G)


def split_upper_bound(T: choi.QuantumMap) -> float:
    res = sdp.cb_split_bound(choi.QuantumMap(T.din, T.dout, T.choi - np.eye(T.din * T.dout)))
    assert res.status == sdp.FEASIBLE
    return res.residuals["upper_bound"]


STRONG = {"samples": 2000, "restarts": 64, "iters": 300}


class TestBallBounds:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [-1.0, -0.75, -0.5, -0.3, 0.0, 0.1, 0.45, 0.5, 0.6, 1.0])
    def test_holevo_werner_is_exact(self, d, p):
        bounds = criteria.depolarizing_ball_bounds(catalog.holevo_werner(d, p).map)
        assert abs(bounds.upper - abs(p)) <= 1e-15
        assert abs(bounds.lower - abs(p)) <= 1e-15

    def test_boundary_d5_is_exactly_one_half(self):
        bounds = criteria.depolarizing_ball_bounds(catalog.holevo_werner(5, 0.5).map)
        assert bounds == (0.5, 0.5)

    def test_identity_and_depolarizing(self):
        assert criteria.depolarizing_ball_bounds(choi.depolarizing_map(4)) == (0.0, 0.0)
        # D = id - Tr(.) I on M_3 has norm 2, attained at X = I; the terms
        # have norms 3 and 1, so the bracket is [3 - 1, 3 + 1]
        assert criteria.depolarizing_ball_bounds(choi.identity_map(3)) == (2.0, 4.0)

    def test_brackets_a_strong_search(self):
        rng = np.random.default_rng(11)
        maps = [random_shifted_map(3, rng, rng.uniform(-0.5, 0.5), rng.uniform(0.05, 0.4))
                for _ in range(10)]
        maps += [random_shifted_map(4, rng, rng.uniform(-0.5, 0.5), rng.uniform(0.05, 0.4))
                 for _ in range(3)]
        for T in maps:
            dev = criteria.deviation_from_depolarizing(T, **STRONG)
            bounds = criteria.depolarizing_ball_bounds(T)
            assert bounds.lower <= dev + 1e-9
            assert bounds.upper >= dev - 1e-9
            assert split_upper_bound(T) >= dev - 1e-9

    def test_near_depolarizing_map_is_certified_by_the_split(self):
        T = random_shifted_map(3, np.random.default_rng(7), 0.45, 0.02)
        bounds = criteria.depolarizing_ball_bounds(T)
        assert bounds.lower <= 0.5 < bounds.upper
        assert split_upper_bound(T) <= 0.49
        # not coCP, so the entanglement-breaking fallback cannot be what certifies
        assert not choi.is_cocp(T)
        assert criteria.two_eb_ball_certificate(T)

    def test_maps_outside_the_ball_are_not_certified(self):
        # maps that a strong search puts outside the ball; a lower estimate
        # from a weak search used to certify such maps
        rng = np.random.default_rng(5)
        outside = 0
        for _ in range(8):
            T = random_shifted_map(4, rng, rng.uniform(0.47, 0.53), rng.uniform(0.01, 0.04))
            if choi.is_cp(T) and choi.is_cocp(T):
                continue
            if criteria.deviation_from_depolarizing(T, **STRONG) < 0.505:
                continue
            outside += 1
            assert criteria.depolarizing_ball_bounds(T).upper > 0.5
            assert not criteria.two_eb_ball_certificate(T)
        assert outside >= 5

    def test_non_square_map(self):
        with pytest.raises(DimMismatch):
            criteria.depolarizing_ball_bounds(choi.QuantumMap(2, 3, np.eye(6)))

    def test_dimension_one(self):
        with pytest.raises(DimOutOfRange):
            criteria.depolarizing_ball_bounds(choi.QuantumMap(1, 1, np.eye(1)))

    def test_non_finite_entries(self):
        C = np.eye(9, dtype=complex)
        C[2, 2] = np.nan
        with pytest.raises(DomainError):
            criteria.depolarizing_ball_bounds(choi.QuantumMap(3, 3, C))
        with pytest.raises(DomainError):
            criteria.two_eb_ball_certificate(choi.QuantumMap(3, 3, C))

    def test_overflowing_remainder(self):
        T = choi.QuantumMap(3, 3, 1e307 * np.ones((9, 9)))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError):
            criteria.depolarizing_ball_bounds(T)

    def test_certificate_needs_a_hermitian_choi_matrix(self):
        C = np.eye(9, dtype=complex)
        C[0, 1] = 0.1
        with pytest.raises(NotHermitian):
            criteria.two_eb_ball_certificate(choi.QuantumMap(3, 3, C))

    def test_choi_matrix_within_tolerance_of_hermitian_is_not_certified(self):
        # the defect passes require_hermitian, but a map that does not
        # preserve Hermiticity is not 2-EB, so the ball must not certify it
        C = np.eye(9) - 0.3 * linalg.flip_operator(3)
        C[0, 1] += 1e-11j
        assert criteria.two_eb_ball_certificate(choi.QuantumMap(3, 3, C)) is False
        assert criteria.two_eb_ball_certificate(holevo_werner(3, 0.3)) is True


TYPED_ERRORS = (DimMismatch, DimOutOfRange, DomainError, NotHermitian, NotPSD)


class TestBallRobustness:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 4),
        st.sampled_from([-1.0, -0.5, 0.5, 1.0]),
        st.floats(-1e-6, 1e-6),
        st.sampled_from([None, np.nan, np.inf, -np.inf]),
        st.integers(0, 63),
    )
    def test_boundary_and_non_finite_inputs(self, d, p0, dp, bad, where):
        C = np.array(holevo_werner(d, p0 + dp).choi)
        if bad is not None:
            C[divmod(where % (d * d * d * d), d * d)] = bad
        T = choi.QuantumMap(d, d, C)
        calls = [(criteria.two_eb_ball_certificate, bool),
                 (criteria.depolarizing_ball_bounds, criteria.BallBounds),
                 (lambda T: sdp.cb_split_bound(T).residuals["upper_bound"], float)]
        for call, kind in calls:
            try:
                out = call(T)
            except TYPED_ERRORS:
                assert bad is not None
                continue
            assert bad is None
            assert type(out) is kind

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4))
    def test_non_square_maps(self, din, dout):
        T = choi.QuantumMap(din, dout, np.eye(din * dout))
        for call, kind in ((criteria.two_eb_ball_certificate, bool),
                           (criteria.depolarizing_ball_bounds, criteria.BallBounds)):
            try:
                assert type(call(T)) is kind
            except TYPED_ERRORS:
                pass
        if din != dout:
            with pytest.raises(DimMismatch):
                criteria.two_eb_ball_certificate(T)


class TestJohnstonBlockCheck:
    def test_zero_offdiagonal(self):
        assert criteria.johnston_block_check(np.eye(3), np.zeros((3, 3)), np.eye(3))

    def test_max_entangled_blocks_fail(self):
        rho = np.diag([1.0, 0.0])
        sigma = np.diag([0.0, 1.0])
        X = np.zeros((2, 2))
        X[0, 1] = 1.0
        assert not criteria.johnston_block_check(rho, X, sigma)

    def test_rejects_non_psd_block(self):
        with pytest.raises(NotPSD):
            criteria.johnston_block_check(np.eye(2), 3.0 * np.eye(2), np.eye(2))

    @pytest.mark.parametrize("p,count", [(0.4, 100), (0.5, 5)])
    def test_ball_map_blocks_always_pass(self, p, count):
        # normalized blocks of (id_2 (x) P)(psi) for P in the depolarizing
        # ball: the marginal filter makes Tr rho = Tr sigma = 1, Tr X = 0
        P = holevo_werner(3, p)
        rng = np.random.default_rng(42)
        for _ in range(count):
            psi = linalg.random_pure_state(6, rng)
            Z = np.outer(psi, psi.conj())
            M = linalg.partial_trace(Z, (2, 3), "B")
            if linalg.min_eig(M) < 1e-8:
                Z = Z + 1e-6 * np.eye(6)
                M = linalg.partial_trace(Z, (2, 3), "B")
            w, V = linalg.eig_hermitian(M)
            Minv_half = V @ np.diag(1.0 / np.sqrt(w)) @ V.conj().T
            F = np.kron(Minv_half, np.eye(3))
            W = F @ Z @ F
            W4 = W.reshape(2, 3, 2, 3)
            rho, X, sigma = W4[0, :, 0, :], W4[0, :, 1, :], W4[1, :, 1, :]
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
            assert abs(np.trace(X)) == pytest.approx(0.0, abs=1e-9)
            assert criteria.johnston_block_check(
                choi.apply(P, rho), choi.apply(P, X), choi.apply(P, sigma)
            )


class TestTwoEbRankCertificate:
    def test_depolarizing_rank_one(self):
        assert criteria.two_eb_rank_certificate(choi.depolarizing_map(3))

    def test_identity_rank_nine(self):
        assert not criteria.two_eb_rank_certificate(choi.identity_map(3))

    def test_hw_rank_is_too_large(self):
        # Choi I - pF realigns to rank 1 + rank 9, so the rank gate fails
        assert not criteria.two_eb_rank_certificate(holevo_werner(3, 0.5))

    def test_cp_rank_three_map(self, rng):
        # a sum of three PSD tensor products is CP with operator rank <= 3
        C = sum(np.kron(linalg.random_psd(3, rng), linalg.random_psd(3, rng))
                for _ in range(3))
        T = choi.QuantumMap(3, 3, C)
        assert choi.operator_schmidt_rank(T) == 3
        assert criteria.two_eb_rank_certificate(T)

    def test_small_fourth_component_is_counted(self, rng):
        # the operator rank uses the same 1e-10 relative cut as schmidt_rank, so a
        # fourth product term at 1e-9 relative is rank 4, not certified
        C = sum(np.kron(linalg.random_psd(3, rng), linalg.random_psd(3, rng))
                for _ in range(3))
        P, Q = linalg.random_psd(3, rng), linalg.random_psd(3, rng)
        top = np.linalg.svd(linalg.realign(C, (3, 3)), compute_uv=False)[0]
        C4 = C + 1e-9 * top * np.kron(P, Q) / (np.linalg.norm(P) * np.linalg.norm(Q))
        T = choi.QuantumMap(3, 3, C4)
        assert choi.operator_schmidt_rank(T) == 4
        assert not criteria.two_eb_rank_certificate(T)

    def test_low_rank_non_positive_map_rejected(self):
        # T(X) = (Tr X - 2 x_00) I has operator rank 1 but is not positive
        T = choi.choi_from_action(lambda X: (np.trace(X) - 2 * X[0, 0]) * np.eye(3), 3, 3)
        assert choi.operator_schmidt_rank(T) == 1
        assert not criteria.two_eb_rank_certificate(T)

    def test_missed_witness_does_not_certify(self, monkeypatch):
        # a 2-positivity search that misses the witness proves nothing
        monkeypatch.setattr(criteria, "k_positivity_falsify", lambda *args, **kwargs: None)
        T = choi.choi_from_action(lambda X: (np.trace(X) - 2 * X[0, 0]) * np.eye(3), 3, 3)
        assert not criteria.two_eb_rank_certificate(T)


class TestTwoEbD3Certificate:
    def test_cp_cocp_certified(self):
        for seed in (0, 1):
            v = criteria.two_eb_d3_certificate(choi.random_cp_cocp_map(3, seed))
            assert v.status == criteria.EB_CERTIFIED

    def test_depolarizing_certified(self):
        v = criteria.two_eb_d3_certificate(choi.depolarizing_map(3))
        assert v.status == criteria.EB_CERTIFIED

    def test_hw_above_half_refuted(self):
        v = criteria.two_eb_d3_certificate(holevo_werner(3, 0.9))
        assert v.status == criteria.NOT_EB_CERTIFIED
        names = {e["name"] for e in v.evidence}
        assert "two-copositivity-witness" in names

    def test_hw_statuses_on_coarse_grid(self):
        # CP + coCP for p <= 1/3, no witness up to the 2-EB boundary p = 1/2,
        # a copositivity witness beyond it
        grid = np.linspace(-1.0, 1.0, 21)
        expected = ([criteria.EB_CERTIFIED] * 14 + [criteria.UNKNOWN] * 2
                    + [criteria.NOT_EB_CERTIFIED] * 5)
        got = [criteria.two_eb_d3_certificate(holevo_werner(3, p)).status for p in grid]
        assert got == expected

    def test_cp_cocp_maps_skip_the_witness_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("witness search on a CP + coCP map")

        monkeypatch.setattr(criteria, "k_positivity_falsify", no_search)
        maps = [choi.random_cp_cocp_map(3, 0), choi.random_cp_cocp_map(3, 1),
                choi.depolarizing_map(3), holevo_werner(3, -1.0), holevo_werner(3, 0.3)]
        for T in maps:
            v = criteria.two_eb_d3_certificate(T)
            assert v.status == criteria.EB_CERTIFIED
            assert {e["name"] for e in v.evidence} == {"sense", "exact-regime"}

    def test_only_searches_that_can_succeed_run(self, monkeypatch):
        # HW(3, p) is CP for |p| <= 1, so only the 2-copositivity search runs
        searched = []
        search = criteria.k_positivity_falsify

        def recording(M, *args, **kwargs):
            searched.append(M)
            return search(M, *args, **kwargs)

        monkeypatch.setattr(criteria, "k_positivity_falsify", recording)
        T = holevo_werner(3, 0.9)
        v = criteria.two_eb_d3_certificate(T)
        assert v.status == criteria.NOT_EB_CERTIFIED
        assert len(searched) == 1
        np.testing.assert_array_equal(
            searched[0].choi, choi.compose(choi.transposition_map(3), T).choi)
        # the transposition is coCP, so only the 2-positivity search runs
        searched.clear()
        v = criteria.two_eb_d3_certificate(choi.transposition_map(3))
        assert v.status == criteria.NOT_EB_CERTIFIED
        assert len(searched) == 1
        np.testing.assert_array_equal(searched[0].choi, choi.transposition_map(3).choi)

    def test_boundary_map_is_honestly_unknown(self):
        # 2 Tr[X] I - X is 2-positive and 2-copositive (boundary cases) but
        # not CP, so neither the witness search nor the exact regime applies
        T = choi.choi_from_action(lambda X: 2.0 * np.trace(X) * np.eye(3) - X, 3, 3)
        v = criteria.two_eb_d3_certificate(T)
        assert v.status == criteria.UNKNOWN
        budget = {"restarts": criteria.KPOS_RESTARTS, "iters": criteria.KPOS_ITERS}
        assert {e["name"]: e["data"] for e in v.evidence}["no-witness-within-budget"] == budget

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimOutOfRange):
            criteria.two_eb_d3_certificate(choi.identity_map(2))


class TestD4PtInvariantCertificate:
    @staticmethod
    def pt_invariant_s() -> choi.QuantumMap:
        d = 4
        C = np.eye(d * d) + linalg.flip_operator(d) + linalg.max_entangled_projector(d)
        return choi.QuantumMap(d, d, C)

    def test_certifies_symmetric_construction(self):
        S = self.pt_invariant_s()
        assert criteria.d4_ptinv_2eb_certificate(S, choi.depolarizing_map(4))

    def test_identity_s_rejected(self):
        assert not criteria.d4_ptinv_2eb_certificate(
            choi.identity_map(4), choi.depolarizing_map(4)
        )

    def test_non_cocp_t_rejected(self):
        assert not criteria.d4_ptinv_2eb_certificate(self.pt_invariant_s(), choi.identity_map(4))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimOutOfRange):
            criteria.d4_ptinv_2eb_certificate(choi.identity_map(3), choi.identity_map(3))


class TestBoundCalculators:
    @pytest.mark.parametrize("l,n,out", [(3, 2, 2), (2, 2, 1), (5, 3, 3), (1, 5, 1)])
    def test_trim_bound(self, l, n, out):
        assert criteria.sn_trim_bound(l, n) == out

    def test_trim_bound_domain(self):
        with pytest.raises(DomainError):
            criteria.sn_trim_bound(0, 2)

    @pytest.mark.parametrize("d,n,out", [(3, 2, 2), (4, 2, 3), (2, 2, 1), (5, 3, 2)])
    def test_iteration_count(self, d, n, out):
        assert criteria.iteration_count(d, n) == out

    @pytest.mark.parametrize("d,n", [(1, 2), (3, 1), (3, 4)])
    def test_iteration_count_domain(self, d, n):
        with pytest.raises(DomainError):
            criteria.iteration_count(d, n)

    @given(st.integers(2, 50), st.integers(2, 50))
    def test_iteration_count_covers_dimension(self, d, n):
        # n-fold trimming by steps of n-1 must reach Schmidt number 1
        if n > d:
            return
        count = criteria.iteration_count(d, n)
        assert (n - 1) * count >= d - 1
        assert (n - 1) * (count - 1) < d - 1

    @given(st.integers(1, 40), st.integers(1, 40))
    def test_trim_bound_never_below_one(self, l, n):
        assert criteria.sn_trim_bound(l, n) >= 1
        assert criteria.sn_trim_bound(l, n) <= l


class TestTrimmingConsistency:
    def test_cp_cocp_output_fidelity_bound(self, rng):
        # a CP+coCP map at d=3 trims the Schmidt number of any pure input
        # below 3, so the fidelity lower bound of the output is at most 2
        T = choi.random_cp_cocp_map(3, seed=11)
        lifted = choi.tensor(choi.identity_map(3), T)
        for _ in range(200):
            psi = linalg.random_pure_state(9, rng)
            out = choi.apply(lifted, np.outer(psi, psi.conj()))
            X = BipartiteState((3, 3), out)
            assert criteria.sn_lower_fidelity(X) <= 2


def assert_residual_matches_terms(dec, X):
    # the residual is tracked on stacked product vectors; it must equal the
    # miss of the kron-built terms the decomposition hands out
    miss = linalg.operator_norm(dec.reconstruct() - X)
    assert dec.residual == pytest.approx(miss, abs=1e-12 * linalg.operator_norm(X))


class TestHeuristicSepCertify:
    def test_identity_found_exactly(self):
        dec = criteria.heuristic_sep_certify(state((2, 2), np.eye(4)), budget=10)
        assert dec is not None
        assert dec.residual <= 1e-7 * 1.0
        assert np.allclose(dec.reconstruct(), np.eye(4), atol=1e-7)
        assert_residual_matches_terms(dec, np.eye(4))

    def test_max_entangled_not_found(self):
        dec = criteria.heuristic_sep_certify(
            state((2, 2), linalg.max_entangled_projector(2)), budget=40
        )
        assert dec is None

    def test_hw_squared_choi_found(self):
        # W_p composed with itself has an isotropic-type PPT Choi matrix;
        # p = 0.8 sits inside the separable regime
        T = choi.compose(holevo_werner(3, 0.8), holevo_werner(3, 0.8))
        X = state((3, 3), T.choi)
        dec = criteria.heuristic_sep_certify(X, budget=500)
        assert dec is not None
        scale = linalg.operator_norm(X.mat)
        assert linalg.operator_norm(dec.reconstruct() - X.mat) <= 1e-7 * scale
        assert_residual_matches_terms(dec, X.mat)
        for A, B in dec.terms:
            assert linalg.is_psd(A) and linalg.is_psd(B)

    def test_local_unitary_rotation_of_hw_squared_found_by_pursuit(self, rng):
        # (U (x) V) X (U (x) V)^dag leaves span{I, F} and span{I, Omega}, so
        # the twirl rung declines and the pursuit must find it
        T = choi.compose(holevo_werner(3, 0.8), holevo_werner(3, 0.8))
        W = np.kron(linalg.haar_unitary(3, rng), linalg.haar_unitary(3, rng))
        M = W @ T.choi @ W.conj().T
        X = state((3, 3), (M + M.conj().T) / 2.0)
        scale = linalg.operator_norm(X.mat)
        assert criteria._twirl_decomposition(X, 1e-7 * scale) is None
        dec = criteria.heuristic_sep_certify(X, budget=500)
        assert dec is not None and dec.atoms_searched > 0
        assert dec.residual <= 1e-7 * scale
        assert_residual_matches_terms(dec, X.mat)

    def test_random_separable_mixtures_found(self, rng):
        # dense mixtures sit in the interior of the separable cone, where
        # the pursuit converges; exact-sparse boundary cases may time out
        for _ in range(3):
            M = np.zeros((9, 9), dtype=complex)
            for _ in range(40):
                a = linalg.random_pure_state(3, rng)
                b = linalg.random_pure_state(3, rng)
                M += rng.uniform(0.2, 1.0) * np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
            dec = criteria.heuristic_sep_certify(state((3, 3), M), budget=600, seed=5)
            assert dec is not None
            assert linalg.operator_norm(dec.reconstruct() - M) <= 1e-7 * linalg.operator_norm(M)
            assert_residual_matches_terms(dec, M)


def criterion_05_state(seed: int) -> BipartiteState:
    """The normalized Choi state of a composition swept by acceptance criterion 05."""
    comp = choi.compose(choi.random_cp_cocp_map(3, 1000 + seed), choi.random_cp_cocp_map(3, seed))
    return state((3, 3), comp.choi / np.trace(comp.choi).real)


def no_pursuit(*args, **kwargs):
    raise AssertionError("the separable pursuit ran")


class TestTwirlDecomposition:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_every_ppt_holevo_werner_state(self, d, monkeypatch):
        monkeypatch.setattr(criteria, "_refit", no_pursuit)
        for p in np.linspace(-1.0, 1.0 / d, 41):
            X = state((d, d), holevo_werner(d, p).choi)
            dec = criteria.heuristic_sep_certify(X)
            assert dec.atoms_searched == 0 and np.all(dec.weights > 0.0), p
            assert dec.residual <= 1e-13 * linalg.operator_norm(X.mat), p
            assert_residual_matches_terms(dec, X.mat)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_isotropic_antisym_square_and_sym_choi(self, d, monkeypatch):
        monkeypatch.setattr(criteria, "_refit", no_pursuit)
        a, s = catalog.antisym_sym_maps(d)
        for M in (choi.compose(a.map, a.map).choi, s.map.choi):
            X = state((d, d), M)
            dec = criteria.heuristic_sep_certify(X)
            assert dec.atoms_searched == 0 and np.all(dec.weights > 0.0)
            assert dec.residual <= 1e-13 * linalg.operator_norm(X.mat)
            assert_residual_matches_terms(dec, X.mat)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_npt_members_are_declined(self, d):
        for p in (1.0 / d + 1e-3, 0.5 + 1e-3, 1.0):
            X = state((d, d), holevo_werner(d, p).choi)
            assert criteria._twirl_decomposition(X, 1e-7 * linalg.operator_norm(X.mat)) is None
        # the isotropic state |Omega><Omega| is PSD and NPT
        X = state((d, d), linalg.max_entangled_projector(d))
        assert criteria._twirl_decomposition(X, 1e-7 * d) is None

    @pytest.mark.parametrize(
        "dims,mat",
        [((2, 3), np.eye(6)), ((6, 6), np.eye(36)), ((3, 3), np.diag(np.arange(1.0, 10.0)))],
        ids=["unequal-factors", "d6", "outside-both-spans"],
    )
    def test_other_inputs_are_declined(self, dims, mat):
        X = state(dims, mat)
        assert criteria._twirl_decomposition(X, 1e-7 * linalg.operator_norm(X.mat)) is None

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_criterion_05_states_fall_through_unchanged(self, seed, monkeypatch):
        # generic states leave at the entrywise test and draw nothing from
        # the pursuit's generator, so the result is bit for bit the pursuit's
        X = criterion_05_state(seed)
        assert criteria._twirl_decomposition(X, 1e-7 * linalg.operator_norm(X.mat)) is None
        dec = criteria.heuristic_sep_certify(X)
        monkeypatch.setattr(criteria, "_twirl_decomposition", lambda X, target: None)
        ref = criteria.heuristic_sep_certify(X)
        for name in ("weights", "a", "b"):
            np.testing.assert_array_equal(getattr(dec, name), getattr(ref, name))
        assert (dec.residual, dec.atoms_searched) == (ref.residual, ref.atoms_searched)


class TestStackedPolish:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_polish_and_union_refit_never_raise_frobenius_error(self, seed):
        # the union refit keeps every old atom as a candidate, so each
        # stacked polish can only lower the Frobenius error of the refit
        # before it; the first one must lower it strictly
        X = criterion_05_state(seed)
        A, B, w, R = criteria._refit(X.mat, *criteria._seed_atoms(X.dims, np.random.default_rng(0)))
        errors = [np.linalg.norm(R)]
        for _ in range(4):
            A, B, w, R = criteria._polish_refit(X.mat, A, B, w, R)
            errors.append(np.linalg.norm(R))
        assert errors[1] < 0.999 * errors[0]
        for before, after in zip(errors, errors[1:]):
            assert after <= before * (1.0 + 1e-12)

    def test_polish_refit_residual_matches_atoms(self):
        X = criterion_05_state(3)
        seed_fit = criteria._refit(X.mat, *criteria._seed_atoms(X.dims, np.random.default_rng(1)))
        A, B, w, R = criteria._polish_refit(X.mat, *seed_fit)
        dec = criteria.SepDecomposition(w, A, B, 0.0, 0)
        assert np.all(w > 0.0) and len(w) == len(A) == len(B)
        np.testing.assert_allclose(X.mat - dec.reconstruct(), R, atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 7, 42, 101])
    def test_one_nnls_per_polish_round(self, seed, monkeypatch):
        # each round polishes the refit it is handed, so the only NNLS
        # problems are the seed refit and one union refit per round
        calls, nnls = [], criteria.nnls

        def counting(*args):
            calls.append(None)
            return nnls(*args)

        monkeypatch.setattr(criteria, "nnls", counting)
        sizes = counted_rounds(monkeypatch)
        criteria.heuristic_sep_certify(criterion_05_state(seed))
        assert sizes and len(calls) == 1 + len(sizes)

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_reconstruct_is_sum_of_kron_terms(self, seed):
        X = criterion_05_state(seed)
        dec = criteria.heuristic_sep_certify(X)
        assert dec is not None
        assert len(dec.terms) == len(dec.weights) > 0
        kron_sum = sum(np.kron(A, B) for A, B in dec.terms)
        np.testing.assert_allclose(dec.reconstruct(), kron_sum, atol=1e-14)
        assert_residual_matches_terms(dec, X.mat)

    def test_zero_state_has_no_terms(self):
        dec = criteria.heuristic_sep_certify(state((2, 3), np.zeros((6, 6))))
        assert dec.weights.shape == (0,) and dec.a.shape == (0, 2) and dec.b.shape == (0, 3)
        assert dec.terms == ()
        np.testing.assert_array_equal(dec.reconstruct(), np.zeros((6, 6)))

    @pytest.mark.parametrize(
        "weights,a,b",
        [
            (np.ones(2), np.ones((3, 2)), np.ones((2, 2))),
            (np.ones(2), np.ones((2, 2)), np.ones((3, 2))),
            (np.ones((2, 1)), np.ones((2, 2)), np.ones((2, 2))),
            (np.ones(2), np.ones(2), np.ones((2, 2))),
            (1.0, np.ones((1, 2)), np.ones((1, 2))),
        ],
        ids=["a-rows", "b-rows", "weights-2d", "a-1d", "weights-scalar"],
    )
    def test_mismatched_factors_raise(self, weights, a, b):
        with pytest.raises(DimMismatch):
            criteria.SepDecomposition(weights, a, b, 0.0, 0)


class TestHeuristicSepCertifyArguments:
    # budget is checked; the removed refit period and the residual bound (the
    # constant SEP_RESIDUAL_TOL) are no arguments, so any value of them is a TypeError
    @pytest.mark.parametrize(
        "kwargs,error",
        [
            ({"refit_every": 0}, TypeError),
            ({"refit_every": -3}, TypeError),
            ({"budget": -5}, DomainError),
            ({"target_rel": float("nan")}, TypeError),
            ({"target_rel": float("inf")}, TypeError),
            ({"target_rel": 0.0}, TypeError),
            ({"target_rel": -1e-7}, TypeError),
        ],
        ids=["refit-every-zero", "refit-every-negative", "budget-negative", "target-nan",
             "target-inf", "target-zero", "target-negative"],
    )
    def test_out_of_domain_raises(self, kwargs, error):
        with pytest.raises(error):
            criteria.heuristic_sep_certify(criterion_05_state(0), **kwargs)

    def test_zero_budget_still_refits_the_seed_atoms(self, monkeypatch):
        # no polish round runs, but the product basis among the seed atoms
        # fits a product state exactly
        monkeypatch.setattr(criteria, "_polish_refit", no_pursuit)
        X = state((2, 3), np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
        dec = criteria.heuristic_sep_certify(X, budget=0)
        assert dec is not None and dec.atoms_searched == 0
        assert_residual_matches_terms(dec, X.mat)

    def test_zero_budget_runs_no_round_when_the_seed_refit_misses(self, monkeypatch):
        monkeypatch.setattr(criteria, "_polish_refit", no_pursuit)
        assert criteria.heuristic_sep_certify(criterion_05_state(0), budget=0) is None


def tiles_upb_state() -> np.ndarray:
    """(I - sum of the five Tiles UPB projectors) / 4: PPT and entangled."""
    e = np.eye(3)
    minus = lambda x, y: (x - y) / np.sqrt(2)
    s = e.sum(axis=0) / np.sqrt(3)
    vecs = [np.kron(e[0], minus(e[0], e[1])), np.kron(minus(e[0], e[1]), e[2]),
            np.kron(e[2], minus(e[1], e[2])), np.kron(minus(e[1], e[2]), e[0]), np.kron(s, s)]
    return (np.eye(9) - sum(np.outer(v, v) for v in vecs)) / 4.0


def horodecki_state(a: float) -> np.ndarray:
    """P. Horodecki's 3 x 3 state: PPT and entangled for 0 < a < 1."""
    M = a * np.eye(9)
    M[np.ix_([0, 4, 8], [0, 4, 8])] = a
    M[6, 6] = M[8, 8] = (1.0 + a) / 2.0
    M[6, 8] = M[8, 6] = np.sqrt(1.0 - a * a) / 2.0
    return M / (8.0 * a + 1.0)


def counted_rounds(monkeypatch) -> list:
    """Patch _polish_refit to record the size of the atom stack of each round."""
    sizes, polish = [], criteria._polish_refit

    def counting(X, A, B, w, R):
        sizes.append(len(A))
        return polish(X, A, B, w, R)

    monkeypatch.setattr(criteria, "_polish_refit", counting)
    return sizes


def nnls_cap_state() -> BipartiteState:
    """J(T^5)/tr for a d = 5, Kraus-rank 3 channel: PPT with lambda_min 4.6e-3,
    and scipy's NNLS reaches its iteration cap in the pursuit's refits."""
    rng = np.random.default_rng(11)
    channels = []  # three each; the 17th is kept
    for d, r in [(3, 2), (3, 3), (3, 9), (4, 2), (4, 4), (5, 3)]:
        for _ in range(3):
            G = rng.normal(size=(d * r, d)) + 1j * rng.normal(size=(d * r, d))
            kraus = np.linalg.qr(G)[0].reshape(d, r, d).transpose(1, 0, 2)
            channels.append(choi.choi_from_kraus(list(kraus), d, d))
    T = C = channels[16]
    for _ in range(4):
        C = choi.compose(T, C)
    return state((5, 5), C.choi / np.trace(C.choi).real)


class TestPursuitStoppingRules:
    def test_nnls_iteration_cap_is_a_stalled_fit(self, monkeypatch):
        def capped(*args):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(criteria, "nnls", capped)
        assert criteria.heuristic_sep_certify(criterion_05_state(0)) is None

    def test_nnls_cap_input_returns_a_checkable_answer(self):
        X = nnls_cap_state()
        assert criteria.is_ppt_state(X)
        dec = criteria.heuristic_sep_certify(X)
        if dec is not None:
            assert dec.residual <= criteria.SEP_RESIDUAL_TOL * linalg.operator_norm(X.mat)
            assert np.all(dec.weights > 0.0)
            assert_residual_matches_terms(dec, X.mat)

    @pytest.mark.parametrize(
        "mat", [tiles_upb_state(), horodecki_state(0.3)], ids=["tiles-upb", "horodecki-0.3"])
    def test_ppt_entangled_states_get_no_decomposition(self, mat):
        X = state((3, 3), mat)
        assert criteria.is_ppt_state(X)
        assert criteria.heuristic_sep_certify(X) is None

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_npt_state_stops_on_the_frobenius_rule(self, d, monkeypatch):
        # |Omega><Omega| / d is NPT, so no refit meets the bound; the refit's
        # Frobenius error stops falling within two rounds, long before the
        # default budget is spent
        sizes = counted_rounds(monkeypatch)
        X = state((d, d), linalg.max_entangled_projector(d) / d)
        assert criteria.heuristic_sep_certify(X) is None
        assert 1 <= len(sizes) <= 2 and sum(sizes) < 5000

    @pytest.mark.parametrize("budget", [1, 50, 200, 5000])
    @pytest.mark.parametrize("mat", [None, tiles_upb_state()], ids=["criterion-05", "tiles-upb"])
    def test_atoms_searched_is_the_round_sizes_within_budget(self, budget, mat, monkeypatch):
        X = criterion_05_state(4) if mat is None else state((3, 3), mat)
        sizes = counted_rounds(monkeypatch)
        dec = criteria.heuristic_sep_certify(X, budget=budget)
        # a round starts only below the budget, so the last one may overrun it
        assert sizes and sum(sizes[:-1]) < budget
        if dec is not None:
            assert dec.atoms_searched == sum(sizes) <= budget + sizes[-1]
            assert dec.residual <= criteria.SEP_RESIDUAL_TOL * linalg.operator_norm(X.mat)
        if budget == 5000 and mat is None:
            assert dec is not None
