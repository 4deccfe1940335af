"""Tests for the Choi-matrix calculus."""

import numpy as np
import pytest

from ebcompose import choi, linalg
from ebcompose.errors import DimMismatch, LinearityViolation


def hw_action(d, p):
    """X -> Tr[X] I - p X^T, used here as a well-understood square map."""
    return lambda X: np.trace(X) * np.eye(d) - p * X.T


def random_hp_map(din, dout, rng):
    """Random Hermiticity-preserving map (Hermitian Choi matrix)."""
    return choi.QuantumMap(din, dout, linalg.random_hermitian(din * dout, rng))


def random_cp_map(din, dout, rng):
    return choi.QuantumMap(din, dout, linalg.random_psd(din * dout, rng))


class TestQuantumMap:
    @pytest.mark.parametrize(
        "din,dout,n", [(2.5, 2, 5), (True, 2, 2), (2, 0, 0), (-1, -2, 2)],
        ids=["fractional", "bool", "zero", "negative"],
    )
    def test_dims_must_be_positive_integers(self, din, dout, n):
        with pytest.raises(DimMismatch):
            choi.QuantumMap(din, dout, np.eye(n))

    def test_numpy_integer_dims_become_int(self):
        T = choi.QuantumMap(np.int64(2), np.int32(3), np.eye(6))
        assert T.dims == (2, 3) and all(type(k) is int for k in T.dims)


class TestChoiFromAction:
    def test_identity_gives_max_entangled(self):
        T = choi.choi_from_action(lambda X: X, 2, 2)
        np.testing.assert_array_equal(T.choi, linalg.max_entangled_projector(2))

    @pytest.mark.parametrize("d", [2, 3])
    def test_transposition_gives_flip(self, d):
        T = choi.choi_from_action(lambda X: X.T, d, d)
        np.testing.assert_array_equal(T.choi, linalg.flip_operator(d))
        np.testing.assert_array_equal(T.choi, choi.transposition_map(d).choi)

    def test_depolarizing_gives_identity(self):
        T = choi.choi_from_action(lambda X: np.trace(X) * np.eye(3), 3, 3)
        np.testing.assert_array_equal(T.choi, np.eye(9))

    def test_nonlinear_action_rejected(self):
        with pytest.raises(LinearityViolation):
            choi.choi_from_action(lambda X: X @ X, 2, 2)

    def test_wrong_output_shape_rejected(self):
        with pytest.raises(DimMismatch):
            choi.choi_from_action(lambda X: np.eye(3), 2, 2)


class TestApply:
    def test_identity(self, rng):
        X = linalg.random_hermitian(4, rng)
        np.testing.assert_allclose(choi.apply(choi.identity_map(4), X), X, atol=1e-13)

    def test_hw_on_identity(self):
        T = choi.choi_from_action(hw_action(3, 0.5), 3, 3)
        np.testing.assert_allclose(choi.apply(T, np.eye(3)), 2.5 * np.eye(3), atol=1e-13)

    def test_round_trip_on_random_maps(self, rng):
        for _ in range(20):
            T = random_cp_map(3, 2, rng)
            again = choi.choi_from_action(lambda X: choi.apply(T, X), 3, 2)
            np.testing.assert_allclose(again.choi, T.choi, atol=1e-12 * np.max(np.abs(T.choi)))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            choi.apply(choi.identity_map(2), np.eye(3))


class TestCompose:
    def test_identity_neutral(self, rng):
        T = random_hp_map(3, 3, rng)
        out = choi.compose(choi.identity_map(3), T)
        np.testing.assert_allclose(out.choi, T.choi, atol=1e-13)
        out = choi.compose(T, choi.identity_map(3))
        np.testing.assert_allclose(out.choi, T.choi, atol=1e-13)

    @pytest.mark.parametrize("p", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_hw_square_is_ppt(self, p):
        T = choi.choi_from_action(hw_action(3, p), 3, 3)
        sq = choi.compose(T, T)
        pt = linalg.partial_transpose(sq.choi, sq.dims, "B")
        assert linalg.is_psd(pt)

    def test_matches_apply_chaining(self, rng):
        T1 = random_hp_map(2, 3, rng)
        T2 = random_hp_map(3, 2, rng)
        direct = choi.compose(T2, T1)
        chained = choi.choi_from_action(
            lambda X: choi.apply(T2, choi.apply(T1, X)), 2, 2
        )
        np.testing.assert_allclose(direct.choi, chained.choi, atol=1e-11)

    def test_associativity(self, rng):
        A = random_hp_map(2, 3, rng)
        B = random_hp_map(3, 2, rng)
        C = random_hp_map(2, 2, rng)
        left = choi.compose(C, choi.compose(B, A))
        right = choi.compose(choi.compose(C, B), A)
        scale = np.max(np.abs(left.choi))
        np.testing.assert_allclose(left.choi, right.choi, atol=1e-10 * scale)

    def test_inner_dim_mismatch(self, rng):
        with pytest.raises(DimMismatch):
            choi.compose(random_hp_map(3, 3, rng), random_hp_map(2, 2, rng))


class TestAdjoint:
    def test_depolarizing_self_adjoint(self):
        T = choi.depolarizing_map(3)
        np.testing.assert_allclose(choi.adjoint(T).choi, T.choi, atol=1e-14)

    def test_involution(self, rng):
        T = random_hp_map(2, 3, rng)
        back = choi.adjoint(choi.adjoint(T))
        assert back.dims == T.dims
        np.testing.assert_allclose(back.choi, T.choi, atol=1e-14)

    def test_hs_pairing(self, rng):
        T = random_hp_map(3, 2, rng)
        Ts = choi.adjoint(T)
        for _ in range(10):
            A = linalg.random_hermitian(2, rng)
            B = linalg.random_hermitian(3, rng)
            lhs = np.trace(A.conj().T @ choi.apply(T, B))
            rhs = np.trace(choi.apply(Ts, A).conj().T @ B)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_choi_via_adjoint_identity(self, rng):
        # (id (x) L)(omega_d1) = ((theta ∘ L* ∘ theta) (x) id)(omega_d2)
        for _ in range(10):
            L = random_hp_map(2, 3, rng)
            M = choi.compose(
                choi.transposition_map(2),
                choi.compose(choi.adjoint(L), choi.transposition_map(3)),
            )
            rhs = choi.apply(
                choi.tensor(M, choi.identity_map(3)), linalg.max_entangled_projector(3)
            )
            np.testing.assert_allclose(rhs, L.choi, atol=1e-11)


class TestTensor:
    def test_identity_factors(self):
        out = choi.tensor(choi.identity_map(2), choi.identity_map(3))
        np.testing.assert_allclose(out.choi, choi.identity_map(6).choi, atol=1e-14)

    def test_depolarizing_pair(self, rng):
        out = choi.tensor(choi.depolarizing_map(2), choi.depolarizing_map(2))
        X = linalg.random_hermitian(4, rng)
        np.testing.assert_allclose(
            choi.apply(out, X), np.trace(X) * np.eye(4), atol=1e-12
        )

    def test_product_inputs(self, rng):
        T1 = random_hp_map(2, 2, rng)
        T2 = random_hp_map(3, 2, rng)
        A = linalg.random_hermitian(2, rng)
        B = linalg.random_hermitian(3, rng)
        lhs = choi.apply(choi.tensor(T1, T2), np.kron(A, B))
        rhs = np.kron(choi.apply(T1, A), choi.apply(T2, B))
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)


class TestPositivityPredicates:
    def test_identity_cp(self):
        assert choi.is_cp(choi.identity_map(3))

    def test_transposition_not_cp(self):
        assert not choi.is_cp(choi.transposition_map(2))

    def test_hw_cp_for_all_p(self):
        for p in np.arange(-1.0, 1.0 + 1e-9, 0.1):
            T = choi.choi_from_action(hw_action(3, p), 3, 3)
            assert choi.is_cp(T)

    def test_hw_cocp_boundary_d3(self):
        # PT of the Choi is I - p * omega with spectrum {1 - p d, 1}
        T = choi.choi_from_action(hw_action(3, 0.2), 3, 3)
        assert choi.is_cocp(T)
        T = choi.choi_from_action(hw_action(3, 0.6), 3, 3)
        assert not choi.is_cocp(T)

    def test_identity_not_cocp(self):
        assert not choi.is_cocp(choi.identity_map(2))

    def test_cocp_equals_cp_after_transposition(self, rng):
        for _ in range(10):
            T = random_hp_map(3, 3, rng)
            composed = choi.compose(choi.transposition_map(3), T)
            assert choi.is_cocp(T) == choi.is_cp(composed)


class TestOperatorSchmidtRank:
    def test_depolarizing(self):
        assert choi.operator_schmidt_rank(choi.depolarizing_map(3)) == 1

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_identity(self, d):
        assert choi.operator_schmidt_rank(choi.identity_map(d)) == d * d

    def test_matches_operator_matrix_rank(self, rng):
        # independent construction: the d2^2 x d1^2 matrix of T as a linear operator
        for din, dout in [(2, 2), (3, 2), (4, 3)]:
            T = random_hp_map(din, dout, rng)
            rows = []
            unit = np.zeros((din, din), dtype=complex)
            for i in range(din):
                for j in range(din):
                    unit[i, j] = 1.0
                    rows.append(choi.apply(T, unit).ravel())
                    unit[i, j] = 0.0
            op_rank = np.linalg.matrix_rank(np.column_stack(rows), tol=1e-8)
            assert choi.operator_schmidt_rank(T) == op_rank

    def test_low_rank_map(self, rng):
        T = choi.QuantumMap(3, 3, linalg.random_psd(9, rng, rank=1))
        r = choi.operator_schmidt_rank(T)
        assert 1 <= r <= 9


class TestKraus:
    def test_action_matches(self, rng):
        ops = [rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)) for _ in range(4)]
        T = choi.choi_from_kraus(ops, 2, 3)
        X = linalg.random_hermitian(2, rng)
        via_kraus = sum(K @ X @ K.conj().T for K in ops)
        np.testing.assert_allclose(via_kraus, choi.apply(T, X), atol=1e-10)


class TestSwitchMap:
    def test_two_applications_reproduce_composition(self, rng):
        for seed in range(5):
            T1 = choi.random_cp_cocp_map(2, seed)
            T2 = choi.random_cp_cocp_map(2, seed + 100)
            sw = choi.switch_map(T1, T2)
            Y = linalg.random_hermitian(2, rng)
            embedded = np.kron(Y, np.diag([1.0, 0.0]))
            twice = choi.apply(sw, choi.apply(sw, embedded))
            expected = np.kron(
                choi.apply(T2, choi.apply(T1, Y)), np.diag([1.0, 0.0])
            )
            np.testing.assert_allclose(twice, expected, atol=1e-11)

    def test_preserves_cp_and_cocp(self):
        T1 = choi.random_cp_cocp_map(2, 7)
        T2 = choi.random_cp_cocp_map(2, 8)
        sw = choi.switch_map(T1, T2)
        assert choi.is_cp(sw)
        assert choi.is_cocp(sw)

    def test_identity_pair_sectors(self, rng):
        sw = choi.switch_map(choi.identity_map(2), choi.identity_map(2))
        Y = linalg.random_hermitian(2, rng)
        for flag in (0, 1):
            proj = np.diag([1.0, 0.0]) if flag == 0 else np.diag([0.0, 1.0])
            twice = choi.apply(sw, choi.apply(sw, np.kron(Y, proj)))
            np.testing.assert_allclose(twice, np.kron(Y, proj), atol=1e-12)


class TestRandomPptChoi:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_margins_and_trace(self, seed):
        T = choi.random_cp_cocp_map(3, seed)
        assert choi.is_cp(T)
        assert choi.is_cocp(T)
        assert np.trace(T.choi) == pytest.approx(3.0)

    def test_seed_determinism(self):
        A = choi.random_cp_cocp_map(3, 42)
        B = choi.random_cp_cocp_map(3, 42)
        assert np.array_equal(A.choi, B.choi)


class TestMaxEntangledLemma:
    def test_rectangular_vector_identity(self, rng):
        # (I (x) X)|Omega_d1> = (X^T (x) I)|Omega_d2> for X: C^d1 -> C^d2
        for _ in range(20):
            d1, d2 = rng.integers(2, 5, size=2)
            X = rng.normal(size=(d2, d1)) + 1j * rng.normal(size=(d2, d1))
            lhs = np.kron(np.eye(d1), X) @ linalg.max_entangled_vector(d1)
            rhs = np.kron(X.T, np.eye(d2)) @ linalg.max_entangled_vector(d2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-13)
