"""Tests for the dense linear-algebra substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebcompose import linalg
from ebcompose.errors import DimMismatch, DomainError, NotHermitian


class TestEigHermitian:
    def test_identity(self):
        w, _ = linalg.eig_hermitian(np.eye(2))
        np.testing.assert_allclose(w, [1.0, 1.0])

    def test_pauli_z(self):
        w, _ = linalg.eig_hermitian(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(w, [-1.0, 1.0])

    def test_max_entangled_projector_d2(self):
        # 4x4 characteristic polynomial by hand: rank one, trace 2.
        w, _ = linalg.eig_hermitian(linalg.max_entangled_projector(2))
        np.testing.assert_allclose(w, [0.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_eigenvalues_ascending(self, rng):
        w, _ = linalg.eig_hermitian(linalg.random_hermitian(7, rng))
        assert np.all(np.diff(w) >= 0)

    @pytest.mark.parametrize("d", [2, 9, 81])
    def test_reconstruction(self, d, rng):
        M = linalg.random_hermitian(d, rng)
        w, V = linalg.eig_hermitian(M)
        resid = np.max(np.abs(M - (V * w) @ V.conj().T))
        assert resid <= 1e-10 * np.max(np.abs(np.linalg.eigvalsh(M)))
        np.testing.assert_allclose(V.conj().T @ V, np.eye(d), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            linalg.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMinEig:
    def test_zero_matrix(self):
        assert linalg.min_eig(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        assert linalg.min_eig(np.diag([3.0, -2.0])) == pytest.approx(-2.0)

    def test_identity_minus_i_sigma(self):
        # eigenvalues of i*[[0,1],[-1,0]] are -1 and 1
        sigma = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert linalg.min_eig(np.eye(2) - 1j * sigma) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            linalg.min_eig(np.array([[0.0, 1.0], [0.5, 0.0]]))


class TestPsd:
    def test_psd_accepts_small_negative_noise(self):
        assert linalg.is_psd(np.diag([1.0, -1e-12]))

    def test_psd_rejects_clear_negative(self):
        assert not linalg.is_psd(np.diag([1.0, -1e-3]))

    def test_margin_sign(self):
        assert linalg.psd_margin(np.eye(3)) > 0
        assert linalg.psd_margin(np.diag([5.0, -1.0])) < 0


class TestStackedHermiticityRule:
    """``require_hermitian`` applies the one-matrix rule to each member of a stack."""

    @staticmethod
    def rejects(M) -> bool:
        try:
            linalg.require_hermitian(M)
        except NotHermitian:
            return True
        return False

    @pytest.mark.parametrize("norm", [1e-3, 1.0, 1e6])
    @pytest.mark.parametrize("factor", [0.99, 1.01])
    @pytest.mark.parametrize("member", [0, 3])
    def test_stack_rejected_iff_a_member_is(self, norm, factor, member, rng):
        # The other members are larger, so a scale shared across the stack
        # would pass the defect.
        norms = np.full(5, 10.0 * max(1.0, norm))
        norms[member] = norm
        stack = np.stack([linalg.random_hermitian(4, rng) for _ in range(5)])
        stack *= (norms / np.max(np.abs(stack), axis=(1, 2)))[:, None, None]
        stack[member, 0, 1] += factor * linalg.TOL_HERM * max(1.0, norm)
        members = [self.rejects(M) for M in stack]
        assert members == [factor > 1.0 and k == member for k in range(5)]
        assert self.rejects(stack) is any(members)

    def test_hermitian_stack_is_returned_as_is(self, rng):
        stack = np.stack([linalg.random_hermitian(3, rng) for _ in range(4)])
        np.testing.assert_array_equal(linalg.require_hermitian(stack), stack)

    def test_non_finite_member_is_domain_error(self):
        stack = np.stack([np.eye(2), np.diag([1.0, np.nan])])
        with pytest.raises(DomainError):
            linalg.require_hermitian(stack)

    @pytest.mark.parametrize("fn", [linalg.eig_hermitian, linalg.min_eig, linalg.psd_margin])
    def test_spectral_functions_reject_stacks(self, fn):
        with pytest.raises(DimMismatch):
            fn(np.stack([np.eye(3), np.eye(3)]))


class TestKron:
    def test_max_entangled_vector_matches_kron_sum(self):
        d = 3
        direct = sum(
            np.kron(np.eye(d)[:, [i]], np.eye(d)[:, [i]]) for i in range(d)
        ).ravel()
        np.testing.assert_array_equal(linalg.max_entangled_vector(d), direct)


class TestPartialTranspose:
    def test_product(self, rng):
        A = linalg.random_hermitian(2, rng)
        B = linalg.random_hermitian(3, rng)
        out = linalg.partial_transpose(np.kron(A, B), (2, 3), "A")
        np.testing.assert_allclose(out, np.kron(A.T, B), atol=1e-14)
        out = linalg.partial_transpose(np.kron(A, B), (2, 3), "B")
        np.testing.assert_allclose(out, np.kron(A, B.T), atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("which", ["A", "B"])
    def test_max_entangled_gives_flip(self, d, which):
        out = linalg.partial_transpose(linalg.max_entangled_projector(d), (d, d), which)
        np.testing.assert_array_equal(out, linalg.flip_operator(d))

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["A", "B"]))
    @settings(max_examples=25, deadline=None)
    def test_involution_exact(self, seed, which):
        gen = np.random.default_rng(seed)
        M = gen.normal(size=(6, 6)) + 1j * gen.normal(size=(6, 6))
        twice = linalg.partial_transpose(
            linalg.partial_transpose(M, (2, 3), which), (2, 3), which
        )
        assert np.array_equal(twice, M)

    def test_preserves_hermiticity_and_trace(self, rng):
        M = linalg.random_hermitian(6, rng)
        out = linalg.partial_transpose(M, (3, 2), "B")
        assert np.max(np.abs(out - out.conj().T)) == 0.0
        assert np.trace(out) == pytest.approx(np.trace(M).real)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            linalg.partial_transpose(np.eye(6), (4, 2), "A")

    @pytest.mark.parametrize("which", ["A", "B"])
    def test_stack_matches_each_matrix(self, which, rng):
        Ms = rng.normal(size=(2, 3, 6, 6)) + 1j * rng.normal(size=(2, 3, 6, 6))
        out = linalg.partial_transpose(Ms, (2, 3), which)
        assert out.shape == Ms.shape
        for i in range(2):
            for j in range(3):
                assert np.array_equal(out[i, j], linalg.partial_transpose(Ms[i, j], (2, 3), which))

    def test_non_finite_is_domain_error(self):
        M = np.eye(4)
        M[1, 2] = np.nan
        with pytest.raises(DomainError):
            linalg.partial_transpose(M, (2, 2), "B")

    def test_unknown_factor_is_domain_error(self):
        with pytest.raises(DomainError):
            linalg.partial_transpose(np.eye(4), (2, 2), "C")


class TestPartialTrace:
    def test_product(self, rng):
        A = linalg.random_hermitian(3, rng)
        B = linalg.random_hermitian(2, rng)
        out = linalg.partial_trace(np.kron(A, B), (3, 2), "B")
        np.testing.assert_allclose(out, np.trace(B) * A, atol=1e-14)
        out = linalg.partial_trace(np.kron(A, B), (3, 2), "A")
        np.testing.assert_allclose(out, np.trace(A) * B, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("which", ["A", "B"])
    def test_max_entangled_marginals(self, d, which):
        out = linalg.partial_trace(linalg.max_entangled_projector(d), (d, d), which)
        np.testing.assert_array_equal(out, np.eye(d))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_trace_preservation(self, seed):
        gen = np.random.default_rng(seed)
        M = gen.normal(size=(6, 6)) + 1j * gen.normal(size=(6, 6))
        nuc = np.linalg.norm(M, "nuc")
        for which in ("A", "B"):
            out = linalg.partial_trace(M, (2, 3), which)
            assert abs(np.trace(out) - np.trace(M)) <= 1e-12 * max(1.0, nuc)

    def test_unknown_factor_is_domain_error(self):
        with pytest.raises(DomainError):
            linalg.partial_trace(np.eye(4), (2, 2), "C")


class TestRealign:
    def test_product_is_rank_one(self, rng):
        for _ in range(100):
            A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            R = linalg.realign(np.kron(A, B), (2, 3))
            np.testing.assert_allclose(
                R, np.outer(A.ravel(), B.ravel()), atol=1e-13
            )
            s = np.linalg.svd(R, compute_uv=False)
            assert s[1] <= 1e-10 * s[0]

    @pytest.mark.parametrize("d", [2, 3])
    def test_max_entangled_singular_values(self, d):
        R = linalg.realign(linalg.max_entangled_projector(d), (d, d))
        np.testing.assert_array_equal(R, np.eye(d * d))
        s = np.linalg.svd(R, compute_uv=False)
        np.testing.assert_allclose(s, np.ones(d * d))

    def test_rank_counts_product_terms(self, rng):
        # two orthogonal product terms realign to a rank-2 matrix
        M = np.kron(np.diag([1.0, 0.0]), np.eye(2)) + np.kron(
            np.diag([0.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        s = np.linalg.svd(linalg.realign(M, (2, 2)), compute_uv=False)
        assert np.sum(s > 1e-8 * s[0]) == 2


class TestBlockNormSum:
    def test_flip_has_one_unit_block_per_entry(self):
        assert linalg.block_norm_sum(linalg.flip_operator(3), (3, 3)) == pytest.approx(9.0)

    def test_bounds_the_map_on_unitaries(self, rng):
        # C[(i a), (j b)] = L(|i><j|)[a, b], so L(X) = sum_ij X_ij C_ij
        C = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        bound = linalg.block_norm_sum(C, (2, 3))
        blocks = C.reshape(2, 3, 2, 3).transpose(0, 2, 1, 3)
        for U in linalg.haar_unitary(2, rng, size=50):
            assert np.linalg.norm(np.einsum("ij,ijab->ab", U, blocks), 2) <= bound + 1e-12

    def test_dims_must_factor(self):
        with pytest.raises(DimMismatch):
            linalg.block_norm_sum(np.eye(6), (2, 2))


class TestPermuteSystems:
    def test_swap_two_factors(self, rng):
        A = linalg.random_hermitian(2, rng)
        B = linalg.random_hermitian(3, rng)
        out = linalg.permute_systems(np.kron(A, B), [2, 3], [1, 0])
        np.testing.assert_allclose(out, np.kron(B, A), atol=1e-14)

    def test_three_factors(self, rng):
        mats = [linalg.random_hermitian(d, rng) for d in (2, 3, 2)]
        M = np.kron(np.kron(mats[0], mats[1]), mats[2])
        out = linalg.permute_systems(M, [2, 3, 2], [2, 0, 1])
        np.testing.assert_allclose(
            out, np.kron(np.kron(mats[2], mats[0]), mats[1]), atol=1e-13
        )

    def test_identity_permutation(self, rng):
        M = linalg.random_hermitian(6, rng)
        np.testing.assert_array_equal(linalg.permute_systems(M, [2, 3], [0, 1]), M)

    @pytest.mark.parametrize("perm", [[0, 0], [0, 2], [0]])
    def test_non_permutation_is_domain_error(self, perm):
        with pytest.raises(DomainError):
            linalg.permute_systems(np.eye(6), [2, 3], perm)


class TestHvec:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_round_trip(self, n, rng):
        H = linalg.random_hermitian(n, rng)
        v = linalg.hvec(H)
        assert v.shape == (n * n,) and v.dtype == float
        np.testing.assert_allclose(linalg.hmat(v, n), H, atol=1e-15)
        np.testing.assert_array_equal(linalg.hvec(linalg.hmat(v, n)), v)

    @pytest.mark.parametrize("seed", range(5))
    def test_inner_product_is_trace(self, seed):
        rng = np.random.default_rng(seed)
        A, B = linalg.random_hermitian(4, rng), linalg.random_hermitian(4, rng)
        assert linalg.hvec(A) @ linalg.hvec(B) == pytest.approx(np.trace(A @ B).real, abs=1e-12)

    def test_layout(self):
        H = np.array([[1.0, 2.0 + 3.0j], [2.0 - 3.0j, 4.0]])
        np.testing.assert_allclose(linalg.hvec(H), [1.0, 4.0, 2.0 * np.sqrt(2), 3.0 * np.sqrt(2)])

    def test_stacks(self, rng):
        Hs = np.stack([[linalg.random_hermitian(3, rng) for _ in range(4)] for _ in range(2)])
        V = linalg.hvec(Hs)
        assert V.shape == (2, 4, 9)
        np.testing.assert_array_equal(V[1, 2], linalg.hvec(Hs[1, 2]))
        back = linalg.hmat(V, 3)
        assert back.shape == (2, 4, 3, 3)
        np.testing.assert_array_equal(back[1, 2], linalg.hmat(V[1, 2], 3))
        np.testing.assert_allclose(back, Hs, atol=1e-15)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimMismatch):
            linalg.hmat(np.zeros(5), 2)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_positions_are_the_read_entries(self, n):
        # hvec reads exactly the entries at hvec_positions, in their order
        x, y = linalg.hvec_positions(n)
        assert not (x.flags.writeable or y.flags.writeable)
        H = np.arange(n * n).reshape(n, n) * (1 + 1j)
        v = linalg.hvec(H)
        np.testing.assert_array_equal(v[:n], H[x[:n], y[:n]].real)
        np.testing.assert_array_equal(v[n : x.size], np.sqrt(2.0) * H[x[n:], y[n:]].real)
        assert np.all(x[:n] == y[:n]) and np.all(x[n:] < y[n:])

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 16, 25])
    def test_projectors_bit_identical_to_stack(self, n):
        rng = np.random.default_rng(n)
        V = rng.normal(size=(40, n)) + 1j * rng.normal(size=(40, n))
        stack = V[:, :, None] * V[:, None, :].conj()
        np.testing.assert_array_equal(linalg.hvec_projectors(V), linalg.hvec(stack))
        np.testing.assert_array_equal(linalg.hvec_projectors(V[3]), linalg.hvec(stack[3]))


class TestNumericalRank:
    def test_counts_relative_to_the_largest(self):
        s = np.diag([2.0, 2.0 * 1.5 * linalg.RANK_TOL, 2.0 * 0.5 * linalg.RANK_TOL])
        assert linalg.numerical_rank(s) == 2
        assert linalg.numerical_rank(1e6 * s) == 2

    def test_zero_and_empty(self):
        assert linalg.numerical_rank(np.zeros((3, 2))) == 0
        assert linalg.numerical_rank(np.zeros((0, 4))) == 0

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            linalg.numerical_rank(np.array([[1.0, np.nan]]))


class TestRandomHelpers:
    def test_haar_unitary_is_unitary(self, rng):
        U = linalg.haar_unitary(5, rng)
        np.testing.assert_allclose(U @ U.conj().T, np.eye(5), atol=1e-12)

    @pytest.mark.parametrize("d", [1, 3, 4, 5])
    def test_haar_stack_matches_sequential_draws(self, d):
        seq_rng, stack_rng = np.random.default_rng(7), np.random.default_rng(7)
        sequential = np.stack([linalg.haar_unitary(d, seq_rng) for _ in range(40)])
        stacked = linalg.haar_unitary(d, stack_rng, size=40)
        assert stacked.shape == (40, d, d)
        assert np.array_equal(stacked, sequential)
        assert stack_rng.bit_generator.state == seq_rng.bit_generator.state
        np.testing.assert_allclose(stacked @ stacked.conj().transpose(0, 2, 1),
                                   np.broadcast_to(np.eye(d), (40, d, d)), atol=1e-12)

    def test_haar_stack_matches_ginibre_qr_reference(self):
        # the per-call recipe: real then imaginary Ginibre draws, QR, and
        # the phases of R's diagonal moved into Q
        ref_rng, stack_rng = np.random.default_rng(11), np.random.default_rng(11)
        for U in linalg.haar_unitary(4, stack_rng, size=5):
            G = ref_rng.normal(size=(4, 4)) + 1j * ref_rng.normal(size=(4, 4))
            Q, R = np.linalg.qr(G)
            assert np.array_equal(U, Q * (np.diag(R) / np.abs(np.diag(R))))

    def test_haar_empty_stack_draws_nothing(self, rng):
        state = rng.bit_generator.state
        assert linalg.haar_unitary(3, rng, size=0).shape == (0, 3, 3)
        assert rng.bit_generator.state == state

    def test_random_psd_is_psd(self, rng):
        assert linalg.is_psd(linalg.random_psd(6, rng))

    def test_rank_limited_psd(self, rng):
        w = np.linalg.eigvalsh(linalg.random_psd(5, rng, rank=2))
        assert np.sum(w > 1e-10) == 2
