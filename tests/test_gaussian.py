"""Tests for Gaussian channel predicates, composition, and the PPT^2 split."""

import numpy as np
import pytest

from ebcompose import gaussian, linalg, sdp
from ebcompose.errors import (
    DimMismatch,
    DomainError,
    ModeMismatch,
    NotHermitian,
    PreconditionFailed,
)


def chan(X, Y, n=1):
    return gaussian.GaussianChannel(n, np.asarray(X, float), np.asarray(Y, float))


I2 = np.eye(2)
Z2 = np.zeros((2, 2))


class TestTypes:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symplectic_form_invariants(self, n):
        J = linalg.symplectic_form(n)
        assert np.allclose(J, -J.T)
        assert np.allclose(J @ J, -np.eye(2 * n))

    def test_symplectic_rejects_zero_modes(self):
        with pytest.raises(DomainError):
            linalg.symplectic_form(0)

    def test_asymmetric_y_rejected(self):
        with pytest.raises(NotHermitian):
            chan(I2, [[1.0, 0.5], [0.0, 1.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimMismatch):
            gaussian.GaussianChannel(2, np.eye(2), np.eye(2))

    def test_non_finite_is_domain_error(self):
        with pytest.raises(DomainError):
            chan(I2, np.diag([1.0, np.inf]))

    @pytest.mark.parametrize("which", ["X", "Y"])
    def test_complex_data_is_domain_error(self, which):
        # a float cast would drop the imaginary part and judge another channel
        data = {"X": I2, "Y": 3.0 * I2}
        data[which] = (1.0 + 0.5j) * data[which]
        with pytest.raises(DomainError):
            gaussian.GaussianChannel(1, data["X"], data["Y"])

    @pytest.mark.parametrize("bad", [np.array([["a", 0], [0, 1]], dtype=object),
                                     [[1.0, None], [0.0, 1.0]], "ab"])
    def test_non_numeric_data_is_domain_error(self, bad):
        with pytest.raises(DomainError):
            gaussian.GaussianChannel(1, bad, I2)
        with pytest.raises(DomainError):
            gaussian.GaussianChannel(1, I2, bad)

    def test_validity_recorded_not_enforced(self):
        assert chan(I2, Z2).valid is True
        bad = chan(I2, -I2)
        assert bad.valid is False

    def test_channel_is_frozen(self):
        C = chan(I2, Z2)
        with pytest.raises(ValueError):
            C.X[0, 0] = 2.0


class TestPredicates:
    def test_identity_channel_valid(self):
        assert chan(I2, Z2).valid is True

    def test_measure_prepare_valid(self):
        assert chan(Z2, I2).valid is True

    def test_negative_noise_invalid(self):
        assert chan(I2, -I2).valid is False

    def test_cocp_examples(self):
        assert gaussian.is_cocp(chan(I2, 2 * I2)) is True
        assert gaussian.is_cocp(chan(I2, Z2)) is False
        assert gaussian.is_cocp(chan(Z2, I2)) is True

    def test_boundary_eigenvalues(self):
        # 2I - 2i sigma has eigenvalues {0, 4}.
        sig = linalg.symplectic_form(1)
        w = np.linalg.eigvalsh(2 * I2 - 2j * sig)
        assert np.allclose(sorted(set(np.round(w, 9))), [0.0, 4.0])


class TestIsEb:
    def test_measure_prepare_feasible(self):
        res = gaussian.is_eb(chan(Z2, I2))
        assert res.status == "feasible"
        M, N = res.primal["M"], res.primal["N"]
        sig = linalg.symplectic_form(1)
        assert linalg.psd_margin(M - 1j * sig) >= -1e-9
        assert linalg.psd_margin(N) >= -1e-9

    def test_identity_channel_infeasible(self):
        assert gaussian.is_eb(chan(I2, Z2)).status == "infeasible"

    def test_classical_noise_two_feasible(self):
        res = gaussian.is_eb(chan(I2, 2 * I2))
        assert res.status == "feasible"
        assert np.allclose(res.primal["M"], I2, atol=1e-5)
        assert np.allclose(res.primal["N"], I2, atol=1e-5)

    def test_feasible_implies_both_conditions(self):
        res = gaussian.is_eb(chan(I2, 2.5 * I2))
        assert res.status == "feasible"
        assert res.residuals["cocp_margin"] >= -1e-9
        assert res.residuals["valid_margin"] >= -1e-9

    def test_grid_matches_cocp_for_classical_noise(self):
        # For X = I on one mode both tests reduce to y >= 2.
        for y in np.linspace(0.0, 4.0, 81):
            C = chan(I2, y * I2)
            eb = gaussian.is_eb(C).status
            assert eb in ("feasible", "infeasible")
            assert (eb == "feasible") == gaussian.is_cocp(C)
            assert (eb == "feasible") == (y >= 2.0 - 1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("y", [1e9, 1e12, 1e300])
    def test_large_noise_is_eb_at_any_scale(self, n, y):
        # valid and coCP, and M = N = Y/2 splits it with both margins near 1;
        # the split is solved at unit scale
        C = gaussian.GaussianChannel(n, 0.3 * np.eye(2 * n), y * np.eye(2 * n))
        res = gaussian.is_eb(C)
        assert res.status == "feasible"
        M, N = res.primal["M"], res.primal["N"]
        assert np.max(np.abs(M + N - C.Y)) <= 1e-7 * y

    def test_boundary_channel_is_not_refuted(self):
        # y = 1 + eta is EB with coCP margin 0; a Farkas slack of -3.8e-10,
        # inside PSD_TOL, once refuted it
        C = gaussian.GaussianChannel(1, np.sqrt(0.99) * I2, 1.99 * I2)
        assert gaussian.is_cocp(C)
        assert gaussian.is_eb(C).status != sdp.INFEASIBLE

    def test_failed_channel_re_audit_gives_a_reason(self, monkeypatch):
        # The identity channel is valid but not coCP, so a split the solver
        # calls feasible must fail the channel re-audit.
        C = chan(I2, Z2)
        fake = sdp.SdpResult(sdp.FEASIBLE, {"M": C.Y, "N": C.Y}, None, {"iterations": 1.0})
        monkeypatch.setattr(gaussian.sdp, "gaussian_eb_split", lambda Y, X: fake)
        res = gaussian.is_eb(C)
        assert res.status == sdp.INCONCLUSIVE
        assert "re-audit" in res.reason
        assert res.residuals["cocp_margin"] < 0.0


class TestCompose:
    def test_identity_neutral(self):
        C = gaussian.random_cocp_channel(2, 9)
        ident = gaussian.GaussianChannel(2, np.eye(4), np.zeros((4, 4)))
        for out in (gaussian.compose(C, ident), gaussian.compose(ident, C)):
            assert np.allclose(out.X, C.X, atol=1e-12)
            assert np.allclose(out.Y, C.Y, atol=1e-12)

    def test_classical_noise_adds(self):
        C = chan(I2, 2 * I2)
        out = gaussian.compose(C, C)
        assert np.allclose(out.X, I2)
        assert np.allclose(out.Y, 4 * I2)

    def test_associative(self):
        chans = [gaussian.random_cocp_channel(2, s) for s in (1, 2, 3)]
        left = gaussian.compose(gaussian.compose(chans[2], chans[1]), chans[0])
        right = gaussian.compose(chans[2], gaussian.compose(chans[1], chans[0]))
        assert np.allclose(left.X, right.X, atol=1e-12)
        assert np.allclose(left.Y, right.Y, atol=1e-12)

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatch):
            gaussian.compose(chan(I2, Z2), gaussian.random_cocp_channel(2, 0))

    def test_valid_closed_under_composition(self):
        # Validity survives concatenation; spot-checked over many random pairs.
        count = 0
        for s in range(250):
            n = 1 + s % 3
            C1 = gaussian.random_cocp_channel(n, 2 * s)
            C2 = gaussian.random_cocp_channel(n, 2 * s + 1)
            out = gaussian.compose(C2, C1)
            assert out.valid is True
            count += 1
        assert count == 250


class TestPpt2Witness:
    def test_classical_noise_pair(self):
        C = chan(I2, 2 * I2)
        N, M, verified = gaussian.ppt2_witness(C, C)
        assert np.allclose(N, 2 * I2)
        assert np.allclose(M, 2 * I2)
        assert verified is True

    def test_mixed_pair(self):
        C1 = chan(Z2, I2)
        C2 = chan(I2, 2 * I2)
        N, M, verified = gaussian.ppt2_witness(C2, C1)
        assert np.allclose(N, I2)
        assert np.allclose(M, 2 * I2)
        assert verified is True

    def test_non_cocp_rejected(self):
        good = chan(I2, 2 * I2)
        ident = chan(I2, Z2)
        with pytest.raises(PreconditionFailed):
            gaussian.ppt2_witness(good, ident)
        with pytest.raises(PreconditionFailed):
            gaussian.ppt2_witness(ident, good)

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatch):
            gaussian.ppt2_witness(chan(I2, 2 * I2), gaussian.random_cocp_channel(2, 0))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_cocp_pairs_always_verify(self, n):
        for s in range(20):
            C1 = gaussian.random_cocp_channel(n, 1000 * n + 2 * s)
            C2 = gaussian.random_cocp_channel(n, 1000 * n + 2 * s + 1)
            _, _, verified = gaussian.ppt2_witness(C2, C1)
            assert verified is True

    def test_witness_matches_eb_split_route(self):
        # The theorem witness and the SDP must agree that the composition
        # is entanglement breaking.
        C1 = gaussian.random_cocp_channel(1, 41)
        C2 = gaussian.random_cocp_channel(1, 42)
        _, _, verified = gaussian.ppt2_witness(C2, C1)
        assert verified is True
        assert gaussian.is_eb(gaussian.compose(C2, C1)).status == "feasible"


class TestRandomCocpChannel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generator_contract(self, n):
        for s in range(10):
            C = gaussian.random_cocp_channel(n, s)
            assert C.valid is True
            assert gaussian.is_cocp(C) is True

    def test_margin_floor(self):
        C = gaussian.random_cocp_channel(1, 7)
        sig = linalg.symplectic_form(1)
        xsx = C.X @ sig @ C.X.T
        assert linalg.min_eig(C.Y + 1j * (sig - xsx)) >= 0.01 - 1e-9
        assert linalg.min_eig(C.Y - 1j * (sig + xsx)) >= 0.01 - 1e-9

    def test_deterministic(self):
        a = gaussian.random_cocp_channel(2, 5)
        b = gaussian.random_cocp_channel(2, 5)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Y, b.Y)

    def test_self_composition_is_eb(self):
        C = gaussian.random_cocp_channel(1, 3)
        assert gaussian.is_eb(gaussian.compose(C, C)).status == "feasible"
