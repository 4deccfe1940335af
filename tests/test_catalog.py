"""Tests for the named-map catalog and the annihilation identity check."""

import numpy as np
import pytest

from ebcompose import catalog, choi, criteria, linalg, sdp
from ebcompose.errors import DimMismatch, DomainError


def rng_for(seed):
    return np.random.default_rng(seed)


def random_cp(din, dout, seed, kraus=None):
    rng = rng_for(seed)
    k = kraus or din
    ops = [
        rng.normal(size=(dout, din)) + 1j * rng.normal(size=(dout, din))
        for _ in range(k)
    ]
    return choi.choi_from_kraus(ops, din, dout)


REGISTRY_CASES = [
    ("holevo-werner", (("d", 3), ("p", 0.37))),
    ("rank3", ()),
    ("antisym", (("d", 4),)),
    ("sym", (("d", 3),)),
    ("tau-n", (("d", 2), ("n", 2))),
    ("choi-witness", ()),
]


class TestRegistry:
    @pytest.mark.parametrize("name,params", REGISTRY_CASES)
    def test_build_is_bit_exact(self, name, params):
        first = catalog.build(name, params)
        second = catalog.build(name, first.params)
        assert first.name == name
        assert np.array_equal(first.map.choi, second.map.choi)
        assert first.map.dims == second.map.dims

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            catalog.build("mystery-map")

    def test_missing_parameter_rejected(self):
        with pytest.raises(DomainError):
            catalog.build("holevo-werner", (("d", 3),))

    def test_params_normalized_to_tuples(self):
        nm = catalog.NamedMap("antisym", [["d", 3]], choi.identity_map(3))
        assert nm.params == (("d", 3),)


class TestHolevoWerner:
    def test_choi_formula(self):
        d, p = 3, 0.37
        nm = catalog.holevo_werner(d, p)
        expect = np.eye(d * d) - p * linalg.flip_operator(d)
        assert np.array_equal(nm.map.choi, expect.astype(complex))

    def test_action_matches_formula(self):
        nm = catalog.holevo_werner(3, -0.4)
        X = linalg.random_hermitian(3, rng_for(5))
        out = choi.apply(nm.map, X)
        assert np.allclose(out, np.trace(X) * np.eye(3) + 0.4 * X.T)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cocp_boundary(self, d):
        below = catalog.holevo_werner(d, 1.0 / d - 0.01)
        above = catalog.holevo_werner(d, 1.0 / d + 0.01)
        assert choi.is_cocp(below.map)
        assert not choi.is_cocp(above.map)

    def test_pt_spectrum_is_affine_in_p(self):
        d, p = 4, 0.9
        pt = linalg.partial_transpose(
            catalog.holevo_werner(d, p).map.choi, (d, d), "B"
        )
        assert linalg.min_eig(pt) == pytest.approx(1.0 - p * d, abs=1e-12)

    def test_self_adjoint(self):
        nm = catalog.holevo_werner(3, 0.6)
        assert np.allclose(choi.adjoint(nm.map).choi, nm.map.choi)

    @pytest.mark.parametrize("d,p", [(1, 0.5), (0, 0.0), (3, 1.5), (3, -1.01)])
    def test_domain_errors(self, d, p):
        with pytest.raises(DomainError):
            catalog.holevo_werner(d, p)

    def test_nan_parameter_rejected(self):
        with pytest.raises(DomainError):
            catalog.holevo_werner(3, float("nan"))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_scaled_endpoint_equals_antisym(self, d):
        w1 = catalog.holevo_werner(d, 1.0)
        alpha = catalog.antisym_sym_maps(d)[0]
        assert np.array_equal(w1.map.choi / (d * (d - 1)), alpha.map.choi)


class TestRank3Example:
    def test_triple_check(self):
        nm = catalog.rank3_example()
        assert choi.is_cp(nm.map)
        assert not choi.is_cocp(nm.map)
        assert choi.operator_schmidt_rank(nm.map) == 3

    def test_rank_certificate(self):
        assert criteria.two_eb_rank_certificate(catalog.rank3_example().map)

    def test_npt_is_robust(self):
        pt = linalg.partial_transpose(catalog.rank3_example().map.choi, (3, 3), "B")
        assert linalg.min_eig(pt) < -0.1

    def test_hermitian(self):
        C = catalog.rank3_example().map.choi
        assert np.max(np.abs(C - C.conj().T)) == 0.0

    def test_corner_entries(self):
        C = catalog.rank3_example().map.choi
        # entry (i,a),(j,b) = H0[i,j] delta_ab + rho1[i,j] H1[a,b] + rho2[i,j] H2[a,b]
        assert C[0, 0] == pytest.approx(2.4 + (2 / 6) * (10.6 + 10.6), rel=1e-15)
        assert C[0, 3] == pytest.approx(-5.3 + (1 / 6) * (10.6 + 10.6), rel=1e-15)
        assert C[3, 8] == pytest.approx(
            (1 / 6) * (44 + 33.4j) + (-1j / 6) * (-33.4 - 44j), rel=1e-15
        )
        assert C[8, 8] == pytest.approx(28.8 + (2 / 6) * (44 + 44), rel=1e-15)

    def test_reconstruction_deterministic(self):
        a = catalog.rank3_example().map.choi
        b = catalog.rank3_example().map.choi
        assert np.array_equal(a, b)


class TestAntisymSym:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_choi_formulas(self, d):
        a, s = catalog.antisym_sym_maps(d)
        eye, flip = np.eye(d * d), linalg.flip_operator(d)
        assert np.allclose(a.map.choi, (eye - flip) / (d * (d - 1)))
        assert np.allclose(s.map.choi, (eye + flip) / (d * (d + 1)))
        assert np.trace(a.map.choi) == pytest.approx(1.0)
        assert np.trace(s.map.choi) == pytest.approx(1.0)

    def test_positivity_pattern(self):
        a, s = catalog.antisym_sym_maps(3)
        assert choi.is_cp(a.map) and not choi.is_cocp(a.map)
        assert choi.is_cp(s.map) and choi.is_cocp(s.map)

    @pytest.mark.parametrize("d", [2, 3])
    def test_sym_choi_is_separable(self, d):
        s = catalog.antisym_sym_maps(d)[1]
        dec = criteria.heuristic_sep_certify(
            criteria.BipartiteState((d, d), s.map.choi)
        )
        assert dec is not None
        assert dec.residual <= 1e-7
        assert np.allclose(dec.reconstruct(), s.map.choi, atol=1e-9)

    @pytest.mark.parametrize("d", [3, 4])
    def test_antisym_square_formula(self, d):
        a = catalog.antisym_sym_maps(d)[0].map
        sq = choi.compose(a, a)
        expect = (
            (d - 2) * np.eye(d * d) + linalg.max_entangled_projector(d)
        ) / (d**2 * (d - 1) ** 2)
        assert np.max(np.abs(sq.choi - expect)) <= 1e-12
        assert criteria.is_ppt_state(criteria.BipartiteState((d, d), sq.choi))

    def test_antisym_square_npt_at_dim_two(self):
        a = catalog.antisym_sym_maps(2)[0].map
        sq = choi.compose(a, a)
        pt = linalg.partial_transpose(sq.choi, (2, 2), "B")
        assert linalg.min_eig(pt) < -0.2

    def test_domain_error(self):
        with pytest.raises(DomainError):
            catalog.antisym_sym_maps(1)


class TestTauN:
    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1)])
    def test_ppt(self, d, n):
        nm = catalog.tau_n_map(d, n)
        assert nm.map.dims == (d**n, d**n)
        assert choi.is_cp(nm.map)
        assert choi.is_cocp(nm.map)

    def test_trace_one(self):
        # generators have unit trace, so the convex weights must sum to 1
        assert np.trace(catalog.tau_n_map(2, 3).map.choi).real == pytest.approx(
            1.0, abs=1e-14
        )

    @pytest.mark.parametrize("d", [2, 3])
    def test_single_power_collapses(self, d):
        a, s = catalog.antisym_sym_maps(d)
        tau1 = catalog.tau_n_map(d, 1)
        assert np.allclose(tau1.map.choi, (a.map.choi + s.map.choi) / 2, atol=1e-15)

    def test_single_power_in_flip_span(self):
        C = catalog.tau_n_map(3, 1).map.choi
        eye, flip = np.eye(9), linalg.flip_operator(3)
        gram = np.array(
            [[np.vdot(eye, eye), np.vdot(eye, flip)],
             [np.vdot(flip, eye), np.vdot(flip, flip)]]
        ).real
        coef = np.linalg.solve(gram, [np.vdot(eye, C).real, np.vdot(flip, C).real])
        assert np.max(np.abs(C - coef[0] * eye - coef[1] * flip)) <= 1e-15

    def test_antisym_power_alone_is_npt(self):
        a = catalog.antisym_sym_maps(2)[0].map
        pow2 = choi.tensor(a, a)
        assert not choi.is_cocp(pow2)

    def test_composition_square(self):
        t = catalog.tau_n_map(2, 2).map
        sq = choi.compose(t, t)
        state = criteria.BipartiteState(sq.dims, sq.choi)
        assert criteria.is_ppt_state(state)
        assert criteria.realignment_criterion(state)

    @pytest.mark.parametrize("d,n", [(1, 1), (2, 0), (2, 4), (10, 1), (3, 3)])
    def test_domain_errors(self, d, n):
        with pytest.raises(DomainError):
            catalog.tau_n_map(d, n)


class TestChoiMapWitness:
    def test_action(self):
        nm = catalog.choi_map_witness()
        e00 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert np.allclose(choi.apply(nm.map, e00), np.diag([1.0, 1.0, 0.0]))
        X = linalg.random_hermitian(3, rng_for(2))
        out = choi.apply(nm.map, X)
        assert out[0, 0] == pytest.approx(X[0, 0] + X[2, 2])
        assert out[0, 1] == pytest.approx(-X[0, 1])

    def test_not_cp(self):
        assert linalg.min_eig(catalog.choi_map_witness().map.choi) < -0.5

    def test_positive_on_rank_one(self):
        nm = catalog.choi_map_witness()
        rng = rng_for(11)
        for _ in range(50):
            v = linalg.random_pure_state(3, rng)
            out = choi.apply(nm.map, np.outer(v, v.conj()))
            assert linalg.min_eig(out) >= -1e-12

    def test_positivity_audit_finds_no_witness(self):
        nm = catalog.choi_map_witness()
        assert criteria.k_positivity_falsify(nm.map, 1, restarts=16) is None

    def test_not_decomposable(self):
        result = sdp.decomposability_check(catalog.choi_map_witness().map)
        assert result.status == sdp.INFEASIBLE
        assert result.residuals["witness_overlap"] < 0.0


class TestAnnihilationIdentity:
    def test_identity_maps_on_omega(self):
        ident = choi.identity_map(3)
        omega = linalg.max_entangled_vector(3)
        assert catalog.annihilation_identity_deviation(ident, ident, omega) <= 1e-14

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_cp_pairs(self, d):
        T1 = random_cp(d, d, seed=20 + d)
        T2 = random_cp(d, d, seed=40 + d)
        assert catalog.annihilation_identity_check(T1, T2, trials=5, seed=d)

    def test_mixed_dimensions(self):
        T1 = random_cp(2, 3, seed=1)
        T2 = random_cp(3, 2, seed=2)
        psi = linalg.random_pure_state(6, rng_for(3))
        assert catalog.annihilation_identity_deviation(T1, T2, psi) <= 1e-12

    def test_depolarizing_first_leg(self):
        d1, d3 = 3, 2
        T1 = choi.depolarizing_map(d1)
        T2 = random_cp(d3, d3, seed=9)
        psi = linalg.random_pure_state(d1 * d3, rng_for(10))
        rho = np.outer(psi, psi.conj())
        lhs = choi.apply(choi.tensor(T1, T2), rho)
        marginal = linalg.partial_trace(rho, (d1, d3), "A")
        assert np.allclose(lhs, np.kron(np.eye(d1), choi.apply(T2, marginal)))
        assert catalog.annihilation_identity_deviation(T1, T2, psi) <= 1e-12

    def test_holds_for_non_cp_maps(self):
        T1 = choi.transposition_map(2)
        T2 = catalog.holevo_werner(3, 0.8).map
        assert catalog.annihilation_identity_check(T1, T2, trials=4, seed=5)

    def test_scale_invariance_of_inputs(self):
        T1 = random_cp(2, 2, seed=6)
        T2 = random_cp(2, 2, seed=7)
        psi = 3.7 * linalg.random_pure_state(4, rng_for(8))
        assert catalog.annihilation_identity_deviation(T1, T2, psi) <= 1e-12

    def test_wrong_state_size_rejected(self):
        T1 = random_cp(2, 2, seed=0)
        T2 = random_cp(3, 3, seed=1)
        with pytest.raises(DimMismatch):
            catalog.annihilation_identity_deviation(T1, T2, np.ones(5))

    def test_zero_trials_rejected(self):
        T = choi.identity_map(2)
        with pytest.raises(DomainError):
            catalog.annihilation_identity_check(T, T, trials=0)
