"""Tolerances are module constants: no argument or flag can loosen a verdict.

The PSD rule is ``linalg.psd_margin(M) >= -linalg.TOL_PSD``, written once in
``linalg.is_psd``; these tests pin that rule, its callers, and the absence
of tolerance parameters from the public API and the command line.
"""

import inspect
import re

import numpy as np
import pytest

from ebcompose import catalog, choi, cli, criteria, gaussian, linalg, sdp

MODULES = (linalg, choi, criteria, sdp, gaussian, catalog)

# Parameters that would let a caller move a verdict's threshold.
TOLERANCE_NAME = re.compile(r"tol|threshold|target_rel")


def _maximally_entangled_state():
    return criteria.BipartiteState((3, 3), linalg.max_entangled_projector(3) / 3)


def _hw():
    return catalog.holevo_werner(3, 0.25).map


def _one_trace_problem():
    return sdp.SdpProblem.from_matrices((("x", 2),), (({"x": np.eye(2)}, 1.0),))


# Each call passes a parameter that no caller outside the tests set; each was
# removed and its value kept as a module constant, so each call is a TypeError.
REMOVED_PARAMETERS = {
    "heuristic_sep_certify-target_rel":
        lambda: criteria.heuristic_sep_certify(_maximally_entangled_state(), target_rel=0.5),
    "heuristic_sep_certify-refit_every":
        lambda: criteria.heuristic_sep_certify(_maximally_entangled_state(), refit_every=10),
    "two_eb_ball_certificate-seed": lambda: criteria.two_eb_ball_certificate(_hw(), seed=1),
    "two_eb_d3_certificate-restarts": lambda: criteria.two_eb_d3_certificate(_hw(), restarts=8),
    "two_eb_d3_certificate-iters": lambda: criteria.two_eb_d3_certificate(_hw(), iters=60),
    "two_eb_d3_certificate-seed": lambda: criteria.two_eb_d3_certificate(_hw(), seed=1),
    "k_positivity_falsify-iters": lambda: criteria.k_positivity_falsify(_hw(), 1, iters=60),
    "solve-max_iters": lambda: sdp.solve(_one_trace_problem(), max_iters=1),
}


def _callables(module):
    """Every function and class defined in module, and every method of those classes."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            yield f"{module.__name__}.{name}", obj
            for attr, member in vars(obj).items():
                if inspect.isfunction(member):
                    yield f"{module.__name__}.{name}.{attr}", member


class TestNoToleranceKnobs:
    def test_no_parameter_is_a_tolerance(self):
        found = set()
        for module in MODULES:
            for qualname, fn in _callables(module):
                try:
                    params = inspect.signature(fn).parameters
                except (TypeError, ValueError):
                    continue
                found |= {(qualname, p) for p in params if TOLERANCE_NAME.search(p)}
        assert found == set()

    @pytest.mark.parametrize("call", REMOVED_PARAMETERS.values(), ids=REMOVED_PARAMETERS)
    def test_removed_parameter_is_a_type_error(self, call):
        with pytest.raises(TypeError):
            call()

    def test_maximally_entangled_state_gets_no_decomposition(self):
        # a relative residual of 0.5 once passed as a "decomposition" here (13
        # atoms, residual 1/3); the state is NPT, so the pursuit must fail
        X = _maximally_entangled_state()
        assert not criteria.is_ppt_state(X)
        assert criteria.heuristic_sep_certify(X) is None

    def test_sdp_psd_tol_is_the_linalg_rule(self):
        assert sdp.PSD_TOL is linalg.TOL_PSD

    def test_identity_map_cannot_be_called_non_positive(self):
        T = choi.identity_map(3)
        with pytest.raises(TypeError):
            criteria.k_positivity_falsify(T, 1, threshold=1.0)
        assert criteria.k_positivity_falsify(T, 1) is None

    def test_holevo_werner_endpoint_cannot_be_called_cocp(self):
        T = catalog.holevo_werner(3, 1.0).map
        with pytest.raises(TypeError):
            choi.is_cocp(T, tol=1.0)
        assert not choi.is_cocp(T)

    def test_cli_rejects_tol_psd_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify-example", "rank3", "--tol-psd", "1e-3"])
        assert exc.value.code == 2
        assert "--tol-psd" in capsys.readouterr().err


class TestPsdRule:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    @pytest.mark.parametrize("factor,expected", [(0.99, True), (1.01, False)])
    def test_boundary_is_tol_psd_relative_to_max_one_and_norm(self, scale, factor, expected):
        top = max(1.0, scale)
        M = np.diag([scale, -factor * linalg.TOL_PSD * top])
        assert linalg.is_psd(M) is expected
        assert (linalg.psd_margin(M) >= -linalg.TOL_PSD) is expected


class TestGaussianReAudit:
    def test_cocp_margin_just_below_the_rule_is_inconclusive(self, monkeypatch):
        # X sigma X^T = det(X) sigma = sigma / 2 exactly, so the coCP matrix
        # Y - 1.5 i sigma has eigenvalues y -+ 1.5: y is chosen for a margin
        # (y - 1.5) / (y + 1.5) of -5e-9, below -TOL_PSD but above -1e-8.
        y = 1.5 * (1.0 - 5e-9) / (1.0 + 5e-9)
        C = gaussian.GaussianChannel(1, np.diag([1.0, 0.5]), y * np.eye(2))
        fake = sdp.SdpResult(sdp.FEASIBLE, {"M": C.Y, "N": C.Y}, None, {"iterations": 1.0})
        monkeypatch.setattr(gaussian.sdp, "gaussian_eb_split", lambda Y, X: fake)
        res = gaussian.is_eb(C)
        assert res.status == sdp.INCONCLUSIVE
        assert "re-audit" in res.reason
        assert res.residuals["cocp_margin"] == pytest.approx(-5e-9, rel=1e-3)
        assert res.residuals["valid_margin"] > 0.0
        assert C.valid and not gaussian.is_cocp(C)
