"""Every count the package takes (dimension, mode count, budget, level) follows
one rule, ``errors.is_count``: an integer of any integral type, not a bool, at
least a minimum.  A value that breaks it raises the typed error the same call
raises for an out-of-range integer, never a builtin error or a silent run."""

import numpy as np
import pytest

from ebcompose import catalog, choi, criteria, gaussian, linalg, sdp
from ebcompose.errors import DimMismatch, DomainError


def _state():
    return criteria.BipartiteState((2, 2), np.eye(4) / 4)


def _hw():
    return catalog.holevo_werner(3, 0.3).map


BAD_COUNTS = {
    "heuristic_sep_certify-budget=2.5":
        (lambda: criteria.heuristic_sep_certify(_state(), budget=2.5), DomainError),
    "heuristic_sep_certify-budget=True":
        (lambda: criteria.heuristic_sep_certify(_state(), budget=True), DomainError),
    "k_positivity_falsify-k=2.5": (lambda: criteria.k_positivity_falsify(_hw(), 2.5), DomainError),
    "annihilation_identity_check-trials=2.5":
        (lambda: catalog.annihilation_identity_check(_hw(), _hw(), trials=2.5), DomainError),
    "annihilation_identity_check-trials=True":
        (lambda: catalog.annihilation_identity_check(_hw(), _hw(), trials=True), DomainError),
    "holevo_werner-d=2.5": (lambda: catalog.holevo_werner(2.5, 0.1), DomainError),
    "antisym_sym_maps-d=2.5": (lambda: catalog.antisym_sym_maps(2.5), DomainError),
    "tau_n_map-d=2.5": (lambda: catalog.tau_n_map(2.5, 1), DomainError),
    "tau_n_map-n=1.5": (lambda: catalog.tau_n_map(2, 1.5), DomainError),
    "random_cp_cocp_map-d=2.5": (lambda: choi.random_cp_cocp_map(2.5, 0), DimMismatch),
    "random_cocp_channel-n=1.5": (lambda: gaussian.random_cocp_channel(1.5, 0), DimMismatch),
    "GaussianChannel-n=1.5":
        (lambda: gaussian.GaussianChannel(1.5, np.eye(2), np.eye(2)), DimMismatch),
    "symplectic_form-n=1.5": (lambda: linalg.symplectic_form(1.5), DomainError),
    "counterexample_search-restarts=-1":
        (lambda: sdp.counterexample_search(_hw(), restarts=-1), DomainError),
    "counterexample_search-restarts=2.5":
        (lambda: sdp.counterexample_search(_hw(), restarts=2.5), DomainError),
    "counterexample_search-max_rounds=2.5":
        (lambda: sdp.counterexample_search(_hw(), max_rounds=2.5), DomainError),
    "sn_trim_bound-l=2.5": (lambda: criteria.sn_trim_bound(2.5, 1), DomainError),
    "iteration_count-d=3.5": (lambda: criteria.iteration_count(3.5, 2), DomainError),
    "flip_operator-d=2.5": (lambda: linalg.flip_operator(2.5), DimMismatch),
    "flip_operator-d=0": (lambda: linalg.flip_operator(0), DimMismatch),
    "max_entangled_vector-d=2.5": (lambda: linalg.max_entangled_vector(2.5), DimMismatch),
    "max_entangled_projector-d=2.5": (lambda: linalg.max_entangled_projector(2.5), DimMismatch),
    "identity_map-d=2.5": (lambda: choi.identity_map(2.5), DimMismatch),
    "transposition_map-d=2.5": (lambda: choi.transposition_map(2.5), DimMismatch),
    "depolarizing_map-d=2.5": (lambda: choi.depolarizing_map(2.5), DimMismatch),
    "partial_transpose-dims=(2.0, 3.0)":
        (lambda: linalg.partial_transpose(np.eye(6), (2.0, 3.0)), DimMismatch),
    "BipartiteState-dims=(2.0, 2.0)":
        (lambda: criteria.BipartiteState((2.0, 2.0), np.eye(4) / 4), DimMismatch),
    "permute_systems-dims=(2.5, 3)":
        (lambda: linalg.permute_systems(np.eye(6), (2.5, 3), (1, 0)), DimMismatch),
    "schmidt_rank-dims=(2.0, 2.0)":
        (lambda: criteria.schmidt_rank(np.kron([1.0, 0.0], [1.0, 0.0]), (2.0, 2.0)), DimMismatch),
    "build-holevo-werner-d=3.7":
        (lambda: catalog.build("holevo-werner", {"d": 3.7, "p": 0.2}), DomainError),
    "build-antisym-d=3.0": (lambda: catalog.build("antisym", {"d": 3.0}), DomainError),
    "build-sym-d=2.0": (lambda: catalog.build("sym", {"d": 2.0}), DomainError),
    "build-tau-n-n=1.5": (lambda: catalog.build("tau-n", {"d": 2, "n": 1.5}), DomainError),
}

# A seed is a count too (an integer >= 0), checked before any search or draw,
# so the error does not depend on which rung would answer first: the twirl
# rung decomposes I/4 and a warm start can refute k-positivity alone.
SEEDED_CALLS = {
    "k_positivity_falsify": lambda seed: criteria.k_positivity_falsify(_hw(), 1, seed=seed),
    "heuristic_sep_certify": lambda seed: criteria.heuristic_sep_certify(_state(), seed=seed),
    "deviation_from_depolarizing":
        lambda seed: criteria.deviation_from_depolarizing(_hw(), samples=0, seed=seed),
    "random_cp_cocp_map": lambda seed: choi.random_cp_cocp_map(2, seed),
    "random_cocp_channel": lambda seed: gaussian.random_cocp_channel(1, seed),
    "annihilation_identity_check":
        lambda seed: catalog.annihilation_identity_check(_hw(), _hw(), trials=1, seed=seed),
    "counterexample_search": lambda seed: sdp.counterexample_search(_hw(), restarts=0, seed=seed),
}
BAD_SEEDS = {"1.0": 1.0, "'a'": "a", "-1": -1, "True": True, "[1, 2]": [1, 2]}
BAD_COUNTS.update({
    f"{name}-seed={label}": (lambda call=call, seed=seed: call(seed), DomainError)
    for name, call in SEEDED_CALLS.items() for label, seed in BAD_SEEDS.items()
})


@pytest.mark.parametrize("call,error", BAD_COUNTS.values(), ids=BAD_COUNTS)
def test_non_integer_count_raises_the_typed_error(call, error):
    with pytest.raises(error):
        call()


def test_integral_dimensions_of_any_type_are_accepted():
    assert linalg.flip_operator(np.int64(2)).shape == (4, 4)
    assert criteria.BipartiteState((np.int64(2), 2), np.eye(4) / 4).dims == (2, 2)
    assert linalg.partial_transpose(np.eye(6), (np.int32(2), 3)).shape == (6, 6)
