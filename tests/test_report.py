"""Tests for the Report type and the package's JSON codec."""

import dataclasses
import json
import struct
from collections.abc import Mapping

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from test_catalog import REGISTRY_CASES

from ebcompose import catalog, choi, cli, criteria, gaussian, linalg, sdp
from ebcompose.errors import DimMismatch, DomainError
from ebcompose.report import Report, from_json, to_json


def through_json(obj):
    return from_json(json.loads(json.dumps(to_json(obj))))


def assert_identical(a, b):
    """Same structure, arrays of the same dtype and shape, and equal bits."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()
    elif scipy.sparse.issparse(a):
        # scipy picks the index dtype; the indices themselves must agree
        assert type(a) is type(b) and a.shape == b.shape
        assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
        assert_identical(a.data, b.data)
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            if f.init:
                assert_identical(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, Mapping):
        assert list(a) == list(b)
        for key in a:
            assert_identical(a[key], b[key])
    elif isinstance(a, (tuple, list)):
        assert isinstance(b, tuple) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_identical(x, y)
    elif isinstance(a, float):
        assert isinstance(b, float) and struct.pack("<d", a) == struct.pack("<d", b)
    else:
        assert type(a) is type(b) and a == b


def pauli_x_kraus():
    K = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return from_json({"kind": "kraus", "ops": [to_json(K)]})


def sdp_problem():
    H = linalg.random_hermitian(3, np.random.default_rng(5))
    return sdp.SdpProblem.from_matrices(
        blocks=(("x", 3), ("y", 2)),
        equalities=(({"x": np.eye(3)}, 1.0), ({"x": H, "y": np.eye(2)}, 0.5)),
        objective={"x": H},
    )


def infeasible_result():
    prob = sdp.SdpProblem.from_matrices(blocks=(("x", 2),), equalities=(({"x": np.eye(2)}, -1.0),))
    return sdp.solve(prob)


def sep_decomposition():
    rng = np.random.default_rng(3)
    a, b = linalg.random_pure_state(2, rng), linalg.random_pure_state(2, rng)
    X = np.kron(np.outer(a, a.conj()), np.outer(b, b.conj())) + np.eye(4) / 4
    return criteria.heuristic_sep_certify(criteria.BipartiteState((2, 2), X))


def hw(d, p):
    return catalog.holevo_werner(d, p).map


def cli_report(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["verify-example", "holevo-werner", "--json-out", str(out)]) == 0
    return from_json(json.loads(out.read_text()))


CASES = {
    "quantum-map": lambda tmp: choi.random_cp_cocp_map(3, 1),
    "quantum-map-from-kraus": lambda tmp: pauli_x_kraus(),
    **{
        f"named-map-{name}": (lambda tmp, name=name, params=params: catalog.build(name, params))
        for name, params in REGISTRY_CASES
    },
    "gaussian-channel": lambda tmp: gaussian.random_cocp_channel(2, 11),
    "sdp-problem": lambda tmp: sdp_problem(),
    "sdp-result-feasible": lambda tmp: sdp.solve(sdp_problem()),
    "sdp-result-infeasible": lambda tmp: infeasible_result(),
    "sdp-result-witness": lambda tmp: sdp.decomposability_check(catalog.choi_map_witness().map),
    "sep-decomposition": lambda tmp: sep_decomposition(),
    "sep-decomposition-empty": lambda tmp: criteria.heuristic_sep_certify(
        criteria.BipartiteState((2, 3), np.zeros((6, 6)))
    ),
    "report-d3-certified": lambda tmp: criteria.two_eb_d3_certificate(
        choi.random_cp_cocp_map(3, 0)
    ),
    "report-d3-positivity-witness": lambda tmp: criteria.two_eb_d3_certificate(
        choi.transposition_map(3)
    ),
    "report-d3-copositivity-witness": lambda tmp: criteria.two_eb_d3_certificate(hw(3, 0.9)),
    "report-d3-unknown": lambda tmp: criteria.two_eb_d3_certificate(
        choi.choi_from_action(lambda X: 2.0 * np.trace(X) * np.eye(3) - X, 3, 3)
    ),
    "report-counterexample-search": lambda tmp: sdp.counterexample_search(
        catalog.choi_map_witness().map, restarts=1, max_rounds=4
    ),
    "report-cli": cli_report,
}


class TestRoundTrip:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_round_trip_bit_exact(self, case, tmp_path):
        obj = CASES[case](tmp_path)
        assert_identical(obj, through_json(obj))

    @pytest.mark.parametrize("case", ["sep-decomposition", "sep-decomposition-empty"])
    def test_sep_decomposition_keeps_stacked_factors(self, case, tmp_path):
        dec = CASES[case](tmp_path)
        back = through_json(dec)
        n = len(dec.weights)
        assert (n == 0) == case.endswith("empty")
        assert back.weights.shape == (n,) and back.weights.dtype == np.float64
        assert back.a.shape == dec.a.shape and back.b.shape == dec.b.shape
        assert back.a.shape[0] == back.b.shape[0] == n
        assert back.reconstruct().tobytes() == dec.reconstruct().tobytes()

    def test_report_lists_become_tuples(self):
        rep = Report("op", "pass", [{"name": "a", "data": [1, 2]}], trace=[{"k": 1}])
        back = through_json(rep)
        assert back.evidence == ({"name": "a", "data": (1, 2)},)
        assert back.trace == ({"k": 1},)

    def test_kraus_kind(self):
        T = pauli_x_kraus()
        assert T.dims == (2, 2)
        X = np.diag([1.0, 2.0]).astype(complex)
        np.testing.assert_allclose(choi.apply(T, X), np.diag([2.0, 1.0]), atol=1e-14)

    @pytest.mark.parametrize("name,params", REGISTRY_CASES)
    def test_rebuild_from_serialized_params(self, name, params):
        nm = catalog.build(name, params)
        packed = json.loads(json.dumps(to_json(nm)))
        rebuilt = catalog.build(packed["name"], [tuple(p) for p in packed["params"]])
        assert np.array_equal(rebuilt.map.choi, nm.map.choi)


class TestRefutationEvidence:
    """Witness vectors survive the codec and re-verify from the decoded data."""

    @pytest.mark.parametrize("branch", ["two-positivity-witness", "two-copositivity-witness"])
    def test_witness_re_verifies_after_json(self, branch):
        T = choi.transposition_map(3) if branch == "two-positivity-witness" else hw(3, 0.9)
        rep = criteria.two_eb_d3_certificate(T)
        M = T.choi if branch == "two-positivity-witness" else choi.compose(
            choi.transposition_map(3), T
        ).choi
        assert rep.status == criteria.NOT_EB_CERTIFIED
        back = from_json(json.loads(json.dumps(to_json(rep))))
        evidence = {e["name"]: e["data"] for e in back.evidence}
        psi = np.array(evidence[branch]["vector"], dtype=complex)
        value = float((psi.conj() @ (M @ psi)).real)
        assert value < -1e-9
        assert criteria.schmidt_rank(psi, (3, 3)) <= 2


MALFORMED = {
    "unknown-kind": ({"kind": "Mystery", "x": 1}, DomainError),
    "non-string-kind": ({"kind": [1], "x": 1}, DomainError),
    "missing-field": ({"kind": "QuantumMap", "din": 2, "dout": 2}, DomainError),
    "matrix-missing-re": ({"rows": 1, "cols": 1, "im": [[0.0]]}, DomainError),
    "matrix-missing-cols": ({"rows": 1, "re": [[0.0]]}, DomainError),
    "complex-missing-im": ({"re": 1.0}, DomainError),
    "ragged-rows": ({"rows": 2, "cols": 2, "re": [[1.0, 2.0], [3.0]]}, DimMismatch),
    "too-few-rows": ({"rows": 2, "cols": 2, "re": [[1.0, 2.0]]}, DimMismatch),
    "short-row": ({"rows": 2, "cols": 2, "re": [[1.0]]}, DimMismatch),
    "nested-entries": ({"rows": 1, "cols": 2, "re": [[[1.0], [2.0]]]}, DimMismatch),
    "negative-size": ({"rows": -1, "cols": 2, "re": []}, DimMismatch),
    "im-shape": ({"re": [1.0, 2.0], "im": [1.0]}, DimMismatch),
    "vector-not-flat": ({"re": [[1.0], [2.0]]}, DimMismatch),
    "non-numeric-entry": ({"rows": 1, "cols": 1, "re": [["x"]]}, DomainError),
    # BipartiteState checks its dims by the count rule, as QuantumMap does
    "wrong-field-type": (
        {"kind": "BipartiteState", "dims": ["a", "b"], "mat": to_json(np.eye(4))}, DimMismatch
    ),
    "wrong-mat-type": ({"kind": "BipartiteState", "dims": [2, 2], "mat": "x"}, DomainError),
    "choi-wrong-size": (
        {"kind": "QuantumMap", "din": 2, "dout": 2,
         "choi": {"rows": 1, "cols": 1, "re": [[1.0]]}},
        DimMismatch,
    ),
    "choi-fractional-dims": (
        {"kind": "QuantumMap", "din": 2.5, "dout": 2, "choi": to_json(np.eye(5))},
        DimMismatch,
    ),
    "choi-bool-dims": (
        {"kind": "QuantumMap", "din": True, "dout": 2, "choi": to_json(np.eye(2))},
        DimMismatch,
    ),
    "gaussian-wrong-shape": (
        {"kind": "GaussianChannel", "n": 2, "X": [[1.0]], "Y": [[1.0]]}, DimMismatch
    ),
    # Not a decodable kind; n = 1 keeps a regression from allocating 2n x 2n.
    "symplectic-form": ({"kind": "SymplecticForm", "n": 1}, DomainError),
    "kraus-no-ops": ({"kind": "kraus", "ops": []}, DimMismatch),
    "sep-decomposition-rows": (
        {"kind": "SepDecomposition", "weights": {"re": [1.0, 2.0]},
         "a": {"rows": 1, "cols": 2, "re": [[1.0, 0.0]]},
         "b": {"rows": 2, "cols": 2, "re": [[1.0, 0.0], [0.0, 1.0]]},
         "residual": 0.0, "atoms_searched": 0},
        DimMismatch,
    ),
    # Checked before the (din dout)^2 Choi matrix is allocated.
    "kraus-declared-dims": (
        {"kind": "kraus", "ops": [{"rows": 1, "cols": 1, "re": [[1.0]]}], "din": 20000,
         "dout": 20000},
        DimMismatch,
    ),
    "kraus-missing-ops": ({"kind": "kraus"}, DomainError),
    "report-entry-without-data": (
        {"kind": "Report", "op": "x", "status": "pass", "evidence": [{"name": "a"}],
         "seed": None, "tolerances": {}, "trace": []},
        DomainError,
    ),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_typed_error(self, case):
        payload, error = MALFORMED[case]
        with pytest.raises(error):
            from_json(payload)

    def test_decimal_strings_in_vectors(self):
        v = from_json({"re": ["1.5", "-2"], "im": ["0", "0.25"]})
        np.testing.assert_array_equal(v, np.array([1.5, -2.0 + 0.25j]))

    def test_decimal_strings_in_matrices(self):
        obj = {"rows": 2, "cols": 2, "re": [["2.4", "-5.3"], ["-5.3", "26.7"]]}
        M = from_json(obj)
        np.testing.assert_array_equal(M, np.array([[2.4, -5.3], [-5.3, 26.7]]))
        assert M.dtype == float
        obj["im"] = [["0", "1.5"], ["-1.5", "0"]]
        M = from_json(obj)
        assert M.dtype == complex
        assert M[0, 1] == complex("-5.3+1.5j")

    @pytest.mark.parametrize(
        "obj", [{"re": 1}, {"kind": "x"}, {1: 2}, np.zeros((2, 2, 2)), object()],
        ids=["reserved-re", "reserved-kind", "int-key", "3-d-array", "object"],
    )
    def test_unencodable_is_domain_error(self, obj):
        with pytest.raises(DomainError):
            to_json(obj)


# Small values only: a decoded size feeds array constructors.
_leaf = (
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(width=64)
    | st.text(max_size=3) | st.sampled_from(["kraus", "QuantumMap", "Report", "GaussianChannel"])
)
_key = st.sampled_from(["kind", "rows", "cols", "re", "im", "ops", "din", "dout", "n", "X"])
_key = _key | st.text(max_size=2)
_json = st.recursive(
    _leaf, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_key, kids, max_size=4),
    max_leaves=12,
)

_VALID = [
    to_json(choi.transposition_map(2)),
    {"kind": "kraus", "ops": [to_json(np.eye(2))]},
    to_json(gaussian.random_cocp_channel(1, 0)),
    to_json(sdp.SdpProblem.from_matrices(blocks=(("x", 2),),
                                         equalities=(({"x": np.eye(2)}, 1.0),))),
    to_json(criteria.BipartiteState((2, 2), np.eye(4) / 4)),
    to_json(Report("op", "pass", [{"name": "v", "data": np.array([1.0, 1j])}], 0, {"t": 1e-9})),
]


@st.composite
def _mutated(draw):
    """A valid payload with one node deleted, replaced or truncated."""
    payload = json.loads(json.dumps(draw(st.sampled_from(_VALID))))
    node = payload
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return payload
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        action = draw(st.sampled_from(["delete", "replace", "truncate"]))
        if action == "delete":
            del node[key]
        elif action == "truncate" and isinstance(child, list):
            node[key] = child[: draw(st.integers(0, max(0, len(child) - 1)))]
        else:
            node[key] = draw(_json)
        return payload


def _only_typed_errors(payload):
    try:
        from_json(payload)
    except Exception as exc:  # noqa: BLE001 - the assertion names what escaped
        assert type(exc).__module__ == "ebcompose.errors", repr(exc)


@settings(max_examples=500, deadline=None)
@given(_mutated())
def test_mutated_payloads_raise_only_typed_errors(payload):
    _only_typed_errors(payload)


@settings(max_examples=300, deadline=None)
@given(_json)
def test_arbitrary_json_raises_only_typed_errors(payload):
    _only_typed_errors(payload)
