"""Acceptance suite: one test per headline guarantee of the package.

Each test is self-contained and asserts the full claim, including the
stated runtime budget where one applies.  Soft thresholds (criterion 5's
separability rate) log their failures as inconclusive and double-check
that no failure is a genuine counterexample.
"""

import time
from itertools import combinations

import numpy as np

from ebcompose import catalog, choi, criteria, gaussian, linalg, sdp
from ebcompose.report import to_json

FINE_GRID = np.linspace(-1.0, 1.0, 201)
COARSE_GRID = np.linspace(-1.0, 1.0, 21)


def hw(d, p):
    return catalog.holevo_werner(d, float(p)).map


def composed_state(T2, T1):
    comp = choi.compose(T2, T1)
    mat = comp.choi / np.trace(comp.choi).real
    return criteria.BipartiteState((comp.din, comp.dout), mat)


def decode_matrix(obj):
    flat = np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)
    return flat.reshape(obj["rows"], obj["cols"])


def test_criterion_01_holevo_werner_cocp_boundary():
    start = time.perf_counter()
    checked = 0
    for d in (2, 3, 4, 5):
        boundary = 1.0 / d
        for p in FINE_GRID:
            if abs(p - boundary) <= 1e-6:
                continue
            assert choi.is_cocp(hw(d, p)) == (p <= boundary), (d, p)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked > 790
    assert elapsed < 10.0, f"coCP sweep took {elapsed:.1f}s"


def test_criterion_02_holevo_werner_two_eb_boundary():
    start = time.perf_counter()
    checked = 0
    for d in (3, 4, 5):
        for p in FINE_GRID:
            if abs(p - 0.5) <= 1e-3:
                continue
            got = criteria.two_eb_ball_certificate(hw(d, p))
            assert got == (p <= 0.5), (d, p, got)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 600
    assert elapsed < 300.0, f"2-EB sweep took {elapsed:.1f}s"


def test_criterion_03_holevo_werner_square_is_eb():
    for p in COARSE_GRID:
        state = composed_state(hw(3, p), hw(3, p))
        assert criteria.is_ppt_state(state), p
        dec = criteria.heuristic_sep_certify(state)
        assert dec is not None and dec.residual <= 1e-7, p


def test_criterion_04_rank3_example_triple_check():
    start = time.perf_counter()
    T = catalog.rank3_example().map
    assert choi.is_cp(T)
    assert not choi.is_cocp(T)
    assert choi.operator_schmidt_rank(T) == 3
    assert criteria.two_eb_rank_certificate(T)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"rank-3 checks took {elapsed:.2f}s"


def test_criterion_05_random_cp_cocp_compositions_eb():
    inconclusive = []
    for seed in range(200):
        T1 = choi.random_cp_cocp_map(3, seed)
        T2 = choi.random_cp_cocp_map(3, 1000 + seed)
        state = composed_state(T2, T1)
        # hard part: 100% PPT and realignment
        assert criteria.is_ppt_state(state), seed
        assert criteria.realignment_criterion(state), seed
        # soft part: certified separable in >= 90% of cases
        if criteria.heuristic_sep_certify(state) is None:
            # absence of a decomposition is inconclusive; it must never
            # coexist with an entanglement (NPT) witness
            assert criteria.is_ppt_state(state), seed
            inconclusive.append(seed)
    assert len(inconclusive) <= 20, f"separability inconclusive for {inconclusive}"


def test_criterion_06_trimming_bound_under_local_maps():
    maps = [choi.random_cp_cocp_map(3, 7000 + k) for k in range(20)]
    extended = [choi.tensor(choi.identity_map(3), T) for T in maps]
    rng = np.random.default_rng(0)
    for _ in range(200):
        psi = linalg.random_pure_state(9, rng)
        proj = np.outer(psi, psi.conj())
        for ext in extended:
            out = choi.apply(ext, proj)
            state = criteria.BipartiteState((3, 3), out / np.trace(out).real)
            assert criteria.sn_lower_fidelity(state) <= 2


def test_criterion_07_max_entangled_subblocks_npt():
    for d in (3, 4):
        omega = linalg.max_entangled_projector(d) / d
        state = criteria.BipartiteState((d, d), omega)
        for subset in combinations(range(d), 2):
            sub = criteria.subblock(state, subset)
            assert not criteria.is_ppt_state(sub), (d, subset)


def test_criterion_08_gaussian_ppt2_split():
    start = time.perf_counter()
    mode_counts = [1] * 67 + [2] * 67 + [3] * 66
    for seed, n in enumerate(mode_counts):
        A = gaussian.random_cocp_channel(n, seed)
        B = gaussian.random_cocp_channel(n, 5000 + seed)
        sig = linalg.symplectic_form(n)

        # theorem route: explicit (N, M) pair with both LMIs re-verified
        N, M, ok = gaussian.ppt2_witness(B, A)
        assert ok, (n, seed)
        comp_x = B.X @ A.X
        m_n = linalg.min_eig(N - 1j * (comp_x @ sig @ comp_x.T))
        m_m = linalg.min_eig(M - 1j * sig)
        assert m_n >= -1e-8 and m_m >= -1e-8, (n, seed, m_n, m_m)

        # SDP route: independent noise split of the composed channel
        res = gaussian.is_eb(gaussian.compose(B, A))
        assert res.status == sdp.FEASIBLE, (n, seed)
        assert res.residuals["measured_margin"] >= -1e-8, (n, seed)
        assert res.residuals["remainder_margin"] >= -1e-8, (n, seed)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"Gaussian sweep took {elapsed:.1f}s"


def test_criterion_09_switch_map_sector_composition():
    rng = np.random.default_rng(11)
    flag0 = np.diag([1.0, 0.0])
    for k in range(50):
        T1 = choi.random_cp_cocp_map(2, 3000 + k)
        T2 = choi.random_cp_cocp_map(2, 3100 + k)
        sw = choi.switch_map(T1, T2)
        Y = linalg.random_hermitian(2, rng)
        twice = choi.apply(sw, choi.apply(sw, np.kron(Y, flag0)))
        expected = np.kron(choi.apply(T2, choi.apply(T1, Y)), flag0)
        gap = np.linalg.norm(twice - expected)
        assert gap <= 1e-9 * max(1.0, np.linalg.norm(expected)), k


def test_criterion_10_annihilation_identity_random_cp_pairs():
    rng = np.random.default_rng(23)
    for k in range(50):
        d = 2 if k < 25 else 3
        ops1 = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
        ops2 = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
        T1 = choi.choi_from_kraus(ops1, d, d)
        T2 = choi.choi_from_kraus(ops2, d, d)
        assert catalog.annihilation_identity_check(T1, T2, trials=2, seed=k)


def test_criterion_11_counterexample_search_pipeline():
    T = catalog.choi_map_witness().map
    report = to_json(sdp.counterexample_search(T))

    # completes with a full, well-formed trace
    assert report["trace"], "empty search trace"
    for entry in report["trace"]:
        assert {"restart", "round", "status", "sdp_objective", "value"} <= set(entry)
    evidence = {e["name"]: e["data"] for e in report["evidence"]}
    assert {"best-objective", "sdp-failures"} <= set(evidence)

    claimed_violation = evidence["best-objective"] < report["tolerances"]["success_value"]
    if claimed_violation:
        # every claimed "composition not CP" must carry the probe input and
        # reproduce the negative eigenvalue independently
        P = choi.QuantumMap(T.din, T.din, decode_matrix(evidence["input-choi"]))
        lam = linalg.min_eig(choi.compose(T, P).choi)
        assert lam < -1e-6
        assert abs(lam - evidence["best-objective"]) <= 1e-6
        margins = evidence["input-ppt-margins"]
        assert margins["psd"] >= -1e-9 and margins["pt"] >= -1e-9
        assert abs(margins["trace_error"]) <= 1e-7
        probe = np.array(evidence["probe-state"]["re"]) + 1j * np.array(evidence["probe-state"]["im"])
        quad = float(np.real(probe.conj() @ choi.compose(T, P).choi @ probe))
        assert quad < -1e-6

    # never "not decomposable" without a verified dual certificate
    if report["status"] == "composition-not-decomposable":
        W = decode_matrix(evidence["non-decomposability-witness"])
        comp = choi.compose(T, P).choi
        assert linalg.is_psd(W)
        assert linalg.is_psd(linalg.partial_transpose(W, (T.din, T.din), "B"))
        assert abs(np.trace(W).real - 1.0) <= 1e-7
        assert float(np.real(np.trace(W @ comp))) < 0.0

    assert report["status"] == "composition-decomposable"


def test_criterion_12_tau_family_suite():
    for d, n in ((2, 1), (2, 2), (3, 1)):
        nm = catalog.tau_n_map(d, n)
        state = criteria.BipartiteState((d**n, d**n), nm.map.choi)
        assert criteria.is_ppt_state(state), (d, n)

    antisym, _ = catalog.antisym_sym_maps(3)
    square = choi.compose(antisym.map, antisym.map)
    expected = (np.eye(9, dtype=complex) + linalg.max_entangled_projector(3)) / 36.0
    assert np.max(np.abs(square.choi - expected)) <= 1e-12
    assert criteria.is_ppt_state(criteria.BipartiteState((3, 3), square.choi / np.trace(square.choi).real))

    tau22 = catalog.tau_n_map(2, 2).map
    state = composed_state(tau22, tau22)
    assert criteria.is_ppt_state(state)
    assert criteria.realignment_criterion(state)
