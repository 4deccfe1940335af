"""Seeded inputs, queries and verdict checks for the benchmark workloads.

A query is one decision on one pre-generated input.  ``generate`` builds
every input during set-up, ``run`` is the only code inside the timed region,
and ``check`` re-verifies each returned verdict and its evidence afterwards.

Each workload repeats a fixed *cycle* of input kinds in a fixed order, so the
input mix does not depend on the seed or on where a timed run is cut; the
seed only draws the inputs within each kind.  When a run outlasts the
generated inputs it starts over from the first one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ebcompose import catalog, choi, criteria, gaussian, linalg, sdp

# Tolerance on re-verified PSD margins and Gaussian split margins.
MARGIN_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple  # input kinds of one cycle, in query order
    cycles: int  # cycles generated in set-up
    trace_rate: float  # nominal queries per second, sizes the traced run
    generate: Callable[[int, int], list]  # (seed, cycles) -> inputs
    warmup: Callable[[], list]  # fixed inputs run once per set-up
    run: Callable  # input -> output; the timed query
    check: Callable  # (input, output) -> (error or None, certified)

    def trace_queries(self, seconds: float) -> int:
        """Whole cycles covering half the run at the nominal query rate."""
        want = self.trace_rate * seconds / 2.0
        return len(self.cycle) * max(1, int(np.ceil(want / len(self.cycle))))


def digest(inputs: list) -> str:
    """SHA-256 over every number a workload's inputs carry."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            h.update(str(obj.shape).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, choi.QuantumMap):
            feed(obj.choi)
        elif isinstance(obj, gaussian.GaussianChannel):
            feed(obj.X)
            feed(obj.Y)
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                feed(item)
        else:
            h.update(repr(obj).encode())

    feed(inputs)
    return h.hexdigest()


def _sub_seeds(seed: int, count: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


def _psd_ok(M) -> bool:
    return linalg.psd_margin(M) >= -MARGIN_TOL


# ---------------------------------------------------------------------------
# hw-2eb-sweep: criterion-02 traffic

HW_DIMS = (3, 4, 5)
HW_STRATA = ((-1.0, -0.5), (-0.5, 0.0), (0.0, 0.5), (0.5, 1.0))
HW_BAND = 1e-3
# Position k of a cycle takes dimension k mod 3 and p-stratum k mod 4, so
# one cycle of 12 holds every (dimension, stratum) pair once.
HW_CYCLE = tuple((HW_DIMS[k % 3], k % 4) for k in range(12))


def _hw_input(d: int, p: float):
    return (d, p, catalog.holevo_werner(d, p).map)


def _hw_generate(seed: int, cycles: int) -> list:
    rng = np.random.default_rng(seed)
    inputs = []
    for _ in range(cycles):
        for d, stratum in HW_CYCLE:
            lo, hi = HW_STRATA[stratum]
            p = float(rng.uniform(lo, hi))
            while abs(p - 0.5) <= HW_BAND:
                p = float(rng.uniform(lo, hi))
            inputs.append(_hw_input(d, p))
    return inputs


def _hw_run(inp):
    d, _, T = inp
    ball = criteria.two_eb_ball_certificate(T)
    d3 = criteria.two_eb_d3_certificate(T) if d == 3 else None
    return ball, d3


def _hw_check(inp, out):
    d, p, T = inp
    ball, d3 = out
    two_eb = p <= 0.5
    if ball and not two_eb:
        return f"ball certificate claims 2-EB at p={p:.6f} > 1/2", False
    if ball:
        # Ground truth for this family: the deviation from depolarizing is
        # exactly |p|, and on the fallback route CP plus coCP suffices,
        # because a PPT Werner-type Choi matrix is separable.
        pt = linalg.partial_transpose(T.choi, T.dims, "B")
        if abs(p) > 0.5 + 1e-6 and not (_psd_ok(T.choi) and _psd_ok(pt)):
            return f"ball certificate at p={p:.6f} has neither route", False
    certified = bool(ball)
    if d3 is not None and d3.status != criteria.UNKNOWN:
        error = _check_d3(T, p, d3)
        if error:
            return error, False
        certified = True
    return None, certified


def _check_d3(T, p: float, verdict) -> Optional[str]:
    evidence = {e["name"]: e["data"] for e in verdict.evidence}
    if verdict.status == criteria.EB_CERTIFIED:
        if p > 0.5:
            return f"d=3 certificate claims 2-EB at p={p:.6f}"
        pt = linalg.partial_transpose(T.choi, T.dims, "B")
        if not (_psd_ok(T.choi) and _psd_ok(pt)):
            return f"d=3 EB evidence fails CP/coCP re-check at p={p:.6f}"
        return None
    if p <= 0.5:
        return f"d=3 certificate refutes 2-EB at p={p:.6f} <= 1/2"
    if "two-positivity-witness" in evidence:
        C, data = T.choi, evidence["two-positivity-witness"]
    else:
        C = choi.compose(choi.transposition_map(3), T).choi
        data = evidence["two-copositivity-witness"]
    psi = np.array(data["vector"], dtype=complex)
    value = float((psi.conj() @ (C @ psi)).real)
    if not (abs(np.linalg.norm(psi) - 1.0) <= 1e-9 and value < -1e-9
            and criteria.schmidt_rank(psi, (3, 3)) <= 2):
        return f"d=3 witness fails re-check at p={p:.6f} (value {value:.3e})"
    return None


# ---------------------------------------------------------------------------
# ppt-sep-pursuit: criterion-05 traffic

PPT_DIM = 3


def _ppt_generate(seed: int, cycles: int) -> list:
    seeds = _sub_seeds(seed, 2 * cycles)
    return [
        (choi.random_cp_cocp_map(PPT_DIM, seeds[2 * k]),
         choi.random_cp_cocp_map(PPT_DIM, seeds[2 * k + 1]))
        for k in range(cycles)
    ]


def _ppt_run(inp):
    T1, T2 = inp
    comp = choi.compose(T2, T1)
    state = criteria.BipartiteState((comp.din, comp.dout), comp.choi / np.trace(comp.choi).real)
    ppt = criteria.is_ppt_state(state)
    realigned = criteria.realignment_criterion(state)
    dec = criteria.heuristic_sep_certify(state) if ppt and realigned else None
    return state, ppt, realigned, dec


def _ppt_check(inp, out):
    state, ppt, realigned, dec = out
    if not (ppt and realigned):
        return f"composition fails PPT={ppt} or realignment={realigned}", False
    if dec is None:
        return None, False
    X = state.mat
    scale = linalg.operator_norm(X)
    if dec.residual > 1e-7 * scale:
        return f"decomposition residual {dec.residual:.3e} above target", False
    if dec.terms:
        As = np.stack([A for A, _ in dec.terms])
        Bs = np.stack([B for _, B in dec.terms])
        for stack in (As, Bs):
            w = np.linalg.eigvalsh(stack)
            if np.any(w[:, 0] < -MARGIN_TOL * np.maximum(1.0, np.abs(w).max(axis=1))):
                return "a separable term is not PSD", False
    miss = linalg.operator_norm(dec.reconstruct() - X) if dec.terms else scale
    if miss > dec.residual * (1.0 + 1e-6) + 1e-12 * scale:
        return f"reconstruction misses by {miss:.3e} > reported {dec.residual:.3e}", False
    return None, True


# ---------------------------------------------------------------------------
# sdp-decomposability: few large SDPs

# Five d = 3 maps, the Choi-map witness, one d = 4 and one d = 5 map per
# cycle: d = 5 is 1/8 of the queries, so the 90th percentile falls inside it.
SDP_CYCLE = (3, 3, "witness", 4, 3, 5, 3, 3)


def _sdp_generate(seed: int, cycles: int) -> list:
    seeds = iter(_sub_seeds(seed, len(SDP_CYCLE) * cycles))
    witness = catalog.choi_map_witness().map
    inputs = []
    for _ in range(cycles):
        for kind in SDP_CYCLE:
            seed_k = next(seeds)
            if kind == "witness":
                inputs.append((kind, witness))
            else:
                inputs.append((kind, choi.random_cp_cocp_map(kind, seed_k)))
    return inputs


def _sdp_run(inp):
    return sdp.decomposability_check(inp[1])


def _sdp_check(inp, res):
    kind, P = inp
    C = P.choi
    if kind == "witness":
        if res.status == sdp.FEASIBLE:
            return "Choi-map witness reported decomposable", False
        if res.status != sdp.INFEASIBLE:
            return None, False
        V = res.dual
        ok = (_psd_ok(V) and _psd_ok(linalg.partial_transpose(V, P.dims, "B"))
              and abs(np.trace(V).real - 1.0) <= 1e-7
              and float(np.real(np.trace(V @ C))) < 0.0)
        return (None if ok else "non-decomposability witness fails re-check"), ok
    if res.status == sdp.INFEASIBLE:
        return f"CP+coCP map at d={kind} reported not decomposable", False
    if res.status != sdp.FEASIBLE:
        return None, False
    C1, C2 = res.primal["cp_part"], res.primal["cocp_part"]
    recon = C1 + linalg.partial_transpose(C2, P.dims, "B")
    err = float(np.max(np.abs(recon - C))) / (1.0 + float(np.max(np.abs(C))))
    ok = (linalg.psd_margin(C1) >= -sdp.PSD_TOL and linalg.psd_margin(C2) >= -sdp.PSD_TOL
          and err <= sdp.FEAS_TOL)
    return (None if ok else f"decomposition at d={kind} fails re-check"), ok


# ---------------------------------------------------------------------------
# gauss-split: criterion-08 traffic

GAUSS_CYCLE = (1, 2, 3)


def _gauss_generate(seed: int, cycles: int) -> list:
    seeds = iter(_sub_seeds(seed, 2 * len(GAUSS_CYCLE) * cycles))
    return [
        (gaussian.random_cocp_channel(n, next(seeds)), gaussian.random_cocp_channel(n, next(seeds)))
        for _ in range(cycles)
        for n in GAUSS_CYCLE
    ]


def _gauss_run(inp):
    A, B = inp
    N, M, ok = gaussian.ppt2_witness(B, A)
    return N, M, ok, gaussian.is_eb(gaussian.compose(B, A))


def _gauss_check(inp, out):
    A, B = inp
    N, M, ok, res = out
    sig = linalg.symplectic_form(A.n)
    Xc = B.X @ A.X
    xsx = Xc @ sig @ Xc.T
    if not (ok and _psd_ok(N - 1j * xsx) and _psd_ok(M - 1j * sig)):
        return f"ppt2 witness at n={A.n} fails (flag {ok}) or its re-check", False
    if res.status == sdp.INFEASIBLE:
        return f"composed coCP channel at n={A.n} reported not EB", False
    if res.status != sdp.FEASIBLE:
        return None, False
    Ms, Ns = res.primal["M"], res.primal["N"]
    Y = B.X @ A.Y @ B.X.T + B.Y
    split_ok = (
        res.residuals["measured_margin"] >= -MARGIN_TOL
        and res.residuals["remainder_margin"] >= -MARGIN_TOL
        and _psd_ok(Ms - 1j * sig)
        and _psd_ok(Ns - 1j * xsx)
        and float(np.max(np.abs(Ms + Ns - Y))) <= 1e-7 * max(1.0, float(np.max(np.abs(Y))))
    )
    return (None if split_ok else f"EB split at n={A.n} fails re-check"), split_ok


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hw-2eb-sweep",
            HW_CYCLE, 40, 7.0, _hw_generate,
            lambda: [_hw_input(3, -0.75), _hw_input(3, 0.75)],
            _hw_run, _hw_check,
        ),
        Workload(
            "ppt-sep-pursuit",
            ("pair",), 120, 3.5, _ppt_generate,
            lambda: _ppt_generate(0, 1),
            _ppt_run, _ppt_check,
        ),
        Workload(
            "sdp-decomposability",
            SDP_CYCLE, 14, 3.5, _sdp_generate,
            lambda: [(3, choi.random_cp_cocp_map(3, 0)),
                     ("witness", catalog.choi_map_witness().map)],
            _sdp_run, _sdp_check,
        ),
        Workload(
            "gauss-split",
            GAUSS_CYCLE, 150, 36.0, _gauss_generate,
            lambda: _gauss_generate(0, 1),
            _gauss_run, _gauss_check,
        ),
    )
}
