"""Command-line verification suites for the bundled example maps.

``ebcompose verify-example <name>`` re-runs the defining checks of one
catalog entry (plus the switch construction) and exits 0 only when every
check passes; ``ebcompose gaussian`` does the same for a seeded random
completely copositive Gaussian channel.  Each suite declares only the flags
it reads (``_SUITES``), so any other flag is a usage error (exit 2).
``--json-out PATH`` additionally writes the run as a ``report.Report`` (one
evidence entry per check), encoded with ``report.to_json``; its seed is
``--seed``, or None for a suite that takes no seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional

import numpy as np

from . import catalog, choi, criteria, gaussian, linalg, sdp
from .report import Report, to_json

BOUNDARY_GAP = 1e-6
BALL_EXCLUSION = 1e-3
SECTOR_TOL = 1e-9


def _check(name: str, passed: bool, **data) -> dict:
    return {"name": name, "passed": bool(passed), "data": data}


def _skip(name: str, reason: str) -> dict:
    return {"name": name, "passed": True, "data": {"skipped": reason}}


def _suite_holevo_werner(args) -> list[dict]:
    d, p = args.d, args.p
    nm = catalog.holevo_werner(d, p)
    checks = []

    expect = np.eye(d * d, dtype=complex) - p * linalg.flip_operator(d)
    gap = float(np.max(np.abs(nm.map.choi - expect)))
    checks.append(_check("choi-formula", gap == 0.0, max_abs_gap=gap))

    below = catalog.holevo_werner(d, 1.0 / d - 0.01)
    above = catalog.holevo_werner(d, 1.0 / d + 0.01)
    checks.append(
        _check(
            "cocp-boundary",
            choi.is_cocp(below.map) and not choi.is_cocp(above.map),
            boundary=1.0 / d,
        )
    )

    if abs(p - 1.0 / d) > BOUNDARY_GAP:
        checks.append(
            _check(
                "cocp-at-p",
                choi.is_cocp(nm.map) == (p < 1.0 / d),
                p=float(p),
                cocp=choi.is_cocp(nm.map),
            )
        )
    else:
        checks.append(_skip("cocp-at-p", "p within 1e-6 of the coCP boundary"))

    alpha = catalog.antisym_sym_maps(d)[0]
    endpoint = catalog.holevo_werner(d, 1.0).map.choi / (d * (d - 1))
    checks.append(
        _check(
            "endpoint-matches-antisym",
            bool(np.array_equal(endpoint, alpha.map.choi)),
        )
    )

    if abs(p - 0.5) > BALL_EXCLUSION:
        verdict = criteria.two_eb_ball_certificate(nm.map)
        checks.append(
            _check("two-eb-ball", verdict == (p <= 0.5), p=float(p), certified=verdict)
        )
    else:
        checks.append(_skip("two-eb-ball", "p within 1e-3 of the 2-EB boundary"))
    return checks


def _suite_rank3(args) -> list[dict]:
    nm = catalog.rank3_example()
    pt = linalg.partial_transpose(nm.map.choi, (3, 3), "B")
    return [
        _check("cp", choi.is_cp(nm.map), min_eig=linalg.min_eig(nm.map.choi)),
        _check("not-cocp", not choi.is_cocp(nm.map), pt_min_eig=linalg.min_eig(pt)),
        _check("operator-rank-3", choi.operator_schmidt_rank(nm.map) == 3),
        _check("two-eb-rank-certificate", criteria.two_eb_rank_certificate(nm.map)),
    ]


def _suite_antisym(args) -> list[dict]:
    d = args.d
    a, s = catalog.antisym_sym_maps(d)
    eye, flip = np.eye(d * d), linalg.flip_operator(d)
    checks = [
        _check(
            "choi-formulas",
            np.allclose(a.map.choi, (eye - flip) / (d * (d - 1)))
            and np.allclose(s.map.choi, (eye + flip) / (d * (d + 1))),
        ),
        _check("antisym-cp-not-cocp", choi.is_cp(a.map) and not choi.is_cocp(a.map)),
        _check("sym-cp-and-cocp", choi.is_cp(s.map) and choi.is_cocp(s.map)),
    ]

    sq = choi.compose(a.map, a.map)
    formula = ((d - 2) * eye + linalg.max_entangled_projector(d)) / (d**2 * (d - 1) ** 2)
    gap = float(np.max(np.abs(sq.choi - formula)))
    checks.append(_check("square-formula", gap <= 1e-12, max_abs_gap=gap))
    square_ppt = criteria.is_ppt_state(criteria.BipartiteState((d, d), sq.choi))
    checks.append(
        _check("square-ppt-iff-dim-3plus", square_ppt == (d >= 3), square_ppt=square_ppt)
    )

    if d in (2, 3, 4, 5):
        dec = criteria.heuristic_sep_certify(criteria.BipartiteState((d, d), s.map.choi))
        checks.append(
            _check(
                "sym-separable",
                dec is not None and dec.residual <= 1e-7,
                residual=None if dec is None else float(dec.residual),
                terms=None if dec is None else len(dec.weights),
            )
        )
    else:
        checks.append(_skip("sym-separable", "no unbiased-basis seed atoms at this dimension"))
    return checks


def _suite_tau_n(args) -> list[dict]:
    nm = catalog.tau_n_map(args.d, args.n)
    checks = [
        _check("trace-one", abs(np.trace(nm.map.choi).real - 1.0) <= 1e-12),
        _check("cp", choi.is_cp(nm.map)),
        _check("cocp", choi.is_cocp(nm.map)),
    ]
    sq = choi.compose(nm.map, nm.map)
    state = criteria.BipartiteState(sq.dims, sq.choi)
    checks.append(_check("square-ppt", criteria.is_ppt_state(state)))
    checks.append(_check("square-realignment", criteria.realignment_criterion(state)))
    return checks


def _suite_choi_witness(args) -> list[dict]:
    nm = catalog.choi_map_witness()
    witness = criteria.k_positivity_falsify(nm.map, 1, restarts=16, seed=args.seed)
    result = sdp.decomposability_check(nm.map)
    return [
        _check("not-cp", not choi.is_cp(nm.map), min_eig=linalg.min_eig(nm.map.choi)),
        _check("positivity-audit", witness is None),
        _check(
            "not-decomposable",
            result.status == sdp.INFEASIBLE
            and result.residuals.get("witness_overlap", 0.0) < 0.0,
            status=result.status,
            witness_overlap=result.residuals.get("witness_overlap"),
        ),
    ]


def _suite_switch(args) -> list[dict]:
    d = args.d
    T1 = choi.random_cp_cocp_map(d, args.seed)
    T2 = choi.random_cp_cocp_map(d, args.seed + 1)
    sw = choi.switch_map(T1, T2)
    rng = np.random.default_rng(args.seed + 2)
    Y = linalg.random_hermitian(d, rng)
    flag0 = np.zeros((2, 2), dtype=complex)
    flag0[0, 0] = 1.0
    twice = choi.apply(sw, choi.apply(sw, np.kron(Y, flag0)))
    expected = np.kron(choi.apply(choi.compose(T2, T1), Y), flag0)
    scale = max(1.0, float(np.max(np.abs(expected))))
    gap = float(np.max(np.abs(twice - expected))) / scale
    return [
        _check("switch-cp-and-cocp", choi.is_cp(sw) and choi.is_cocp(sw)),
        _check("dims-doubled", sw.dims == (2 * d, 2 * d)),
        _check("sector-composition", gap <= SECTOR_TOL, rel_gap=gap),
    ]


def _suite_gaussian(args) -> list[dict]:
    C = gaussian.random_cocp_channel(args.n, args.seed)
    checks = [
        _check("valid", C.valid),
        _check("cocp", gaussian.is_cocp(C)),
    ]
    N, M, verified = gaussian.ppt2_witness(C, C)
    checks.append(_check("ppt2-witness", verified))
    result = gaussian.is_eb(gaussian.compose(C, C))
    checks.append(
        _check("composition-eb", result.status == sdp.FEASIBLE, status=result.status,
               reason=result.reason, **result.residuals)
    )
    return checks


_FLAGS = {
    "d": dict(type=int, default=3, help="matrix dimension (default 3)"),
    "p": dict(type=float, default=0.25, help="family parameter (default 0.25)"),
    "n": dict(type=int, default=1, help="tensor power or mode count (default 1)"),
    "seed": dict(type=int, default=0, help="RNG seed (default 0)"),
}

# verify-example name -> (suite, the flags it reads, help)
_SUITES: dict[str, tuple[Callable, tuple[str, ...], str]] = {
    "antisym": (_suite_antisym, ("d",), "antisymmetric and symmetric projection maps"),
    "choi-witness": (_suite_choi_witness, ("seed",), "Choi's positive, non-decomposable map"),
    "holevo-werner": (_suite_holevo_werner, ("d", "p"), "Holevo-Werner maps Tr[X] I - p X^T"),
    "rank3": (_suite_rank3, (), "the operator-rank-3 2-EB example"),
    "switch": (_suite_switch, ("d", "seed"), "switch map of two random CP + coCP maps"),
    "tau-n": (_suite_tau_n, ("d", "n"), "the tau_n maps and their squares"),
}


def _add_suite(sub, name: str, op: str, suite: Callable, flags: tuple[str, ...],
               summary: str) -> None:
    parser = sub.add_parser(name, help=summary)
    for flag in flags:
        parser.add_argument(f"--{flag}", **_FLAGS[flag])
    parser.add_argument("--json-out", metavar="PATH", help="write the JSON report to PATH")
    parser.set_defaults(op=op, suite=suite)


def _run(op: str, suite: Callable, args) -> int:
    checks = suite(args)
    passed = all(c["passed"] for c in checks)
    for c in checks:
        tag = "SKIP" if c["data"].get("skipped") else ("PASS" if c["passed"] else "FAIL")
        detail = json.dumps(to_json(c["data"])) if c["data"] else ""
        print(f"[{tag}] {c['name']} {detail}".rstrip())
    print(f"{op}: {'all checks passed' if passed else 'CHECKS FAILED'}")
    if args.json_out:
        report = Report(op, "pass" if passed else "fail", checks, getattr(args, "seed", None),
                        {"tol_psd": linalg.TOL_PSD})
        with open(args.json_out, "w") as fh:
            json.dump(to_json(report), fh, indent=2)
    return 0 if passed else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ebcompose",
        description="verification suites for the bundled example maps and channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify-example", help="re-run the checks of one named example")
    examples = verify.add_subparsers(dest="name", required=True, metavar="name")
    for name, (suite, flags, summary) in _SUITES.items():
        _add_suite(examples, name, f"verify-example:{name}", suite, flags, summary)
    _add_suite(sub, "gaussian", "gaussian", _suite_gaussian, ("n", "seed"),
               "check a seeded random coCP Gaussian channel")

    args = parser.parse_args(argv)
    try:
        return _run(args.op, args.suite, args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
