"""Spans around the public functions of each ebcompose layer.

The tracer wraps functions from outside the package: every wrapper is
installed in each namespace that holds a reference to the function (for
example ``criteria`` imports ``compose``, ``is_cp``, ``is_cocp`` and ``nnls``
by name), and every original is put back on exit.  A span records its group,
start, end, parent span, query id and per-call counts; spans stay in memory
until the run ends.  A span's self time is its duration minus the durations
of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Optional

import scipy.linalg
import scipy.optimize

from ebcompose import _kernels, choi, criteria, gaussian, linalg, sdp


SPAN_FIELDS = ["name", "start", "end", "parent", "query", "counts"]


class Span:
    __slots__ = ("group", "start", "end", "parent", "query", "stats")

    def __init__(self, group: str, parent: int, query: Optional[int]):
        self.group = group
        self.parent = parent
        self.query = query
        self.stats: dict = {}
        self.start = time.perf_counter()
        self.end = self.start

    def as_row(self) -> list:
        return [self.group, self.start, self.end, self.parent, self.query, self.stats]


def _restarts_at(position: int) -> Callable:
    def count(stats, args, result):
        stats["restarts"] = int(args[position].shape[0])
    return count


def _found(stats, args, result):
    stats["found"] = int(result is not None)


def _solve_stats(stats, args, result):
    problem = args[0]
    stats["iterations"] = float(result.residuals.get("iterations", 0.0))
    stats["inconclusive"] = int(result.status == sdp.INCONCLUSIVE)
    stats["equalities"] = len(problem.equalities)
    stats["svec_dim"] = sum(n * (n + 1) // 2 for _, n in problem.blocks)


# (home module, attribute, span group, per-call counter)
TARGETS = (
    (linalg, "haar_unitary", "linalg.haar_unitary", None),
    (linalg, "operator_norm", "linalg.operator_norm", None),
    (linalg, "is_psd", "linalg.psd_tests", None),
    (linalg, "psd_margin", "linalg.psd_tests", None),
    (linalg, "min_eig", "linalg.psd_tests", None),
    (linalg, "eig_hermitian", "linalg.psd_tests", None),
    (choi, "compose", "choi.compose", None),
    (choi, "is_cp", "choi.cp_tests", None),
    (choi, "is_cocp", "choi.cp_tests", None),
    (criteria, "two_eb_ball_certificate", "criteria.two_eb_ball_certificate", None),
    (criteria, "deviation_from_depolarizing", "criteria.deviation_from_depolarizing", None),
    (criteria, "two_eb_d3_certificate", "criteria.two_eb_d3_certificate", None),
    (criteria, "k_positivity_falsify", "criteria.k_positivity_falsify", _found),
    (criteria, "heuristic_sep_certify", "criteria.heuristic_sep_certify", _found),
    (scipy.optimize, "nnls", "criteria.nnls", None),
    (criteria, "is_ppt_state", "criteria.state_tests", None),
    (criteria, "realignment_criterion", "criteria.state_tests", None),
    (_kernels, "ball_seesaw", "kernels.ball_seesaw", _restarts_at(2)),
    (_kernels, "pursuit_atom", "kernels.pursuit_atom", _restarts_at(3)),
    (_kernels, "kpos_seesaw", "kernels.kpos_seesaw", _restarts_at(4)),
    (sdp, "decomposability_check", "sdp.decomposability_check", None),
    (sdp, "gaussian_eb_split", "sdp.gaussian_eb_split", None),
    (sdp, "solve", "sdp.solve", _solve_stats),
    (scipy.linalg, "cho_factor", "sdp.cho_factor", None),
    (gaussian, "is_eb", "gaussian.is_eb", None),
    (gaussian, "ppt2_witness", "gaussian.ppt2_witness", None),
    (gaussian, "compose", "gaussian.compose", None),
)


class Tracer:
    """Context manager that installs span wrappers and restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.query: Optional[int] = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, group: str, fn: Callable, count: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(group, stack[-1] if stack else -1, self.query)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.stats["raised"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                count(span.stats, args, result)
            return result

        traced.span_group = group
        return traced

    def __enter__(self) -> "Tracer":
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "ebcompose" or name.startswith("ebcompose.")]
        try:
            for home, attr, group, count in TARGETS:
                original = getattr(home, attr)
                wrapper = self._wrap(group, original, count)
                for module in [home, *namespaces]:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, name, original))
                            setattr(module, name, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)


def assert_untraced() -> None:
    """Raise if any traced function is still wrapped."""
    for home, attr, _, _ in TARGETS:
        if hasattr(getattr(home, attr), "span_group"):
            raise RuntimeError(f"{home.__name__}.{attr} is still wrapped")


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per-group calls, self time, total time and summed per-call counts."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    groups: dict[str, dict] = {}
    for i, span in enumerate(spans):
        g = groups.setdefault(span.group, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        duration = span.end - span.start
        g["calls"] += 1
        g["total_s"] += duration
        g["self_s"] += duration - child[i]
        for key, value in span.stats.items():
            g[key] = g.get(key, 0) + value
        if span.group == "kernels.pursuit_atom" and span.stats["restarts"] > 1:
            # heuristic_sep_certify searches with several starts and polishes
            # with one, so multi-start calls are its searched atoms
            parent = spans[span.parent].group if span.parent >= 0 else None
            if parent == "criteria.heuristic_sep_certify":
                g["atoms_searched"] = g.get("atoms_searched", 0) + 1
    return groups


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(groups: dict[str, dict]) -> dict[str, float]:
    """Per-layer metrics by name; a layer not exercised reads 0."""
    def g(name):
        return groups.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    out: dict[str, float] = {}
    for name in sorted({group for _, _, group, _ in TARGETS}):
        out[f"{name}.calls"] = g(name)["calls"]
        out[f"{name}.self_s"] = g(name)["self_s"]
    for name in ("kernels.ball_seesaw", "kernels.pursuit_atom", "kernels.kpos_seesaw"):
        out[f"{name}.restarts"] = g(name).get("restarts", 0)
    kpos = g("criteria.k_positivity_falsify")
    out["criteria.k_positivity_falsify.witness_ratio"] = _ratio(kpos.get("found", 0), kpos["calls"])
    sep = g("criteria.heuristic_sep_certify")
    out["criteria.heuristic_sep_certify.found_ratio"] = _ratio(sep.get("found", 0), sep["calls"])
    out["criteria.heuristic_sep_certify.atoms_searched"] = (
        g("kernels.pursuit_atom").get("atoms_searched", 0))
    # s_per_iteration counts the whole solve span, child spans included;
    # equalities and svec_dim are problem sizes averaged over calls
    solve = g("sdp.solve")
    out["sdp.solve.iterations"] = solve.get("iterations", 0.0)
    out["sdp.solve.s_per_iteration"] = _ratio(solve["total_s"], solve.get("iterations", 0.0))
    out["sdp.solve.inconclusive"] = solve.get("inconclusive", 0)
    out["sdp.solve.equalities"] = _ratio(solve.get("equalities", 0), solve["calls"])
    out["sdp.solve.svec_dim"] = _ratio(solve.get("svec_dim", 0), solve["calls"])
    out["sdp.cho_factor.retries"] = g("sdp.cho_factor").get("raised", 0)
    return out
