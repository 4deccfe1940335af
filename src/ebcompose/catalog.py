"""Named example maps with fixed, reconstructible constants.

The catalog bundles the recurring cast of the package: the trace-contraction
Werner family ``W_p(X) = Tr[X]*I - p*X^T``, a rank-3 completely positive map
that is not entanglement breaking, the antisymmetric/symmetric projector pair
with its two-term mixture family ``tau``, and the classic positive
indecomposable map on M_3 used as a composition probe.  Every entry is a
:class:`NamedMap` whose ``(name, params)`` pair rebuilds the same Choi matrix
bit for bit through :func:`build`, so serialized experiments stay replayable.

The rank-3 example is an SDP-produced certificate, not a derived object: its
matrix entries are stored as decimal strings and parsed exactly once, and no
part of the package recomputes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import choi, linalg
from .choi import QuantumMap
from .errors import DimMismatch, DomainError, is_count

ParamValue = Union[int, float]

ANNIHILATION_TOL = 1e-9  # largest relative deviation annihilation_identity_check accepts


@dataclass(frozen=True)
class NamedMap:
    """A catalogued map: registry name, build parameters, and the map itself.

    ``params`` holds (key, value) pairs in the builder's documented order;
    ``build(name, params)`` reconstructs the identical map.
    """

    name: str
    params: tuple[tuple[str, ParamValue], ...]
    map: QuantumMap

    def __post_init__(self):
        object.__setattr__(self, "params", tuple((str(k), v) for k, v in self.params))


def holevo_werner(d: int, p: float) -> NamedMap:
    """The map X -> Tr[X]*I - p*X^T on M_d, with Choi matrix I - p*F_d.

    The family is completely copositive, equivalently entanglement breaking,
    exactly for p <= 1/d (the partially transposed Choi matrix has smallest
    eigenvalue 1 - p*d), and 2-entanglement breaking exactly for p <= 1/2.
    """
    if not is_count(d, 2):
        raise DomainError(f"dimension {d!r} is not an integer >= 2")
    p = float(p)
    if not np.isfinite(p) or not -1.0 <= p <= 1.0:
        raise DomainError(f"parameter p={p} outside [-1, 1]")
    C = np.eye(d * d, dtype=complex) - p * linalg.flip_operator(d)
    return NamedMap("holevo-werner", (("d", int(d)), ("p", p)), QuantumMap(d, d, C))


# Fixed constants of the rank-3 example.  The first two matrices are states
# scaled by 6; all entries are exact decimals and must not be re-derived.
_RANK3_RHO1_SIXTHS = (("2", "1", "0"), ("1", "2", "1"), ("0", "1", "2"))
_RANK3_RHO2_SIXTHS = (("2", "1", "0"), ("1", "2", "-1j"), ("0", "1j", "2"))
_RANK3_H0 = (("2.4", "-5.3", "0"), ("-5.3", "26.7", "0"), ("0", "0", "28.8"))
_RANK3_H1 = (
    ("10.6", "-25+3.2j", "44+33.4j"),
    ("-25-3.2j", "54.6", "-174.4-146.2j"),
    ("44-33.4j", "-174.4+146.2j", "44"),
)
_RANK3_H2 = (
    ("10.6", "-25-3.2j", "-33.4-44j"),
    ("-25+3.2j", "54.6", "146.2+174.4j"),
    ("-33.4+44j", "146.2-174.4j", "44"),
)


def _parse_rows(rows: tuple[tuple[str, ...], ...]) -> np.ndarray:
    return np.array([[complex(entry) for entry in row] for row in rows])


def _assemble_rank3_choi() -> np.ndarray:
    rho1 = _parse_rows(_RANK3_RHO1_SIXTHS) / 6.0
    rho2 = _parse_rows(_RANK3_RHO2_SIXTHS) / 6.0
    return (
        np.kron(_parse_rows(_RANK3_H0), np.eye(3, dtype=complex))
        + np.kron(rho1, _parse_rows(_RANK3_H1))
        + np.kron(rho2, _parse_rows(_RANK3_H2))
    )


_RANK3_CHOI = _assemble_rank3_choi()
_RANK3_CHOI.setflags(write=False)


def rank3_example() -> NamedMap:
    """A completely positive 3 -> 3 map of operator rank 3 that is not coCP.

    The Choi matrix is H0 (x) I + rho1 (x) H1 + rho2 (x) H2 with the fixed
    constants above.  The three-term product form caps the operator Schmidt
    rank at 3 (so the map is 2-entanglement breaking by the rank
    certificate), while the partial transpose has a negative eigenvalue, so
    the map is not entanglement breaking.
    """
    return NamedMap("rank3", (), QuantumMap(3, 3, _RANK3_CHOI))


def antisym_sym_maps(d: int) -> tuple[NamedMap, NamedMap]:
    """Maps whose Choi matrices are the normalized Werner projector states.

    Returns ``(A, S)`` with Choi matrices ``(I - F)/(d(d-1))`` and
    ``(I + F)/(d(d+1))``.  A equals ``holevo_werner(d, 1)`` scaled by
    ``1/(d(d-1))``; S has a separable Choi matrix, so it is entanglement
    breaking.
    """
    if not is_count(d, 2):
        raise DomainError(f"dimension {d!r} is not an integer >= 2")
    eye = np.eye(d * d, dtype=complex)
    flip = linalg.flip_operator(d)
    alpha = (eye - flip) / (d * (d - 1))
    sigma = (eye + flip) / (d * (d + 1))
    a = NamedMap("antisym", (("d", int(d)),), QuantumMap(d, d, alpha))
    s = NamedMap("sym", (("d", int(d)),), QuantumMap(d, d, sigma))
    return a, s


def tau_n_map(d: int, n: int) -> NamedMap:
    """The map T_n on M_{d^n} given by a fixed two-term mixture.

    Writing alpha and sigma for the Choi matrices of :func:`antisym_sym_maps`
    and ``blend = (alpha + (d+1)*sigma)/(d+2)``, the Choi matrix of T_n mixes
    ``alpha^(x n)`` and ``blend^(x n)`` with weights ``d^n`` and ``(d+2)^n``
    over their sum.  The mixture has positive partial transpose for every
    ``(d, n)`` in range even though ``alpha^(x n)`` alone does not.
    """
    if not is_count(d, 2):
        raise DomainError(f"dimension {d!r} is not an integer >= 2")
    if not is_count(n, 1):
        raise DomainError(f"tensor power {n!r} is not an integer >= 1")
    if d**n > 9:
        raise DomainError(f"ambient dimension {d**n} exceeds the supported 9")
    a, s = antisym_sym_maps(d)
    blend = QuantumMap(d, d, (a.map.choi + (d + 1) * s.map.choi) / (d + 2))
    a_pow = reduce(choi.tensor, [a.map] * n)
    blend_pow = reduce(choi.tensor, [blend] * n)
    total = d**n + (d + 2) ** n
    C = (d**n / total) * a_pow.choi + ((d + 2) ** n / total) * blend_pow.choi
    return NamedMap(
        "tau-n", (("d", int(d)), ("n", int(n))), QuantumMap(d**n, d**n, C)
    )


def choi_map_witness() -> NamedMap:
    """The classic positive indecomposable map on M_3.

    Sends X to the matrix with diagonal (x00+x22, x11+x00, x22+x11) and
    negated off-diagonal entries.  It is positive on rank-1 inputs but not
    CP, and it is not a sum of a CP map and a coCP map composed with
    transposition, which makes it the stock probe for composition
    experiments: a verified non-decomposable P with P∘T completely positive
    would need T entangled-Choi, so any CP violation of P∘T is meaningful.
    """

    def action(x: np.ndarray) -> np.ndarray:
        return np.array(
            [
                [x[0, 0] + x[2, 2], -x[0, 1], -x[0, 2]],
                [-x[1, 0], x[1, 1] + x[0, 0], -x[1, 2]],
                [-x[2, 0], -x[2, 1], x[2, 2] + x[1, 1]],
            ]
        )

    return NamedMap("choi-witness", (), choi.choi_from_action(action, 3, 3))


def annihilation_identity_deviation(T1: QuantumMap, T2: QuantumMap, psi) -> float:
    """Relative gap between (T1 (x) T2)(psi psi†) and its single-sided form.

    With A the operator satisfying ``psi = (id (x) A)|Omega>`` on the input
    factors, the product application equals
    ``[id (x) (T2 ∘ Ad_A ∘ transpose ∘ adjoint(T1) ∘ transpose)]`` evaluated
    on the unnormalized maximally entangled projector of the first output
    factor.  Returns ||lhs - rhs||_F / max(1, ||lhs||_F, ||rhs||_F).
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    d1, d3 = T1.din, T2.din
    if psi.size != d1 * d3:
        raise DimMismatch(f"state has {psi.size} entries, map inputs need {d1 * d3}")
    lhs = choi.apply(choi.tensor(T1, T2), np.outer(psi, psi.conj()))
    # psi = (id (x) A)|Omega> pins A[a, i] = psi[(i, a)]
    ad_a = choi.choi_from_kraus([psi.reshape(d1, d3).T], d1, d3)
    chain = choi.compose(
        T2,
        choi.compose(
            ad_a,
            choi.compose(
                choi.transposition_map(d1),
                choi.compose(choi.adjoint(T1), choi.transposition_map(T1.dout)),
            ),
        ),
    )
    rhs = choi.apply(
        choi.tensor(choi.identity_map(T1.dout), chain),
        linalg.max_entangled_projector(T1.dout),
    )
    scale = max(1.0, float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)))
    return float(np.linalg.norm(lhs - rhs)) / scale


def annihilation_identity_check(
    T1: QuantumMap,
    T2: QuantumMap,
    trials: int = 20,
    seed: int = 0,
) -> bool:
    """True when the single-sided rewrite holds on random pure inputs.

    Draws ``trials`` Haar-random pure states on the joint input space and
    accepts when every relative deviation stays within ``ANNIHILATION_TOL``.
    Counts that are not integers (trials >= 1, seed >= 0) raise DomainError.
    """
    if not is_count(trials, 1):
        raise DomainError(f"trial count {trials!r} is not an integer >= 1")
    if not is_count(seed, 0):
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        psi = linalg.random_pure_state(T1.din * T2.din, rng)
        worst = max(worst, annihilation_identity_deviation(T1, T2, psi))
    return worst <= ANNIHILATION_TOL


_BUILDERS: dict[str, Callable[[Mapping[str, ParamValue]], NamedMap]] = {
    "holevo-werner": lambda ps: holevo_werner(ps["d"], ps["p"]),
    "rank3": lambda ps: rank3_example(),
    "antisym": lambda ps: antisym_sym_maps(ps["d"])[0],
    "sym": lambda ps: antisym_sym_maps(ps["d"])[1],
    "tau-n": lambda ps: tau_n_map(ps["d"], ps["n"]),
    "choi-witness": lambda ps: choi_map_witness(),
}


def build(
    name: str,
    params: Sequence[tuple[str, ParamValue]] | Mapping[str, ParamValue] = (),
) -> NamedMap:
    """Reconstruct a catalogued map from its registry name and parameters."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise DomainError(f"unknown catalog name {name!r}; have {sorted(_BUILDERS)}")
    mapping = dict(params.items()) if isinstance(params, Mapping) else dict(params)
    try:
        return builder(mapping)
    except KeyError as exc:
        raise DomainError(
            f"catalog entry {name!r} needs parameter {exc.args[0]!r}"
        ) from exc

