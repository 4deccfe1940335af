"""The Report type and the package's one JSON codec.

A :class:`Report` holds ``{"name", "data"}`` evidence dicts whose data may
hold numpy arrays; only :func:`to_json` encodes them.  A 2-D array, scipy
sparse ones written dense, is ``{"rows", "cols", "re", "im"}``, a 1-D array
or a complex number ``{"re", "im"}`` (entries may be decimal strings; real
arrays omit "im"), a frozen dataclass of the package ``{"kind": <type
name>, <init fields>}``, decoded through its constructor and so through its
validation, and ``{"kind": "kraus", "ops": [matrices], "din", "dout"}`` a
map given by its Kraus operators.  Lists decode as tuples.  Malformed input
raises DomainError, or DimMismatch for a mis-sized array.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Mapping, Optional

import numpy as np
import scipy.sparse

from . import errors
from .errors import DimMismatch, DomainError

# Mapping keys that would decode as one of the layouts above.
_RESERVED = ("kind", "rows", "cols", "re")


@dataclass(frozen=True)
class Report:
    """What an operation concluded, and the evidence for it.

    ``evidence`` entries are dicts with at least ``"name"`` and ``"data"``;
    ``tolerances`` are the thresholds the status rests on, ``trace`` a
    search's per-step diagnostics.
    """

    op: str
    status: str
    evidence: tuple
    seed: Optional[int] = None
    tolerances: Mapping[str, float] = field(default_factory=dict)
    trace: tuple = ()

    def __post_init__(self):
        if not (isinstance(self.op, str) and isinstance(self.status, str)):
            raise DomainError("report op and status must be strings")
        evidence = tuple(self.evidence)
        if not all(isinstance(e, Mapping) and {"name", "data"} <= set(e) for e in evidence):
            raise DomainError("every evidence entry needs a name and data")
        object.__setattr__(self, "evidence", evidence)
        object.__setattr__(self, "tolerances", dict(self.tolerances))
        object.__setattr__(self, "trace", tuple(self.trace))


@lru_cache(maxsize=None)
def _types() -> dict:
    # Imported here because the modules that define the types import Report.
    from . import catalog, choi, criteria, gaussian, sdp

    modules = (catalog, choi, criteria, gaussian, sdp)
    found = [Report] + [c for m in modules for c in vars(m).values()]
    return {c.__name__: c for c in found if isinstance(c, type) and dataclasses.is_dataclass(c)
            and c.__module__.startswith(__package__)}


def _init_fields(cls) -> list:
    return [f.name for f in dataclasses.fields(cls) if f.init]


def to_json(obj: Any):
    """Encode ``obj`` as JSON-ready lists, dicts, strings and numbers."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if scipy.sparse.issparse(obj):
        obj = obj.toarray()
    if isinstance(obj, np.ndarray):
        if obj.ndim not in (1, 2):
            raise DomainError(f"only 1-D and 2-D arrays are encodable, got ndim={obj.ndim}")
        out = {"rows": obj.shape[0], "cols": obj.shape[1]} if obj.ndim == 2 else {}
        if np.iscomplexobj(obj):
            return {**out, "re": obj.real.tolist(), "im": obj.imag.tolist()}
        return {**out, "re": obj.astype(float).tolist()}
    if isinstance(obj, (tuple, list)):
        return [to_json(v) for v in obj]
    if isinstance(obj, Mapping):
        if any(not isinstance(key, str) or key in _RESERVED for key in obj):
            raise DomainError(f"mapping keys must be strings other than {_RESERVED}")
        return {key: to_json(v) for key, v in obj.items()}
    cls = type(obj)
    if _types().get(cls.__name__) is not cls:
        raise DomainError(f"cannot encode an object of type {cls.__name__}")
    return {"kind": cls.__name__, **{f: to_json(getattr(obj, f)) for f in _init_fields(cls)}}


def from_json(obj: Any):
    """Decode what :func:`to_json` wrote, or outside JSON in the same layouts."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return tuple(from_json(v) for v in obj)
    if not isinstance(obj, dict):
        raise DomainError(f"not a JSON value: {type(obj).__name__}")
    if "kind" in obj:
        return _decode_kind(obj)
    if "rows" in obj or "cols" in obj:
        shape = (_need(obj, "rows"), _need(obj, "cols"))
        if not all(isinstance(k, int) and k >= 0 for k in shape):
            raise DimMismatch(f"matrix JSON needs non-negative integer sizes, got {shape}")
        return _array(obj, shape)
    if "re" in obj:
        if isinstance(obj["re"], list):
            return _array(obj, None)
        return complex(*_real([obj["re"], _need(obj, "im")], None))
    return {key: from_json(v) for key, v in obj.items()}


def _need(obj: dict, key: str):
    if key not in obj:
        raise DomainError(f"JSON object is missing key {key!r}")
    return obj[key]


def _real(raw, shape) -> np.ndarray:
    # ``shape`` is (rows, cols) for a matrix and None for a vector.
    if shape is not None and not (
        isinstance(raw, list)
        and len(raw) == shape[0]
        and all(isinstance(row, list) and len(row) == shape[1] for row in raw)
    ):
        raise DimMismatch(f"matrix JSON rows do not match the declared shape {shape}")
    try:
        out = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"array JSON entries must be numbers: {exc}") from exc
    want = out.shape[:1] if shape is None else shape
    if out.shape != want and out.shape != (0,):  # an empty matrix arrives as []
        raise DimMismatch(f"array JSON has shape {out.shape}, expected {want}")
    return out.reshape(want)


def _array(obj: dict, shape) -> np.ndarray:
    re = _real(_need(obj, "re"), shape)
    if "im" not in obj:
        return re
    im = _real(obj["im"], shape)
    if im.shape != re.shape:
        raise DimMismatch(f"real part has shape {re.shape}, imaginary part {im.shape}")
    out = re.astype(complex)
    out.imag = im  # keeps the sign of zero, which re + 1j * im does not
    return out


def _decode_kind(obj: dict):
    kind = obj["kind"]
    # Constructors validate their own input; any other failure means a value
    # of the wrong type.
    try:
        if kind == "kraus":
            from .choi import choi_from_kraus

            ops = from_json(_need(obj, "ops"))
            if not ops or any(getattr(K, "ndim", 0) != 2 for K in ops):
                raise DimMismatch("kraus map JSON needs a list of one or more matrices")
            dout, din = ops[0].shape
            if (obj.get("din", din), obj.get("dout", dout)) != (din, dout):
                raise DimMismatch(f"kraus operators are {dout}x{din}; declared din/dout disagree")
            return choi_from_kraus(ops, din, dout)
        cls = _types().get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise DomainError(f"unknown JSON kind {kind!r}")
        return cls(*(from_json(_need(obj, f)) for f in _init_fields(cls)))
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        if type(exc).__module__ == errors.__name__:
            raise
        raise DomainError(f"cannot build {kind!r} from JSON: {exc}") from exc
