"""Problem definition: boundary coefficients, discontinuous weight, potential.

A boundary value problem for the 2x2 first-order system

    B y' + Omega(x) y = lambda rho(x) y,   0 < x < pi,

is fully described by a :class:`ProblemConfig`: eight boundary coefficients
(the boundary forms depend linearly on the spectral parameter), a
piecewise-constant weight rho with a single jump at ``a``, and a real
potential pair (p, q) entering through the symmetric trace-free matrix
Omega = [[p, q], [q, -p]].
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError

PI = math.pi

_X_TOL = 1e-12


def _check_domain(x) -> np.ndarray:
    xv = np.asarray(x, dtype=float)
    if np.any(xv < -_X_TOL) or np.any(xv > PI + _X_TOL):
        raise DomainError(f"x = {x} outside [0, pi]")
    return xv


@dataclass(frozen=True)
class BoundaryParams:
    """Coefficients of the two lambda-dependent boundary forms."""

    b1: float
    b2: float
    b3: float
    b4: float
    c1: float
    c2: float
    c3: float
    c4: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ConfigError(f"boundary coefficient {name} = {value} must be finite")
        if self.k1 <= 0.0:
            raise ConfigError(f"k1 = b1*b4 - b2*b3 = {self.k1} must be > 0")
        if self.k2 <= 0.0:
            raise ConfigError(f"k2 = c1*c4 - c2*c3 = {self.k2} must be > 0")

    @property
    def k1(self) -> float:
        return self.b1 * self.b4 - self.b2 * self.b3

    @property
    def k2(self) -> float:
        return self.c1 * self.c4 - self.c2 * self.c3


@dataclass(frozen=True)
class Weight:
    """Piecewise-constant weight: 1 on [0, a], alpha on (a, pi]."""

    alpha: float
    a: float

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf):
            raise ConfigError(f"alpha = {self.alpha} must be positive and finite")
        if not (0.0 < self.a < PI):
            raise ConfigError(f"jump position a = {self.a} must lie in (0, pi)")


def mu(x, w: Weight):
    """Accumulated optical length: x up to the jump, then alpha*x - alpha*a + a."""
    xv = _check_domain(x)
    out = np.where(xv <= w.a, xv, w.alpha * xv - w.alpha * w.a + w.a)
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def rho_at(x, w: Weight):
    """Weight value at x; the jump point itself carries the left value 1."""
    xv = _check_domain(x)
    out = np.where(xv <= w.a, 1.0, w.alpha)
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


@dataclass(frozen=True)
class PotentialSpec:
    """Finitely parametrized real potential pair (p, q) on [0, pi].

    Supported representations:

    * ``piecewise`` -- m equal-length constant segments per component,
    * ``cosine``    -- coefficients of cos(k x), k = 0..m-1,
    * ``callable``  -- arbitrary array-aware callables (not serializable, with
      one fingerprint; specs are equal only when they hold the same functions).
    """

    kind: str
    p_params: tuple = ()
    q_params: tuple = ()
    p_func: Optional[Callable] = None
    q_func: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in ("piecewise", "cosine", "callable"):
            raise ConfigError(f"unknown potential kind {self.kind!r}")
        if self.kind == "callable":
            if self.p_func is None or self.q_func is None:
                raise ConfigError("callable potential needs both p_func and q_func")
        else:
            if len(self.p_params) == 0 or len(self.q_params) == 0:
                raise ConfigError("parametrized potential needs nonempty parameters")
        object.__setattr__(self, "p_params", tuple(float(v) for v in self.p_params))
        object.__setattr__(self, "q_params", tuple(float(v) for v in self.q_params))
        if not all(map(math.isfinite, self.p_params + self.q_params)):
            raise ConfigError("potential parameters must be finite")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "PotentialSpec":
        return PotentialSpec("piecewise", (0.0,), (0.0,))

    @staticmethod
    def constant(p: float, q: float) -> "PotentialSpec":
        return PotentialSpec("piecewise", (p,), (q,))

    @staticmethod
    def piecewise(p_values, q_values) -> "PotentialSpec":
        return PotentialSpec("piecewise", tuple(p_values), tuple(q_values))

    @staticmethod
    def cosine(p_coeffs, q_coeffs) -> "PotentialSpec":
        return PotentialSpec("cosine", tuple(p_coeffs), tuple(q_coeffs))

    @staticmethod
    def from_callables(p_func, q_func) -> "PotentialSpec":
        return PotentialSpec("callable", p_func=p_func, q_func=q_func)

    # -- evaluation ---------------------------------------------------
    def _eval(self, params, func, x):
        xv = np.asarray(x, dtype=float)
        if self.kind == "callable":
            out = np.asarray(func(xv), dtype=float)
            return np.broadcast_to(out, xv.shape).astype(float)
        coeffs = np.asarray(params, dtype=float)
        if self.kind == "piecewise":
            m = len(coeffs)
            idx = np.minimum((xv / PI * m).astype(int), m - 1)
            idx = np.maximum(idx, 0)
            return coeffs[idx]
        ks = np.arange(len(coeffs))
        return np.cos(np.multiply.outer(xv, ks)) @ coeffs

    def p_at(self, x):
        out = self._eval(self.p_params, self.p_func, _check_domain(x))
        return float(out) if np.isscalar(x) or out.ndim == 0 else out

    def q_at(self, x):
        out = self._eval(self.q_params, self.q_func, _check_domain(x))
        return float(out) if np.isscalar(x) or out.ndim == 0 else out


def omega_at(x, pot: PotentialSpec) -> np.ndarray:
    """Symmetric trace-free potential matrix [[p, q], [q, -p]] at x."""
    p = pot.p_at(x)
    q = pot.q_at(x)
    return np.array([[p, q], [q, -p]], dtype=float)


@dataclass(frozen=True)
class ProblemConfig:
    """Complete problem definition plus the integration resolution."""

    boundary: BoundaryParams
    weight: Weight
    potential: PotentialSpec
    grid_points: int = 2048

    def __post_init__(self):
        if self.grid_points < 16:
            raise ConfigError(f"grid_points = {self.grid_points} must be >= 16")


# ---------------------------------------------------------------------------
# Data files: the one JSON and CSV format of the package.  A real is written as
# its repr, the shortest text that reads back to the same float.  Each file's
# text is built whole, then written in one call.
# ---------------------------------------------------------------------------

def _write_json(path, doc) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# A field with one of these would need csv quoting, which this format never uses.
_QUOTED = re.compile(r'[,"\r\n]')


def _csv_fields(column) -> list:
    """The text of each value of ``column``, as ``csv.writer`` writes it: a
    float64 as its repr, formatted once per distinct bit pattern (so -0.0 stays
    apart from 0.0), anything else as ``str`` of its ``tolist()`` value."""
    values = np.asarray(column)
    if values.dtype == np.float64:
        bits, where = np.unique(values.view(np.int64), return_inverse=True)
        texts = [repr(v) for v in bits.view(np.float64).tolist()]
        return np.array(texts, dtype=object)[where].tolist()
    return _unquoted([str(v) for v in values.tolist()])


def _unquoted(fields: list) -> list:
    for field in fields:
        if _QUOTED.search(field):
            raise ValueError(f"CSV field {field!r} would need quoting")
    return fields


def _write_csv(path, header, columns) -> None:
    """A header, then the rows of the equal-length ``columns``.  The whole text
    is built, and checked, before the file opens: columns of unequal length, a
    field holding ``,``, ``"``, CR or LF, or an empty line (which a reader takes
    for a row of no fields) raise ValueError and write nothing."""
    rows = zip(*map(_csv_fields, columns), strict=True)
    lines = [",".join(_unquoted([str(h) for h in header])), *map(",".join, rows)]
    if "" in lines:
        raise ValueError("a CSV line would be empty")
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _read_json(path):
    """The JSON document in the file ``path``; a file that is not UTF-8 text
    raises :class:`ConfigError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc


def _json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer, an int but not a bool; else TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} = {value!r} is not an integer")
    return value


def _json_float(value, name: str) -> float:
    """``value`` as a float if it is a JSON number, an int or a float but not
    a bool; else TypeError, or ValueError for an integer beyond float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} = {value!r} is not a number")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{name} is beyond the float range") from exc


def _json_floats(value, name: str) -> tuple:
    """``value`` as a tuple of floats if it is a JSON array of numbers; else
    TypeError."""
    if not isinstance(value, list):
        raise TypeError(f"{name} = {value!r} is not an array")
    return tuple(_json_float(v, name) for v in value)


def config_to_dict(config: ProblemConfig) -> dict:
    if config.potential.kind == "callable":
        raise ConfigError("callable potentials are not serializable")
    b = config.boundary
    return {
        "boundary": {k: getattr(b, k) for k in
                     ("b1", "b2", "b3", "b4", "c1", "c2", "c3", "c4")},
        "weight": {"alpha": config.weight.alpha, "a": config.weight.a},
        "potential": {
            "kind": config.potential.kind,
            "p_params": list(config.potential.p_params),
            "q_params": list(config.potential.q_params),
        },
        "grid_points": config.grid_points,
    }


def config_from_dict(doc: dict) -> ProblemConfig:
    try:
        coeffs = doc["boundary"]
        if not isinstance(coeffs, dict):
            raise TypeError(f"boundary = {coeffs!r} is not an object")
        boundary = BoundaryParams(**{k: _json_float(v, k) for k, v in coeffs.items()})
        weight = Weight(alpha=_json_float(doc["weight"]["alpha"], "alpha"),
                        a=_json_float(doc["weight"]["a"], "a"))
        pot = doc["potential"]
        potential = PotentialSpec(pot["kind"], _json_floats(pot["p_params"], "p_params"),
                                  _json_floats(pot["q_params"], "q_params"))
        grid_points = _json_int(doc.get("grid_points", 2048), "grid_points")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed configuration document: {exc}") from exc
    return ProblemConfig(boundary, weight, potential, grid_points)


def save_config(config: ProblemConfig, path) -> None:
    _write_json(path, config_to_dict(config))


def load_config(path) -> ProblemConfig:
    return config_from_dict(_read_json(path))


def config_fingerprint(config: ProblemConfig) -> str:
    """Short stable identifier of a configuration: 16 hex digits hashed from its
    JSON document, or ``"callable"`` for a callable potential, which has none."""
    import hashlib

    if config.potential.kind == "callable":
        return "callable"

    text = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
