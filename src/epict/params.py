"""Model parameters shared by every other module.

The epidemic runs in a closed population of ``n`` individuals.  Infectious
individuals transmit at overall rate ``beta``, recover naturally at rate
``gamma`` and are diagnosed (tested positive and isolated) at rate ``delta``.
A fraction ``pi`` of the population uses the tracing app; a diagnosed
individual's contact is reached by manual tracing with probability ``p``.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class InvalidParams(ValueError):
    """One or more parameter bounds are violated."""


PARAM_KEYS = ("beta", "gamma", "delta", "pi", "p", "n")
_RATE_KEYS = PARAM_KEYS[:5]


def _is_whole(value) -> bool:
    """True for a finite number with no fractional part (JSON true is not 1)."""
    if isinstance(value, bool):
        return False
    try:
        return int(value) == value
    except (OverflowError, ValueError, TypeError):  # infinite, NaN, not a number
        return False


def _whole(name: str, value) -> int:
    """``value`` as an int, never silently truncated (JSON true is not 1)."""
    if not _is_whole(value):
        raise InvalidParams(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _number(name: str, value) -> float:
    """``value`` as a float; booleans and strings are refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParams(f"{name} must be a number, got {value!r}")
    return float(value)


def _keys(obj, what: str, required: tuple, optional: tuple = (), key: str = "") -> dict:
    """``obj`` if it is a JSON object with every ``required`` key and no key
    outside ``required`` and ``optional``: misspelt or leftover keys fail
    loudly.  Messages name the object ``what`` and its keys ``key`` (by
    default ``what`` too)."""
    if not isinstance(obj, dict):
        raise InvalidParams(f"{what} must be a JSON object")
    key = key or what
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise InvalidParams(f"unknown {key} key(s): {', '.join(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise InvalidParams(f"missing {key} key(s): {', '.join(missing)}")
    return obj


@dataclass(frozen=True)
class Params:
    beta: float
    gamma: float
    delta: float
    pi: float
    p: float
    n: int = 1

    def __post_init__(self):
        problems = []
        for name in ("beta", "gamma", "delta"):
            # NaN fails every comparison below, so it must be caught here
            if not math.isfinite(getattr(self, name)):
                problems.append(f"{name} must be finite")
        if self.beta < 0:
            problems.append("beta negative")
        if self.gamma <= 0:
            problems.append("gamma must be positive")
        if self.delta < 0:
            problems.append("delta negative")
        if not 0.0 <= self.pi <= 1.0:
            problems.append("pi out of [0,1]")
        if not 0.0 <= self.p <= 1.0:
            problems.append("p out of [0,1]")
        if not _is_whole(self.n) or self.n < 1:
            problems.append("n must be a positive integer")
        if problems:
            raise InvalidParams("; ".join(problems))
        object.__setattr__(self, "n", int(self.n))  # whole, so 7.0 is stored as 7


class ParamArrays(NamedTuple):
    """The rates and fractions of many parameter points at once, as
    broadcastable NumPy float arrays (``n`` is left out: no closed form reads
    it).  Whoever builds one has validated every point as a :class:`Params`."""

    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    pi: np.ndarray
    p: np.ndarray


def r0(params: Params) -> float:
    """Mean secondary infections of one infective before removal: beta/(gamma+delta)."""
    return params.beta / (params.gamma + params.delta)


def testing_fraction(delta: float, gamma: float) -> float:
    """Fraction of infectious periods ending in diagnosis: delta/(delta+gamma)."""
    if gamma <= 0:
        raise InvalidParams("gamma must be positive")
    return delta / (delta + gamma)


def delta_for_testing_fraction(fraction: float, gamma: float) -> float:
    """Diagnosis rate giving the requested testing fraction (inverse map)."""
    if gamma <= 0:
        raise InvalidParams("gamma must be positive")
    if not 0.0 <= fraction < 1.0:
        raise InvalidParams("testing fraction out of [0,1)")
    return gamma * fraction / (1.0 - fraction)


# Axis names accepted by with_param; "testing_fraction" is a pseudo-parameter
# mapped onto delta while keeping gamma fixed.
AXIS_NAMES = PARAM_KEYS + ("testing_fraction",)


def with_param(params: Params, name: str, value) -> Params:
    """Copy of ``params`` with one coordinate replaced."""
    if name == "testing_fraction":
        return dataclasses.replace(params, delta=delta_for_testing_fraction(value, params.gamma))
    if name not in PARAM_KEYS:
        raise InvalidParams(f"unknown parameter name: {name!r}")
    return dataclasses.replace(params, **{name: value})


def param_grid(fixed: Params, first: tuple[str, Sequence],
               second: tuple[str, Sequence] | None = None) -> ParamArrays:
    """The parameters of every point of a profile over ``first`` or of a
    row-major grid over ``first`` x ``second``, each a (name, values) pair,
    as arrays of shape (len(first),) or (len(first), len(second)).

    Every point is validated, and the first invalid one refused with the same
    error, as ``with_param(with_param(fixed, name1, x1), name2, x2)`` point by
    point in row-major order would.  A point differs from its row only in the
    field that ``name2`` sets, and :func:`with_param` reads the row for that
    field only through gamma (a testing fraction sets delta from it), so the
    second axis is validated once per distinct gamma and shared by every row
    with that gamma.
    """
    name1, values1 = first
    rows, columns = [], {}
    for x1 in values1:
        row = with_param(fixed, name1, x1)
        if second is not None and row.gamma not in columns:
            columns[row.gamma] = [with_param(row, second[0], x2) for x2 in second[1]]
        rows.append(row)
    by_row = [np.array([getattr(row, name) for row in rows], dtype=float)
              for name in ParamArrays._fields]
    if second is None:
        return ParamArrays(*by_row)
    shape = (len(rows), len(second[1]))
    changed = "delta" if second[0] == "testing_fraction" else second[0]
    return ParamArrays(*(
        np.array([[getattr(point, name) for point in columns[row.gamma]] for row in rows],
                 dtype=float)
        if name == changed else np.broadcast_to(values[:, None], shape)
        for name, values in zip(ParamArrays._fields, by_row)
    ))


def params_from_dict(obj: dict, base: Params | None = None) -> Params:
    """Build Params from a JSON-style mapping.

    Allowed keys are exactly ``beta, gamma, delta, pi, p, n``; anything else
    is rejected so misspelt sweep configs fail loudly.  With ``base`` given,
    missing keys fall back to the base values; otherwise the five rates and
    fractions are required and ``n`` defaults to 1.  Every value must be a
    JSON number: ``true`` and ``"0.5"`` are refused, not converted.
    """
    _keys(obj, "parameters", () if base else _RATE_KEYS, PARAM_KEYS, key="parameter")
    if base is None:
        return Params(**{k: _number(k, obj[k]) for k in _RATE_KEYS}, n=obj.get("n", 1))
    merged = dataclasses.asdict(base)
    merged.update(obj)
    return params_from_dict(merged)
