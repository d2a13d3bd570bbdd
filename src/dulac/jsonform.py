"""One JSON codec for every record the package returns: ``to_json`` and
``from_json``.

* A dataclass becomes an object of its fields in declaration order.
* Tuples, lists and ``Point``s become lists; ``complex`` becomes ``[re, im]``.
* ``Fraction`` and ``Poly`` become their exact text, and enums their value.

``from_json`` rebuilds a value from the field annotations.  A class with a
``to_json`` method encodes itself, and one with a ``from_json`` class method
decodes itself.  ``Certificate`` and ``Multiplier`` bring both, for their
forms documented in the README (``"type"`` is the multiplier's own key).
Three bring only ``to_json``, for views with derived keys:
``DulacCertificate`` (the ``certify`` report's result), ``DarbouxExpr``
(also its expression and total cofactor) and ``ResidualReport`` (also
``exact``); ``from_json`` decodes a ``ResidualReport`` from its fields.
"""

from __future__ import annotations

import dataclasses
import typing
from enum import Enum
from fractions import Fraction
from functools import cache

from .parse import parse_constant, parse_poly
from .poly import Poly, exact_numeral

_SCALARS = (str, int, float, type(None))  # bool is an int


def to_json(value):
    """Plain JSON data (dicts, lists, strings, numbers) for ``value``."""
    if isinstance(value, _SCALARS):
        return value
    if hasattr(value, "to_json"):
        return value.to_json()
    if dataclasses.is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (Fraction, Poly)):
        return exact_numeral(value) if type(value) is Fraction else str(value)
    raise TypeError(f"no JSON form for {type(value).__name__}")


@cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def from_json(tp, data):
    """The value of type ``tp`` whose ``to_json`` is ``data``."""
    if tp in _SCALARS or tp is bool:
        return data
    origin = typing.get_origin(tp)
    if origin is tuple:
        args = typing.get_args(tp)
        if args[-1] is Ellipsis:
            return tuple(from_json(args[0], d) for d in data)
        return tuple(from_json(a, d) for a, d in zip(args, data))
    if hasattr(tp, "from_json"):
        return tp.from_json(data)
    if dataclasses.is_dataclass(tp):
        hints = _hints(tp)
        return tp(**{f.name: from_json(hints[f.name], data[f.name])
                     for f in dataclasses.fields(tp)})
    if tp is not tuple and issubclass(tp, tuple):  # a NamedTuple: Point
        return tp(*(from_json(h, d) for h, d in zip(_hints(tp).values(), data)))
    if tp is complex:
        return complex(*data)
    if issubclass(tp, Enum):
        return tp(data)
    if tp is Fraction:
        return parse_constant(data)
    if tp is Poly:
        return parse_poly(data)
    raise TypeError(f"no JSON form for {tp}")
