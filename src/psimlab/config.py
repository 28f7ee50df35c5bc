"""The one type and range check of the dataclasses that JSON configs and
checkpoint metadata are read into, and of the TypedDicts they hold."""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import numbers
import sys
import typing


class Range(typing.NamedTuple):
    """Bounds declared in an annotation: ``Annotated[float, Range(gt=0)]``."""

    ge: typing.Optional[float] = None
    gt: typing.Optional[float] = None
    le: typing.Optional[float] = None
    lt: typing.Optional[float] = None

    def __contains__(self, x):
        ge, gt, le, lt = self
        return ((ge is None or x >= ge) and (gt is None or x > gt)
                and (le is None or x <= le) and (lt is None or x < lt))


@functools.cache
def _annotations(cls):
    return tuple(typing.get_type_hints(cls, include_extras=True).items())


def _fits(value, kind):
    if kind is int or kind is float:  # neither is a bool; a float is finite
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and (isinstance(value, numbers.Integral) if kind is int
                     else abs(value) <= sys.float_info.max))
    if typing.is_typeddict(kind):  # declared keys only; none is required
        hints = dict(_annotations(kind))
        return isinstance(value, dict) and all(
            key in hints and _fits(item, hints[key])
            for key, item in value.items())
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is typing.Annotated:  # the type, then each declared range
        return _fits(value, args[0]) and all(
            value in arg for arg in args[1:] if isinstance(arg, Range))
    if origin is typing.Literal:  # the type too, since 1 == 1.0 == True
        return any(type(value) is type(arg) and value == arg for arg in args)
    if origin is typing.Union:
        return any(_fits(value, arg) for arg in args)
    if origin is collections.abc.Sequence:
        return isinstance(value, (list, tuple)) and all(
            _fits(item, args[0]) for item in value)
    if origin is tuple:  # fixed length
        return isinstance(value, (list, tuple)) and len(value) == len(
            args) and all(_fits(item, arg) for item, arg in zip(value, args))
    return isinstance(value, kind)


def check_fields(obj):
    """Raise ``ValueError`` unless each field of the dataclass ``obj`` fits
    its annotation, ``Range`` bounds included; a dict given for a
    dataclass-typed field is built into that dataclass, whose own errors
    pass through.  Nothing is coerced."""
    for name, kind in _annotations(type(obj)):
        value = getattr(obj, name)
        if isinstance(value, dict) and dataclasses.is_dataclass(kind):
            value = kind(**value)
            setattr(obj, name, value)
        if not _fits(value, kind):
            declared = {f.name: f.type for f in dataclasses.fields(obj)}
            raise ValueError(f"{type(obj).__name__}.{name} = {value!r} is "
                             f"not of type {declared[name]}")
