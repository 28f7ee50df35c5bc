"""The one type check of the dataclasses that JSON configs and checkpoint
metadata are read into, and of the TypedDicts they hold."""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import numbers
import sys
import typing


@functools.cache
def _annotations(cls):
    return tuple(typing.get_type_hints(cls).items())


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
    its annotation; a dict given for a dataclass-typed field is built into
    that dataclass, whose own errors pass through.  Nothing is coerced."""
    for name, kind in _annotations(type(obj)):
        value = getattr(obj, name)
        if isinstance(value, dict) and dataclasses.is_dataclass(kind):
            value = kind(**value)
            setattr(obj, name, value)
        if not _fits(value, kind):
            raise ValueError(f"{type(obj).__name__}.{name} = {value!r} is "
                             f"not of type {getattr(kind, '__name__', kind)}")
