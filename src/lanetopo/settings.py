"""Declared value rules for the configuration dataclasses.

Each config field declares its rule next to it, and :class:`Settings`
enforces every rule at construction::

    @dataclass
    class TtaConfig(Settings):
        merge_iou: float = setting(0.6, float, "(0, 1]")

A rule gives the field's kind (an integer, or a finite real that may also
be an int), its interval, whether None is allowed, and whether the field
is a non-decreasing tuple of such values instead of a scalar. Bools and
non-numbers are always rejected, and the ValueError names ``Class.field``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import field, fields


class Rule:
    """One field's kind and interval, e.g. ``Rule(int, "[1, inf)")``."""

    def __init__(self, kind: type, interval: str, optional: bool = False, items=None):
        self.kind, self.interval, self.optional = kind, interval, optional
        self.items = items  # None: a scalar; n: a sorted n-tuple; ...: a sorted non-empty tuple
        lo, hi = interval[1:-1].split(",")
        self.lo, self.hi = float(lo), float(hi)  # a bound that is no number fails when the class is defined
        self.open_lo, self.open_hi = interval[0] == "(", interval[-1] == ")"

    def _holds(self, v) -> bool:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral if self.kind is int else numbers.Real):
            return False
        if not isinstance(v, numbers.Integral) and not math.isfinite(v):
            return False
        return (self.lo < v if self.open_lo else self.lo <= v) and (v < self.hi if self.open_hi else v <= self.hi)

    def holds(self, value) -> bool:
        if self.items is None:
            return (self.optional and value is None) or self._holds(value)
        if not isinstance(value, (tuple, list)) or not value or self.items not in (..., len(value)):
            return False
        return all(self._holds(v) for v in value) and all(a <= b for a, b in zip(value, value[1:]))

    def __str__(self) -> str:
        what = "an integer" if self.kind is int else "a finite number"
        if self.items is not None:
            what = ("a sorted pair of " if self.items == 2 else "a non-empty sorted tuple of ") + (
                "integers" if self.kind is int else "finite numbers"
            )
        return f"{'None or ' if self.optional else ''}{what} in {self.interval}"


def setting(default, kind: type, interval: str, *, optional: bool = False, items=None):
    """A dataclass field with ``default`` whose values must satisfy the declared rule."""
    return field(default=default, metadata={"rule": Rule(kind, interval, optional, items)})


class Settings:
    """Mixin for config dataclasses: checks every field against its rule on
    construction (in declaration order) and stores tuple fields as tuples."""

    def __post_init__(self):
        for f in fields(self):
            rule, value = f.metadata["rule"], getattr(self, f.name)
            if not rule.holds(value):
                raise ValueError(f"{type(self).__name__}.{f.name} must be {rule}, got {value!r}")
            if rule.items is not None:
                setattr(self, f.name, tuple(value))
