"""The domain of every numeric input, declared once, and the one check.

A domain is the set of values a numeric input may take. The library's
dataclasses and entry points and the command-line schema tables all name
one of the domains below and check a value against it with :func:`check`,
which raises ``ValueError('<name> must be <domain>, got <value>')``.

One integer rule holds everywhere: a value is an integer when it is a real
number, not a bool, and equal to an integer. So 3, 3.0 and numpy.int64(3)
pass and come back as the int 3, while 3.7, True, '10', inf and nan fail.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Callable, NamedTuple


class Domain(NamedTuple):
    """What a value must be (the message's words), the membership test, and
    text values just outside the domain, for tests of the refusal."""

    text: str
    holds: Callable[[float], bool]
    outside: tuple[str, ...]
    integer: bool = False


FINITE = Domain("finite", math.isfinite, ("inf", "nan"))
POSITIVE = Domain("positive and finite", lambda v: 0 < v < math.inf, ("0", "inf"))
NONNEGATIVE = Domain(
    "nonnegative and finite", lambda v: 0 <= v < math.inf, ("-1", "inf")
)
UNIT = Domain("in (0, 1)", lambda v: 0 < v < 1, ("0", "1"))


@functools.cache
def at_least(k: int) -> Domain:
    """The integers >= k."""
    return Domain(f">= {k}", lambda v: v >= k, (str(k - 1),), integer=True)


def check(name: str, value, domain: Domain):
    """value if it lies in domain, as an int for an integer domain;
    otherwise a ValueError naming name, the domain and the value."""
    kind = type(value)  # a plain float or int skips the slower ABC checks
    if kind is not float and kind is not int and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        what = "an integer" if domain.integer else "a number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if domain.integer:
        if not (kind is int or isinstance(value, numbers.Integral)
                or math.isfinite(value) and value == int(value)):
            raise ValueError(f"{name} must be an integer, got {value}")
        value = int(value)
    if not domain.holds(value):
        raise ValueError(f"{name} must be {domain.text}, got {value}")
    return value


def check_fields(obj, **domains: Domain) -> None:
    """Check the named fields of a frozen dataclass in turn and store each
    checked value back, so that an integer field holds an int."""
    for name, domain in domains.items():
        object.__setattr__(obj, name, check(name, getattr(obj, name), domain))
