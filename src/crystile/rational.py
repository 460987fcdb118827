"""Exact rational scalars.

Everything that touches group logic or set geometry runs on exact
rationals; floats appear only where a square root is unavoidable
(norms, the isometry metric, rendering).  Q is fractions.Fraction; the
hot paths run on Python ints and form a Q only at their edges.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q

ZERO = Q(0)
ONE = Q(1)


def rat(value) -> "Q":
    """Coerce ints, strings like '3' or '-5/7', and rationals to Q; a Q is
    returned as it is."""
    if type(value) is Q:
        return value
    if isinstance(value, float):
        raise TypeError("refusing float -> rational conversion; pass a string or int")
    if isinstance(value, str):
        return Q(value.strip())
    return Q(value)


def rat_str(q) -> str:
    return str(rat_json(Q(q)))


def rat_json(q):
    """JSON form of an int or a Q: plain int when integral, else a 'p/q' string."""
    return _ratio_json(q.numerator, q.denominator)


def _ratio_json(n, d):
    """rat_json of n / d for ints n and d > 0, forming no Q."""
    g = math.gcd(n, d)
    return n // g if g == d else f"{n // g}/{d // g}"


def frac_part(q) -> "Q":
    """q reduced to [0, 1)."""
    q = Q(q)
    return q - q.numerator // q.denominator


def isqrt_ceil_ratio(n, d) -> int:
    """Smallest integer m >= 0 with m*m >= n / d, for ints n >= 0 and d > 0,
    forming no Q."""
    if n < 0:
        raise ValueError("negative argument")
    c = -(-n // d)
    m = math.isqrt(c)
    return m if m * m >= c else m + 1


def sqrt_float(q) -> float:
    q = Q(q)
    if q < 0:
        raise ValueError("negative argument")
    # split to keep precision for large numerators/denominators
    return math.sqrt(q.numerator) / math.sqrt(q.denominator)
