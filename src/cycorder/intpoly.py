"""Exact dense univariate integer polynomials and their values packed at 2^w.

An IntPoly is an immutable, normalized coefficient sequence: index i holds
the coefficient of t^i, the last entry is nonzero, and the zero polynomial
is the empty sequence.  Its degree is reported as None rather than a
numeric sentinel.

The class carries what tests need to check the comparator against a
polynomial reference: subtraction, exact evaluation, the split into
positive and negative parts, the largest absolute coefficient and the
palindrome test.  Construction builds coefficient lists by its own
linear passes and comparison reads packed values, so neither does
polynomial arithmetic here.  `packed_value` reads a coefficient
sequence as one big integer, its value at a power of two, for entries
packed wider than the cache's bytes.

IntPoly values are immutable after construction and all operations are
pure.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Iterable


def packed_value(coeffs, width: int) -> int:
    """The polynomial's value at 2^width, for |coefficients| < 2^(width-1).

    Each coefficient is shifted by 2^(width-1) into an unsigned
    little-endian digit of `width` bits (C-level conversions), the digit
    string is read as one integer, and the shift is taken back off as a
    second integer.  Width must be a multiple of 8; a coefficient that
    does not fit raises OverflowError from `int.to_bytes`.
    """
    nbytes = width // 8
    half = 1 << (width - 1)
    digits = map(half.__add__, coeffs)
    raw = b"".join(map(int.to_bytes, digits, repeat(nbytes), repeat("little")))
    shift = half.to_bytes(nbytes, "little") * len(coeffs)
    return int.from_bytes(raw, "little") - int.from_bytes(shift, "little")


# ---------------------------------------------------------------------------
# public value type
# ---------------------------------------------------------------------------


class IntPoly:
    """Immutable dense integer polynomial, constant term first.

    Coefficients given as an array are kept in a copy of it (`cyclo`
    passes a signed-byte one, one byte per coefficient); any other
    iterable is kept as a tuple.  `coeffs` reads either as a tuple.
    """

    __slots__ = ("_data",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = coeffs if isinstance(coeffs, array) else tuple(coeffs)
        n = len(cs)
        while n and cs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "_data", cs[:n])

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self._data)

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial, or None for the zero polynomial."""
        return len(self._data) - 1 if self._data else None

    def is_zero(self) -> bool:
        return not self._data

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        cs = self._data
        if not cs:
            return "IntPoly(0)"
        terms = []
        for i in range(len(cs) - 1, -1, -1):
            c = cs[i]
            if not c:
                continue
            mag = abs(c)
            body = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
            num = str(mag) if (mag != 1 or i == 0) else ""
            term = f"{num}{'*' if num and body else ''}{body}"
            terms.append(("- " if c < 0 else "+ " if terms else "") + term)
        return f"IntPoly({' '.join(terms)})"

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) >= len(b):
            out = list(a)
            for i, c in enumerate(b):
                out[i] -= c
        else:
            out = [-c for c in b]
            for i, c in enumerate(a):
                out[i] += c
        return IntPoly(out)

    def eval_at(self, x: int) -> int:
        """Exact value of the polynomial at the integer x (Horner scheme)."""
        value = 0
        for c in reversed(self._data):
            value = value * x + c
        return value

    def split_pos_neg(self) -> tuple["IntPoly", "IntPoly"]:
        """Split into (a, b) with a - b = self, both with positive coefficients only.

        a keeps the positive coefficients, b the negated negative ones, so
        their supports are disjoint.
        """
        pos = [c if c > 0 else 0 for c in self._data]
        neg = [-c if c < 0 else 0 for c in self._data]
        return IntPoly(pos), IntPoly(neg)

    def max_abs_coeff(self) -> int:
        """Largest absolute coefficient value; 0 for the zero polynomial."""
        return max(map(abs, self._data), default=0)

    def is_self_reciprocal_up_to_power(self) -> bool:
        """True iff self = t^k * s(t) with s a palindrome (nonzero constant term).

        The zero polynomial counts as self-reciprocal by convention.
        """
        cs = self.coeffs
        if not cs:
            return True
        k = 0
        while cs[k] == 0:
            k += 1
        s = cs[k:]
        return s == s[::-1]

