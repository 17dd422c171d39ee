"""Exact dense univariate integer polynomials and their fixed-width digit strings.

An IntPoly is an immutable, normalized coefficient sequence: index i holds
the coefficient of t^i, the last entry is nonzero, and the zero polynomial
is the empty sequence.  Its degree is reported as None rather than a
numeric sentinel.

The class carries what tests need to check the comparator against a
polynomial reference: subtraction, exact evaluation, the split into
positive and negative parts, the largest absolute coefficient and the
palindrome test.  Construction builds coefficient lists by its own
linear passes and comparison reads packed values, so neither does
polynomial arithmetic here.  `digit_string` writes a coefficient
sequence as fixed-width digits, the form in which the cache keeps
kernels, and `packed_value` reads it as one big integer.

IntPoly values are immutable after construction and all operations are
pure.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable


def digit_string(coeffs, width: int) -> bytes:
    """The coefficients as unsigned little-endian digits of `width` bits,
    each shifted by 2^(width-1), for |coefficients| < 2^(width-1).

    C-level conversions, no Python loop at width 8.  Width must be a
    multiple of 8; a coefficient that does not fit raises (ValueError from
    `bytes`, OverflowError from `int.to_bytes`).
    """
    nbytes = width // 8
    digits = map((1 << (width - 1)).__add__, coeffs)
    if nbytes == 1:
        return bytes(digits)
    return b"".join(map(int.to_bytes, digits, repeat(nbytes), repeat("little")))


def packed_value(coeffs, width: int) -> int:
    """The polynomial's value at 2^width, for |coefficients| < 2^(width-1).

    The digit string is read as one integer and the shift is taken back
    off as a second integer.
    """
    shift = (1 << (width - 1)).to_bytes(width // 8, "little")
    return int.from_bytes(digit_string(coeffs, width), "little") - int.from_bytes(
        shift * len(coeffs), "little"
    )


# ---------------------------------------------------------------------------
# public value type
# ---------------------------------------------------------------------------


class IntPoly:
    """Immutable dense integer polynomial, constant term first."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        n = len(cs)
        while n and cs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", tuple(cs[:n]))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "IntPoly(0)"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
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
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def split_pos_neg(self) -> tuple["IntPoly", "IntPoly"]:
        """Split into (a, b) with a - b = self, both with positive coefficients only.

        a keeps the positive coefficients, b the negated negative ones, so
        their supports are disjoint.
        """
        pos = [c if c > 0 else 0 for c in self.coeffs]
        neg = [-c if c < 0 else 0 for c in self.coeffs]
        return IntPoly(pos), IntPoly(neg)

    def max_abs_coeff(self) -> int:
        """Largest absolute coefficient value; 0 for the zero polynomial."""
        return max(map(abs, self.coeffs), default=0)

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

