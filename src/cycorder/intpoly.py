"""Exact dense univariate polynomial arithmetic over the integers.

An IntPoly is an immutable, normalized coefficient sequence: index i holds
the coefficient of t^i, the last entry is nonzero, and the zero polynomial
is the empty sequence.  Its degree is reported as None rather than a
numeric sentinel.

Multiplication and exact division carry two implementations each: a
schoolbook baseline, and a fast path (coefficient packing into Python
big integers for multiplication, Newton series inversion for division)
used above a size cutoff.  The fast paths are exercised against the
baseline by the test suite, and every fast division re-checks
quotient * divisor == dividend before returning, so a non-exact division
is always reported regardless of path.

IntPoly values are immutable after construction and all operations are
pure; instances can be shared freely between workers.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable


class ExactDivisionError(ArithmeticError):
    """Raised when a supposedly exact polynomial division leaves a remainder."""


_KRONECKER_CUTOFF = 40  # min operand length before packing pays off
_NEWTON_CUTOFF = 48  # min quotient length before series inversion pays off
_SPARSE_NNZ = 4  # operands at most this dense take the term-by-term path


def _normalize(coeffs: list[int]) -> list[int]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    del coeffs[n:]
    return coeffs


# ---------------------------------------------------------------------------
# list-level kernels (hot paths work on raw lists; IntPoly wraps them)
# ---------------------------------------------------------------------------


def _mul_school(a: list[int], b: list[int]) -> list[int]:
    """Schoolbook product, outer loop over a; zero terms of a cost nothing."""
    if not a or not b:
        return []
    lb = len(b)
    res = [0] * (len(a) + lb - 1)
    for i, c in enumerate(a):
        if c:
            if c == 1:
                res[i : i + lb] = [r + x for r, x in zip(res[i : i + lb], b)]
            elif c == -1:
                res[i : i + lb] = [r - x for r, x in zip(res[i : i + lb], b)]
            else:
                res[i : i + lb] = [r + c * x for r, x in zip(res[i : i + lb], b)]
    return res


def packed_value(coeffs, width: int) -> int:
    """The polynomial's value at 2^width, for |coefficients| < 2^(width-1).

    Each coefficient is shifted by 2^(width-1) into one unsigned digit, the
    digit string is read as one integer, and the shift is taken back off
    as a second integer: C-level conversions, no Python loop at width 8.
    Width must be a multiple of 8; a coefficient that does not fit raises
    (ValueError from `bytes`, OverflowError from `int.to_bytes`).
    """
    nbytes = width // 8
    shift = 1 << (width - 1)
    digits = map(shift.__add__, coeffs)
    if nbytes == 1:
        raw = bytes(digits)
    else:
        raw = b"".join(map(int.to_bytes, digits, repeat(nbytes), repeat("little")))
    return int.from_bytes(raw, "little") - int.from_bytes(
        shift.to_bytes(nbytes, "little") * len(coeffs), "little"
    )


def _mul_packed(a: list[int], b: list[int]) -> list[int]:
    """Product via packed big-integer multiplication (Kronecker substitution).

    Digit width is chosen from the operands' actual coefficient bounds, so
    every product coefficient fits one signed digit and unpacking is exact.
    """
    la, lb = len(a), len(b)
    bound = max(map(abs, a)) * max(map(abs, b)) * min(la, lb)
    width = 8 * ((bound.bit_length() + 9) // 8)
    wb = width // 8
    v = packed_value(a, width) * packed_value(b, width)
    n_out = la + lb - 1
    half = 1 << (width - 1)
    # shift every digit by half so the packed value is nonnegative and
    # digits can be sliced back out without borrows
    offset = (half * ((1 << (width * n_out)) - 1)) // ((1 << width) - 1)
    raw = (v + offset).to_bytes(wb * n_out + 1, "little")
    return [
        int.from_bytes(raw[i * wb : (i + 1) * wb], "little") - half
        for i in range(n_out)
    ]


def _nnz(a: list[int]) -> int:
    return sum(1 for c in a if c)


def _mul_lists(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    na, nb = _nnz(a), _nnz(b)
    if min(na, nb) <= _SPARSE_NNZ:
        # schoolbook with the sparse operand outermost is linear-time here
        out = _mul_school(a, b) if na <= nb else _mul_school(b, a)
        return _normalize(out)
    if len(a) > len(b):
        a, b = b, a
    if len(a) < _KRONECKER_CUTOFF:
        return _normalize(_mul_school(a, b))
    return _normalize(_mul_packed(a, b))


def _div_school(num: list[int], den: list[int]) -> list[int]:
    """Long division; raises ExactDivisionError on any nonzero remainder."""
    dn = len(den)
    lead = den[-1]
    rem = list(num)
    qlen = len(num) - dn + 1
    if qlen <= 0:
        if any(num):
            raise ExactDivisionError("divisor degree exceeds dividend degree")
        return []
    quot = [0] * qlen
    body = den[:-1]
    sparse_body = [(j, c) for j, c in enumerate(body) if c]
    use_sparse = len(sparse_body) <= _SPARSE_NNZ
    for top in range(len(num) - 1, dn - 2, -1):
        c = rem[top]
        if c:
            q, r = divmod(c, lead)
            if r:
                raise ExactDivisionError("leading coefficient does not divide")
            k = top - dn + 1
            quot[k] = q
            rem[top] = 0
            if q:
                if use_sparse:
                    for j, bc in sparse_body:
                        rem[k + j] -= q * bc
                elif q == 1:
                    rem[k:top] = [x - y for x, y in zip(rem[k:top], body)]
                elif q == -1:
                    rem[k:top] = [x + y for x, y in zip(rem[k:top], body)]
                else:
                    rem[k:top] = [x - q * y for x, y in zip(rem[k:top], body)]
    if any(rem):
        raise ExactDivisionError("nonzero remainder")
    return quot


class _InverseGrowth(Exception):
    """Internal: the divisor's inverse series has fast-growing coefficients."""


_INV_GROWTH_LIMIT = 1 << 80


def _series_inverse(d: list[int], length: int) -> list[int]:
    """Inverse of the power series d (with d[0] = +-1) modulo t^length.

    Divisors of t^n - 1 have periodic, small-coefficient inverse series;
    a generic divisor's inverse grows exponentially, in which case this
    bails out so the caller can use long division instead.
    """
    inv = [d[0]]
    k = 1
    while k < length:
        k2 = min(2 * k, length)
        prod = _mul_lists(d[:k2], inv)
        del prod[k2:]
        err = [2 - prod[0]] + [-c for c in prod[1:]]
        inv = _mul_lists(inv, err)
        del inv[k2:]
        if max(map(abs, inv), default=0) > _INV_GROWTH_LIMIT:
            raise _InverseGrowth
        k = k2
    inv += [0] * (length - len(inv))
    return inv


def _div_newton(num: list[int], den: list[int]) -> list[int]:
    """Exact division via reversed-series inversion, verified by remultiplying."""
    qlen = len(num) - len(den) + 1
    rnum = num[::-1]
    del rnum[qlen:]
    rden = den[::-1]
    inv = _series_inverse(rden, qlen)
    rquot = _mul_lists(rnum, inv)
    del rquot[qlen:]
    rquot += [0] * (qlen - len(rquot))  # low-order zeros of the quotient
    quot = rquot[::-1]
    if _mul_lists(quot, den) != _normalize(list(num)):
        raise ExactDivisionError("nonzero remainder")
    return quot


def _div_exact_lists(num: list[int], den: list[int]) -> list[int]:
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if not num:
        return []
    qlen = len(num) - len(den) + 1
    if qlen >= _NEWTON_CUTOFF and den[-1] in (1, -1) and len(den) > _SPARSE_NNZ:
        try:
            return _normalize(_div_newton(num, den))
        except _InverseGrowth:
            pass
    return _normalize(_div_school(num, den))


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

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

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

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(_mul_lists(list(self.coeffs), list(other.coeffs)))

    def div_exact(self, other: "IntPoly") -> "IntPoly":
        """Exact quotient self / other.

        Raises ExactDivisionError if the division leaves a remainder (which
        signals a logic bug in the caller, not bad user input) and
        ZeroDivisionError for a zero divisor.
        """
        return IntPoly(_div_exact_lists(list(self.coeffs), list(other.coeffs)))

    def eval_at(self, x: int) -> int:
        """Exact value of the polynomial at the integer x (Horner scheme)."""
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    __call__ = eval_at

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

