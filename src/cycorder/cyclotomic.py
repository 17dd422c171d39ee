"""Cyclotomic polynomials by two independent routes, their exact values,
and the exact inequality predicates used by the comparison fast paths.

The primary route, `cyclo`, is the divisor recursion: t^n - 1 factors as
the product of the cyclotomic polynomials of the divisors of n, so the
polynomial for n is t^n - 1 divided exactly by the entries for the proper
divisors.  Two classical index reductions keep the dense division work on
odd squarefree indices only:

  * if r = radical(n) < n, the polynomial for n is the one for r with
    t replaced by t^(n/r);
  * for odd squarefree m > 1, the polynomial for 2m is the one for m with
    t replaced by -t.

The first comparison that reads an entry stores beside it the entry's
value at 2^8, packed into one integer, and its height: all that
`comparator.compare` reads of it.

The oracle route, `cyclo_moebius`, inverts the product identity by the
Moebius function over divisor binomials t^(n/d) - 1 and never touches a
cache, so the two routes share no construction logic and cross-check each
other (the test suite asserts coefficientwise equality).

Values, `eval_cyclo`, come from the same product identity applied to
integers: Phi_n(q) is a quotient of products of q^e - 1 (or q^e + 1 for
even n), with no coefficient read.

A CycloCache is confined to one worker: entries are value-deterministic,
so per-worker caches give results identical to any shared arrangement
without coordination.
"""

from __future__ import annotations

from itertools import repeat
from math import prod

from .arith import divisors, factorize, moebius, radical, totient
from .intpoly import IntPoly, _div_exact_lists, _mul_lists

PACK_WIDTH = 8  # bits per coefficient of the packed values the cache keeps


def pair_width(height: int) -> int:
    """Smallest multiple of 8 bits w with 4 * height < 2^w.

    A difference of two entries whose heights sum to `height` reads
    exactly off values packed at this width (see `comparator`).
    """
    return max(PACK_WIDTH, -(-(4 * height).bit_length() // 8) * 8)


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


class CycloCache:
    """Map from index n to the computed polynomial for n, plus its packed
    value and height once compared, and an evaluation memo keyed (n, q).

    Every stored entry has degree exactly totient(n); the entry for n = 1
    is t - 1.  `packed[n]` is (value at 2^PACK_WIDTH, height), the height
    being the largest absolute coefficient; the value is None when the
    height alone is too large for any pair to be read at PACK_WIDTH.
    Intended to be owned by a single worker.
    """

    __slots__ = ("polys", "packed", "evals")

    def __init__(self) -> None:
        self.polys: dict[int, IntPoly] = {}
        self.packed: dict[int, tuple[int | None, int]] = {}
        self.evals: dict[tuple[int, int], int] = {}

    def __contains__(self, n: int) -> bool:
        return n in self.polys

    def __len__(self) -> int:
        return len(self.polys)

    def packed_entry(self, n: int) -> tuple[int | None, int]:
        """(value at 2^PACK_WIDTH, height) of the stored entry for n.

        Packed on first use and kept, so only entries that are compared
        pay the byte per coefficient.
        """
        entry = self.packed.get(n)
        if entry is None:
            coeffs = self.polys[n].coeffs
            height = max(map(abs, coeffs))
            # a pair read at PACK_WIDTH has both heights within pair_width's bound
            usable = pair_width(height) == PACK_WIDTH
            entry = (packed_value(coeffs, PACK_WIDTH) if usable else None, height)
            self.packed[n] = entry
        return entry

    def trim(self, max_index: int) -> None:
        """Drop entries above max_index to bound worker memory.

        Dropped entries are recomputed on demand; values never change.
        """
        self.polys = {n: p for n, p in self.polys.items() if n <= max_index}
        self.packed = {n: p for n, p in self.packed.items() if n <= max_index}
        self.evals = {k: v for k, v in self.evals.items() if k[0] <= max_index}


def _cyclo_coeffs(n: int, cache: CycloCache) -> tuple[int, ...]:
    poly = cache.polys.get(n)
    if poly is not None:
        return poly.coeffs

    if n == 1:
        coeffs: tuple[int, ...] = (-1, 1)
    elif n == 2:
        coeffs = (1, 1)
    else:
        r = radical(n)
        if r != n:
            # substitute t -> t^(n/r) into the entry for the radical
            base = _cyclo_coeffs(r, cache)
            k = n // r
            spread = [0] * ((len(base) - 1) * k + 1)
            for i, c in enumerate(base):
                spread[i * k] = c
            coeffs = tuple(spread)
        elif n % 2 == 0:
            # n = 2m with m odd squarefree > 1: substitute t -> -t
            base = _cyclo_coeffs(n // 2, cache)
            coeffs = tuple(-c if i % 2 else c for i, c in enumerate(base))
        else:
            # odd squarefree: divide t^n - 1 by every proper-divisor entry
            rem = [-1] + [0] * (n - 1) + [1]
            proper = divisors(n)[:-1]
            proper.sort(key=totient)
            for d in proper:
                rem = _div_exact_lists(rem, list(_cyclo_coeffs(d, cache)))
            coeffs = tuple(rem)

    if len(coeffs) - 1 != totient(n):
        raise ArithmeticError(
            f"internal: cyclotomic index {n} produced degree {len(coeffs) - 1}, "
            f"expected totient {totient(n)}"
        )
    cache.polys[n] = IntPoly(coeffs)
    return coeffs


def cyclo(n: int, cache: CycloCache) -> IntPoly:
    """The nth cyclotomic polynomial, computed through the divisor
    recursion and cached.

    The result is monic of degree totient(n).
    """
    if n < 1:
        raise ValueError(f"index must be a positive integer, got {n}")
    _cyclo_coeffs(n, cache)
    return cache.polys[n]


def cyclo_moebius(n: int) -> IntPoly:
    """Independent oracle: the nth cyclotomic polynomial by Moebius
    inversion of the product identity.

    Multiplies the binomials t^(n/d) - 1 over divisors d with mu(d) = 1,
    then divides exactly by those with mu(d) = -1.  Every intermediate
    quotient is a polynomial, so each step stays exact.  Deliberately
    cache-free and structurally unrelated to `cyclo`.
    """
    if n < 1:
        raise ValueError(f"index must be a positive integer, got {n}")
    acc = [1]
    den: list[int] = []
    for d in divisors(n):
        mu = moebius(d)
        if mu == 1:
            k = n // d
            acc = _mul_lists(acc, [-1] + [0] * (k - 1) + [1])
        elif mu == -1:
            den.append(n // d)
    for k in sorted(den):
        acc = _div_exact_lists(acc, [-1] + [0] * (k - 1) + [1])
    return IntPoly(acc)


def eval_cyclo(n: int, q: int, cache: CycloCache) -> int:
    """Exact value of the nth cyclotomic polynomial at the integer q >= 2,
    memoized under (n, q).

    The value comes from the product formula

        Phi_n(q) = prod over d | radical(n) of (q^(n/d) - 1)^mu(d),

    the Moebius inversion of q^n - 1 = prod over d | n of Phi_d(q) (only
    squarefree d have mu(d) != 0, and those divide radical(n)).  For even
    n the squarefree divisors pair up as {d, 2d} with d odd and
    mu(2d) = -mu(d), and each pair's two factors combine into one,
    (q^(n/d) - 1) / (q^(n/(2d)) - 1) = q^(n/(2d)) + 1, so

        Phi_n(q) = prod over odd d | radical(n) of (q^(n/(2d)) + 1)^mu(d),

    half as many factors.  The factors with mu(d) = +1 and with
    mu(d) = -1 are multiplied into two integers and the first is divided
    exactly by the second (q >= 2 keeps every factor nonzero); a remainder
    raises ArithmeticError.  The coefficient tuple is never read.

    The cost is two products of 2^(k-1) big integers each for k distinct
    odd primes, whatever the polynomial's density.  For many primes and
    large q this loses to Horner on the coefficients (n = 4290 at q = 10
    took about 4 times as long); comparisons only evaluate at q <= c, a
    small coefficient bound (at most 10 for indices up to 5000), where it
    wins by 3 to 10 times.
    """
    if q < 2:
        raise ValueError(f"the ordering is only defined over q >= 2, got q={q}")
    key = (n, q)
    memo = cache.evals
    val = memo.get(key)
    if val is None:
        primes = [p for p, _ in factorize(n)]
        if n % 2:
            plus, one = [n], -1
        else:
            plus, one = [n // 2], 1
            primes = primes[1:]
        # exponents n/d (n/(2d)) over the squarefree odd d, split by mu(d)
        minus: list[int] = []
        for p in primes:
            plus, minus = plus + [e // p for e in minus], minus + [e // p for e in plus]
        val, rem = divmod(prod([q**e + one for e in plus]), prod([q**e + one for e in minus]))
        if rem:
            raise ArithmeticError(f"internal: product formula for index {n} at q={q} is not exact")
        memo[key] = val
    return val


def check_value_bounds(n: int, q: int, cache: CycloCache) -> bool:
    """Exact check that the value at q is wedged between c*q^phi(n) and
    q^phi(n)/c with c = 1 - 1/q, for n >= 2.

    Cleared of denominators this reads
        (q-1) * q^(phi(n)-1) < value  and  (q-1) * value < q^(phi(n)+1),
    both strict.  n = 1 is rejected: there the lower bound is attained
    with equality (q - 1 = (1 - 1/q) * q), so it sits outside the strict
    statement checked here.
    """
    if n < 2:
        raise ValueError(f"bounds are strict only for n >= 2, got n={n}")
    if q < 2:
        raise ValueError(f"need q >= 2, got q={q}")
    phi = totient(n)
    value = eval_cyclo(n, q, cache)
    return (q - 1) * q ** (phi - 1) < value and (q - 1) * value < q ** (phi + 1)


def check_mu_sandwich(m: int, q: int, cache: CycloCache) -> bool:
    """Exact check that q^phi(m) separates the values at m and 2m for odd m.

    Which side each value falls on is decided by the Moebius function of
    the radical of m: +1 puts the value at m below q^phi(m) and the value
    at 2m above; -1 swaps the two.  Both inequalities are strict.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"need odd m >= 1, got m={m}")
    if q < 2:
        raise ValueError(f"need q >= 2, got q={q}")
    mid = q ** totient(m)
    val_m = eval_cyclo(m, q, cache)
    val_2m = eval_cyclo(2 * m, q, cache)
    if moebius(radical(m)) == 1:
        return val_m < mid < val_2m
    return val_2m < mid < val_m
