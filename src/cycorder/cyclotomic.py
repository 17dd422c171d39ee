"""Cyclotomic polynomials by two independent routes, plus the exact
inequality predicates used by the comparison fast paths.

The primary route, `cyclo`, is the divisor recursion: t^n - 1 factors as
the product of the cyclotomic polynomials of the divisors of n, so the
polynomial for n is t^n - 1 divided exactly by the entries for the proper
divisors.  Two classical index reductions keep the dense division work on
odd squarefree indices only:

  * if r = radical(n) < n, the polynomial for n is the one for r with
    t replaced by t^(n/r);
  * for odd squarefree m > 1, the polynomial for 2m is the one for m with
    t replaced by -t.

The oracle route, `cyclo_moebius`, inverts the product identity by the
Moebius function over divisor binomials t^(n/d) - 1 and never touches a
cache, so the two routes share no construction logic and cross-check each
other (the test suite asserts coefficientwise equality).

A CycloCache is confined to one worker: entries are value-deterministic,
so per-worker caches give results identical to any shared arrangement
without coordination.
"""

from __future__ import annotations

from .arith import divisors, moebius, radical, totient
from .intpoly import IntPoly, _div_exact_lists, _eval_blocked, _mul_lists


class CycloCache:
    """Map from index n to the computed polynomial for n, plus an
    evaluation memo keyed (n, q).

    Every stored entry has degree exactly totient(n); the entry for n = 1
    is t - 1.  Intended to be owned by a single worker.
    """

    __slots__ = ("polys", "evals")

    def __init__(self) -> None:
        self.polys: dict[int, IntPoly] = {}
        self.evals: dict[tuple[int, int], int] = {}

    def __contains__(self, n: int) -> bool:
        return n in self.polys

    def __len__(self) -> int:
        return len(self.polys)

    def trim(self, max_index: int) -> None:
        """Drop entries above max_index to bound worker memory.

        Dropped entries are recomputed on demand; values never change.
        """
        self.polys = {n: p for n, p in self.polys.items() if n <= max_index}
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

    A non-squarefree n is evaluated through the entry for its radical r:
    the value at q equals the value for r at q^(n/r).  Proof: the entry
    for r at t^(n/r) is monic of degree (n/r) * totient(r) = totient(n)
    and vanishes at every primitive nth root of unity z, because z^(n/r)
    has order n / (n/r) = r; so it is the nth cyclotomic polynomial (the
    substitution `_cyclo_coeffs` builds the entry for n by).  Evaluating
    the short entry skips the zero coefficients of the spread one.
    """
    if q < 2:
        raise ValueError(f"the ordering is only defined over q >= 2, got q={q}")
    key = (n, q)
    memo = cache.evals
    val = memo.get(key)
    if val is None:
        r = radical(n)
        val = _eval_blocked(_cyclo_coeffs(r, cache), q ** (n // r))
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
