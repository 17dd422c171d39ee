"""Elementary multiplicative number theory: factorization (also as a
smallest-prime-factor table by sieve), totient (also as a table by
sieve), Moebius, radical, divisors, and inverse totient.

Everything here works on indices (the n of a cyclotomic polynomial), which
stay small (~10^5) at verification scale, so factorization is plain trial
division backed by a precomputed prime sieve.  Coefficients and polynomial
evaluations elsewhere in the package use Python's arbitrary-precision
integers; the machine-word assumption applies to indices only.

All functions are pure, and the prime sieve is an immutable tuple built at
import time.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import compress
from math import isqrt

_SIEVE_LIMIT = 100_000


def _build_sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            start = p * p
            flags[start :: p] = b"\x00" * len(range(start, limit + 1, p))
    return tuple(compress(range(limit + 1), flags))


SMALL_PRIMES: tuple[int, ...] = _build_sieve(_SIEVE_LIMIT)


def _check_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")


def is_prime(n: int) -> bool:
    """Deterministic primality test: sieve lookup up to the sieve's
    limit, above it whether n is its own factorization."""
    if n < 2:
        return False
    if n <= _SIEVE_LIMIT:
        i = bisect_left(SMALL_PRIMES, n)
        return i < len(SMALL_PRIMES) and SMALL_PRIMES[i] == n
    return factorize(n) == [(n, 1)]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as (prime, exponent) pairs, primes ascending.

    factorize(1) is the empty list (empty product).
    """
    _check_positive(n)
    out: list[tuple[int, int]] = []
    rest = n
    for p in SMALL_PRIMES:
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
    # the loop above stops early only with rest < p^2 < d^2, so this runs
    # only past the whole sieve: odd trial division, every smaller prime
    # already divided out
    d = SMALL_PRIMES[-1] + 2
    while d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            out.append((d, e))
        d += 2
    if rest > 1:
        out.append((rest, 1))
    return out


def smallest_prime_factors(limit: int) -> array:
    """array("I") of length limit + 1 whose entry k >= 2 is the least
    prime dividing k (entries 0 and 1 are 0 and 1), by one sieve.

    Each prime p <= sqrt(limit), largest first, writes itself into every
    multiple of p from p^2 on; a composite k is such a multiple of its
    least prime p (k >= p^2), which writes last.  Primes keep k.
    """
    spf = array("I", range(limit + 1))
    for p in reversed(SMALL_PRIMES[: bisect_right(SMALL_PRIMES, isqrt(limit))]):
        spf[p * p :: p] = array("I", [p]) * len(range(p * p, limit + 1, p))
    return spf


def totient(n: int) -> int:
    """Euler's totient via the product formula over the prime factorization."""
    _check_positive(n)
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def totient_table(limit: int) -> list[int]:
    """[0, totient(1), ..., totient(limit)] by one sieve.

    Each prime p, found as an entry its smaller primes left untouched,
    multiplies the entries of its multiples by 1 - 1/p.
    """
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            phi[p::p] = [v - v // p for v in phi[p::p]]
    return phi


def moebius(n: int) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)^(number of primes)."""
    _check_positive(n)
    fac = factorize(n)
    if any(e >= 2 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def radical(n: int) -> int:
    """Product of the distinct primes dividing n (the square-free part); radical(1) = 1."""
    _check_positive(n)
    r = 1
    for p, _ in factorize(n):
        r *= p
    return r


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    _check_positive(n)
    out = [1]
    for p, e in factorize(n):
        pk = 1
        powers = []
        for _ in range(e):
            pk *= p
            powers.append(pk)
        out += [d * q for q in powers for d in out]
    out.sort()
    return out


def inverse_totient(v: int) -> list[int]:
    """The complete set {x : totient(x) = v}, ascending.

    Every solution x = prod p_i^(e_i) (distinct primes) consumes
    p_i^(e_i - 1) * (p_i - 1) from v, so candidate primes are exactly the
    p with (p - 1) dividing v.  The search picks primes in strictly
    descending order, which enumerates each factorization of v into such
    blocks exactly once; completeness is structural, not bound-dependent.
    Returns [] when v is a nontotient (e.g. any odd v > 1).
    """
    _check_positive(v)
    cand = [d + 1 for d in divisors(v) if is_prime(d + 1)]
    out: list[int] = []

    def search(rem: int, limit: int, acc: int) -> None:
        if rem == 1:
            out.append(acc)
            # a factor 2^1 consumes nothing: only p = 2 can still apply below
        for i in range(limit):
            p = cand[i]
            step = p - 1
            if rem % step:
                continue
            r = rem // step
            pe = p
            while True:
                search(r, i, acc * pe)
                if r % p:
                    break
                r //= p
                pe *= p

    search(v, len(cand), 1)
    out.sort()
    return out
