import os
import random
import subprocess
import sys
from bisect import bisect_left, bisect_right
from itertools import takewhile
from math import gcd, isqrt

import pytest

import cycorder
from cycorder.arith import (
    divisors,
    factorize,
    inverse_totient,
    is_prime,
    moebius,
    primes_to,
    radical,
    totient,
)


def _factorize_by_trial_division(n):
    """factorize's reference: divide by every d >= 2 in turn."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    return out + [(n, 1)] * (n > 1)


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    # 9973 has no divisor up to its square root (trial division, frozen)
    assert factorize(9973) == [(9973, 1)]


def test_factorize_beyond_the_sieve():
    """From sqrt(n) = 65536 on factorize divides by the primes below
    2^17 = 131072, and above 10^10 = (10^5)^2 goes on by odd trial
    division past them: 100003 and 100019, the first two primes above
    10^5, and 99991, the last below it, are sieved; so is 131071, the
    last below 2^17, and 131101 and 131111, the first two past it, are
    found by trial division alone."""
    assert factorize(10002200057) == [(100003, 1), (100019, 1)]
    assert factorize(9999399973) == [(99991, 1), (100003, 1)]
    assert factorize(17183539171) == [(131071, 1), (131101, 1)]
    assert factorize(17188783211) == [(131101, 1), (131111, 1)]
    assert factorize(131101**2) == [(131101, 2)]
    assert is_prime(10000000019) and is_prime(10000000033)
    assert not is_prime(10002200057) and not is_prime(9999399973) and not is_prime(17188783211)
    assert factorize(10000000019) == [(10000000019, 1)]


def test_is_prime_at_the_sieve_limit():
    """Up to 10^5 is_prime looks n up in primes_to(n), the primes below
    the least power of two above n; above 10^5, n is prime when factorize
    returns n alone."""
    assert is_prime(99991)  # the largest prime it looks up
    assert not is_prime(100000)
    assert not is_prime(100001) and factorize(100001) == [(11, 1), (9091, 1)]
    assert is_prime(100003) and is_prime(100019)
    assert not is_prime(100003**2) and factorize(100003**2) == [(100003, 2)]


def test_primes_to_holds_every_prime_up_to_n_and_none_from_2n():
    """primes_to(n) starts the primes, found by trial division, with no
    gap: it holds every prime <= n and none >= 2n, for every n <= 5000
    and on both sides of each power of two up to 2^17."""
    primes = []
    for n in range(2, 1 << 18):
        if all(n % p for p in takewhile(isqrt(n).__ge__, primes)):
            primes.append(n)
    around_powers = [(1 << k) + d for k in range(1, 18) for d in (-1, 0, 1)]
    for n in [*range(5001), *around_powers]:
        got = primes_to(n)
        assert got == tuple(primes[: len(got)]), n
        assert bisect_right(primes, n) <= len(got) <= bisect_left(primes, 2 * n), n


def test_factorize_and_is_prime_match_trial_division():
    """Every n up to 20000, and the cases past 10^5 of the tests above."""
    past = (100001, 100003, 100019, 131071, 131072, 131101, 100003**2, 131101**2)
    large = (9999399973, 9999999967, 10000000019, 10000000033, 10002200057, 17183539171, 17188783211)
    for n in (*range(1, 20001), *past, *large):
        expected = _factorize_by_trial_division(n)
        assert factorize(n) == expected, n
        assert is_prime(n) == (expected == [(n, 1)]), n


def test_importing_the_package_and_its_cli_sieves_no_primes():
    """A fresh interpreter that imports cycorder and cycorder.cli has not
    sieved: the first call for each power of two does."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cycorder.__file__)))
    code = (
        "import cycorder, cycorder.cli\n"
        "from cycorder.arith import _primes_below, primes_to\n"
        "print(_primes_below.cache_info().currsize, end=' ')\n"
        "primes_to(99999)\n"
        "print(_primes_below.cache_info().currsize)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True,
    )
    assert done.stdout == "0 1\n"


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)
    for fn in (totient, moebius, radical, divisors, inverse_totient):
        with pytest.raises(ValueError):
            fn(0)


def test_factorize_reconstructs():
    for n in range(1, 3000):
        prod = 1
        last_p = 0
        for p, e in factorize(n):
            assert p > last_p and e >= 1
            assert is_prime(p)
            last_p = p
            prod *= p**e
        assert prod == n


def test_totient_examples():
    assert totient(1) == 1
    assert totient(10) == 4  # degree of the 10th cyclotomic polynomial
    assert totient(12) == 4  # brute count of gcd(k, 12) = 1 over k = 1..12


def test_moebius_radical_examples():
    assert moebius(1) == 1
    assert moebius(6) == 1
    assert moebius(4) == 0
    assert radical(12) == 6
    assert radical(9) == 3
    assert radical(1) == 1


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(6) == [1, 2, 3, 6]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    for n in (1, 2, 17, 36, 360, 1024):
        ds = divisors(n)
        assert ds == sorted(set(ds))
        assert all(n % d == 0 for d in ds)
        assert ds == [d for d in range(1, n + 1) if n % d == 0]


def test_moebius_radical_match_factorization():
    for n in range(1, 5001):
        fac = factorize(n)
        squarefree = all(e == 1 for _, e in fac)
        assert moebius(n) == (0 if not squarefree else (-1) ** len(fac))
        r = 1
        for p, _ in fac:
            r *= p
        assert radical(n) == r


def test_totient_multiplicative():
    rng = random.Random(421)
    checked = 0
    while checked < 300:
        a = rng.randint(1, 1000)
        b = rng.randint(1, 1000)
        if gcd(a, b) == 1:
            assert totient(a * b) == totient(a) * totient(b)
            checked += 1


def test_inverse_totient_examples():
    assert inverse_totient(1) == [1, 2]
    assert inverse_totient(4) == [5, 8, 10, 12]
    assert inverse_totient(3) == []  # totients are even from 3 on


def _totient_sieve(limit):
    table = list(range(limit + 1))
    for p in range(2, limit + 1):
        if table[p] == p:
            for k in range(p, limit + 1, p):
                table[k] -= table[k] // p
    return table


def test_inverse_totient_complete_to_500():
    v_max = 500
    limit = 2 * v_max * v_max + 10
    table = _totient_sieve(limit)
    preimages = {}
    for x in range(1, limit + 1):
        if table[x] <= v_max:
            preimages.setdefault(table[x], []).append(x)
    for v in range(1, v_max + 1):
        expect = preimages.get(v, [])
        got = inverse_totient(v)
        assert got == expect, v
        # the scan bound really did cover everything
        assert all(x <= 2 * v * v + 10 for x in got)


def test_inverse_totient_round_trip():
    for v in range(1, 501):
        for x in inverse_totient(v):
            assert totient(x) == v
