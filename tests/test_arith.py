import random
from math import gcd

import pytest

from cycorder.arith import (
    divisors,
    factorize,
    inverse_totient,
    is_prime,
    moebius,
    radical,
    totient,
)


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    # 9973 has no divisor up to its square root (trial division, frozen)
    assert factorize(9973) == [(9973, 1)]


def test_factorize_beyond_the_sieve():
    """Past the sieve's primes (all below 10^5) both functions go on by odd
    trial division: 100003 and 100019 are the first two primes above it, and
    9999399973 is the product that the sieve's largest prime, 99991,
    leaves at 100003."""
    assert factorize(10002200057) == [(100003, 1), (100019, 1)]
    assert factorize(9999399973) == [(99991, 1), (100003, 1)]
    assert is_prime(10000000019) and is_prime(10000000033)
    assert not is_prime(10002200057) and not is_prime(9999399973)
    assert factorize(10000000019) == [(10000000019, 1)]


def test_is_prime_at_the_sieve_limit():
    """Up to the sieve's limit (10^5) is_prime looks the sieve up; above
    it, n is prime when factorize returns n alone."""
    assert is_prime(99991)  # the sieve's largest prime
    assert not is_prime(100000)
    assert not is_prime(100001) and factorize(100001) == [(11, 1), (9091, 1)]
    assert is_prime(100003) and is_prime(100019)
    assert not is_prime(100003**2) and factorize(100003**2) == [(100003, 2)]


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
