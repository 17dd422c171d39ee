import random

import pytest

from cycorder.arith import divisors, totient
from cycorder.cyclotomic import (
    CycloCache,
    check_mu_sandwich,
    check_value_bounds,
    cyclo,
    cyclo_moebius,
    eval_cyclo,
)
from cycorder.oracle import _horner


def test_cyclo_small_values(shared_cache):
    assert cyclo(1, shared_cache).coeffs == (-1, 1)
    assert cyclo(2, shared_cache).coeffs == (1, 1)
    assert cyclo(3, shared_cache).coeffs == (1, 1, 1)
    assert cyclo(4, shared_cache).coeffs == (1, 0, 1)
    assert cyclo(6, shared_cache).coeffs == (1, -1, 1)
    assert cyclo(10, shared_cache).coeffs == (1, -1, 1, -1, 1)
    with pytest.raises(ValueError):
        cyclo(0, shared_cache)


def test_cyclo_moebius_small_values():
    assert cyclo_moebius(1).coeffs == (-1, 1)
    assert cyclo_moebius(2).coeffs == (1, 1)
    assert cyclo_moebius(4).coeffs == (1, 0, 1)
    # (t^12-1)(t^2-1) / ((t^6-1)(t^4-1)), reduced by long division
    assert cyclo_moebius(12).coeffs == (1, 0, -1, 0, 1)


def test_eval_cyclo(shared_cache):
    assert eval_cyclo(1, 2, shared_cache) == 1
    assert eval_cyclo(3, 2, shared_cache) == 7
    assert eval_cyclo(6, 2, shared_cache) == 3
    with pytest.raises(ValueError):
        eval_cyclo(5, 1, shared_cache)


def test_eval_cyclo_matches_entry_to_2000(shared_cache):
    """The memoized evaluation (through the radical's entry for
    non-squarefree n) equals direct evaluation of the entry for n."""
    for n in range(1, 2001):
        cyclo(n, shared_cache)
    fresh = CycloCache()
    fresh.polys = dict(shared_cache.polys)  # same entries, empty memo
    for n in range(1, 2001):
        poly = cyclo(n, shared_cache)
        for q in (2, 3, 7):
            assert eval_cyclo(n, q, fresh) == poly.eval_at(q), (n, q)


def test_eval_cyclo_matches_oracle_horner():
    """The product formula against Horner on the Moebius oracle's
    coefficients: every n <= 200, a seeded sample of n <= 3000, and the
    indices with the most factors (2310 and 2730 have five primes; 2*3^7
    is a long, sparse entry), at small q and at q = 256."""
    rng = random.Random(3000)
    indices = list(range(1, 201)) + rng.sample(range(201, 3001), 150) + [2310, 2730, 2 * 3**7]
    cache = CycloCache()
    for n in indices:
        coeffs = cyclo_moebius(n).coeffs
        for q in (2, 3, 7, 256):
            assert eval_cyclo(n, q, cache) == _horner(coeffs, q), (n, q)


def test_cache_reuse_and_trim():
    cache = CycloCache()
    p1 = cyclo(360, cache)
    assert cyclo(360, cache) is p1
    assert 360 in cache
    eval_cyclo(360, 2, cache)
    cache.packed_entry(360)
    cache.trim(100)
    assert 360 not in cache
    assert 360 not in cache.packed and (360, 2) not in cache.evals
    assert cyclo(360, cache) == p1


def test_degree_law_to_2000(shared_cache):
    for n in range(1, 2001):
        assert cyclo(n, shared_cache).degree == totient(n), n


def test_oracle_equivalence_to_1000(shared_cache):
    for n in range(1, 1001):
        assert cyclo(n, shared_cache) == cyclo_moebius(n), n


def test_product_identity(shared_cache):
    for n in range(1, 201):
        for q in (2, 3, 5, 7):
            prod = 1
            for d in divisors(n):
                prod *= eval_cyclo(d, q, shared_cache)
            assert prod == q**n - 1, (n, q)


def test_palindromic_coefficients(shared_cache):
    # classical: from index 2 on, the coefficient sequence is a palindrome
    for n in range(2, 2001):
        cs = cyclo(n, shared_cache).coeffs
        assert cs == cs[::-1], n


def test_value_bounds_examples(shared_cache):
    # (q-1)*q^(phi-1) < value < q^(phi+1)/(q-1), cleared of denominators
    assert eval_cyclo(2, 2, shared_cache) == 3  # 1 < 3 and 3 < 4
    assert check_value_bounds(2, 2, shared_cache)
    assert eval_cyclo(6, 2, shared_cache) == 3  # 2 < 3 and 3 < 8
    assert check_value_bounds(6, 2, shared_cache)
    assert eval_cyclo(10, 3, shared_cache) == 61  # 54 < 61 and 122 < 243
    assert check_value_bounds(10, 3, shared_cache)


def test_value_bounds_reject_bad_inputs(shared_cache):
    with pytest.raises(ValueError):
        check_value_bounds(1, 2, shared_cache)  # equality at index 1, outside the strict claim
    with pytest.raises(ValueError):
        check_value_bounds(5, 1, shared_cache)


def test_value_bounds_sweep(shared_cache):
    for n in range(2, 501):
        for q in (2, 3, 5):
            assert check_value_bounds(n, q, shared_cache), (n, q)


def test_mu_sandwich_examples(shared_cache):
    assert check_mu_sandwich(1, 2, shared_cache)  # 1 < 2 < 3
    assert check_mu_sandwich(3, 2, shared_cache)  # 3 < 4 < 7, swapped sides
    assert eval_cyclo(15, 2, shared_cache) == 151
    assert eval_cyclo(30, 2, shared_cache) == 331
    assert check_mu_sandwich(15, 2, shared_cache)  # 151 < 256 < 331
    with pytest.raises(ValueError):
        check_mu_sandwich(4, 2, shared_cache)


def test_mu_sandwich_sweep(shared_cache):
    for m in range(1, 1000, 2):
        for q in (2, 3):
            assert check_mu_sandwich(m, q, shared_cache), (m, q)
