import random

import pytest

from cycorder.arith import inverse_totient, totient
from cycorder.comparator import Verdict, compare
from cycorder.cyclotomic import cyclo_moebius
from cycorder.oracle import (
    brute_compare,
    brute_inverse_totient,
    brute_totient,
    _horner,
)


def test_brute_totient_examples():
    assert brute_totient(1) == 1
    assert brute_totient(12) == 4
    assert brute_totient(30) == 8


def test_brute_totient_agrees_to_5000():
    for n in range(1, 5001):
        assert brute_totient(n) == totient(n), n


def test_brute_compare_examples():
    assert brute_compare(1, 2, 10) == {-1: 0, 0: 0, 1: 9}
    assert brute_compare(9, 9, 10) == {-1: 0, 0: 9, 1: 0}
    assert brute_compare(6, 4, 10) == {-1: 0, 0: 0, 1: 9}


def test_brute_inverse_totient_examples():
    assert brute_inverse_totient(4, 100) == [5, 8, 10, 12]
    assert brute_inverse_totient(1, 100) == [1, 2]
    assert brute_inverse_totient(14, 500) == []  # 14 is a nontotient
    with pytest.raises(ValueError):
        brute_inverse_totient(20, 100)  # scan bound below the completeness guarantee


def test_brute_inverse_totient_agrees_to_300():
    for v in range(1, 301):
        assert brute_inverse_totient(v, 2 * v * v + 10) == inverse_totient(v), v


def test_signs_never_contradict_verdicts(shared_cache):
    """Independent-route evaluation over all pairs m < n <= 200, q <= 60."""
    values = {}
    for n in range(1, 201):
        coeffs = cyclo_moebius(n).coeffs
        values[n] = [_horner(coeffs, q) for q in range(2, 61)]
    for m in range(1, 201):
        vm = values[m]
        for n in range(m + 1, 201):
            verdict, _ = compare(m, n, shared_cache)
            allowed = {0, 1} if verdict is Verdict.LESS else {0, -1}
            for a, b in zip(vm, values[n]):
                d = b - a
                assert (0 if d == 0 else (1 if d > 0 else -1)) in allowed, (m, n)


def test_brute_compare_op_agrees(shared_cache):
    rng = random.Random(60606)
    for _ in range(200):
        m = rng.randint(1, 200)
        n = rng.randint(1, 200)
        signs = brute_compare(m, n, 25)
        verdict, _ = compare(m, n, shared_cache)
        if verdict is Verdict.LESS:
            assert signs[-1] == 0
        elif verdict is Verdict.GREATER:
            assert signs[1] == 0
        elif verdict is Verdict.EQUAL:
            assert signs == {-1: 0, 0: 24, 1: 0}
